"""Each output check passes on a correct result and fails on a corrupted one.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import inputs  # noqa: E402

FREQS = np.array([510.0, 900.0, 1410.0])


def _curves(scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Power/time curves with an interior EDP optimum."""
    power = np.array([100.0, 180.0, 400.0]) * scale
    time = np.array([2.0, 1.3, 1.0]) * scale
    return power, time


@pytest.fixture
def served():
    """Two requests of one profile plus one of another, answered correctly."""
    requests = inputs.serve_requests("serve-repeat", 3)[:3]
    requests[2] = {**requests[0], "name": requests[2]["name"]}
    expected = {}
    for i, request in enumerate(requests):
        expected.setdefault(inputs.profile_key(request), checks.algorithm1(FREQS, *_curves(1.0 + i)))
    responses = [
        {
            "name": r["name"],
            "cached": False,
            "selections": {
                name: {k: v for k, v in sel.items() if k != "energy_j"}
                for name, sel in expected[inputs.profile_key(r)].items()
            },
        }
        for r in requests
    ]
    return requests, responses, expected


def test_algorithm1_minimises_energy_delay_products():
    power, time = _curves(1.0)
    out = checks.algorithm1(FREQS, power, time)
    # E = 200, 234, 400 J; EDP = 400, 304.2, 400; ED2P = 800, 395.46, 400.
    assert out["EDP"]["freq_mhz"] == 900.0
    assert out["ED2P"]["freq_mhz"] == 900.0
    assert out["EDP"]["energy_saving"] == pytest.approx(1 - 234.0 / 400.0)
    assert out["EDP"]["perf_degradation"] == pytest.approx(1 - 1.0 / 1.3)
    assert out["EDP"]["energy_j"] == pytest.approx(234.0)


def test_selections_pass_when_correct(served):
    assert checks.check_selections(*served) == []


def test_selections_fail_on_wrong_clock(served):
    requests, responses, expected = served
    responses[1]["selections"]["ED2P"]["freq_mhz"] = 510.0
    problems = checks.check_selections(requests, responses, expected)
    assert len(problems) == 1 and "ED2P clock 510.0" in problems[0]


def test_selections_fail_on_saving_outside_tolerance(served):
    requests, responses, expected = served
    responses[0]["selections"]["EDP"]["energy_saving"] += 1e-6
    assert any("energy_saving" in p for p in checks.check_selections(requests, responses, expected))


def test_selections_fail_on_dropped_line(served):
    requests, responses, expected = served
    del responses[1]
    problems = checks.check_selections(requests, responses, expected)
    assert "3 requests but 2 responses" in problems[0]
    assert any("is named" in p for p in problems)


def test_selections_fail_on_reordered_lines(served):
    requests, responses, expected = served
    responses[0], responses[1] = responses[1], responses[0]
    assert len(checks.check_selections(requests, responses, expected)) == 2


def test_selections_fail_on_error_or_unresolved(served):
    requests, responses, expected = served
    responses[0] = {"error": "boom"}
    responses[2] = None
    assert len(checks.check_selections(requests, responses, expected)) == 2


def test_curves_computed_counts_distinct_profiles(served):
    requests = served[0]
    assert checks.check_curves_computed(2, requests) == []
    assert checks.check_curves_computed(3, requests) != []


def _record(job_id, node=0, gpu=0, start=0.0, end=1.0, arrival=0.0, clock=1410.0, energy=100.0):
    return SimpleNamespace(
        job_id=job_id, node_id=node, gpu_index=gpu, clock_mhz=clock,
        arrival_s=arrival, start_s=start, end_s=end, energy_j=energy,
    )


@pytest.fixture
def campaign():
    records = [
        _record(0, start=0.0, end=2.0),
        _record(1, start=2.0, end=3.0, arrival=1.0),
        _record(2, gpu=1, start=0.5, end=4.0, arrival=0.5, clock=900.0),
    ]
    usable = {0: frozenset({510.0, 900.0, 1410.0})}
    return records, [0, 1, 2], usable, 300.0


def test_fleet_passes_when_consistent(campaign):
    assert checks.check_fleet(*campaign) == []


def test_fleet_fails_on_overlapping_jobs(campaign):
    records, ids, usable, energy = campaign
    records[1] = _record(1, start=1.5, end=3.0, arrival=1.0)
    problems = checks.check_fleet(records, ids, usable, energy)
    assert problems == ["jobs 0 and 1 overlap on node 0 GPU 0"]


def test_fleet_fails_on_start_before_arrival(campaign):
    records, ids, usable, energy = campaign
    records[1] = _record(1, start=2.0, end=3.0, arrival=2.5)
    assert "before arriving" in checks.check_fleet(records, ids, usable, energy)[0]


def test_fleet_fails_on_missing_and_duplicate_jobs(campaign):
    records, ids, usable, energy = campaign
    duplicated = [*records, copy.copy(records[0])]
    duplicated[-1].gpu_index = 2
    problems = checks.check_fleet(duplicated, ids, usable, energy + 100.0)
    assert problems == ["job 0 completed 2 times"]
    problems = checks.check_fleet(records[:2], ids, usable, 200.0)
    assert problems == ["job 2 never completed"]


def test_fleet_fails_on_clock_outside_dvfs_set(campaign):
    records, ids, usable, energy = campaign
    records[2] = _record(2, gpu=1, start=0.5, end=4.0, arrival=0.5, clock=905.0)
    assert "not a usable clock" in checks.check_fleet(records, ids, usable, energy)[0]


def test_fleet_fails_when_power_series_loses_energy(campaign):
    records, ids, usable, energy = campaign
    assert "integrates to" in checks.check_fleet(records, ids, usable, energy * (1 - 1e-6))[0]
