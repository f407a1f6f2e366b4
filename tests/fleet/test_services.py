"""The fleet's per-node services answer exactly what ``run_online`` would.

Every node service runs the one packed engine, so a job's curves and
selections are bitwise equal to a sequential ``run_online`` on that
node's pipeline.  Two fleets built from the same seed give the service
and the reference identically seeded measurement devices.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.energy import ED2P, EDP
from repro.fleet import build_fleet, get_scenario
from repro.serving import SelectionRequest
from repro.workloads import get_workload

SEED = 2024
#: Distinct applications, so every job misses the node's coarse-keyed
#: cache and the curves come straight out of the engine.
JOBS = ("lammps", "lstm", "resnet50", "dgemm")


@pytest.fixture(scope="module")
def scenario():
    return get_scenario("capped")


def _node_service(scenario, node_id: int):
    _, services = build_fleet(scenario, np.random.SeedSequence(SEED))
    return services[node_id]


@pytest.mark.parametrize("node_id", [0, 6])  # a GA100 and a GV100 node
def test_node_service_matches_sequential_run_online(scenario, node_id):
    service = _node_service(scenario, node_id)
    reference = _node_service(scenario, node_id).pipeline
    for name in JOBS:
        workload = get_workload(name)
        got = service.select_one(
            SelectionRequest.from_workload(workload),
            objectives=(EDP, ED2P),
            threshold=scenario.threshold,
        )
        want = reference.run_online(
            workload, objectives=(EDP, ED2P), threshold=scenario.threshold
        )
        assert not got.from_cache
        assert got.features == want.features
        assert got.power_w.tobytes() == want.power_w.tobytes()
        assert got.time_s.tobytes() == want.time_s.tobytes()
        assert got.energy_j.tobytes() == want.energy_j.tobytes()
        assert set(got.selections) == set(want.selections)
        for obj, sel in want.selections.items():
            mine = got.selections[obj]
            assert mine.scores.tobytes() == sel.scores.tobytes()
            assert dataclasses.replace(mine, scores=None) == dataclasses.replace(sel, scores=None)
