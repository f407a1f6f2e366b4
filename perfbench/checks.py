"""Output checks that recompute the answer instead of copying one.

Every check returns a list of problems (empty means the output is
correct), so a run can report all of them at once and the tests in
``perfbench/tests`` can feed each one a corrupted result.  Nothing here
imports the program: the reference curves are computed by the caller
through ``PowerModel.predict_power`` / ``TimeModel.predict_time`` and
handed in as arrays.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from inputs import profile_key

#: Delay exponent of each objective the service answers (E * T^k).
OBJECTIVES = {"EDP": 1.0, "ED2P": 2.0}
#: Allowed absolute difference of served savings and degradations.
TOLERANCE = 1e-9
#: Problems listed per check before the rest are summarised.
MAX_LISTED = 5


def algorithm1(freqs: np.ndarray, power: np.ndarray, time: np.ndarray) -> dict:
    """Paper Algorithm 1 without a threshold, for each objective.

    The clock minimising ``E * T^k`` over the usable clocks (the last
    one is f_max), with the energy saving and performance degradation
    there relative to f_max.  ``energy_j`` is the predicted energy at the
    chosen clock.
    """
    energy = power * time
    out = {}
    for name, k in OBJECTIVES.items():
        i = int(np.argmin(energy * time**k))
        out[name] = {
            "freq_mhz": float(freqs[i]),
            "energy_saving": float(1.0 - energy[i] / energy[-1]),
            "perf_degradation": float(1.0 - time[-1] / time[i]),
            "energy_j": float(energy[i]),
        }
    return out


def _limit(problems: list[str]) -> list[str]:
    if len(problems) <= MAX_LISTED:
        return problems
    return problems[:MAX_LISTED] + [f"... and {len(problems) - MAX_LISTED} more"]


def check_selections(requests: list[dict], responses: list, expected: dict) -> list[str]:
    """Responses in request order, names matching, clocks as recomputed.

    ``responses`` holds one parsed response object (or None for a
    request that got no answer) per request; ``expected`` maps each
    request's profile key to :func:`algorithm1`'s output for it.
    """
    problems = []
    if len(responses) != len(requests):
        problems.append(f"{len(requests)} requests but {len(responses)} responses")
    for i, (request, response) in enumerate(zip(requests, responses)):
        if response is None or "error" in response:
            problems.append(f"request {i} ({request['name']}) failed: {response}")
            continue
        if response.get("name") != request["name"]:
            problems.append(f"response {i} is named {response.get('name')!r}, expected {request['name']!r}")
            continue
        want = expected[profile_key(request)]
        got = response.get("selections", {})
        for objective in OBJECTIVES:
            if objective not in got:
                problems.append(f"response {i} has no {objective} selection")
                continue
            if got[objective]["freq_mhz"] != want[objective]["freq_mhz"]:
                problems.append(
                    f"response {i} {objective} clock {got[objective]['freq_mhz']} MHz, "
                    f"recomputed {want[objective]['freq_mhz']} MHz"
                )
            for field in ("energy_saving", "perf_degradation"):
                if not abs(got[objective][field] - want[objective][field]) <= TOLERANCE:
                    problems.append(
                        f"response {i} {objective} {field} {got[objective][field]!r}, "
                        f"recomputed {want[objective][field]!r}"
                    )
    return _limit(problems)


def check_curves_computed(reported: int, requests: list[dict]) -> list[str]:
    """One DNN curve per distinct (fp_active, dram_active) profile."""
    distinct = len({(r["fp_active"], r["dram_active"]) for r in requests})
    if reported != distinct:
        return [f"service computed {reported} curves for {distinct} distinct profiles"]
    return []


def check_fleet(
    records: list,
    job_ids: list[int],
    usable_mhz_of_node: dict[int, frozenset],
    series_energy_j: float,
) -> list[str]:
    """Scheduling invariants of one fleet campaign.

    Every submitted job completes exactly once and never before it
    arrives, no two jobs overlap on one GPU, every clock is a usable
    DVFS state of the node's GPU, and the facility power series
    integrates to the summed job energy.
    """
    problems = []
    done = Counter(r.job_id for r in records)
    submitted = set(job_ids)
    for job_id, count in sorted(done.items()):
        if count > 1:
            problems.append(f"job {job_id} completed {count} times")
        if job_id not in submitted:
            problems.append(f"job {job_id} completed but was never submitted")
    for job_id in sorted(submitted - set(done)):
        problems.append(f"job {job_id} never completed")
    by_gpu = defaultdict(list)
    for r in records:
        if r.start_s < r.arrival_s:
            problems.append(f"job {r.job_id} started at {r.start_s} before arriving at {r.arrival_s}")
        if r.clock_mhz not in usable_mhz_of_node[r.node_id]:
            problems.append(f"job {r.job_id} ran at {r.clock_mhz} MHz, not a usable clock of node {r.node_id}")
        by_gpu[(r.node_id, r.gpu_index)].append(r)
    for (node, gpu), runs in sorted(by_gpu.items()):
        runs.sort(key=lambda r: (r.start_s, r.end_s))
        for prev, cur in zip(runs, runs[1:]):
            if cur.start_s < prev.end_s:
                problems.append(
                    f"jobs {prev.job_id} and {cur.job_id} overlap on node {node} GPU {gpu}"
                )
    energy_j = sum(r.energy_j for r in records)
    if not abs(series_energy_j - energy_j) <= 1e-9 * max(1.0, abs(energy_j)):
        problems.append(f"power series integrates to {series_energy_j} J, jobs used {energy_j} J")
    return _limit(problems)
