"""Seeded input generation for every benchmark workload.

Everything here is stdlib-only and a pure function of ``(workload,
seed)``: ``random.Random`` seeded with a string hashes it with SHA-512,
so the same seed gives the same inputs on every run and every host.
The program under test only ever sees what these functions return,
written to files in the run's work directory.
"""

from __future__ import annotations

import itertools
import random

#: Activity-feature draw ranges.  Both lie inside what the reduced
#: training campaign covers (fp_active 0..0.92, dram_active 0.007..0.90).
FP_RANGE = (0.02, 0.90)
DRAM_RANGE = (0.02, 0.85)
#: Measured execution time at f_max, seconds.
TIME_RANGE = (0.25, 5.0)
#: Measured power at f_max, watts (reporting-only in the service).
POWER_RANGE = (100.0, 400.0)

#: serve-distinct: requests per round, every one a new profile.
DISTINCT_REQUESTS = 2048
#: serve-repeat: requests per round drawn from a Zipf-skewed pool that
#: sits well inside the service's 1024-entry curve cache.
REPEAT_REQUESTS = 16384
REPEAT_POOL = 512
#: batcher-poisson: open-loop Poisson arrivals at one fixed rate; a
#: share of requests are brand-new profiles so the LRU fills and evicts.
BATCHER_RATE_PER_S = 2000.0
BATCHER_ROUND_S = 2.0
BATCHER_POOL = 512
BATCHER_NEW_SHARE = 0.2
#: Zipf exponent of both skewed pools (rank k drawn with weight 1/k^s).
ZIPF_S = 1.1
#: fleet-capped: the named scenario with its 900 s arrival window scaled
#: to 225 s (about 450 jobs, one campaign per round).
FLEET_SCENARIO = "capped"
FLEET_DURATION_FACTOR = 0.25


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _profile(rng: random.Random) -> dict:
    return {
        "fp_active": rng.uniform(*FP_RANGE),
        "dram_active": rng.uniform(*DRAM_RANGE),
        "time_at_max_s": rng.uniform(*TIME_RANGE),
        "power_at_max_w": rng.uniform(*POWER_RANGE),
    }


def _zipf_cum_weights(n: int) -> list[float]:
    return list(itertools.accumulate(1.0 / (k + 1) ** ZIPF_S for k in range(n)))


def profile_key(request: dict) -> tuple:
    """What makes two requests the same profile (everything but the name)."""
    return (
        request["fp_active"],
        request["dram_active"],
        request["time_at_max_s"],
        request["power_at_max_w"],
    )


def serve_requests(workload: str, seed: int) -> list[dict]:
    """One round of ``repro serve`` request objects, in input order."""
    rng = _rng(workload, seed)
    if workload == "serve-distinct":
        profiles = [_profile(rng) for _ in range(DISTINCT_REQUESTS)]
    elif workload == "serve-repeat":
        pool = [_profile(rng) for _ in range(REPEAT_POOL)]
        profiles = rng.choices(pool, cum_weights=_zipf_cum_weights(REPEAT_POOL), k=REPEAT_REQUESTS)
    else:
        raise ValueError(f"not a serve workload: {workload!r}")
    return [{"name": f"r{i}", **p} for i, p in enumerate(profiles)]


def fleet_campaign_seed(seed: int, round_index: int) -> int:
    """Campaign seed of one fleet round: every round is a new campaign."""
    return seed * 1000 + round_index


def batcher_schedule(seed: int) -> list[dict]:
    """One round of open-loop arrivals: request objects with ``due_s``.

    ``due_s`` is the arrival's offset from the round start; gaps are
    exponential at :data:`BATCHER_RATE_PER_S`.
    """
    rng = _rng("batcher-poisson", seed)
    pool = [_profile(rng) for _ in range(BATCHER_POOL)]
    cum = _zipf_cum_weights(BATCHER_POOL)
    schedule = []
    t = 0.0
    i = 0
    while True:
        t += rng.expovariate(BATCHER_RATE_PER_S)
        if t >= BATCHER_ROUND_S:
            return schedule
        if rng.random() < BATCHER_NEW_SHARE:
            profile = _profile(rng)
        else:
            profile = rng.choices(pool, cum_weights=cum)[0]
        schedule.append({"name": f"b{i}", "due_s": t, **profile})
        i += 1
