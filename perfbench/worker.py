"""One workload, measured in a fresh process.

``run.py`` starts this script once per benchmark run, with the
``time.monotonic()`` reading taken just before the spawn, so
``setup_s`` covers interpreter start, imports, model load, engine
packing and fleet build up to the moment the first request or job can
be served.  The worker then runs one warm-up round and whole measured
rounds (each workload class says what a round is) until ``--seconds``
have passed, checks every output, and writes the result object to
``<work>/result.json``.

With ``--trace 1`` half of the measuring time runs untraced and half
with the program's tracer writing ``<work>/trace.jsonl`` plus the spans
of :mod:`instrument`; the per-layer metrics are read back from that file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import checks
import hostspeed
import inputs
import instrument

#: Adds to a perf_counter() reading to give the time.monotonic() one.
_TO_MONOTONIC = time.monotonic() - time.perf_counter()


@dataclass
class Round:
    """What one round of a workload did and how long it took."""

    wall_s: float
    #: Operations attempted (requests or jobs) and how many failed.
    ops: int
    failed: int
    #: Per-operation latency, seconds.
    latencies_s: list[float]
    #: Requests answered (= ops, except fleet: one per decision).
    requests: int
    #: Jobs completed (= answered requests, except fleet).
    jobs: int
    #: Host slowdown around the round (see hostspeed); set by _run_rounds.
    slowdown: float = 1.0
    #: Open loop only: submission time of each request name, and how
    #: late each submission ran behind its due time.
    submitted: dict[str, float] | None = None
    late_s: list[float] | None = None


def _profile_models(models_dir: Path):
    """The trained pair and the GA100 clock grid the service predicts on."""
    from repro.core.models import PowerModel, TimeModel
    from repro.gpusim.arch import get_architecture
    from repro.gpusim.dvfs import DVFSConfigSpace

    arch = get_architecture("GA100")
    power = PowerModel(reference_power_w=arch.tdp_watts)
    power.load(models_dir / "power.npz")
    time_model = TimeModel()
    time_model.load(models_dir / "time.npz")
    freqs = DVFSConfigSpace.for_architecture(arch).usable_array()
    return power, time_model, freqs, arch.tdp_watts


def _reference(models_dir: Path, requests: list[dict]) -> dict:
    """Algorithm 1 on reference-path curves, once per distinct profile."""
    from repro.core.dataset import FeatureVector

    power, time_model, freqs, tdp = _profile_models(models_dir)
    expected = {}
    for request in requests:
        key = inputs.profile_key(request)
        if key in expected:
            continue
        features = FeatureVector(request["fp_active"], request["dram_active"], 0.0)
        p = power.predict_power(features, freqs, target_power_scale_w=tdp)
        t = time_model.predict_time(features, freqs, time_at_max_s=request["time_at_max_s"])
        expected[key] = checks.algorithm1(freqs, p, t)
    return expected


def _energy_mj(expected: dict) -> float:
    """Predicted energy of 1000 jobs at their EDP clocks, MJ.

    The mean over the distinct profiles, each counted once, so the heavy
    head of a skewed pool does not swing it from seed to seed.
    """
    return statistics.fmean(sel["EDP"]["energy_j"] for sel in expected.values()) * 1000 / 1e6


def _response_dict(response) -> dict:
    """A ServiceResponse in the shape ``repro serve`` prints."""
    return {
        "name": response.name,
        "selections": {
            name: {
                "freq_mhz": sel.freq_mhz,
                "energy_saving": sel.energy_saving,
                "perf_degradation": sel.perf_degradation,
            }
            for name, sel in response.selections.items()
        },
    }


class _StampedLines:
    """Line iterator over the request file that stamps every line read."""

    def __init__(self, stream, stamps: list[float]) -> None:
        self._stream = stream
        self._stamps = stamps

    def __iter__(self):
        return self

    def __next__(self) -> str:
        line = next(self._stream)
        self._stamps.append(time.perf_counter())
        return line


class _StampedSink:
    """Response file that stamps every completed output line."""

    def __init__(self, stream, stamps: list[float]) -> None:
        self._stream = stream
        self._stamps = stamps

    def write(self, text: str) -> int:
        written = self._stream.write(text)
        if text.endswith("\n"):
            self._stamps.append(time.perf_counter())
        return written

    def flush(self) -> None:
        self._stream.flush()


class ServeWorkload:
    """``repro serve`` over a JSONL request file, one CLI call per round."""

    #: Closed loop: the rate is set by how fast the program works.
    open_loop = False

    def __init__(self, args) -> None:
        from repro import cli

        self._main = cli.main
        self.work = Path(args.work)
        self.ready: float | None = None
        self.setup_excluded_s = 0.0
        self._digests: list[str] = []
        self._curves: list[int] = []

    def run_round(self, index: int) -> Round:
        reads: list[float] = []
        writes: list[float] = []
        out_path = self.work / f"responses-{index}.jsonl"
        saved = sys.stdin, sys.stdout, sys.stderr
        with open(self.work / "requests.jsonl", encoding="utf-8") as src, open(
            out_path, "w", encoding="utf-8"
        ) as dst:
            sys.stdin = _StampedLines(src, reads)
            sys.stdout = _StampedSink(dst, writes)
            sys.stderr = io.StringIO()
            try:
                self._main(["serve", "--models", str(self.work / "models"), "--input", "-", "--stats"])
            finally:
                stats = sys.stderr.getvalue()
                sys.stdin, sys.stdout, sys.stderr = saved
        if self.ready is None:
            self.ready = reads[0]
        # "... N curves computed" / "served N requests, M invalid" (--stats).
        self._curves.append(int(stats.split(" curves computed")[0].rsplit(" ", 1)[1]))
        invalid = int(stats.split(" invalid")[0].rsplit(" ", 1)[1])
        self._digests.append(hashlib.sha256(out_path.read_bytes()).hexdigest())
        if index > 0:
            out_path.unlink()
        n = len(reads)
        return Round(
            wall_s=writes[-1] - reads[0],
            ops=n,
            failed=invalid,
            latencies_s=[w - r for r, w in zip(reads, writes)],
            requests=n - invalid,
            jobs=n - invalid,
        )

    def check(self) -> tuple[list[str], float]:
        with open(self.work / "requests.jsonl", encoding="utf-8") as f:
            requests = [json.loads(line) for line in f]
        with open(self.work / "responses-0.jsonl", encoding="utf-8") as f:
            responses = [json.loads(line) for line in f]
        expected = _reference(self.work / "models", requests)
        problems = checks.check_selections(requests, responses, expected)
        for index, curves in enumerate(self._curves):
            problems += [f"round {index}: {p}" for p in checks.check_curves_computed(curves, requests)]
        for index, digest in enumerate(self._digests):
            if digest != self._digests[0]:
                problems.append(f"round {index} output differs from round 0")
        return problems, _energy_mj(expected)


class BatcherWorkload:
    """Open-loop Poisson arrivals into ``SelectionService.submit``.

    One service serves every round, so the warm-up round fills its
    curve cache and the measured rounds see the steady state: pool
    profiles hit, new ones miss, and the LRU evicts.
    """

    #: The arrival schedule, not the program, sets the request rate.
    open_loop = True

    def __init__(self, args) -> None:
        from repro.core.dataset import FeatureVector
        from repro.core.pipeline import FrequencySelectionPipeline
        from repro.gpusim import GA100, SimulatedGPU
        from repro.serving import SelectionRequest, SelectionService

        self.work = Path(args.work)
        power, time_model, _, _ = _profile_models(self.work / "models")
        device = SimulatedGPU(GA100, seed=0, max_samples_per_run=16)
        pipeline = FrequencySelectionPipeline(device, power_model=power, time_model=time_model)
        self.service = SelectionService(pipeline)
        self.ready = time.perf_counter()
        self.setup_excluded_s = 0.0
        with open(self.work / "schedule.jsonl", encoding="utf-8") as f:
            self.schedule = [json.loads(line) for line in f]
        self._make = lambda s, index: SelectionRequest.from_features(
            FeatureVector(s["fp_active"], s["dram_active"], 0.0),
            s["time_at_max_s"],
            power_at_max_w=s["power_at_max_w"],
            name=f"{s['name']}@{index}",
        )
        self._expected: dict = {}
        self._problems: list[str] = []

    def run_round(self, index: int) -> Round:
        requests = [self._make(s, index) for s in self.schedule]
        n = len(requests)
        done = [0.0] * n
        submitted = {}
        late_s = []
        futures = []
        start = time.perf_counter() + 0.005
        due = [start + s["due_s"] for s in self.schedule]
        for i, request in enumerate(requests):
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            now = time.perf_counter()
            submitted[request.name] = now
            late_s.append(now - due[i])
            future = self.service.submit(request)
            future.add_done_callback(partial(_mark_done, done, i))
            futures.append(future)
        answers = []
        failed = 0
        for future in futures:
            try:
                answers.append(_response_dict(future.result(timeout=60)))
            except Exception as exc:  # a failed request is counted, not fatal
                answers.append({"error": repr(exc)})
                failed += 1
        if not self._expected:
            self._expected = _reference(self.work / "models", self.schedule)
        named = [{**s, "name": f"{s['name']}@{index}"} for s in self.schedule]
        problems = checks.check_selections(named, answers, self._expected)
        self._problems += [f"round {index}: {p}" for p in problems]
        return Round(
            wall_s=max(done) - due[0],
            ops=n,
            failed=failed,
            latencies_s=[d - t for d, t in zip(done, due)],
            requests=n - failed,
            jobs=n - failed,
            submitted=submitted,
            late_s=late_s,
        )

    def check(self) -> tuple[list[str], float]:
        self.service.close()
        return self._problems, _energy_mj(self._expected)


def _mark_done(done: list[float], i: int, _future) -> None:
    done[i] = time.perf_counter()


class FleetWorkload:
    """The capped fleet scenario, one whole campaign per round."""

    open_loop = False

    def __init__(self, args, patches: instrument.Patches) -> None:
        from repro.fleet import FleetServicePolicy, FleetSimulator, fleet_models, get_scenario

        self._simulator = FleetSimulator
        self.seed = args.seed
        self.scenario = get_scenario(inputs.FLEET_SCENARIO).scaled(
            duration_factor=inputs.FLEET_DURATION_FACTOR
        )
        # The fleet trains its own small model pair per architecture on
        # first use; train it here so setup_s can leave it out.
        t0 = time.perf_counter()
        self.models = [fleet_models(arch) for arch in sorted({g.arch for g in self.scenario.node_groups})]
        self.setup_excluded_s = time.perf_counter() - t0
        self.ready: float | None = None
        self._decide_s: list[float] = []
        patches.wrap(FleetServicePolicy, "decide", self._timed_decide)
        self._problems: list[str] = []
        self._energy_j = 0.0
        self._jobs = 0

    def _timed_decide(self, original):
        def wrapper(policy, job, device):
            t0 = time.perf_counter()
            if self.ready is None:
                self.ready = t0
            decision = original(policy, job, device)
            self._decide_s.append(time.perf_counter() - t0)
            return decision

        return wrapper

    def run_round(self, index: int) -> Round:
        from repro.cluster.metrics import power_series
        from repro.gpusim.arch import get_architecture
        from repro.gpusim.dvfs import DVFSConfigSpace

        first = len(self._decide_s)
        t0 = time.perf_counter()
        result = self._simulator(self.scenario, seed=inputs.fleet_campaign_seed(self.seed, index)).run()
        wall = time.perf_counter() - t0
        # build_fleet numbers nodes 0.. in node-group order.
        usable = {}
        for group in self.scenario.node_groups:
            clocks = frozenset(DVFSConfigSpace.for_architecture(get_architecture(group.arch)).usable_mhz)
            for _ in range(group.count):
                usable[len(usable)] = clocks
        _, series = power_series(result.records, resolution_s=self.scenario.tick_s)
        problems = checks.check_fleet(
            result.records,
            [job.job_id for job in result.jobs],
            usable,
            float(series.sum()) * self.scenario.tick_s,
        )
        self._problems += [f"round {index}: {p}" for p in problems]
        self._energy_j += result.report.total_energy_j
        self._jobs += result.stats.jobs_completed
        submitted = result.stats.jobs_submitted
        completed = result.stats.jobs_completed
        return Round(
            wall_s=wall,
            ops=submitted,
            failed=submitted - completed,
            latencies_s=self._decide_s[first:],
            requests=result.selections_total,
            jobs=completed,
        )

    def check(self) -> tuple[list[str], float]:
        """Problems, and simulated energy per 1000 jobs over every campaign, MJ."""
        return self._problems, self._energy_j / self._jobs * 1000 / 1e6


def _speed(workload, r: Round) -> float:
    """Factor putting a round's timings at reference host speed.

    Closed loops are CPU-bound and scale with the host.  An open loop's
    rate is its schedule and its latency is mostly the batch window and
    queueing, so it is reported as measured (factor 1).
    """
    return 1.0 if workload.open_loop else r.slowdown


def _run_rounds(workload, first_index: int, seconds: float, reference: list[float]) -> list[Round]:
    """Whole rounds until ``seconds`` have passed (at least one).

    ``reference`` holds the reference-kernel times taken so far; each
    round appends one after it and its slowdown is the mean of the
    kernel times on either side.
    """
    rounds = []
    end = time.perf_counter() + seconds
    index = first_index
    while not rounds or time.perf_counter() < end:
        measured = workload.run_round(index)
        reference.append(hostspeed.reference_seconds())
        measured.slowdown = (reference[-2] + reference[-1]) / 2 / hostspeed.REFERENCE_S
        rounds.append(measured)
        index += 1
    return rounds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--reference-s", type=float, required=True, help="reference kernel time just before spawn")
    args = parser.parse_args(argv)

    with instrument.Patches() as patches:
        if args.workload in ("serve-distinct", "serve-repeat"):
            workload = ServeWorkload(args)
        elif args.workload == "batcher-poisson":
            workload = BatcherWorkload(args)
        else:
            workload = FleetWorkload(args, patches)
        warmup = workload.run_round(0)
        setup_s = workload.ready + _TO_MONOTONIC - args.spawned - workload.setup_excluded_s
        reference = [hostspeed.reference_seconds()]
        untraced = _run_rounds(workload, 1, args.seconds / 2 if args.trace else args.seconds, reference)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced: list[Round] = []
        if args.trace:
            traced = _traced_rounds(workload, args, 1 + len(untraced), reference)
        problems, energy_mj = workload.check()

    rounds = [warmup, *untraced, *traced]
    result = {
        "correct": not problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    if args.trace:
        metrics = _layer_metrics(workload, args, untraced, traced)
        result["metrics"] = {
            name: {"value": metrics[name], "unit": unit} for name, unit in instrument.LAYER_UNITS.items()
        }
    else:
        # Rates over the whole measured time at reference speed; latency
        # percentiles per round, then the median over rounds, so one round
        # caught in a host stall moves a figure by one rank.
        wall_s = sum(r.wall_s / _speed(workload, r) for r in untraced)
        latencies_ms = [[1e3 * s / _speed(workload, r) for s in r.latencies_s] for r in untraced]
        values = {
            "setup_s": (setup_s / ((args.reference_s + reference[0]) / 2 / hostspeed.REFERENCE_S), "s"),
            "requests_per_s": (sum(r.requests for r in untraced) / wall_s, "req/s"),
            "jobs_per_s": (sum(r.jobs for r in untraced) / wall_s, "jobs/s"),
            "latency_p50_ms": (statistics.median(instrument.percentile(v, 50) for v in latencies_ms), "ms"),
            "latency_p90_ms": (statistics.median(instrument.percentile(v, 90) for v in latencies_ms), "ms"),
            "fleet_energy_mj": (energy_mj, "MJ/1000jobs"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    (Path(args.work) / "result.json").write_text(json.dumps(result))
    return 0


def _traced_rounds(workload, args, first_index: int, reference: list[float]) -> list[Round]:
    from repro import obs

    if isinstance(workload, FleetWorkload):
        models = workload.models[0]
    else:
        power, time_model, _, _ = _profile_models(Path(args.work) / "models")
        models = (power, time_model)
    obs.configure(Path(args.work) / "trace.jsonl")
    try:
        with instrument.Patches() as patches:
            instrument.install_spans(patches, instrument.flops_per_row(*models))
            return _run_rounds(workload, first_index, args.seconds / 2, reference)
    finally:
        obs.disable()


def _layer_metrics(workload, args, untraced: list[Round], traced: list[Round]) -> dict[str, float]:
    from repro import obs

    ratio = statistics.median(r.wall_s / _speed(workload, r) for r in traced) / statistics.median(
        r.wall_s / _speed(workload, r) for r in untraced
    )
    kwargs = {}
    if isinstance(workload, ServeWorkload):
        kwargs["serve_wall_s"] = sum(r.wall_s for r in traced)
    if isinstance(workload, BatcherWorkload):
        kwargs["submit_s"] = {name: t for r in traced for name, t in r.submitted.items()}
        kwargs["late_s"] = [late for r in traced for late in r.late_s]
    trace_path = Path(args.work) / "trace.jsonl"
    metrics, forest = instrument.layer_metrics(trace_path, len(traced), overhead_ratio=ratio, **kwargs)
    metrics["host.slowdown"] = statistics.median(r.slowdown for r in [*untraced, *traced])
    print(obs.render_attribution(forest, top=15))
    print()
    print(instrument.render_table(metrics))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
