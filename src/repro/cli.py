"""Command-line interface.

Mirrors how the paper's framework is operated:

``repro specs``
    Print the Table 1 specifications of a simulated GPU.
``repro collect``
    Run a collection campaign (workloads x clocks x runs) and persist
    one CSV of 20 ms samples per run — the launch module's job.
``repro train``
    Train the power/time DNNs from a persisted campaign directory and
    save the weights.
``repro predict``
    Online phase: profile one application at the default clock with
    saved models and print the selected frequencies.
``repro select``
    Batched online phase: decide many applications through the
    :mod:`repro.serving` selection service (one stacked DNN pass per
    micro-batch, memoized curves for repeats).
``repro serve``
    Service loop: read JSON-lines requests from a file or stdin, answer
    each with the selected frequencies, print service stats at the end.
``repro fleet``
    Run one named fleet scenario (``baseline``, ``capped``,
    ``flash-crowd``, ``node-churn``, ``day``) through the
    :mod:`repro.fleet` simulator: hundreds of GPUs, stochastic
    arrivals, per-node selection services, facility power capping and
    failure injection — bitwise-reproducible from (scenario, seed).
``repro experiment``
    Regenerate one paper figure/table and print it.
``repro obs``
    Observability utilities: ``analyze`` a trace JSONL into a span tree
    (per-span self- vs cumulative-time attribution with latency
    percentiles, instant-event counts, critical path, collapsed-stack
    flamegraph export, per-phase diff against a second trace;
    ``--format text|markdown|json``), ``export`` the process metrics
    registry as Prometheus text or JSON.
``repro report``
    Performance trajectory report over the committed ``BENCH_*.json``
    files (and an optional run-history store): markdown/GitHub/text
    table of every tracked hot-path metric vs its best record.
    ``--gate`` exits 2 when any metric regressed more than
    ``--tolerance`` (default 10%) — the CI bench gate.
``repro check``
    Static invariant checker (see :mod:`repro.devtools`): AST rules for
    determinism, lock discipline, float comparisons, observability
    hygiene, physical units and seed lineage over the whole source
    tree.  Exit 0 when clean, 1 on violations.
``repro graph``
    Dump the interprocedural project index: the call graph as JSON or
    Graphviz DOT (``--format``), or the declared physical-unit table
    (``--units``).

Two global flags (they go *before* the subcommand) apply to every
command: ``--trace PATH`` streams span/event records from all
instrumented layers (see :mod:`repro.obs`) to a JSONL file, and
``--manifest PATH`` writes a run manifest.  ``collect`` and ``train``
also drop a ``run_manifest.json`` alongside their outputs
automatically.

Every subcommand runs against the simulator, so the whole flow works on
a laptop with no GPU.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import obs
from repro.core.dataset import dataset_from_csv_dir
from repro.core.energy import ED2P, EDP
from repro.core.models import PowerModel, TimeModel
from repro.core.pipeline import FrequencySelectionPipeline
from repro.gpusim.arch import get_architecture, list_architectures
from repro.gpusim.device import SimulatedGPU
from repro.telemetry.launch import LaunchConfig, Launcher
from repro.workloads.registry import default_registry

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "tab1", "tab3", "tab4", "tab5", "tab6",
    "pareto_study", "capping_study", "cluster_study", "phase_study", "gv100_savings",
}


def build_parser() -> argparse.ArgumentParser:
    """The full repro CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DNN-based GPU DVFS frequency selection (ICPP 2023 reproduction)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL span trace of this invocation (global; before the subcommand)",
    )
    parser.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="write a run manifest to PATH (collect/train always write one next to --out)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_specs = sub.add_parser("specs", help="print GPU specifications (Table 1)")
    p_specs.add_argument("--arch", default="GA100", help="architecture name")

    p_collect = sub.add_parser("collect", help="run a collection campaign")
    p_collect.add_argument("--arch", default="GA100")
    p_collect.add_argument("--workloads", default="dgemm,stream", help="comma-separated names, or 'training'")
    p_collect.add_argument("--runs", type=int, default=3, help="runs per configuration")
    p_collect.add_argument("--out", required=True, help="output directory for CSVs")
    p_collect.add_argument("--seed", type=int, default=0)
    p_collect.add_argument("--max-samples", type=int, default=48, help="sensor samples kept per run")
    p_collect.add_argument(
        "--freqs", default="all", help="'all' (usable grid) or comma-separated MHz values"
    )

    p_train = sub.add_parser("train", help="train power/time models from a campaign")
    p_train.add_argument("--data", required=True, help="campaign directory from 'collect'")
    p_train.add_argument("--out", required=True, help="directory to write model archives")
    p_train.add_argument("--arch", default="GA100", help="training architecture (TDP normalisation)")
    p_train.add_argument("--power-epochs", type=int, default=100)
    p_train.add_argument("--time-epochs", type=int, default=25)
    p_train.add_argument("--seed", type=int, default=0)

    p_predict = sub.add_parser("predict", help="online phase for one application")
    p_predict.add_argument("--models", required=True, help="directory from 'train'")
    p_predict.add_argument("--arch", default="GA100")
    p_predict.add_argument("--workload", required=True)
    p_predict.add_argument("--threshold", type=float, default=None, help="perf degradation bound (fraction)")
    p_predict.add_argument("--seed", type=int, default=0)

    p_select = sub.add_parser("select", help="batched online phase for many applications")
    p_select.add_argument("--models", required=True, help="directory from 'train'")
    p_select.add_argument("--arch", default="GA100")
    p_select.add_argument(
        "--workloads", required=True, help="comma-separated names, or 'training'/'evaluation'"
    )
    p_select.add_argument("--batch", type=int, default=64, help="requests per service flush")
    p_select.add_argument("--threshold", type=float, default=None, help="perf degradation bound (fraction)")
    p_select.add_argument("--seed", type=int, default=0)
    p_select.add_argument("--stats", action="store_true", help="print service stats afterwards")

    p_serve = sub.add_parser("serve", help="JSONL frequency-selection service loop")
    p_serve.add_argument("--models", required=True, help="directory from 'train'")
    p_serve.add_argument("--arch", default="GA100")
    p_serve.add_argument(
        "--input", default="-", help="JSONL request file, or '-' for stdin (default)"
    )
    p_serve.add_argument("--batch", type=int, default=64, help="requests per service flush")
    p_serve.add_argument("--threshold", type=float, default=None, help="perf degradation bound (fraction)")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--stats", action="store_true", help="print service stats to stderr")

    p_fleet = sub.add_parser("fleet", help="run a named fleet scenario")
    p_fleet.add_argument(
        "--scenario", default="baseline", help="named scenario (see --list)"
    )
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.add_argument(
        "--out", metavar="PATH", default=None, help="write the fleet metrics JSON here"
    )
    p_fleet.add_argument(
        "--rate-factor", type=float, default=1.0, help="scale the arrival rate"
    )
    p_fleet.add_argument(
        "--duration-factor", type=float, default=1.0, help="scale the submission window"
    )
    p_fleet.add_argument(
        "--list", action="store_true", help="list named scenarios and exit"
    )

    p_exp = sub.add_parser("experiment", help="regenerate one paper figure/table")
    p_exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    p_exp.add_argument("--fast", action="store_true", help="cheap profile (seconds, noisier)")
    p_exp.add_argument("--seed", type=int, default=0)

    p_obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_ana = obs_sub.add_parser(
        "analyze",
        help="span-tree attribution and percentiles / flamegraph / diff from a trace JSONL",
    )
    # dest must not collide with the global --trace flag (both would
    # land on args.trace and the analyzed file would get traced).
    p_ana.add_argument("trace_file", metavar="trace", help="trace file written via --trace")
    p_ana.add_argument(
        "--diff", metavar="OTHER", default=None, help="second trace: print the per-phase delta table"
    )
    p_ana.add_argument(
        "--flamegraph",
        metavar="OUT",
        default=None,
        help="write collapsed stacks (flamegraph.pl / speedscope) to OUT",
    )
    p_ana.add_argument(
        "--critical-path", action="store_true", help="print the heaviest root-to-leaf chain"
    )
    p_ana.add_argument("--top", type=int, default=None, help="show only the N largest rows")
    p_ana.add_argument(
        "--format",
        choices=("text", "markdown", "json"),
        default="text",
        help="table style, or the raw report as JSON",
    )
    p_exp_reg = obs_sub.add_parser("export", help="export the process metrics registry")
    p_exp_reg.add_argument(
        "--format", choices=("prom", "json"), default="prom", help="exposition format"
    )

    p_report = sub.add_parser(
        "report", help="performance trajectory report + regression gate (BENCH_*.json)"
    )
    p_report.add_argument(
        "--root",
        default=None,
        help="directory holding the BENCH_*.json files (default: cwd, else the checkout)",
    )
    p_report.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="run-history store JSONL to consult (its best values tighten the gate)",
    )
    p_report.add_argument(
        "--record",
        action="store_true",
        help="append the current bench points to --store before reporting",
    )
    p_report.add_argument(
        "--gate",
        action="store_true",
        help="exit 2 when any tracked metric regressed more than --tolerance vs its best",
    )
    p_report.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional regression past each metric's best (default 0.10)",
    )
    p_report.add_argument(
        "--format",
        choices=("markdown", "github", "text"),
        default="markdown",
        help="report format ('github' adds ::error annotations for regressions)",
    )

    p_check = sub.add_parser(
        "check", help="static invariant checker (determinism, locking, numerics)"
    )
    p_check.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format ('github' emits ::error workflow annotations)",
    )
    p_check.add_argument(
        "--root",
        default=None,
        help="directory containing the 'repro' package (default: the installed tree)",
    )
    p_check.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline file (default: the committed baseline.json)",
    )
    p_check.add_argument(
        "--no-baseline", action="store_true", help="report baselined findings as live"
    )
    p_check.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline with every current finding (justifications required before commit)",
    )
    p_check.add_argument(
        "--select",
        "--rules",
        dest="rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    p_check.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    p_check.add_argument(
        "--stats",
        action="store_true",
        help="append a per-rule wall-time table to the text report",
    )

    p_graph = sub.add_parser(
        "graph", help="dump the project call graph / unit table (repro.devtools)"
    )
    p_graph.add_argument(
        "--format", choices=("json", "dot"), default="json", help="call-graph format"
    )
    p_graph.add_argument(
        "--root",
        default=None,
        help="directory containing the 'repro' package (default: the installed tree)",
    )
    p_graph.add_argument(
        "--units",
        action="store_true",
        help="dump the declared physical-unit table instead of the call graph",
    )
    p_graph.add_argument(
        "--include-external",
        action="store_true",
        help="include external (stdlib/numpy) call sites in the JSON dump",
    )

    return parser


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_specs(args: argparse.Namespace) -> int:
    try:
        arch = get_architecture(args.arch)
    except KeyError:
        print(f"unknown architecture {args.arch!r}; known: {', '.join(list_architectures())}", file=sys.stderr)
        return 2
    from repro.gpusim.dvfs import DVFSConfigSpace

    dvfs = DVFSConfigSpace.for_architecture(arch)
    print(f"{arch.name}")
    print(f"  core frequency range : [{arch.core_freq_min_mhz:.0f}:{arch.core_freq_max_mhz:.0f}] MHz")
    print(f"  default core clock   : {arch.default_core_freq_mhz:.0f} MHz")
    print(f"  DVFS configurations  : {len(dvfs)} usable of {dvfs.num_supported} supported")
    print(f"  memory frequency     : {arch.memory_freq_mhz:.0f} MHz")
    print(f"  memory capacity      : {arch.memory_gib:.0f} GiB")
    print(f"  peak bandwidth       : {arch.peak_memory_bandwidth / 1e9:.0f} GB/s")
    print(f"  TDP                  : {arch.tdp_watts:.0f} W")
    return 0


def _resolve_workloads(spec: str):
    registry = default_registry()
    if spec == "training":
        return registry.training_set()
    if spec == "evaluation":
        return registry.evaluation_set()
    names = [n.strip() for n in spec.split(",") if n.strip()]
    return [registry.get(n) for n in names]


def _load_pipeline(models_dir: str | Path, arch_name: str, seed: int) -> FrequencySelectionPipeline:
    """Fitted pipeline from a 'train' output directory (TDP-normalised)."""
    arch = get_architecture(arch_name)
    device = SimulatedGPU(arch, seed=seed, max_samples_per_run=16)
    models = Path(models_dir)
    power = PowerModel(reference_power_w=arch.tdp_watts)
    power.load(models / "power.npz")
    time_model = TimeModel()
    time_model.load(models / "time.npz")
    obs.annotate(
        model_fingerprints={"power": power.fingerprint(), "time": time_model.fingerprint()}
    )
    return FrequencySelectionPipeline(device, power_model=power, time_model=time_model)


def _cmd_collect(args: argparse.Namespace) -> int:
    device = SimulatedGPU(
        get_architecture(args.arch), seed=args.seed, max_samples_per_run=args.max_samples
    )
    workloads = _resolve_workloads(args.workloads)
    if args.freqs == "all":
        freqs = tuple(device.dvfs.usable_mhz)
    else:
        freqs = tuple(device.dvfs.snap(float(f)) for f in args.freqs.split(","))
    config = LaunchConfig(freqs_mhz=freqs, runs_per_config=args.runs, output_dir=Path(args.out))
    artifacts = Launcher(device).collect(workloads, config)
    print(
        f"collected {len(artifacts)} runs "
        f"({len(workloads)} workloads x {len(freqs)} clocks x {args.runs} runs) -> {args.out}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    arch = get_architecture(args.arch)
    dataset = dataset_from_csv_dir(args.data, per_sample=True)
    print(f"loaded {len(dataset)} sample rows across {len(dataset.workload_names)} workloads")

    power = PowerModel(reference_power_w=arch.tdp_watts, seed=args.seed)
    history = power.fit(dataset, epochs=args.power_epochs)
    print(f"power model: {history.epochs_run} epochs, final val loss {history.best_val_loss:.5f}")

    time_model = TimeModel(seed=args.seed)
    history = time_model.fit(dataset, epochs=args.time_epochs)
    print(f"time model:  {history.epochs_run} epochs, final val loss {history.best_val_loss:.5f}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    power.save(out / "power.npz")
    time_model.save(out / "time.npz")
    obs.annotate(
        model_fingerprints={"power": power.fingerprint(), "time": time_model.fingerprint()}
    )
    print(f"saved models -> {out}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    arch = get_architecture(args.arch)
    # Models are trained TDP-normalised; the reference is rescaled onto
    # this device's envelope by the pipeline.
    pipeline = _load_pipeline(args.models, args.arch, args.seed)
    workload = default_registry().get(args.workload)
    result = pipeline.run_online(workload, objectives=(EDP, ED2P), threshold=args.threshold)

    print(f"{workload.name} on {arch.name}:")
    print(f"  measured at {arch.default_core_freq_mhz:.0f} MHz: "
          f"{result.measured_power_at_max_w:.0f} W, {result.measured_time_at_max_s:.3f} s")
    print(f"  features: fp_active={result.features.fp_active:.3f} "
          f"dram_active={result.features.dram_active:.3f}")
    for name in ("EDP", "ED2P"):
        sel = result.selection(name)
        print(f"  {name:5s}: {sel.freq_mhz:.0f} MHz  "
              f"energy {100 * sel.energy_saving:+.1f}%  "
              f"time {-100 * sel.perf_degradation:+.1f}%")
    return 0


def _print_service_stats(stats, stream) -> None:
    print(
        f"service: {stats.requests} requests in {stats.batches} batches "
        f"(mean {stats.mean_batch_size:.1f}, max {stats.max_batch_size}); "
        f"cache {stats.cache_hits} hits / {stats.cache_misses} misses "
        f"(hit rate {100 * stats.hit_rate:.0f}%), {stats.curves_computed} curves computed",
        file=stream,
    )
    print(
        f"latency: measure {1e3 * stats.measure_s:.1f} ms, lookup {1e3 * stats.lookup_s:.1f} ms, "
        f"predict {1e3 * stats.predict_s:.1f} ms, select {1e3 * stats.select_s:.1f} ms",
        file=stream,
    )
    if stats.batches:
        per_stage = ", ".join(
            f"{stage} p50 {1e3 * stats.percentile(stage, 50):.2f}/p99 "
            f"{1e3 * stats.percentile(stage, 99):.2f} ms"
            for stage in ("predict", "select")
        )
        print(f"per-flush: {per_stage}", file=stream)


def _cmd_select(args: argparse.Namespace) -> int:
    from repro.serving import SelectionRequest, SelectionService

    if args.batch < 1:
        print("--batch must be >= 1", file=sys.stderr)
        return 2
    try:
        workloads = _resolve_workloads(args.workloads)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    pipeline = _load_pipeline(args.models, args.arch, args.seed)
    with SelectionService(
        pipeline,
        threshold=args.threshold,
        max_batch_size=args.batch,
        registry=obs.get_registry(),
    ) as service:
        print(f"{len(workloads)} applications on {pipeline.device.arch.name}:")
        for start in range(0, len(workloads), args.batch):
            chunk = workloads[start : start + args.batch]
            responses = service.select_many([SelectionRequest.from_workload(w) for w in chunk])
            for response in responses:
                parts = [
                    f"{name} {sel.freq_mhz:.0f} MHz (energy {100 * sel.energy_saving:+.1f}%, "
                    f"time {-100 * sel.perf_degradation:+.1f}%)"
                    for name, sel in response.selections.items()
                ]
                suffix = "  [cached]" if response.from_cache else ""
                print(f"  {response.name:12s} {'  '.join(parts)}{suffix}")
        if args.stats:
            _print_service_stats(service.stats(), sys.stdout)
    return 0


def _parse_serve_line(line: str, registry):
    """One JSONL request -> SelectionRequest (raises ValueError on bad input)."""
    import json

    from repro.core.dataset import FeatureVector
    from repro.serving import SelectionRequest

    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError("request must be a JSON object")
    if "workload" in payload:
        workload = registry.get(payload["workload"])
        return SelectionRequest.from_workload(workload, size=payload.get("size"))
    try:
        features = FeatureVector(
            float(payload["fp_active"]), float(payload["dram_active"]), 0.0
        )
        time_at_max = float(payload["time_at_max_s"])
    except KeyError as missing:
        raise ValueError(f"request needs 'workload' or fp_active/dram_active/time_at_max_s ({missing} missing)")
    return SelectionRequest.from_features(
        features,
        time_at_max,
        power_at_max_w=float(payload.get("power_at_max_w", 0.0)),
        name=str(payload.get("name", "request")),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.serving import SelectionService

    if args.batch < 1:
        print("--batch must be >= 1", file=sys.stderr)
        return 2
    pipeline = _load_pipeline(args.models, args.arch, args.seed)
    registry = default_registry()
    with SelectionService(
        pipeline,
        threshold=args.threshold,
        max_batch_size=args.batch,
        registry=obs.get_registry(),
    ) as service:
        stream = sys.stdin if args.input == "-" else open(args.input, encoding="utf-8")
        served = failed = 0
        try:
            pending: list = []

            def flush() -> None:
                nonlocal served
                if not pending:
                    return
                for response in service.select_many(pending):
                    print(
                        json.dumps(
                            {
                                "name": response.name,
                                "cached": response.from_cache,
                                "selections": {
                                    name: {
                                        "freq_mhz": sel.freq_mhz,
                                        "energy_saving": sel.energy_saving,
                                        "perf_degradation": sel.perf_degradation,
                                    }
                                    for name, sel in response.selections.items()
                                },
                            }
                        )
                    )
                    served += 1
                pending.clear()

            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    pending.append(_parse_serve_line(line, registry))
                except (ValueError, KeyError) as exc:
                    # Answer the requests before this line first: responses
                    # leave in request order.
                    flush()
                    print(json.dumps({"error": str(exc)}))
                    failed += 1
                    continue
                if len(pending) >= args.batch:
                    flush()
            flush()
        finally:
            if stream is not sys.stdin:
                stream.close()
        if args.stats:
            _print_service_stats(service.stats(), sys.stderr)
            print(f"served {served} requests, {failed} invalid", file=sys.stderr)
    return 0 if failed == 0 else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.fleet import FleetSimulator, get_scenario, list_scenarios

    if args.list:
        for scenario in list_scenarios():
            print(
                f"{scenario.name:12s} {scenario.n_nodes:3d} nodes / "
                f"{scenario.n_gpus:3d} GPUs  {scenario.description}"
            )
        return 0
    try:
        scenario = get_scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    scenario = scenario.scaled(
        rate_factor=args.rate_factor, duration_factor=args.duration_factor
    )
    result = FleetSimulator(scenario, seed=args.seed).run()
    metrics = result.metrics()
    obs.annotate(fleet_metrics=metrics)
    print(f"scenario          {metrics['scenario']} (seed {metrics['seed']})")
    print(f"fleet             {metrics['nodes']} nodes / {metrics['gpus']} GPUs")
    print(f"jobs              {metrics['jobs_completed']}/{metrics['jobs_submitted']} completed")
    print(f"makespan          {metrics['makespan_s']:.1f} s")
    print(f"energy            {metrics['total_energy_j'] / 1e6:.3f} MJ "
          f"(+{metrics['wasted_energy_j'] / 1e3:.1f} kJ wasted)")
    print(f"power             avg {metrics['avg_power_w']:.0f} W / peak {metrics['peak_power_w']:.0f} W")
    print(f"wait              mean {metrics['mean_wait_s']:.2f} s / p95 {metrics['p95_wait_s']:.2f} s")
    print(f"SLA               {metrics['deadline_met']}/{metrics['deadline_jobs']} deadlines met "
          f"({metrics['deadline_met_fraction']:.1%})")
    print(f"selections        {metrics['selections_total']} "
          f"(cache hit rate {metrics['selection_cache_hit_rate']:.1%})")
    print(f"disruptions       {metrics['outages_injected']} outages, "
          f"{metrics['requeues']} requeues, {metrics['deferrals']} deferrals, "
          f"{metrics['capped_jobs']} capped")
    if args.out:
        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
        print(f"metrics written to {target}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    from repro.experiments import ExperimentContext, ExperimentSettings

    settings = ExperimentSettings.fast(args.seed) if args.fast else ExperimentSettings.paper(args.seed)
    ctx = ExperimentContext(settings)

    if args.name == "tab1":
        from repro.experiments.tab1 import render_tab1, run_tab1

        print(render_tab1(run_tab1()))
        return 0

    module = importlib.import_module(f"repro.experiments.{args.name}")
    run = getattr(module, f"run_{args.name}")
    render = getattr(module, f"render_{args.name}")
    print(render(run(ctx)))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    if args.obs_command == "analyze":
        trace_path = Path(args.trace_file)
        if not trace_path.exists():
            print(f"no such trace file: {trace_path}", file=sys.stderr)
            return 2
        forest = obs.forest_from_file(trace_path)
        if args.diff is not None:
            other = Path(args.diff)
            if not other.exists():
                print(f"no such trace file: {other}", file=sys.stderr)
                return 2
            rows = obs.diff_attribution(forest, obs.forest_from_file(other))[: args.top]
            if args.format == "json":
                print(json.dumps([dataclasses.asdict(r) for r in rows], indent=2))
            else:
                print(obs.render_diff(rows, fmt=args.format))
        elif args.format == "json":
            report = obs.analysis(forest)
            if args.critical_path:
                report["critical_path"] = [node.name for node in obs.critical_path(forest)]
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(obs.render_attribution(forest, top=args.top))
            if args.critical_path:
                print()
                print(obs.render_critical_path(forest))
        if args.flamegraph is not None:
            out = obs.write_collapsed(forest, args.flamegraph)
            stacks = sum(1 for line in out.read_text().splitlines() if line)
            print(f"flamegraph: {stacks} collapsed stacks -> {out}", file=sys.stderr)
        return 0
    # export
    registry = obs.get_registry()
    if args.format == "json":
        print(registry.to_json())
    else:
        print(registry.to_prometheus_text(), end="")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        collect_rows,
        default_root,
        evaluate_gate,
        load_bench_payloads,
        record_rows,
        render_report,
    )
    from repro.obs.store import RunStore

    if not 0.0 <= args.tolerance < 1.0:
        print("--tolerance must be in [0, 1)", file=sys.stderr)
        return 2
    root = Path(args.root) if args.root is not None else default_root()
    try:
        payloads = load_bench_payloads(root)
        rows = collect_rows(payloads)
    except ValueError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print(f"report: no BENCH_*.json files under {root}", file=sys.stderr)
        return 2

    store = RunStore(args.store) if args.store is not None else None
    if args.record:
        if store is None:
            print("--record needs --store", file=sys.stderr)
            return 2
        record_rows(payloads, store)

    failures = evaluate_gate(rows, tolerance=args.tolerance, store=store)
    print(
        render_report(
            rows, failures, fmt=args.format, tolerance=args.tolerance, store=store
        )
    )
    if args.gate and failures:
        for failure in failures:
            print(f"bench gate: {failure.message}", file=sys.stderr)
        return 2
    obs.annotate(report_metrics=len(rows), report_regressions=len(failures))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.devtools import (
        Baseline,
        all_rules,
        default_baseline_path,
        render_github,
        render_stats,
        render_text,
        rule_ids,
        run_check,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id} [{rule.severity}] {rule.summary}")
        return 0

    selected = None
    if args.rules is not None:
        selected = [r.strip().upper() for r in args.rules.split(",") if r.strip()]
        unknown = sorted(set(selected) - set(rule_ids()))
        if unknown:
            print(
                f"unknown rule ids: {', '.join(unknown)}; known: {', '.join(rule_ids())}",
                file=sys.stderr,
            )
            return 2

    root = Path(args.root) if args.root is not None else None
    baseline_path = (
        Path(args.baseline) if args.baseline is not None else default_baseline_path(root)
    )
    if args.baseline is not None and not baseline_path.exists():
        print(f"no such baseline file: {baseline_path}", file=sys.stderr)
        return 2
    baseline = Baseline() if args.no_baseline else Baseline.load(baseline_path)

    try:
        report = run_check(root, rules=selected, baseline=baseline)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.update_baseline:
        updated = Baseline.from_findings(
            report.all_current,
            justification="recorded by --update-baseline; replace with a real justification",
        )
        updated.save(baseline_path)
        print(f"baseline: {len(updated.entries)} entries -> {baseline_path}")
        return 0

    if args.format == "json":
        print(report.to_json())
    elif args.format == "github":
        print(render_github(report, baseline=baseline))
    else:
        print(render_text(report))
        if args.stats:
            print()
            print(render_stats(report))
    return 0 if report.ok else 1


def _cmd_graph(args: argparse.Namespace) -> int:
    import json

    from repro.devtools import default_root, index_from_root
    from repro.devtools.units import unit_table

    root = Path(args.root) if args.root is not None else default_root()
    try:
        contexts, index, skipped = index_from_root(root)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for path, exc in skipped:
        print(f"skipped unparseable {path}: {exc}", file=sys.stderr)
    if args.units:
        print(json.dumps(unit_table(index), indent=2))
        return 0
    graph = index.call_graph()
    if args.format == "dot":
        print(graph.to_dot())
    else:
        print(json.dumps(graph.to_dict(include_external=args.include_external), indent=2))
    return 0


_DISPATCH = {
    "specs": _cmd_specs,
    "collect": _cmd_collect,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "select": _cmd_select,
    "serve": _cmd_serve,
    "fleet": _cmd_fleet,
    "experiment": _cmd_experiment,
    "obs": _cmd_obs,
    "report": _cmd_report,
    "check": _cmd_check,
    "graph": _cmd_graph,
}

#: Subcommands whose ``--out`` directory gets a run manifest automatically.
_MANIFEST_COMMANDS = {"collect": "out", "train": "out"}


def _manifest_config(args: argparse.Namespace) -> dict:
    """The invocation's full argument set, minus dispatch plumbing."""
    return {
        key: str(value) if isinstance(value, Path) else value
        for key, value in vars(args).items()
        if key not in ("command", "obs_command")
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Every invocation runs inside a manifest context (commands annotate
    it with e.g. model fingerprints); ``--trace`` installs the global
    tracer for the duration of the command.
    """
    args = build_parser().parse_args(argv)
    run = obs.start_run(
        args.command,
        list(argv) if argv is not None else sys.argv[1:],
        config=_manifest_config(args),
    )
    run.annotate(seed=getattr(args, "seed", None), trace_path=args.trace)
    if args.trace:
        obs.configure(args.trace)
    try:
        code = _DISPATCH[args.command](args)
    finally:
        if args.trace:
            obs.disable()
    targets = []
    if args.manifest:
        targets.append(Path(args.manifest))
    out_attr = _MANIFEST_COMMANDS.get(args.command)
    if out_attr is not None and code == 0:
        targets.append(Path(getattr(args, out_attr)))
    if targets:
        manifest = run.finish(exit_code=code, registry=obs.get_registry())
        for target in targets:
            obs.write_manifest(manifest, target)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    raise SystemExit(main())
