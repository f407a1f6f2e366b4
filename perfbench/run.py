"""End-to-end and per-layer benchmark of the frequency-selection service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-distinct --seed 1 --seconds 10 --trace 0

Workloads: ``serve-distinct``, ``serve-repeat``, ``batcher-poisson``,
``fleet-capped`` (see perfbench/README.md).  The script writes the
seeded inputs into a scratch directory under ``.perfbench/``, trains a
small model pair through ``repro collect`` / ``repro train`` (never
timed), starts ``worker.py`` in a fresh process to measure, and prints
the result object as the last line of standard output.  ``--trace 1``
reports the per-layer metrics instead and keeps the trace at
``.perfbench/trace-<workload>.jsonl`` for ``repro obs analyze``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

#: Every process the benchmark starts, this one included, runs
#: single-threaded BLAS; set before numpy is first imported.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import hostspeed  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("serve-distinct", "serve-repeat", "batcher-poisson", "fleet-capped")
#: A run gives up (exit 1, no result) after this long.
DEADLINE_S = 170.0
#: Reduced training campaign: all 21 training workloads, six clocks
#: from 510 MHz to f_max, one run each, 8 sensor samples per run.
COLLECT_ARGS = [
    "--workloads", "training", "--runs", "1", "--freqs", "510,705,900,1095,1290,1410",
    "--max-samples", "8", "--seed", "0",
]
TRAIN_ARGS = ["--power-epochs", "30", "--time-epochs", "15", "--seed", "0"]


def _write_inputs(workload: str, seed: int, work: Path) -> None:
    if workload in ("serve-distinct", "serve-repeat"):
        rows, name = inputs.serve_requests(workload, seed), "requests.jsonl"
    elif workload == "batcher-poisson":
        rows, name = inputs.batcher_schedule(seed), "schedule.jsonl"
    else:
        return
    with open(work / name, "w", encoding="utf-8") as f:
        f.writelines(json.dumps(row) + "\n" for row in rows)


def _remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    scratch = root / ".perfbench"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
    python = sys.executable
    try:
        _write_inputs(args.workload, args.seed, work)
        if args.workload != "fleet-capped":
            for cmd in (
                ["collect", *COLLECT_ARGS, "--out", str(work / "campaign")],
                ["train", "--data", str(work / "campaign"), "--out", str(work / "models"), *TRAIN_ARGS],
            ):
                subprocess.run(
                    [python, "-m", "repro.cli", *cmd],
                    env=env, stdout=sys.stderr, check=True, timeout=_remaining(deadline),
                )
        hostspeed.reference_seconds()  # the first call pays numpy's warm-up
        reference_s = hostspeed.reference_seconds()
        spawned = time.monotonic()
        subprocess.run(
            [
                python, str(Path(__file__).with_name("worker.py")),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work", str(work), "--spawned", repr(spawned), "--reference-s", repr(reference_s),
            ],
            env=env, check=True, timeout=_remaining(deadline),
        )
        result = json.loads((work / "result.json").read_text())
        if args.trace:
            os.replace(work / "trace.jsonl", scratch / f"trace-{args.workload}.jsonl")
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
