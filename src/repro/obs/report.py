"""`repro report`: trajectory reports and the performance-regression gate.

The repo's perf contract lives in three committed files —
``BENCH_collection.json``, ``BENCH_serving.json``, ``BENCH_obs.json`` —
in one shape: ``bench``, ``config``, a ``metrics`` table holding the
machine-local *current* measurement and the *best* record ever
committed for every tracked hot-path metric, and free-form ``detail``.
This module writes those files and turns them (plus an optional
:class:`~repro.obs.store.RunStore` history) into human reports and a CI
verdict:

* :func:`write_bench` — the one writer the ``benchmarks/test_perf_*.py``
  harnesses call; it carries each metric's best forward while the
  bench's ``config`` is unchanged;
* :func:`load_bench_payloads` / :func:`collect_rows` — find the bench
  files under a root and extract their tracked metrics;
* :func:`evaluate_gate` — one failure message per metric whose current
  value regressed more than ``tolerance`` (default 10 %) past its
  recorded best, in whichever direction is worse for that metric;
* :func:`render_report` — markdown / GitHub-annotation / plain-text
  rendering of the full table (GitHub mode emits ``::error`` workflow
  annotations so regressions land inline on the PR).

``repro report --gate`` exits 2 on any regression.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.obs.store import (
    RunStore,
    TrackedMetric,
    record_from_bench_payload,
    tracked_metrics,
)

__all__ = [
    "BENCH_FILES",
    "GateFailure",
    "load_bench_payloads",
    "collect_rows",
    "evaluate_gate",
    "record_rows",
    "render_report",
    "default_root",
    "write_bench",
]

#: The committed trajectory files, in report order.
BENCH_FILES = ("BENCH_collection.json", "BENCH_serving.json", "BENCH_obs.json")


def default_root() -> Path:
    """Where the BENCH_* files live: cwd if any is present, else the
    checkout that holds this installed tree."""
    cwd = Path.cwd()
    if any((cwd / name).exists() for name in BENCH_FILES):
        return cwd
    return Path(__file__).resolve().parents[3]


def write_bench(
    path: str | Path,
    *,
    bench: str,
    config: dict,
    metrics: dict[str, tuple[float, str]],
    detail: dict | None = None,
) -> dict:
    """Write one bench file and return its payload.

    ``metrics`` maps each tracked name to ``(current, better)`` with
    ``better`` either ``"higher"`` or ``"lower"``.  When the file at
    ``path`` already holds the same ``bench`` and ``config``, each
    metric's ``best`` is the better of its recorded best and
    ``current``; otherwise (first run, or a changed config) the
    trajectory restarts at ``current``.
    """
    path = Path(path)
    previous = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    same_config = previous.get("bench") == bench and previous.get("config") == config
    recorded = previous.get("metrics", {}) if same_config else {}
    table = {}
    for name in sorted(metrics):
        current, better = metrics[name]
        best = current
        if name in recorded:
            pick = max if better == "higher" else min
            best = pick(current, recorded[name]["best"])
        table[name] = {"current": current, "best": best, "better": better}
    payload = {"bench": bench, "config": config, "metrics": table, "detail": detail or {}}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def load_bench_payloads(root: str | Path) -> dict[str, dict]:
    """Parse every committed bench file under ``root`` (path -> payload).

    Raises ``ValueError`` when a present file is unreadable; silently
    skips absent ones (a fresh checkout may not have all three).
    """
    root = Path(root)
    payloads: dict[str, dict] = {}
    for name in BENCH_FILES:
        path = root / name
        if not path.exists():
            continue
        try:
            payloads[name] = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    return payloads


def collect_rows(payloads: dict[str, dict]) -> list[TrackedMetric]:
    """Tracked metrics of every payload, in file order."""
    rows: list[TrackedMetric] = []
    for name in sorted(payloads, key=lambda n: BENCH_FILES.index(n) if n in BENCH_FILES else 99):
        rows.extend(tracked_metrics(payloads[name]))
    return rows


@dataclass(frozen=True)
class GateFailure:
    """One tracked metric beyond the allowed regression."""

    row: TrackedMetric
    #: Fractional regression past best (positive; 0.12 == 12 % worse).
    regression: float

    @property
    def message(self) -> str:
        row = self.row
        direction = "below" if row.higher_is_better else "above"
        return (
            f"{row.bench}/{row.metric}: committed {row.current:g} is "
            f"{100.0 * self.regression:.1f}% {direction} the best record {row.best:g}"
        )


def _regression(row: TrackedMetric) -> float:
    """Fractional regression of current vs best (<= 0 means no worse)."""
    if row.best <= 0.0:
        return 0.0
    if row.higher_is_better:
        return 1.0 - row.current / row.best
    return row.current / row.best - 1.0


def evaluate_gate(
    rows: list[TrackedMetric],
    *,
    tolerance: float = 0.10,
    store: RunStore | None = None,
) -> list[GateFailure]:
    """Failures for every metric regressed more than ``tolerance``.

    When a ``store`` is given, each metric's best is tightened with the
    best value in the recorded history, so a trajectory better than the
    committed file also raises the bar.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be in [0, 1)")
    failures: list[GateFailure] = []
    for row in rows:
        best = row.best
        if store is not None:
            recorded = store.best(row.bench, row.metric, higher_is_better=row.higher_is_better)
            if recorded is not None:
                best = max(best, recorded) if row.higher_is_better else min(best, recorded)
        effective = TrackedMetric(
            bench=row.bench,
            metric=row.metric,
            current=row.current,
            best=best,
            higher_is_better=row.higher_is_better,
        )
        regression = _regression(effective)
        if regression > tolerance:
            failures.append(GateFailure(row=effective, regression=regression))
    return failures


def record_rows(payloads: dict[str, dict], store: RunStore) -> int:
    """Append every payload's current point to the history store."""
    for name, payload in payloads.items():
        store.append(record_from_bench_payload(payload, source=name))
    return len(payloads)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _status(row: TrackedMetric, failures: dict[tuple[str, str], GateFailure]) -> str:
    failure = failures.get((row.bench, row.metric))
    if failure is not None:
        return f"REGRESSED {100.0 * failure.regression:.1f}%"
    regression = _regression(row)
    if regression <= 0.0:
        return "at best" if regression >= -1e-12 else "improved"
    return f"-{100.0 * regression:.1f}% ok"


def render_report(
    rows: list[TrackedMetric],
    failures: list[GateFailure],
    *,
    fmt: str = "markdown",
    tolerance: float = 0.10,
    store: RunStore | None = None,
) -> str:
    """The full tracked-metric table in the requested format."""
    failed = {(f.row.bench, f.row.metric): f for f in failures}
    lines: list[str] = []
    if fmt == "github":
        for failure in failures:
            lines.append(f"::error ::bench gate: {failure.message}")
    if fmt in ("markdown", "github"):
        lines.append("# Performance trajectory report")
        lines.append("")
        lines.append(
            f"{len(rows)} tracked hot-path metrics, gate tolerance "
            f"{100.0 * tolerance:.0f}% — "
            + (f"**{len(failures)} regression(s)**" if failures else "all within tolerance")
        )
        lines.append("")
        lines.append("| bench | metric | current | best | status |")
        lines.append("|---|---|---|---|---|")
        for row in rows:
            lines.append(
                f"| {row.bench} | `{row.metric}` | {row.current:g} | {row.best:g} "
                f"| {_status(row, failed)} |"
            )
        if store is not None:
            lines.append("")
            lines.append(f"run-history store: {store.path} ({len(store)} records)")
    else:  # text
        lines.append(
            f"{'bench':26s} {'metric':28s} {'current':>12s} {'best':>12s}  status"
        )
        for row in rows:
            lines.append(
                f"{row.bench:26s} {row.metric:28s} {row.current:12g} {row.best:12g}  "
                f"{_status(row, failed)}"
            )
        for failure in failures:
            lines.append(f"bench gate: {failure.message}")
    return "\n".join(lines)
