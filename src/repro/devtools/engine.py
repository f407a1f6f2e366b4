"""Check engine: discover sources, run rules, apply noqa + baseline.

The engine is deliberately boring: parse every file under
``<root>/repro`` once, hand each :class:`ModuleContext` to every rule,
subtract inline suppressions, partition the rest against the baseline.
The full ~100-file tree checks in well under a second (the tier-1 gate
asserts < 5 s), so it runs on every ``pytest`` invocation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.devtools.baseline import Baseline, BaselineEntry
from repro.devtools.context import ModuleContext, build_context, context_from_source
from repro.devtools.findings import Finding
from repro.devtools.rules import Rule, all_rules, get_rule

__all__ = [
    "CheckReport",
    "check_source",
    "default_baseline_path",
    "default_root",
    "render_github",
    "render_stats",
    "render_text",
    "run_check",
]

_REPORT_SCHEMA = 1


def default_root() -> Path:
    """The directory containing the importable ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parents[1]


def default_baseline_path(root: Path | None = None) -> Path:
    """The committed baseline shipped inside the package."""
    root = default_root() if root is None else Path(root)
    return root / "repro" / "devtools" / "baseline.json"


def iter_source_files(root: Path) -> list[Path]:
    """Every checked source file under ``root/repro``, deterministic order."""
    package_dir = root / "repro"
    if not package_dir.is_dir():
        raise FileNotFoundError(f"no 'repro' package under {root}")
    return sorted(
        p for p in package_dir.rglob("*.py") if "__pycache__" not in p.parts
    )


@dataclass
class CheckReport:
    """Outcome of one full check run."""

    findings: list[Finding]
    baselined: list[Finding]
    stale_baseline: list[BaselineEntry]
    suppressed: int
    files_checked: int
    rules_run: tuple[str, ...]
    duration_s: float
    root: str = ""
    parse_errors: list[Finding] = field(default_factory=list)
    #: Wall time per phase/rule: ``"parse"`` and one entry per rule id
    #: (summed across modules).  Rendered by ``--stats``.
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the tree is clean (live findings gate the exit code)."""
        return not self.findings and not self.parse_errors

    @property
    def all_current(self) -> list[Finding]:
        """Live + baselined findings — what ``--update-baseline`` records."""
        return sorted(self.findings + self.baselined)

    def to_dict(self) -> dict:
        return {
            "schema": _REPORT_SCHEMA,
            "ok": self.ok,
            "root": self.root,
            "files_checked": self.files_checked,
            "rules": [
                {
                    "id": rule.rule_id,
                    "severity": rule.severity,
                    "summary": rule.summary,
                }
                for rule in all_rules()
                if rule.rule_id in self.rules_run
            ],
            "findings": [f.to_dict() for f in self.findings],
            "baselined": [f.to_dict() for f in self.baselined],
            "stale_baseline": [entry.to_dict() for entry in self.stale_baseline],
            "parse_errors": [f.to_dict() for f in self.parse_errors],
            "suppressed": self.suppressed,
            "duration_s": self.duration_s,
            "timings": {k: round(v, 6) for k, v in sorted(self.timings.items())},
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _resolve_rules(rules: list[str] | tuple[str, ...] | None) -> list[Rule]:
    if rules is None:
        return all_rules()
    return [get_rule(rule_id.strip().upper()) for rule_id in rules if rule_id.strip()]


def _check_context(
    ctx: ModuleContext,
    active: list[Rule],
    timings: dict[str, float] | None = None,
) -> tuple[list[Finding], int]:
    """(unsuppressed findings, suppressed count) for one module."""
    kept: list[Finding] = []
    suppressed = 0
    for rule in active:
        t0 = perf_counter()
        for finding in rule.check(ctx):
            if ctx.suppressed(finding):
                suppressed += 1
            else:
                kept.append(finding)
        if timings is not None:
            timings[rule.rule_id] = timings.get(rule.rule_id, 0.0) + perf_counter() - t0
    return kept, suppressed


def _parse_file(path: Path, root: Path) -> tuple[str, ModuleContext | None, tuple | None]:
    """Parse one file: ``(rel_path, context, error)``.

    ``error`` is ``(line, col, message)`` when the file does not parse.
    """
    rel = path.relative_to(root).as_posix()
    try:
        return rel, build_context(path, root), None
    except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
        line = getattr(exc, "lineno", None) or 1
        col = getattr(exc, "offset", None) or 0
        msg = getattr(exc, "msg", None) or str(exc)
        return rel, None, (line, col, msg)


def check_source(
    source: str,
    *,
    module: str = "repro._fixture",
    rules: list[str] | tuple[str, ...] | None = None,
) -> list[Finding]:
    """Run rules over an in-memory source string (noqa applied, no baseline).

    ``module`` places the fixture for package-scoped rules — e.g. use
    ``"repro.gpusim.fixture"`` to land inside DET001's seeded set.
    """
    ctx = context_from_source(source, module=module)
    kept, _ = _check_context(ctx, _resolve_rules(rules))
    return sorted(kept)


def run_check(
    root: Path | str | None = None,
    *,
    rules: list[str] | tuple[str, ...] | None = None,
    baseline: Baseline | None = None,
) -> CheckReport:
    """Check every source file under ``root/repro`` (default: the installed tree).

    ``baseline=None`` loads the committed ``baseline.json`` next to this
    package; pass an empty :class:`Baseline` to check without one.
    """
    root = default_root() if root is None else Path(root)
    if baseline is None:
        baseline = Baseline.load(default_baseline_path(root))
    active = _resolve_rules(rules)
    t0 = perf_counter()
    timings: dict[str, float] = {}
    findings: list[Finding] = []
    parse_errors: list[Finding] = []
    suppressed = 0
    files = iter_source_files(root)
    # Phase 1: parse everything.  Unparseable files become PARSE001
    # findings (the rest of the tree still gets checked).
    contexts: list[ModuleContext] = []
    for path in files:
        rel, ctx, error = _parse_file(path, root)
        if ctx is not None:
            contexts.append(ctx)
        else:
            line, col, msg = error
            parse_errors.append(
                Finding(
                    path=rel,
                    line=line,
                    col=col,
                    rule_id="PARSE001",
                    severity="error",
                    message=f"file does not parse: {msg}",
                )
            )
    timings["parse"] = perf_counter() - t0
    # Phase 2: run the rules per module.
    for ctx in contexts:
        kept, n_suppressed = _check_context(ctx, active, timings)
        findings.extend(kept)
        suppressed += n_suppressed
    live, baselined, stale = baseline.partition(sorted(findings))
    return CheckReport(
        findings=live,
        baselined=baselined,
        stale_baseline=stale,
        suppressed=suppressed,
        files_checked=len(files),
        rules_run=tuple(rule.rule_id for rule in active),
        duration_s=perf_counter() - t0,
        root=str(root),
        parse_errors=parse_errors,
        timings=timings,
    )


def render_text(report: CheckReport) -> str:
    """Human-readable report (editor-clickable locations, summary line)."""
    lines: list[str] = []
    for finding in report.parse_errors + report.findings:
        lines.append(finding.render())
    if report.stale_baseline:
        lines.append("")
        lines.append("stale baseline entries (no longer match anything — remove them):")
        for entry in report.stale_baseline:
            lines.append(f"  {entry.path}: {entry.rule} {entry.message!r}")
    summary = (
        f"checked {report.files_checked} files with {len(report.rules_run)} rules "
        f"in {report.duration_s:.2f}s: "
    )
    if report.ok:
        summary += "no violations"
        extras = []
        if report.baselined:
            extras.append(f"{len(report.baselined)} baselined")
        if report.suppressed:
            extras.append(f"{report.suppressed} suppressed inline")
        if extras:
            summary += f" ({', '.join(extras)})"
    else:
        n = len(report.findings) + len(report.parse_errors)
        summary += (
            f"{n} violation{'s' if n != 1 else ''} "
            f"({len(report.baselined)} baselined, {report.suppressed} suppressed inline)"
        )
    lines.append(summary)
    return "\n".join(lines)


def render_stats(report: CheckReport) -> str:
    """Per-phase / per-rule wall-time table (``repro check --stats``)."""
    rows = sorted(report.timings.items(), key=lambda kv: (-kv[1], kv[0]))
    width = max((len(name) for name, _ in rows), default=4)
    lines = [f"{'rule':<{width}}  {'wall':>9}  share"]
    total = report.duration_s or 1e-12
    for name, seconds in rows:
        lines.append(f"{name:<{width}}  {seconds * 1e3:>7.1f}ms  {seconds / total:>5.1%}")
    lines.append(
        f"{'total':<{width}}  {report.duration_s * 1e3:>7.1f}ms  "
        f"({report.files_checked} files)"
    )
    return "\n".join(lines)


def render_github(report: CheckReport, *, baseline: Baseline | None = None) -> str:
    """GitHub Actions workflow annotations — exactly one per finding.

    Live findings and parse errors annotate at ``::error`` /
    ``::warning`` with the rule id in the ``title`` field (that is what
    makes annotations filterable in the Checks UI).  When a ``baseline``
    is supplied, grandfathered findings are surfaced too, as ``::notice``
    annotations carrying their recorded justification — the CI log then
    shows *what* is muted and *why* without failing the job.

    Paths are emitted relative to the current working directory when the
    scan root lives under it (so annotations land on the right files in
    a checkout); otherwise the in-repo relative path is used as-is.
    """
    root = Path(report.root) if report.root else None
    try:
        prefix = root.resolve().relative_to(Path.cwd().resolve()).as_posix() if root else ""
    except ValueError:
        prefix = ""

    def escape(text: str) -> str:
        return text.replace("%", "%25").replace("\n", "%0A")

    def annotate(finding: Finding, level: str, message: str) -> str:
        path = f"{prefix}/{finding.path}" if prefix and prefix != "." else finding.path
        return (
            f"::{level} file={path},line={finding.line},col={finding.col + 1},"
            f"title={finding.rule_id}::{escape(message)}"
        )

    lines: list[str] = []
    for finding in report.parse_errors + report.findings:
        level = "error" if finding.severity == "error" else "warning"
        lines.append(annotate(finding, level, finding.message))
    n_live = len(lines)
    if baseline is not None:
        for finding in report.baselined:
            justification = baseline.justification_for(finding) or "no justification recorded"
            lines.append(
                annotate(finding, "notice", f"baselined: {finding.message} — {justification}")
            )
    if not n_live:
        lines.append(
            f"::notice title=repro check::checked {report.files_checked} files with "
            f"{len(report.rules_run)} rules: no violations"
        )
    return "\n".join(lines)
