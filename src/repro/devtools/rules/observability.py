"""Observability rule: library code reports through ``repro.obs``.

PR 3 gave every layer a single reporting surface — spans, counters,
histograms, manifests — with a measured near-zero disabled path.  Bare
``print()`` in library code bypasses it (corrupting JSONL output modes
like ``repro serve``), and ad-hoc ``time.perf_counter()`` arithmetic in
a module with no route to the obs layer produces timings nobody can
export, aggregate, or assert on.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.context import ModuleContext, walk
from repro.devtools.findings import Finding
from repro.devtools.rules.base import Rule, register

__all__ = ["OBS001AdHocReporting"]

#: Non-library surfaces: the CLI prints by design, experiments render
#: figures/tables, obs implements the timing itself, devtools is the
#: checker's own plumbing.
_EXEMPT_PACKAGES = ("repro.cli", "repro.experiments", "repro.obs", "repro.devtools")

_TIMING_CALLS = frozenset(
    {"time.perf_counter", "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns"}
)


@register
class OBS001AdHocReporting(Rule):
    """No bare print()/ad-hoc wall timing in library code."""

    rule_id = "OBS001"
    severity = "warning"
    summary = "print()/ad-hoc perf_counter timing in library code instead of repro.obs"
    rationale = (
        "Library output must flow through repro.obs so it shows up in traces, "
        "the metrics registry and run manifests — and so machine-readable CLI "
        "modes (repro serve JSONL) never get stray stdout lines. Timing calls "
        "are fine when the module publishes them through obs instruments; a "
        "module that times work without importing repro.obs is keeping private "
        "wall-clock state nobody can export."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_package("repro") or ctx.in_package(*_EXEMPT_PACKAGES):
            return []
        uses_obs = ctx.imports_module("repro.obs") or ctx.imports.get("obs") == "repro.obs"
        findings: list[Finding] = []
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "print"
                and "print" not in ctx.imports
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "print() in library code — return values or publish through "
                        "repro.obs (spans/metrics) instead",
                    )
                )
                continue
            if not uses_obs and ctx.resolve(node.func) in _TIMING_CALLS:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "ad-hoc wall timing in a module that never touches repro.obs — "
                        "wrap the work in obs.span()/a registry histogram instead",
                    )
                )
        return findings
