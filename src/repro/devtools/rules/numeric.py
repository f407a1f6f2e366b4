"""Numeric dataflow rules: NUM002, SHAPE001, PERF001, PURE001.

NUM001 checks one lexical pattern (float ``==``).  These rules consume
:mod:`repro.devtools.numeric` — an interprocedural ``(dtype, rank,
symbolic-dims)`` lattice propagated over the project call graph — so
they can reason about *what actually flows where*:

* **NUM002** — dtype drift on the float64 pipeline: a value the
  reproduction's numeric contract pins to float64 (``repro.core``,
  ``repro.nn``, ``repro.serving``, ``repro.gpusim``) is narrowed to
  float16/float32, constructed sub-float64, or silently truncated with
  a bare ``int()``.  One stray cast breaks the serving engine's bitwise
  gate and every golden suite downstream.
* **SHAPE001** — broadcast or matmul dimension mismatch found by
  unifying symbolic dims: ``(n, k) @ (j, m)`` with ``k != j`` provable,
  or elementwise ops whose concrete trailing dims conflict.
* **PERF001** — hot-path hygiene, scoped to call-graph descendants of
  the serving flush / fused-engine infer / telemetry collection roots:
  per-element Python loops over arrays, ``np.append`` in a loop,
  list-append-then-``stack`` gathers, loop-invariant allocations.
  Cold code is never nagged.
* **PURE001** — cache-safety purity proofs: every project function
  whose result feeds the serving curve cache (``LRUCache.put*``), a
  ``*_cache`` mapping store (the fleet decision cache), or an
  ``@lru_cache`` memo must be *return-pure* — no wall clock, unseeded
  RNG, I/O, or mutated-module-global read can taint the cached value
  (seeded/lineage-threaded RNG is fine; so is instrumentation whose
  readings never reach the return value).

Suppression policy matches every other rule: fix the code, carry
``# repro: noqa[RULE] — <justification>`` on the line, or add a
justified ``baseline.json`` entry (see DESIGN.md §17).
"""

from __future__ import annotations

from typing import Iterable

from repro.devtools.context import ModuleContext
from repro.devtools.findings import Finding
from repro.devtools.numeric import get_numeric_analysis
from repro.devtools.rules.base import Rule, register

__all__ = [
    "NUM002DtypeDrift",
    "PERF001HotPathHygiene",
    "PURE001CachePurity",
    "SHAPE001ShapeMismatch",
]


class _NumericRule(Rule):
    """Shared plumbing: replay the analysis' findings for one module."""

    needs_project = True

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_package("repro") or ctx.project is None:
            return []
        analysis = get_numeric_analysis(ctx.project)
        return [
            self.finding(ctx, item.node, item.message)
            for item in analysis.findings_for_module(ctx.module)
            if item.rule == self.rule_id
        ]


@register
class NUM002DtypeDrift(_NumericRule):
    """float64 pipeline value narrowed, built sub-float64, or truncated."""

    rule_id = "NUM002"
    severity = "error"
    summary = "dtype drift off the float64 pipeline (narrowing cast/construction/truncation)"
    rationale = (
        "The serving engine's bitwise equivalence gate and every golden "
        "suite assume float64 end-to-end through core.models, nn, serving, "
        "and gpusim. Dtype propagation over the call graph proves where a "
        "float64 value is astype'd or constructed to float16/float32, or "
        "truncated with a bare int() instead of int(round(...)) — each one "
        "a silent precision cliff that only surfaces as a golden-diff "
        "mystery much later."
    )


@register
class SHAPE001ShapeMismatch(_NumericRule):
    """Provable broadcast/matmul dimension conflict."""

    rule_id = "SHAPE001"
    severity = "error"
    summary = "broadcast/matmul shape mismatch proven by symbolic-dim unification"
    rationale = (
        "Shape propagation tracks (rank, symbolic dims) through numpy "
        "constructors, reshapes, stacking, and matmul. When two concrete "
        "dims meet in an elementwise op and are unequal (neither being 1), "
        "or a matmul's inner dims provably differ, the code raises at "
        "runtime on the first real batch — the exact failure class the "
        "packed-weight affine recurrence in serving.engine is most exposed "
        "to."
    )


@register
class PERF001HotPathHygiene(_NumericRule):
    """Per-element loops / growing arrays / loop allocations on the hot set."""

    rule_id = "PERF001"
    severity = "warning"
    summary = "hot-path hygiene: per-element loop, append-then-stack, or loop allocation"
    rationale = (
        "The hot set is computed, not guessed: call-graph descendants of "
        "SelectionService.flush, FusedInferenceEngine.infer, and the "
        "telemetry collection roots. Inside it, a Python per-element loop, "
        "np.append in a loop, a list-append-then-stack gather, or a "
        "loop-invariant allocation each cost orders of magnitude over the "
        "vectorized form the rest of the pipeline already uses. Cold code "
        "is exempt by construction."
    )


@register
class PURE001CachePurity(_NumericRule):
    """A cache-fed value derives from a function that is not return-pure."""

    rule_id = "PURE001"
    severity = "error"
    summary = "cached value fed by an impure function (clock/RNG/I-O/global taints the result)"
    rationale = (
        "The serving curve cache, the fleet decision cache, and @lru_cache "
        "memos all assume: same key, same value, forever. The purity proof "
        "taints wall clocks, unseeded RNG, I/O, and mutated module globals, "
        "then checks — interprocedurally, including subclass overrides at "
        "dynamic call sites — that no taint reaches the value being cached. "
        "Seeded, lineage-threaded RNG and instrumentation that never flows "
        "into the return value are both allowed; a cache that memoises "
        "time-dependent values is not."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_package("repro") or ctx.project is None:
            return []
        analysis = get_numeric_analysis(ctx.project)
        findings: list[Finding] = []
        for feed in analysis.feeds_in_module(ctx.module):
            for root, witness in feed.impure:
                findings.append(
                    self.finding(
                        ctx,
                        feed.node,
                        f"value cached via {feed.label} derives from impure "
                        f"{root} ({witness}); cache entries must be "
                        "reproducible — thread a seeded rng or hoist the "
                        "impurity out of the cached computation",
                    )
                )
        return findings
