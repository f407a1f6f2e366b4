"""DET003: seed-lineage taint analysis along call-graph paths.

DET001/DET002 police one function at a time: no ambient entropy, thread
the ``rng`` parameter.  What they cannot see is a *conjured root* — a
Generator or seed that springs into existence inside the library from a
hard-coded constant, so two call paths into the same code silently use
unrelated streams.  DET003 closes that gap with an inductive argument
over the call graph:

* **locally** (part A), any RNG factory call inside a seeded package
  must derive from something the caller handed in — a parameter,
  ``self`` state, or the ``rng is None`` fallback idiom;
* **along edges** (part B), any resolved call from a seeded-package
  function into a seeded-package callee must not bind a hard-coded
  literal or a freshly conjured factory to an rng/seed parameter.

If every function only builds RNGs from its inputs and every edge only
passes caller-derived values, then by induction every Generator deep in
``gpusim``/``core``/``serving`` traces back to a root supplied by an
entry point (``cli``, ``experiments``, tests) — which are exactly the
modules allowed to pick seeds.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.context import ModuleContext, walk
from repro.devtools.findings import Finding
from repro.devtools.rules.base import Rule, register
from repro.devtools.rules.determinism import (
    RNG_FACTORIES,
    SEEDED_PACKAGES,
    _mentions,
    _none_guarded_calls,
    _OwnCalls,
    _param_names,
    _references_any,
)

__all__ = ["DET003SeedLineage"]

#: Parameter names that carry seed lineage across a call edge.
_RNG_PARAM_SUFFIXES = ("_rng", "_seed", "_seed_seq")
_RNG_PARAM_NAMES = frozenset({"rng", "seed", "seed_seq", "seed_sequence", "ss"})


def _is_rng_param(name: str) -> bool:
    return name in _RNG_PARAM_NAMES or name.endswith(_RNG_PARAM_SUFFIXES)


def _tainted_names(fn: ast.AST, params: set[str]) -> set[str]:
    """Names deriving (transitively) from the function's inputs.

    Seeds the taint set with the parameters (including ``self``) and
    propagates through assignments, ``for`` targets, comprehension
    bindings and ``with ... as`` targets until a fixpoint — so
    ``children = self._seed_seq.spawn(n)`` followed by
    ``default_rng(child)`` inside a comprehension is recognised as
    caller-derived lineage.
    """
    tainted = set(params)
    changed = True
    while changed:
        changed = False
        for node in walk(fn):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                targets, value = [node.target], node.value
            elif isinstance(node, ast.For):
                targets, value = [node.target], node.iter
            elif isinstance(node, ast.comprehension):
                targets, value = [node.target], node.iter
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                targets, value = [node.optional_vars], node.context_expr
            else:
                continue
            if value is None or not _mentions(value, tainted):
                continue
            for target in targets:
                for sub in walk(target):
                    if isinstance(sub, ast.Name) and sub.id not in tainted:
                        tainted.add(sub.id)
                        changed = True
    return tainted


def _is_conjured(expr: ast.expr, ctx: ModuleContext, caller_params: set[str]) -> str | None:
    """Reason string if ``expr`` is a conjured seed/rng, else None.

    Conjured = a hard-coded numeric literal, or an RNG factory call whose
    own arguments do not derive from the caller's inputs.  ``None`` is
    not conjured — it selects the callee's guarded fallback, which part A
    checks at the definition site.
    """
    if isinstance(expr, ast.Constant):
        if expr.value is None or isinstance(expr.value, bool):
            return None
        if isinstance(expr.value, int):
            return f"hard-coded seed {expr.value!r}"
        return None
    if isinstance(expr, ast.Call):
        qualified = ctx.resolve(expr.func)
        if qualified in RNG_FACTORIES:
            if _references_any(expr, caller_params):
                return None  # derived from the caller's own inputs
            return f"freshly constructed {qualified.rsplit('.', 1)[1]}(...)"
    return None


@register
class DET003SeedLineage(Rule):
    """Every RNG in a seeded package must trace to a caller-supplied root."""

    rule_id = "DET003"
    severity = "error"
    summary = "Generator/seed conjured inside a seeded package instead of flowing from the caller"
    rationale = (
        "Seed lineage is an end-to-end property: the paper's campaigns are "
        "reproducible because one root SeedSequence fans out through spawn() "
        "and explicit seed parameters. A constant seed invented mid-library "
        "breaks the lineage invisibly — both DET001 and DET002 pass, yet two "
        "entry points share (or fork) streams they believe are independent. "
        "Checking each function and each resolved call edge locally proves "
        "the global property by induction over call-graph paths."
    )
    needs_project = True

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_package(*SEEDED_PACKAGES):
            return []
        findings = list(self._local_roots(ctx))
        if ctx.project is not None:
            findings.extend(self._edge_taint(ctx))
        return findings

    # -- part A: conjured roots at the definition site -------------------
    def _local_roots(self, ctx: ModuleContext) -> Iterable[Finding]:
        # Module-level factory calls: always a conjured root in a library.
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for node in walk(stmt):
                if isinstance(node, ast.Call) and ctx.resolve(node.func) in RNG_FACTORIES:
                    if node.args or node.keywords:  # zero-arg is DET002's finding
                        yield self.finding(
                            ctx,
                            node,
                            "module-level RNG construction in a seeded package — "
                            "roots must be created by the entry point and threaded in",
                        )
        for fn in walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = set(_param_names(fn))
            rng_params = {p for p in params if p == "rng" or p.endswith("_rng")}
            collector = _OwnCalls()
            for stmt in fn.body:
                collector.visit(stmt)
            guarded = _none_guarded_calls(fn, {p for p in params if _is_rng_param(p)})
            tainted = _tainted_names(fn, params)
            for call in collector.calls:
                qualified = ctx.resolve(call.func)
                if qualified not in RNG_FACTORIES:
                    continue
                if not call.args and not call.keywords:
                    continue  # DET002 flags zero-arg OS entropy
                if _references_any(call, tainted):
                    continue  # derives (transitively) from a parameter or self state
                if call in guarded:
                    continue  # `rng is None` / `seed is None` fallback idiom
                if rng_params:
                    continue  # DET002 already flags re-seeding past an rng param
                yield self.finding(
                    ctx,
                    call,
                    f"{fn.name}() conjures an RNG root via {qualified}(...) from "
                    "values not derived from its inputs — accept an rng/seed "
                    "parameter and derive from it",
                )

    # -- part B: conjured values crossing a call edge --------------------
    def _edge_taint(self, ctx: ModuleContext) -> Iterable[Finding]:
        from repro.devtools.graph import bind_arguments

        index = ctx.project
        graph = index.call_graph()
        for site in graph.sites_in(ctx.module):
            if site.kind != "resolved" or site.target is None or site.node is None:
                continue
            callee = index.functions.get(site.target)
            if callee is None:
                continue
            callee_pkg = any(
                callee.module == p or callee.module.startswith(p + ".")
                for p in SEEDED_PACKAGES
            )
            if not callee_pkg:
                continue
            caller_fn = index.functions.get(site.caller)
            if caller_fn is not None:
                caller_params = _tainted_names(caller_fn.node, set(_param_names(caller_fn.node)))
            else:
                caller_params = set()
            for param, expr in bind_arguments(site, callee).items():
                if not _is_rng_param(param):
                    continue
                reason = _is_conjured(expr, ctx, caller_params)
                if reason is not None:
                    yield self.finding(
                        ctx,
                        expr,
                        f"call to {site.target}() binds {reason} to parameter "
                        f"{param!r} — thread the caller's seed lineage instead",
                    )
