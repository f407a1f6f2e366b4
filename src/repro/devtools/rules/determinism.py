"""Determinism rules: every random draw flows from a seeded Generator.

The whole reproduction hangs on ``SeedSequence``-derived randomness:
the simulator's noise, the DNN weight init, the parallel campaign's
per-cell child RNGs.  One ambient draw (``np.random.rand``, stdlib
``random``, a wall clock used as data) silently breaks worker-count
invariance and every golden file downstream.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.context import ModuleContext, walk
from repro.devtools.findings import Finding
from repro.devtools.rules.base import Rule, register

__all__ = ["DET001AmbientEntropy", "DET002GeneratorThreading"]

#: Packages whose outputs feed golden files / accuracy tables.
SEEDED_PACKAGES = ("repro.gpusim", "repro.nn", "repro.telemetry", "repro.core", "repro.serving")

#: The approved construction APIs — policed separately by DET002.
RNG_FACTORIES = frozenset(
    {"numpy.random.default_rng", "numpy.random.Generator", "numpy.random.SeedSequence"}
)

_ALLOWED_NUMPY_RANDOM = RNG_FACTORIES | frozenset(
    {
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.MT19937",
        "numpy.random.SFC64",
        "numpy.random.BitGenerator",
    }
)

_BANNED_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_BANNED_PREFIXES = ("random.", "secrets.")


@register
class DET001AmbientEntropy(Rule):
    """No ambient entropy or wall clocks inside seeded packages."""

    rule_id = "DET001"
    severity = "error"
    summary = "ambient entropy (np.random.*, random.*, wall clock) in a seeded code path"
    rationale = (
        "Values produced inside "
        + ", ".join(SEEDED_PACKAGES)
        + " feed golden files and the paper's accuracy tables; every draw must "
        "come from a SeedSequence-derived Generator threaded in by the caller. "
        "Module-level np.random, stdlib random, time.time()/datetime.now() and "
        "os.urandom all smuggle process state into the data."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_package(*SEEDED_PACKAGES):
            return []
        findings: list[Finding] = []
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.resolve(node.func)
            if qualified is None:
                continue
            if qualified in _BANNED_CALLS or qualified.startswith(_BANNED_PREFIXES):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"call to {qualified} in seeded package {ctx.module.rsplit('.', 1)[0]} — "
                        "thread a SeedSequence-derived Generator (or obs timing) instead",
                    )
                )
            elif (
                qualified.startswith("numpy.random.") and qualified not in _ALLOWED_NUMPY_RANDOM
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"call to {qualified} uses the module-level numpy RNG — "
                        "draw from a Generator passed in by the caller",
                    )
                )
        return findings


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg is not None:
        params.append(args.vararg.arg)
    if args.kwarg is not None:
        params.append(args.kwarg.arg)
    return params


class _OwnCalls(ast.NodeVisitor):
    """Call nodes of one function body, not descending into nested defs."""

    def __init__(self) -> None:
        self.calls: list[ast.Call] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:  # don't descend
        pass

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:  # don't descend
        pass

    def visit_Call(self, node: ast.Call) -> None:
        self.calls.append(node)
        self.generic_visit(node)


def _references_any(node: ast.Call, names: set[str]) -> bool:
    """Whether any argument subtree of the call mentions one of ``names``."""
    for arg in list(node.args) + [kw.value for kw in node.keywords]:
        for sub in walk(arg):
            if isinstance(sub, ast.Name) and sub.id in names:
                return True
    return False


def _mentions(tree: ast.AST, names: set[str]) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id in names for sub in walk(tree))


def _none_guarded_calls(fn: ast.AST, names: set[str]) -> set[ast.Call]:
    """Calls in a branch selected by testing an rng param (the None-fallback idiom).

    Covers both ``rng if rng is not None else default_rng(0)`` and the
    statement form ``if rng is None: rng = default_rng(0)``.
    """
    guarded: set[ast.Call] = set()
    for node in walk(fn):
        if isinstance(node, ast.IfExp) and _mentions(node.test, names):
            branches: list[ast.AST] = [node.body, node.orelse]
        elif isinstance(node, ast.If) and _mentions(node.test, names):
            branches = list(node.body) + list(node.orelse)
        else:
            continue
        for branch in branches:
            guarded.update(sub for sub in walk(branch) if isinstance(sub, ast.Call))
    return guarded


@register
class DET002GeneratorThreading(Rule):
    """Thread the caller's rng/seed; never construct fresh unseeded generators."""

    rule_id = "DET002"
    severity = "error"
    summary = "fresh Generator constructed instead of threading the rng/seed parameter"
    rationale = (
        "A function that accepts an rng parameter is part of a seed-derivation "
        "chain; constructing its own default_rng() forks the stream and makes "
        "results depend on call order. Zero-argument default_rng()/SeedSequence() "
        "draws OS entropy, which is never reproducible. Deriving a child from "
        "the threaded rng (e.g. default_rng(rng.integers(2**63))) is the "
        "approved idiom."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_package("repro"):
            return []
        findings: list[Finding] = []
        # (a) zero-argument factory calls anywhere: OS entropy.
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.resolve(node.func)
            if qualified in RNG_FACTORIES and not node.args and not node.keywords:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{qualified}() with no seed draws OS entropy — pass a seed, "
                        "a SeedSequence, or the caller's Generator",
                    )
                )
        # (b) rng-parameterised functions must thread the rng, not re-seed.
        for fn in walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            rng_params = {p for p in _param_names(fn) if p == "rng" or p.endswith("_rng")}
            if not rng_params:
                continue
            collector = _OwnCalls()
            for stmt in fn.body:
                collector.visit(stmt)
            guarded = _none_guarded_calls(fn, rng_params)
            for call in collector.calls:
                qualified = ctx.resolve(call.func)
                if qualified not in RNG_FACTORIES:
                    continue
                if not call.args and not call.keywords:
                    continue  # already flagged by (a)
                if _references_any(call, rng_params):
                    continue  # child derivation from the threaded rng — fine
                if call in guarded:
                    continue  # seeded fallback behind an `rng is None` guard
                findings.append(
                    self.finding(
                        ctx,
                        call,
                        f"function {fn.name}() takes {sorted(rng_params)[0]!r} but builds a "
                        f"fresh generator via {qualified}(...) — thread the rng (or derive a "
                        "child from it) instead",
                    )
                )
        return findings
