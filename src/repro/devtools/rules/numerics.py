"""Numerical-safety rule NUM001: no equality comparison between floats.

(This is the only numeric rule.  Float64 drift, shape errors and
cache purity are pinned at run time by the bitwise golden and serving
suites instead; see DESIGN.md §17.)

Algorithm 1 selection, Pareto tie handling and the serving cache key all
touch values that came out of DNN forward passes; ``==`` on such values
is either dead (never true) or a latent nondeterminism (true on one
BLAS, false on another).  The repo's documented idioms are

* ordered guards (``x <= 0.0`` for non-negative quantities),
* index-based tie handling (``np.argmin`` returns the first minimiser —
  ties break by position, never by re-comparing float scores), and
* exact-sentinel comparisons only where a value is *defined* to be the
  sentinel (``np.sign`` outputs, "0.0 disables this term" config knobs)
  — suppressed case-by-case with ``# repro: noqa[NUM001]`` or a
  baseline entry carrying the justification.

Float-ness is established conservatively: float literals, ``float()``
casts, division results, a small set of known float-returning calls, and
local names assigned from any of those.  Anything the rule cannot prove
float stays silent, so there are no int-comparison false positives.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.context import ModuleContext
from repro.devtools.findings import Finding
from repro.devtools.rules.base import Rule, register

__all__ = ["NUM001FloatEquality"]

#: Calls whose results are known floats (resolved through the import table).
_FLOAT_CALLS = frozenset(
    {
        "time.perf_counter",
        "time.time",
        "time.monotonic",
        "math.sqrt",
        "math.exp",
        "math.log",
        "math.hypot",
        "math.fsum",
        "numpy.linalg.norm",
        "numpy.float64",
        "numpy.hypot",
        "numpy.ptp",
    }
)

_FLOAT_CONSTANT_ATTRS = frozenset(
    {"math.pi", "math.e", "math.tau", "math.inf", "math.nan", "numpy.inf", "numpy.nan", "numpy.pi", "numpy.e"}
)


class _ScopeChecker(ast.NodeVisitor):
    """Single lexical pass over one scope: track float names, flag compares."""

    def __init__(self, rule: "NUM001FloatEquality", ctx: ModuleContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.float_names: set[str] = set()
        self.findings: list[Finding] = []

    # -- float-ness ----------------------------------------------------
    def _floatish(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Name):
            return node.id in self.float_names
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "float":
                return "float" not in self.ctx.imports  # builtin float(), not a shadow
            return self.ctx.resolve(node.func) in _FLOAT_CALLS
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._floatish(node.left) or self._floatish(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._floatish(node.operand)
        if isinstance(node, ast.IfExp):
            return self._floatish(node.body) or self._floatish(node.orelse)
        if isinstance(node, ast.Attribute):
            return self.ctx.resolve(node) in _FLOAT_CONSTANT_ATTRS
        return False

    # -- scope boundaries ----------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.rule._check_scope(self.ctx, node.body, self.findings)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- tracking and flagging -----------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        if self._floatish(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.float_names.add(target.id)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if node.value is not None and self._floatish(node.value) and isinstance(node.target, ast.Name):
            self.float_names.add(node.target.id)

    def visit_Compare(self, node: ast.Compare) -> None:
        self.generic_visit(node)
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if self._floatish(left) or self._floatish(right):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                self.findings.append(
                    self.rule.finding(
                        self.ctx,
                        node,
                        f"float {symbol} comparison — use an ordered guard, an explicit "
                        "tolerance, or index-based tie handling (np.argmin order)",
                    )
                )
                break  # one finding per comparison chain


@register
class NUM001FloatEquality(Rule):
    """No ``==``/``!=`` between float-typed expressions in library code."""

    rule_id = "NUM001"
    severity = "error"
    summary = "equality comparison between float-typed expressions"
    rationale = (
        "Selected frequencies and tie-breaks must not depend on bit-exact "
        "float coincidence: BLAS/summation-order changes flip such branches "
        "and silently desync the golden files. Ties break by index order "
        "(np.argmin takes the first minimiser); degenerate-value guards use "
        "ordered comparisons on provably non-negative quantities."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: list[Finding] = []
        self._check_scope(ctx, ctx.tree.body, findings)
        return findings

    def _check_scope(self, ctx: ModuleContext, body: list[ast.stmt], findings: list[Finding]) -> None:
        checker = _ScopeChecker(self, ctx)
        for stmt in body:
            checker.visit(stmt)
        findings.extend(checker.findings)
