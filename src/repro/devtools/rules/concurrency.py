"""Interprocedural concurrency rules: THR002/THR003 + RES001.

THR001 checks one lexical pattern inside one class.  These rules consume
:mod:`repro.devtools.concurrency` — execution contexts inferred over the
project call graph — so they can reason about *which threads actually
reach which code*:

* **THR002** — an attribute (or module global) accessed from both the
  main thread and a spawned thread context is mutated without holding a
  lock.  Unlike THR001 it fires on classes that own no lock at all, and
  it scopes itself to state that provably crosses a context boundary.
* **THR003** — two call paths acquire the same pair of locks in opposite
  orders (lexically nested ``with`` blocks, or a call made while holding
  a lock into a function that transitively acquires another).  An
  A->B / B->A cycle is a deadlock waiting for the right interleaving.
* **RES001** — a ``shared_memory``/file/lock resource is acquired into a
  local, and some exception path skips its release: no ``with``, no
  ``try/finally``, or can-raise statements sneak between the acquisition
  and the protecting ``try``.  (Per-file escape analysis: resources that
  escape via return / attribute / container / call argument are assumed
  owned elsewhere.)

Suppression policy is the same as every other rule: fix the code, or
carry ``# repro: noqa[THR002] — <justification>`` on the offending line,
or add a justified ``baseline.json`` entry (see DESIGN.md §16).
"""

from __future__ import annotations

import ast
from types import SimpleNamespace
from typing import Iterable

from repro.devtools.concurrency import get_analysis
from repro.devtools.context import ModuleContext, walk
from repro.devtools.findings import Finding
from repro.devtools.rules.base import Rule, register
from repro.devtools.rules.locking import _CONSTRUCTION_METHODS, _MUTATOR_METHODS, _self_attr

__all__ = [
    "RES001ResourceLifetime",
    "THR002SharedStateRace",
    "THR003LockOrderInversion",
]


def _anchor(line: int, col: int) -> SimpleNamespace:
    """A node-shaped anchor for findings computed away from the AST."""
    return SimpleNamespace(lineno=line, col_offset=col)


# ----------------------------------------------------------------------
# THR002 — cross-context mutation without a lock
# ----------------------------------------------------------------------
@register
class THR002SharedStateRace(Rule):
    """State crossing a thread-context boundary mutates without a lock."""

    rule_id = "THR002"
    severity = "error"
    summary = "state shared across thread contexts mutated without holding a lock"
    rationale = (
        "Context inference over the call graph knows which methods run on "
        "spawned threads (Thread targets, executor submits) and which run on "
        "the main thread. An attribute reachable from both sides is shared "
        "state; mutating it without a lock is a data race even when the class "
        "never declared itself thread-safe — exactly the case THR001's "
        "lock-owning heuristic cannot see."
    )
    needs_project = True

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_package("repro") or ctx.project is None:
            return []
        analysis = get_analysis(ctx.project)
        findings: list[Finding] = []
        findings.extend(self._check_classes(ctx, analysis))
        findings.extend(self._check_globals(ctx, analysis))
        return findings

    def _check_classes(self, ctx: ModuleContext, analysis) -> list[Finding]:
        findings: list[Finding] = []
        index = analysis.index
        for qual, cinfo in index.classes.items():
            if cinfo.module != ctx.module:
                continue
            locks = analysis.class_locks.get(qual, frozenset())
            accesses = analysis.class_accesses.get(qual, [])
            # An attribute is shared when some method touching it runs on a
            # spawned thread with no lock held anywhere on the path (racy)
            # and some method touching it runs on the main thread.
            # Construction methods — and helpers only reachable from them —
            # are happens-before publication and do not count.
            attr_racy: dict[str, bool] = {}
            attr_main: dict[str, bool] = {}
            for access in accesses:
                method_qual = f"{qual}.{access.method}"
                if (
                    access.method in _CONSTRUCTION_METHODS
                    or method_qual in analysis.construction_only
                ):
                    continue
                attr_racy.setdefault(access.attr, False)
                attr_main.setdefault(access.attr, False)
                if method_qual in analysis.thread_racy:
                    attr_racy[access.attr] = True
                if method_qual in analysis.main_set:
                    attr_main[access.attr] = True
            shared = {
                attr for attr in attr_racy if attr_racy[attr] and attr_main[attr]
            } - locks
            if not shared:
                continue
            # Attributes THR001 already polices (mutated under a held lock
            # somewhere) stay THR001's jurisdiction — no double report.
            thr001_turf = analysis.thr001_guarded.get(qual, frozenset()) if locks else frozenset()
            hint = (
                f"outside 'with self.{sorted(locks)[0]}:'"
                if locks
                else "and the class owns no lock — add one (threading.Lock) and hold it"
            )
            for access in accesses:
                method_qual = f"{qual}.{access.method}"
                if (
                    not access.is_store
                    or access.method in _CONSTRUCTION_METHODS
                    or method_qual in analysis.construction_only
                ):
                    continue
                if access.attr not in shared or access.attr in thr001_turf:
                    continue
                if access.held_locks:
                    continue
                findings.append(
                    self.finding(
                        ctx,
                        _anchor(access.line, access.col),
                        f"{cinfo.node.name}.{access.method} mutates 'self.{access.attr}', "
                        f"which is reached from both the main thread and a spawned "
                        f"thread with no lock held, {hint}",
                    )
                )
        return findings

    def _check_globals(self, ctx: ModuleContext, analysis) -> list[Finding]:
        """Module globals mutated from a spawned-thread context."""
        findings: list[Finding] = []
        index = analysis.index
        module_locks = analysis.module_locks.get(ctx.module, frozenset())
        module_names = {
            t.id
            for stmt in ctx.tree.body
            if isinstance(stmt, ast.Assign)
            for t in stmt.targets
            if isinstance(t, ast.Name)
        }
        for qual, fn in index.functions.items():
            if fn.module != ctx.module:
                continue
            if qual not in analysis.thread_racy:
                continue
            declared_global = {
                name
                for node in walk(fn.node)
                if isinstance(node, ast.Global)
                for name in node.names
            }
            for mutated, node, held in _global_mutations(fn.node, module_locks):
                if held:
                    continue
                rebind = mutated in declared_global
                in_place = mutated in module_names
                if not (rebind or in_place):
                    continue
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{fn.name} runs in a spawned-thread context and mutates module "
                        f"global '{mutated}' without holding a module-level lock",
                    )
                )
        return findings


def _global_mutations(fn: ast.AST, module_locks: frozenset[str]):
    """(name, node, lock-held) for Name rebinds / container mutations."""

    def scan(stmts, held: bool):
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                holds = held or any(
                    isinstance(item.context_expr, ast.Name)
                    and item.context_expr.id in module_locks
                    for item in stmt.items
                )
                yield from scan(stmt.body, holds)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            elif isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While, ast.Try)):
                for block in ("body", "orelse", "finalbody"):
                    yield from scan(getattr(stmt, block, []) or [], held)
                for handler in getattr(stmt, "handlers", []) or []:
                    yield from scan(handler.body, held)
            elif isinstance(stmt, ast.Match):
                for case in stmt.cases:
                    yield from scan(case.body, held)
            else:
                if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    for target in targets:
                        if isinstance(target, ast.Name):
                            yield target.id, target, held
                for node in walk(stmt):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _MUTATOR_METHODS
                        and isinstance(node.func.value, ast.Name)
                    ):
                        yield node.func.value.id, node, held

    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield from scan(fn.body, False)


# ----------------------------------------------------------------------
# THR003 — lock-order inversion
# ----------------------------------------------------------------------
@register
class THR003LockOrderInversion(Rule):
    """Two call paths acquire the same locks in opposite orders."""

    rule_id = "THR003"
    severity = "error"
    summary = "lock-acquisition-order inversion across two call paths"
    rationale = (
        "If path 1 holds lock A while acquiring B and path 2 holds B while "
        "acquiring A (directly or through any chain of resolved calls), two "
        "threads can each hold one lock and wait forever on the other. The "
        "lock-order graph makes the global ordering explicit; any cycle is a "
        "latent deadlock regardless of how rarely the interleaving occurs."
    )
    needs_project = True

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_package("repro") or ctx.project is None:
            return []
        analysis = get_analysis(ctx.project)
        findings: list[Finding] = []
        for forward, backward in analysis.inversions():
            for edge, other in ((forward, backward), (backward, forward)):
                if edge.module != ctx.module:
                    continue
                via = f" (via call to {edge.via_call})" if edge.via_call else ""
                other_loc = f"{other.module}:{other.line}"
                other_via = f" via {other.via_call}" if other.via_call else ""
                findings.append(
                    self.finding(
                        ctx,
                        _anchor(edge.line, edge.col),
                        f"acquires '{edge.acquired}' while holding '{edge.held}'{via}, "
                        f"but {other_loc} acquires them in the opposite order"
                        f"{other_via} — lock-order inversion can deadlock",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RES001 — resource lifetime / escape analysis (per-file)
# ----------------------------------------------------------------------
#: Dotted factory -> human label for resources that must be released.
_RESOURCE_FACTORIES: dict[str, str] = {
    "multiprocessing.shared_memory.SharedMemory": "shared-memory block",
    "builtins.open": "file handle",
    "io.open": "file handle",
    "os.fdopen": "file handle",
    "gzip.open": "file handle",
    "bz2.open": "file handle",
    "lzma.open": "file handle",
    "tempfile.TemporaryFile": "temporary file",
    "tempfile.NamedTemporaryFile": "temporary file",
    "socket.socket": "socket",
}

#: Method names that release any of the above (or an acquired lock).
_RELEASE_METHODS = frozenset({"close", "release", "unlink", "shutdown", "terminate"})


@register
class RES001ResourceLifetime(Rule):
    """Acquired resources must release on every path (with / try-finally)."""

    rule_id = "RES001"
    severity = "error"
    summary = "acquired resource has an exception path that skips its release"
    rationale = (
        "A SharedMemory block that is attached but not closed leaks a file in "
        "/dev/shm until reboot; an unclosed file handle defers flushes to GC "
        "time; an acquire() without a finally-release deadlocks every later "
        "acquirer. Straight-line close() calls silently skip when anything "
        "between acquisition and release raises — only 'with' or try/finally "
        "(with nothing risky before the try) actually guarantees the release."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_package("repro"):
            return []
        findings: list[Finding] = []
        for node in walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(ctx, node))
        return findings

    # ------------------------------------------------------------------
    def _check_function(self, ctx: ModuleContext, fn) -> list[Finding]:
        parents: dict[int, ast.AST] = {}
        with_exprs: set[int] = set()
        for node in walk(fn):
            for child in ast.iter_child_nodes(node):
                parents.setdefault(id(child), node)
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for sub in walk(item.context_expr):
                        with_exprs.add(id(sub))

        acquisitions = self._acquisitions(ctx, fn, with_exprs)
        if not acquisitions:
            return []
        findings: list[Finding] = []
        for name, stmt, call, label in acquisitions:
            finding = self._classify(ctx, fn, name, stmt, call, label, parents)
            if finding is not None:
                findings.append(finding)
        return findings

    def _acquisitions(self, ctx, fn, with_exprs):
        """(local name, statement, call node, label) acquisition events."""
        out = []
        for node in walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if id(node.value) in with_exprs:
                    continue
                label = self._factory_label(ctx, node.value)
                if label is None:
                    continue
                if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                    out.append((node.targets[0].id, node, node.value, label))
            elif (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "acquire"
                and isinstance(node.value.func.value, ast.Name)
            ):
                # Explicit lock.acquire() on a local: must release in finally.
                out.append((node.value.func.value.id, node, node.value, "acquired lock"))
        return out

    def _factory_label(self, ctx, call: ast.Call) -> str | None:
        resolved = ctx.resolve(call.func)
        if resolved is None and isinstance(call.func, ast.Name) and call.func.id == "open":
            resolved = "builtins.open"
        return _RESOURCE_FACTORIES.get(resolved or "")

    def _classify(self, ctx, fn, name, acq_stmt, call, label, parents):
        releases: list[ast.AST] = []
        escapes = False
        for node in walk(fn):
            if node is acq_stmt:
                continue
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name
                ):
                    if node.func.attr in _RELEASE_METHODS:
                        releases.append(node)
                    continue  # a method call on the resource is a use, not an escape
                if any(
                    isinstance(a, ast.Name) and a.id == name
                    for a in (*node.args, *(k.value for k in node.keywords))
                ):
                    escapes = True
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                # The object escapes only when the reference itself is
                # returned (bare, or inside a container); a derived read
                # like ``return bytes(shm.buf[:4])`` copies the data and
                # leaves ownership — and the leak — right here.
                value = node.value
                if value is not None and any(
                    isinstance(n, ast.Name)
                    and n.id == name
                    and not isinstance(parents.get(id(n)), ast.Attribute)
                    for n in walk(value)
                ):
                    escapes = True
            elif isinstance(node, ast.Assign):
                rhs_uses = any(
                    isinstance(n, ast.Name) and n.id == name for n in walk(node.value)
                )
                plain_rebind = all(
                    isinstance(t, ast.Name) for t in node.targets
                )
                if rhs_uses and not plain_rebind:
                    escapes = True  # stored into an attribute / subscript
            elif isinstance(node, (ast.List, ast.Tuple, ast.Dict, ast.Set)):
                if any(
                    isinstance(n, ast.Name) and n.id == name
                    for n in walk(node)
                ) and id(node) not in (id(t) for t in getattr(acq_stmt, "targets", [])):
                    escapes = True
        if escapes:
            return None
        if not releases:
            return self.finding(
                ctx,
                call,
                f"{label} '{name}' is acquired but never released in {fn.name} — "
                "use 'with' or close it in a try/finally",
            )
        protected = [r for r in releases if self._finally_try(r, parents) is not None]
        if protected:
            shield = self._finally_try(protected[0], parents)
            risky = self._risky_gap(fn, acq_stmt, shield, parents)
            if risky:
                return self.finding(
                    ctx,
                    call,
                    f"{label} '{name}' leaks if a statement between its acquisition "
                    f"and the protecting 'try' raises (first risk at line {risky}) — "
                    "move the acquisition adjacent to the try or nest try/finally",
                )
            return None
        first_release = min(releases, key=lambda r: r.lineno)
        risky = self._risky_between(fn, acq_stmt, first_release)
        if risky:
            return self.finding(
                ctx,
                call,
                f"{label} '{name}' is released only on the straight-line path; an "
                f"exception before {name}.{first_release.func.attr}() (first risk at "
                f"line {risky}) skips the release — use 'with' or try/finally",
            )
        return None

    @staticmethod
    def _finally_try(node: ast.AST, parents) -> ast.Try | None:
        """The Try whose finalbody contains ``node``, if any."""
        child = node
        current = parents.get(id(node))
        while current is not None:
            if isinstance(current, ast.Try):
                in_finally = any(
                    child is stmt or any(child is sub for sub in walk(stmt))
                    for stmt in current.finalbody
                )
                if in_finally:
                    return current
            child = current
            current = parents.get(id(current))
        return None

    def _risky_gap(self, fn, acq_stmt, shield: ast.Try, parents) -> int | None:
        """First can-raise line strictly between acquisition and the try.

        Acquisition inside the try body is fine (the finally runs).  When
        both sit in the same block, any can-raise statement between them
        leaks the resource before the finally exists.
        """
        if any(acq_stmt is s or any(acq_stmt is n for n in walk(s)) for s in shield.body):
            return None
        acq_parent = parents.get(id(acq_stmt))
        shield_parent = parents.get(id(shield))
        if acq_parent is not shield_parent:
            return None  # different blocks: give the benefit of the doubt
        for block_name in ("body", "orelse", "finalbody"):
            block = getattr(acq_parent, block_name, None)
            if isinstance(block, list) and acq_stmt in block and shield in block:
                start, end = block.index(acq_stmt), block.index(shield)
                for stmt in block[start + 1 : end]:
                    line = _first_risky_line(stmt)
                    if line is not None:
                        return line
        return None

    @staticmethod
    def _risky_between(fn, acq_stmt, release_call) -> int | None:
        """First can-raise line between acquisition and an unprotected release."""
        lo, hi = acq_stmt.lineno, release_call.lineno
        for node in walk(fn):
            if not isinstance(node, (ast.Call, ast.Raise)):
                continue
            if node is release_call or node is getattr(acq_stmt, "value", None):
                continue
            if lo < node.lineno < hi:
                return node.lineno
        return None


def _first_risky_line(stmt: ast.stmt) -> int | None:
    for node in walk(stmt):
        if isinstance(node, (ast.Call, ast.Raise)):
            return node.lineno
    return None
