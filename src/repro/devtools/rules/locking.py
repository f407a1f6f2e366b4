"""Lock-discipline rule: shared state only mutates under its lock.

The serving and observability layers are explicitly thread-safe — the
micro-batcher, the LRU cache, the metrics instruments, and the tracer
are all called from many threads concurrently.  Their contract is a
single pattern: the class owns a ``threading.Lock``/``RLock``/
``Condition`` and every mutation of its shared attributes happens inside
``with self._lock:``.

THR001 enforces that pattern per class:

* **Lock discovery** — any ``self.X = threading.Lock()`` (or RLock /
  Condition) marks the class as lock-owning.
* **Guarded-attribute inference** — every attribute the class mutates at
  least once while holding the lock is considered shared.
* **Seeded registry** — the known shared attributes of the concurrency
  hot spots (``serving.service``, ``serving.cache``,
  ``serving.microbatch``, ``obs.metrics``, ``obs.trace``) are pinned
  explicitly, so the rule keeps firing even if all locked call sites of
  an attribute are deleted.  ``telemetry.parallel`` deliberately seeds
  nothing: its cells are share-nothing by construction (per-cell child
  RNGs, no mutable device state), which is the invariant DET-rules cover.
* **Violation** — a mutation of a guarded attribute outside any ``with
  self.<lock>:`` block, in any method except ``__init__``/``__new__``
  (construction happens-before publication).

Cross-method lock holding (a private helper called with the lock already
held) is invisible to a lexical check; such helpers should either take
the mutation back to the locked caller or carry a
``# repro: noqa[THR001]`` with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.context import ModuleContext, walk
from repro.devtools.findings import Finding
from repro.devtools.rules.base import Rule, register

__all__ = ["THR001LockDiscipline"]

_LOCK_FACTORIES = frozenset({"threading.Lock", "threading.RLock", "threading.Condition"})

#: Method names on a container attribute that mutate it in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "update",
        "move_to_end",
    }
)

#: Known shared attributes of the repo's concurrency hot spots, keyed by
#: (module, class).  Inference normally rediscovers these; pinning them
#: keeps the rule armed even if every locked mutation site disappears.
SEEDED_SHARED_ATTRS: dict[tuple[str, str], frozenset[str]] = {
    ("repro.serving.service", "SelectionService"): frozenset(
        {"_cache", "_key_static", "_batcher"}
    ),
    ("repro.serving.cache", "LRUCache"): frozenset({"_data", "hits", "misses", "evictions"}),
    ("repro.serving.microbatch", "MicroBatcher"): frozenset({"_pending", "_closed"}),
    ("repro.obs.metrics", "Counter"): frozenset({"_value"}),
    ("repro.obs.metrics", "Gauge"): frozenset({"_value"}),
    ("repro.obs.metrics", "Histogram"): frozenset({"_counts", "_sum", "_count", "_min", "_max"}),
    ("repro.obs.metrics", "MetricsRegistry"): frozenset({"_metrics"}),
    ("repro.obs.trace", "Tracer"): frozenset({"_ring", "_file"}),
}

_CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


def _self_attr(node: ast.AST) -> str | None:
    """``self.X`` -> ``X`` (through any subscript chain), else None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _mutation_targets(stmt: ast.stmt) -> list[tuple[str, ast.AST]]:
    """(attribute, anchor node) pairs this simple statement mutates."""
    out: list[tuple[str, ast.AST]] = []

    def add_target(target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                add_target(elt)
            return
        if isinstance(target, ast.Starred):
            add_target(target.value)
            return
        attr = _self_attr(target)
        if attr is not None:
            out.append((attr, target))

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            add_target(target)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        if not (isinstance(stmt, ast.AnnAssign) and stmt.value is None):
            add_target(stmt.target)
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            add_target(target)

    # In-place container mutation: self.X.append(...) etc., anywhere in
    # the statement's expressions (including call results being assigned).
    for node in walk(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
        ):
            attr = _self_attr(node.func.value)
            if attr is not None:
                out.append((attr, node))
    return out


@register
class THR001LockDiscipline(Rule):
    """Lock-owning classes mutate shared attributes only under the lock."""

    rule_id = "THR001"
    severity = "error"
    summary = "shared attribute of a lock-owning class mutated outside its lock"
    rationale = (
        "SelectionService, LRUCache, MicroBatcher, the metrics instruments and "
        "the Tracer are all entered from many threads; their correctness "
        "argument is 'every mutation of shared state holds self._lock'. A "
        "single unlocked mutation reintroduces the torn-read/lost-update bugs "
        "the serving concurrency tests exist to rule out."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_package("repro"):
            return []
        findings: list[Finding] = []
        for cls in walk(ctx.tree):
            if isinstance(cls, ast.ClassDef):
                findings.extend(self._check_class(ctx, cls))
        return findings

    # ------------------------------------------------------------------
    def _lock_attrs(self, ctx: ModuleContext, cls: ast.ClassDef) -> set[str]:
        locks: set[str] = set()
        for node in walk(cls):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            if ctx.resolve(node.value.func) not in _LOCK_FACTORIES:
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    locks.add(attr)
        return locks

    def _check_class(self, ctx: ModuleContext, cls: ast.ClassDef) -> list[Finding]:
        locks = self._lock_attrs(ctx, cls)
        if not locks:
            return []

        # One pass collecting every mutation with its lock-held flag.
        mutations: list[tuple[str, str, ast.AST, bool]] = []  # (method, attr, node, locked)

        def scan(stmts: list[ast.stmt], method: str, locked: bool) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    holds = locked or any(
                        _self_attr(item.context_expr) in locks for item in stmt.items
                    )
                    scan(stmt.body, method, holds)
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue  # nested scopes analysed separately / out of scope
                elif isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While, ast.Try)):
                    # Recurse block-by-block so nested `with self._lock:`
                    # bodies keep their own lock-held flag.
                    for child_block in ("body", "orelse", "finalbody"):
                        scan(getattr(stmt, child_block, []) or [], method, locked)
                    for handler in getattr(stmt, "handlers", []) or []:
                        scan(handler.body, method, locked)
                elif isinstance(stmt, ast.Match):
                    for case in stmt.cases:
                        scan(case.body, method, locked)
                else:
                    for attr, node in _mutation_targets(stmt):
                        mutations.append((method, attr, node, locked))

        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(item.body, item.name, locked=False)

        guarded = set(SEEDED_SHARED_ATTRS.get((ctx.module, cls.name), frozenset()))
        guarded.update(attr for _, attr, _, locked in mutations if locked)
        guarded -= locks  # the lock object itself is not data

        findings: list[Finding] = []
        lock_name = sorted(locks)[0]
        for method, attr, node, locked in mutations:
            if locked or attr not in guarded or method in _CONSTRUCTION_METHODS:
                continue
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"{cls.name}.{method} mutates shared attribute 'self.{attr}' outside "
                    f"'with self.{lock_name}:' — every mutation of lock-guarded state "
                    "must hold the lock",
                )
            )
        return findings
