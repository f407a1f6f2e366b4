"""Interprocedural thread-context and resource analysis.

The per-file THR001 rule enforces one lexical pattern — lock-owning
classes mutate their attributes under ``with self._lock:`` — but the
repo's real concurrency surface is interprocedural: a
:class:`~repro.serving.microbatch.MicroBatcher` dispatcher thread calls
into the service, and the metrics registry is written from the
dispatcher and the main thread at once.  This module builds
the whole-program view those rules need, on top of the existing
:class:`~repro.devtools.graph.ProjectIndex` / call graph:

* **Execution-context lattice** — every function gets a subset of
  ``{main, thread}``.  Seeds: ``threading.Thread``/``Timer`` targets
  and ``executor.submit`` callees run in *thread* context, and
  everything that is not exclusively an entry target is callable from
  *main*.  Contexts propagate caller -> callee over resolved call edges
  to a fixpoint, so ``MicroBatcher._run -> select_many -> flush`` marks
  the whole chain as thread-entered.
* **Shared-state access map** — per class, which ``self`` attributes are
  accessed from more than one context, and whether each *mutation*
  lexically holds one of the class's locks (THR002's evidence).
* **Lock-order graph** — directed edges ``A -> B`` whenever lock B is
  acquired (lexically, or transitively through a resolved call) while A
  is held; a cycle is an inversion (THR003's evidence).

The analysis is built once per :class:`ProjectIndex` and cached on it,
so the consuming rules share one fixpoint per ``repro check`` run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.devtools.context import ModuleContext, walk
from repro.devtools.rules.locking import (
    _CONSTRUCTION_METHODS,
    _LOCK_FACTORIES,
    _mutation_targets,
    _self_attr,
)

if TYPE_CHECKING:  # the index type; imported lazily to keep layering flat
    from repro.devtools.graph import ProjectIndex

__all__ = [
    "CONTEXTS",
    "AttrAccess",
    "ConcurrencyAnalysis",
    "EntryPoint",
    "LockAcquisition",
    "get_analysis",
]

#: The context lattice: every function maps to a subset of these.
CONTEXTS = ("main", "thread")

#: Call targets that register a *thread* entry point, by trailing match.
_THREAD_FACTORIES = ("threading.Thread", "threading.Timer")
#: Attribute spellings that register thread entries when the receiver
#: type is opaque (``pool.submit`` on an untyped executor).
_SUBMIT_ATTRS = frozenset({"submit"})


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EntryPoint:
    """One registration of a function as a thread entry."""

    target: str  #: qualname of the function run in the new context
    kind: str  #: "thread"
    module: str
    line: int
    via: str  #: e.g. "threading.Thread(target=...)"


@dataclass(frozen=True)
class LockAcquisition:
    """Lock B acquired while lock A is held (one lock-order edge)."""

    held: str  #: lock id already held
    acquired: str  #: lock id being acquired
    module: str
    caller: str
    line: int
    col: int
    #: "" for a lexical nested ``with``; the callee qualname when the
    #: acquisition happens transitively through a resolved call.
    via_call: str = ""


@dataclass(frozen=True)
class AttrAccess:
    """One ``self.X`` access inside a method body."""

    class_qualname: str
    method: str
    attr: str
    line: int
    col: int
    is_store: bool
    #: Lock attrs of the class lexically held at this access.
    held_locks: frozenset[str]


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
class ConcurrencyAnalysis:
    """Whole-program concurrency facts over one :class:`ProjectIndex`."""

    def __init__(self, index: "ProjectIndex") -> None:
        self.index = index
        self.graph = index.call_graph()
        #: qualname -> frozenset of contexts the function can run in.
        self.contexts: dict[str, frozenset[str]] = {}
        self.entries: list[EntryPoint] = []
        #: class qualname -> lock-typed ``self`` attribute names.
        self.class_locks: dict[str, frozenset[str]] = {}
        #: module -> module-level names bound to lock factories.
        self.module_locks: dict[str, frozenset[str]] = {}
        self.lock_edges: list[LockAcquisition] = []
        #: class qualname -> every self-attribute access in its methods.
        self.class_accesses: dict[str, list[AttrAccess]] = {}
        #: class qualname -> attrs THR001 already guards (mutated under
        #: lock at least once) — THR002 leaves those to THR001.
        self.thr001_guarded: dict[str, frozenset[str]] = {}
        #: Thread-reachable functions -> locks held on *every* thread path
        #: into them.  A non-empty set means the function is serialized by
        #: those locks; an empty set means it truly races with main.
        self.thread_serialized: dict[str, frozenset[str]] = {}
        #: Thread-reachable functions with at least one lock-free path.
        self.thread_racy: frozenset[str] = frozenset()
        #: Methods only reachable from their class's constructors
        #: (packing helpers etc.) — construction happens-before publication.
        self.construction_only: frozenset[str] = frozenset()
        #: Locks lexically held at each resolved call site (by id(site)).
        self._held_at_site: dict[int, frozenset[str]] = {}

        self._site_by_node: dict[int, object] = {
            id(s.node): s for s in self.graph.sites if s.node is not None
        }
        self._discover_locks()
        self._discover_entries()
        self._build_lock_order()
        self._infer_contexts()
        self._find_construction_only()
        self._scan_classes()

    # -- lock discovery --------------------------------------------------
    def _discover_locks(self) -> None:
        for qual, cinfo in self.index.classes.items():
            ctx = self.index.modules[cinfo.module]
            locks: set[str] = set()
            for node in walk(cinfo.node):
                if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                    continue
                if ctx.resolve(node.value.func) not in _LOCK_FACTORIES:
                    continue
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        locks.add(attr)
            if locks:
                self.class_locks[qual] = frozenset(locks)
        for module, ctx in self.index.modules.items():
            names: set[str] = set()
            for stmt in ctx.tree.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Call)
                    and ctx.resolve(stmt.value.func) in _LOCK_FACTORIES
                ):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            if names:
                self.module_locks[module] = frozenset(names)

    # -- entry points ----------------------------------------------------
    def _discover_entries(self) -> None:
        for site in self.graph.sites:
            call = site.node
            if call is None:
                continue
            kind, target_expr, via = self._entry_of(site, call)
            if kind is None or target_expr is None:
                continue
            qual = self._resolve_callable_ref(target_expr, site)
            if qual is None:
                continue
            self.entries.append(
                EntryPoint(target=qual, kind=kind, module=site.module, line=call.lineno, via=via)
            )

    def _entry_of(self, site, call: ast.Call):
        """(kind, target expression, via) for a thread spawn/submit site, else Nones."""
        target = site.target or ""
        kw = {k.arg: k.value for k in call.keywords if k.arg is not None}
        if any(target.endswith(f) for f in _THREAD_FACTORIES):
            if target.endswith("Timer"):
                expr = kw.get("function") or (call.args[1] if len(call.args) > 1 else None)
            else:
                # Thread(group=None, target=None, ...): positional target is arg 1.
                expr = kw.get("target") or (call.args[1] if len(call.args) > 1 else None)
            return "thread", expr, f"{target}(...)"
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _SUBMIT_ATTRS and call.args:
            return "thread", call.args[0], f"{ast.unparse(func)}(...)"
        return None, None, ""

    def _resolve_callable_ref(self, expr: ast.expr, site) -> str | None:
        """Project qualname of a function *reference* (not a call)."""
        ctx = self.index.modules.get(site.module)
        if ctx is None:
            return None
        caller_fn = self.index.functions.get(site.caller)
        scope = self.index._scope_for(caller_fn, ctx) if caller_fn is not None else {}
        if isinstance(expr, ast.Name):
            if caller_fn is not None:
                local = self.index._local_defs_for(caller_fn).get(expr.id)
                if local is not None:
                    return local
            qual = self.index.module_defs.get(ctx.module, {}).get(expr.id)
            if qual is None:
                origin = ctx.imports.get(expr.id)
                if origin is not None:
                    qual = self.index.resolve_name(origin)
            if qual is not None and qual in self.index.functions:
                return qual
            if qual is not None and qual in self.index.classes:
                call_method = self.index.lookup_method(qual, "__call__")
                return call_method.qualname if call_method is not None else None
            return None
        if isinstance(expr, ast.Attribute):
            base = self.index.value_type(expr.value, scope, ctx)
            if base is not None and base[0] in ("class", "type"):
                method = self.index.lookup_method(base[1], expr.attr)
                if method is not None:
                    return method.qualname
        return None

    # -- context fixpoint ------------------------------------------------
    def _infer_contexts(self) -> None:
        edges: dict[str, set[str]] = {}
        edge_sites: dict[str, list] = {}
        module_called: set[str] = set()
        for s in self.graph.edges:
            if s.target is None:
                continue
            if s.caller in self.index.functions:
                edges.setdefault(s.caller, set()).add(s.target)
                edge_sites.setdefault(s.caller, []).append(s)
            else:  # module-level code runs on import, i.e. in main
                module_called.add(s.target)
        entry_targets = {e.target for e in self.entries}

        def closure(roots: set[str]) -> set[str]:
            reached = set(roots)
            frontier = list(roots)
            while frontier:
                f = frontier.pop()
                for callee in edges.get(f, ()):
                    if callee not in reached:
                        reached.add(callee)
                        frontier.append(callee)
            return reached

        # Thread closure tracks the locks held along each propagation
        # path: entering a callee through a call made under `with lock:`
        # serializes everything below it (the design contract of the
        # serving layer — engines are not internally locked, the service
        # flush lock is).  A function whose every thread path holds some
        # lock is "serialized"; only lock-free reachability is racy.
        thread_prot: dict[str, frozenset[str]] = {
            e.target: frozenset() for e in self.entries if e.kind == "thread"
        }
        work = list(thread_prot)
        while work:
            f = work.pop()
            for site in edge_sites.get(f, ()):
                new = thread_prot[f] | self._held_at_site.get(id(site), frozenset())
                current = thread_prot.get(site.target)
                merged = new if current is None else (current & new)
                if current is None or merged != current:
                    thread_prot[site.target] = merged
                    work.append(site.target)
        self.thread_serialized = dict(thread_prot)
        self.thread_racy = frozenset(q for q, held in thread_prot.items() if not held)

        thread_set = set(thread_prot)
        # Main: any function that is not exclusively a spawn target is
        # importable and callable from the main thread, plus anything
        # module-level code calls directly.
        main_roots = (set(self.index.functions) - entry_targets) | module_called
        self.main_set = closure(main_roots)

        for qual in self.index.functions:
            members = set()
            if qual in self.main_set:
                members.add("main")
            if qual in thread_set:
                members.add("thread")
            self.contexts[qual] = frozenset(members or {"main"})

    def _find_construction_only(self) -> None:
        """Methods reachable (in-project) only from their class's __init__.

        A packing helper called only from ``__init__`` runs before the
        object is published; mutations there are happens-before any other
        thread and are not shared-state races.  A method qualifies when
        every resolved caller is a construction method of the same class
        or itself construction-only (fixpoint), and it has at least one
        caller (unreferenced public methods stay callable from anywhere).
        """
        callers: dict[str, set[str]] = {}
        for s in self.graph.edges:
            if s.target is not None and s.caller in self.index.functions:
                callers.setdefault(s.target, set()).add(s.caller)

        def is_ctor(qual: str) -> bool:
            fn = self.index.functions.get(qual)
            return (
                fn is not None
                and fn.class_qualname is not None
                and fn.name in _CONSTRUCTION_METHODS
            )

        out: set[str] = set()
        changed = True
        while changed:
            changed = False
            for qual, fn in self.index.functions.items():
                if qual in out or fn.class_qualname is None:
                    continue
                callers_of_q = callers.get(qual, set())
                # Nested defs inherit their enclosing function's reachability.
                parent = qual.rsplit(".", 1)[0]
                if parent in self.index.functions:
                    callers_of_q = callers_of_q | {parent}
                if not callers_of_q:
                    continue
                if all(is_ctor(c) or c in out for c in callers_of_q):
                    out.add(qual)
                    changed = True
        self.construction_only = frozenset(out)

    # -- shared-state access map ----------------------------------------
    def _scan_classes(self) -> None:
        for qual, cinfo in self.index.classes.items():
            locks = self.class_locks.get(qual, frozenset())
            accesses: list[AttrAccess] = []
            guarded: set[str] = set()
            for method_name, method in cinfo.methods.items():
                for access in self._method_accesses(qual, method_name, method.node, locks):
                    accesses.append(access)
                    if access.is_store and access.held_locks:
                        guarded.add(access.attr)
            self.class_accesses[qual] = accesses
            self.thr001_guarded[qual] = frozenset(guarded)

    def _method_accesses(self, class_qual, method_name, fn, locks):
        out: list[AttrAccess] = []

        def record_loads(stmt: ast.stmt, held: frozenset[str]) -> None:
            # Mutations first (anchor may be a Subscript/Call, not the
            # Attribute itself), then every self.<attr> occurrence as a
            # read; a store target double-counting as a read is harmless
            # for the per-attribute context union.
            for attr, anchor in _mutation_targets(stmt):
                out.append(
                    AttrAccess(
                        class_qualname=class_qual,
                        method=method_name,
                        attr=attr,
                        line=anchor.lineno,
                        col=anchor.col_offset,
                        is_store=True,
                        held_locks=held,
                    )
                )
            record_loads_expr(stmt, held)

        def record_loads_expr(root: ast.AST, held: frozenset[str]) -> None:
            for node in walk(root):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    out.append(
                        AttrAccess(
                            class_qualname=class_qual,
                            method=method_name,
                            attr=node.attr,
                            line=node.lineno,
                            col=node.col_offset,
                            is_store=False,
                            held_locks=held,
                        )
                    )

        def scan(stmts: list[ast.stmt], held: frozenset[str]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    newly = {
                        a
                        for item in stmt.items
                        if (a := _self_attr(item.context_expr)) in locks
                    }
                    for item in stmt.items:
                        record_loads_expr(item.context_expr, held)
                    scan(stmt.body, held | frozenset(newly))
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                elif isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While, ast.Try)):
                    for expr_field in ("test", "iter", "target"):
                        sub = getattr(stmt, expr_field, None)
                        if isinstance(sub, ast.expr):
                            record_loads_expr(sub, held)
                    for block in ("body", "orelse", "finalbody"):
                        scan(getattr(stmt, block, []) or [], held)
                    for handler in getattr(stmt, "handlers", []) or []:
                        scan(handler.body, held)
                elif isinstance(stmt, ast.Match):
                    record_loads_expr(stmt.subject, held)
                    for case in stmt.cases:
                        scan(case.body, held)
                else:
                    record_loads(stmt, held)

        scan(fn.body, frozenset())
        return out

    # -- lock-order graph ------------------------------------------------
    def _lock_id(self, ctx: ModuleContext, owner_class: str | None, expr: ast.expr) -> str | None:
        """Stable identity of a lock-typed ``with`` context expression."""
        attr = _self_attr(expr)
        if attr is not None and owner_class is not None:
            if attr in self.class_locks.get(owner_class, frozenset()):
                return f"{owner_class}.{attr}"
            return None
        # self.<obj>._lock style: type the receiver to its owning class.
        if isinstance(expr, ast.Attribute):
            caller_fn = self._current_walk_fn
            scope = (
                self.index._scope_for(caller_fn, ctx) if caller_fn is not None else {}
            )
            base = self.index.value_type(expr.value, scope, ctx)
            if base is not None and base[0] == "class":
                if expr.attr in self.class_locks.get(base[1], frozenset()):
                    return f"{base[1]}.{expr.attr}"
            return None
        if isinstance(expr, ast.Name) and expr.id in self.module_locks.get(ctx.module, frozenset()):
            return f"{ctx.module}:{expr.id}"
        return None

    def _build_lock_order(self) -> None:
        # Pass 1: direct acquisitions per function + lexical nesting edges
        # + (held-locks, resolved call) pairs for pass 2.
        direct: dict[str, set[str]] = {}
        pending_calls: list[tuple[frozenset[str], object]] = []  # (held, site)
        self._current_walk_fn = None
        for qual, fn in self.index.functions.items():
            ctx = self.index.modules.get(fn.module)
            if ctx is None:
                continue
            self._current_walk_fn = fn
            owner = fn.class_qualname
            acquired: set[str] = set()

            def walk_block(stmts: list[ast.stmt], held: frozenset[str]) -> None:
                for stmt in stmts:
                    if isinstance(stmt, (ast.With, ast.AsyncWith)):
                        new_ids = []
                        for item in stmt.items:
                            lock_id = self._lock_id(ctx, owner, item.context_expr)
                            if lock_id is not None:
                                new_ids.append((lock_id, item.context_expr))
                        now_held = set(held)
                        for lock_id, anchor in new_ids:
                            acquired.add(lock_id)
                            for h in now_held:
                                if h != lock_id:
                                    self.lock_edges.append(
                                        LockAcquisition(
                                            held=h,
                                            acquired=lock_id,
                                            module=ctx.module,
                                            caller=qual,
                                            line=anchor.lineno,
                                            col=anchor.col_offset,
                                        )
                                    )
                            now_held.add(lock_id)
                        walk_block(stmt.body, frozenset(now_held))
                    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        continue
                    elif isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While, ast.Try)):
                        for expr_field in ("test", "iter"):
                            sub = getattr(stmt, expr_field, None)
                            if isinstance(sub, ast.expr):
                                note_calls(sub, held)
                        for block in ("body", "orelse", "finalbody"):
                            walk_block(getattr(stmt, block, []) or [], held)
                        for handler in getattr(stmt, "handlers", []) or []:
                            walk_block(handler.body, held)
                    elif isinstance(stmt, ast.Match):
                        for case in stmt.cases:
                            walk_block(case.body, held)
                    else:
                        note_calls(stmt, held)

            def note_calls(node: ast.AST, held: frozenset[str]) -> None:
                if not held:
                    return
                for sub in walk(node):
                    if isinstance(sub, ast.Call):
                        site = self._site_by_node.get(id(sub))
                        if site is None:
                            continue
                        if site.kind == "resolved":
                            pending_calls.append((held, site))
                            self._held_at_site[id(site)] = held

            walk_block(fn.node.body, frozenset())
            direct[qual] = acquired
        self._current_walk_fn = None

        # Pass 2: eventual-acquisition fixpoint over resolved call edges.
        eventual: dict[str, set[str]] = {q: set(s) for q, s in direct.items()}
        callees: dict[str, set[str]] = {}
        for s in self.graph.edges:
            if s.caller in self.index.functions and s.target is not None:
                callees.setdefault(s.caller, set()).add(s.target)
        changed = True
        while changed:
            changed = False
            for caller, targets in callees.items():
                acc = eventual.setdefault(caller, set())
                before = len(acc)
                for t in targets:
                    acc |= eventual.get(t, set())
                if len(acc) != before:
                    changed = True
        self.eventual_acquires = {q: frozenset(s) for q, s in eventual.items()}

        # Pass 3: held-across-call edges (A held here, B acquired below).
        for held, site in pending_calls:
            for lock_id in self.eventual_acquires.get(site.target, frozenset()):
                for h in held:
                    if h != lock_id:
                        self.lock_edges.append(
                            LockAcquisition(
                                held=h,
                                acquired=lock_id,
                                module=site.module,
                                caller=site.caller,
                                line=site.line,
                                col=site.col,
                                via_call=site.target,
                            )
                        )

    def inversions(self) -> list[tuple[LockAcquisition, LockAcquisition]]:
        """Pairs of edges forming an A->B / B->A acquisition-order cycle.

        Each inverted unordered lock pair is reported once, carrying one
        witness edge per direction (the first seen in source order).
        """
        first_edge: dict[tuple[str, str], LockAcquisition] = {}
        for edge in sorted(self.lock_edges, key=lambda e: (e.module, e.line, e.col)):
            first_edge.setdefault((edge.held, edge.acquired), edge)
        out = []
        seen: set[frozenset[str]] = set()
        for (a, b), edge in first_edge.items():
            back = first_edge.get((b, a))
            if back is None:
                continue
            pair = frozenset((a, b))
            if pair in seen:
                continue
            seen.add(pair)
            out.append((edge, back))
        return out


def get_analysis(index: "ProjectIndex") -> ConcurrencyAnalysis:
    """The (cached) analysis for one project index."""
    analysis = getattr(index, "_concurrency_analysis", None)
    if analysis is None:
        analysis = ConcurrencyAnalysis(index)
        index._concurrency_analysis = analysis
    return analysis
