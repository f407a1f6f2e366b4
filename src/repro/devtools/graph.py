"""Project-wide index and call graph for interprocedural rules.

The per-file rules (DET001..OBS001) see one :class:`ModuleContext` at a
time; anything that crosses a module boundary — unit flow through call
edges, seed lineage along call paths — needs a whole-program view.  This
module provides it in two layers:

* :class:`ProjectIndex` — every module, function, method, class and
  dataclass field under one scan root, with module-qualified names
  (``repro.gpusim.power.PowerModel.power``), re-export chasing
  (``repro.core.EDP`` -> ``repro.core.energy.EDP``) and light type
  inference (parameter annotations, ``self.x = Ctor(...)`` attribute
  types, local constructor assignments).
* :class:`CallGraph` — every call site in the project, classified as
  **resolved** (edge to a project definition), **external** (numpy,
  stdlib, builtins, well-known container methods) or **unresolved**
  (reported with a reason, never silently dropped).  ``repro graph``
  dumps it as JSON or DOT; the gate asserts the resolution rate.

Interprocedural rules opt in by setting ``needs_project = True``; the
engine then builds one shared index per run and exposes it as
``ctx.project``.
"""

from __future__ import annotations

import ast
import builtins
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.context import ModuleContext, context_from_source, source_text, walk

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ProjectIndex",
    "bind_arguments",
    "index_from_sources",
]

_BUILTIN_NAMES = frozenset(dir(builtins))

#: Builtins that return a sequence preserving the element type.
_CONTAINER_PASSTHROUGH = frozenset(
    {"builtins.reversed", "builtins.sorted", "builtins.list", "builtins.tuple"}
)

#: Method names so strongly associated with stdlib/numpy receivers that a
#: call on an *untyped* receiver classifies as external instead of
#: unresolved.  Kept conservative: none of these name a project method.
_KNOWN_EXTERNAL_METHODS = frozenset(
    {
        # list / set / dict / str
        "append", "extend", "insert", "remove", "clear", "sort", "reverse",
        "add", "discard", "update", "setdefault", "popitem",
        "items", "keys", "values", "get", "pop", "count", "index",
        "join", "split", "rsplit", "strip", "lstrip", "rstrip", "replace",
        "startswith", "endswith", "format", "upper", "lower", "title",
        "encode", "decode", "splitlines", "ljust", "rjust", "zfill", "casefold",
        # numpy ndarray / scalar
        "sum", "mean", "std", "var", "min", "max", "argmin", "argmax",
        "reshape", "astype", "copy", "tolist", "ravel", "flatten", "item",
        "squeeze", "transpose", "clip", "round", "fill", "dot", "cumsum",
        "tobytes", "view", "repeat", "take", "searchsorted", "nonzero", "any", "all",
        # pathlib / io
        "read_text", "write_text", "read_bytes", "write_bytes", "open",
        "mkdir", "exists", "is_dir", "is_file", "glob", "rglob", "resolve",
        "relative_to", "as_posix", "with_suffix", "with_name", "unlink", "iterdir",
        "read", "write", "readline", "readlines", "close", "flush", "seek", "tell",
        # threading / concurrency / misc stdlib objects
        "acquire", "release", "locked", "wait", "notify", "notify_all",
        "start", "run", "cancel", "result", "submit", "shutdown", "map",
        "put", "get_nowait", "put_nowait", "task_done", "qsize",
        "groups", "group", "match", "search", "sub", "findall", "finditer",
        "most_common", "elements", "total",
        "hexdigest", "digest", "copy_to", "isoformat", "timestamp",
        "spawn", "integers", "random", "normal", "standard_normal", "choice",
        "permutation", "shuffle", "uniform", "generate_state",
    }
)


# ----------------------------------------------------------------------
# Index records
# ----------------------------------------------------------------------
@dataclass
class FunctionInfo:
    """One function or method definition, module-qualified."""

    qualname: str
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(repr=False)
    params: tuple[str, ...]
    class_qualname: str | None = None
    decorators: tuple[str, ...] = ()

    @property
    def lineno(self) -> int:
        return self.node.lineno

    @property
    def is_property(self) -> bool:
        return "property" in self.decorators or "cached_property" in self.decorators

    @property
    def returns(self) -> ast.expr | None:
        return self.node.returns


@dataclass
class ClassInfo:
    """One class definition with method table and attribute types."""

    qualname: str
    module: str
    node: ast.ClassDef = field(repr=False)
    base_exprs: tuple[ast.expr, ...] = field(default=(), repr=False)
    #: Resolved project-internal base-class qualnames (post ``_link``).
    bases: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict, repr=False)
    #: ``self.<attr>`` -> inferred type tag (see ``ProjectIndex.value_type``).
    attr_types: dict[str, tuple[str, str]] = field(default_factory=dict, repr=False)
    #: Class-level field annotations (dataclass fields and the like).
    attr_annotations: dict[str, ast.expr] = field(default_factory=dict, repr=False)

    @property
    def lineno(self) -> int:
        return self.node.lineno

    @property
    def has_external_bases(self) -> bool:
        """Whether any base class could not be resolved inside the project."""
        return len(self.bases) < len(self.base_exprs)


# ----------------------------------------------------------------------
# Call sites
# ----------------------------------------------------------------------
@dataclass
class CallSite:
    """One call expression, classified against the project index."""

    caller: str
    module: str
    path: str
    line: int
    col: int
    expr: str
    kind: str  # "resolved" | "external" | "unresolved"
    target: str | None = None
    reason: str = ""
    #: Whether the first parameter (self) is implicitly bound.
    bound: bool = False
    node: ast.Call | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        payload = {
            "caller": self.caller,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "expr": self.expr,
            "kind": self.kind,
        }
        if self.target is not None:
            payload["target"] = self.target
        if self.reason:
            payload["reason"] = self.reason
        return payload


class CallGraph:
    """All call sites of one project, with resolution statistics."""

    def __init__(self, sites: list[CallSite]) -> None:
        self.sites = sites

    @property
    def edges(self) -> list[CallSite]:
        """Resolved project-internal edges only."""
        return [s for s in self.sites if s.kind == "resolved"]

    @property
    def unresolved(self) -> list[CallSite]:
        return [s for s in self.sites if s.kind == "unresolved"]

    def sites_in(self, module: str) -> list[CallSite]:
        return [s for s in self.sites if s.module == module]

    def stats(self) -> dict:
        """Resolution statistics; the rate excludes external call sites."""
        n_external = sum(1 for s in self.sites if s.kind == "external")
        n_resolved = len(self.edges)
        n_unresolved = len(self.unresolved)
        candidates = n_resolved + n_unresolved
        return {
            "total_sites": len(self.sites),
            "external": n_external,
            "resolved": n_resolved,
            "unresolved": n_unresolved,
            "resolution_rate": (n_resolved / candidates) if candidates else 1.0,
        }

    def to_dict(self, *, include_external: bool = False) -> dict:
        return {
            "schema": 1,
            "stats": self.stats(),
            "edges": [s.to_dict() for s in self.edges],
            "unresolved": [s.to_dict() for s in self.unresolved],
            **(
                {"external": [s.to_dict() for s in self.sites if s.kind == "external"]}
                if include_external
                else {}
            ),
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_dot(self) -> str:
        """Graphviz digraph of the resolved edges (deduplicated)."""
        lines = ["digraph callgraph {", "  rankdir=LR;", '  node [shape=box, fontsize=10];']
        seen: set[tuple[str, str]] = set()
        for site in self.edges:
            pair = (site.caller, site.target or "")
            if pair in seen:
                continue
            seen.add(pair)
            lines.append(f'  "{site.caller}" -> "{site.target}";')
        lines.append("}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Project index
# ----------------------------------------------------------------------
class ProjectIndex:
    """Module-qualified symbol table over one set of module contexts."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleContext] = {}
        #: First dotted component of every indexed module (``repro``, ...).
        self.top_packages: set[str] = set()
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: Per-module top-level definition table: name -> qualname.
        self.module_defs: dict[str, dict[str, str]] = {}
        #: Per-module top-level variable types (``_DEFAULT = build()`` singletons).
        self.module_vars: dict[str, dict[str, tuple[str, str]]] = {}
        self._graph: CallGraph | None = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_contexts(cls, contexts: list[ModuleContext]) -> "ProjectIndex":
        index = cls()
        for ctx in contexts:
            index._index_module(ctx)
        index._link()
        return index

    def _index_module(self, ctx: ModuleContext) -> None:
        self.modules[ctx.module] = ctx
        self.top_packages.add(ctx.module.split(".", 1)[0])
        defs = self.module_defs.setdefault(ctx.module, {})
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._make_function(ctx, node, prefix=ctx.module)
                defs[node.name] = info.qualname
            elif isinstance(node, ast.ClassDef):
                cinfo = self._make_class(ctx, node)
                defs[node.name] = cinfo.qualname

    def _make_function(
        self,
        ctx: ModuleContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        prefix: str,
        class_qualname: str | None = None,
    ) -> FunctionInfo:
        args = node.args
        params = tuple(
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        )
        decorators = tuple(
            dec.id if isinstance(dec, ast.Name) else ast.unparse(dec)
            for dec in node.decorator_list
        )
        info = FunctionInfo(
            qualname=f"{prefix}.{node.name}",
            module=ctx.module,
            name=node.name,
            node=node,
            params=params,
            class_qualname=class_qualname,
            decorators=decorators,
        )
        self.functions[info.qualname] = info
        # Nested defs are indexed too (resolution targets for local calls),
        # including ones declared inside try/if/with blocks.
        for sub in _block_nested_defs(node.body):
            self._make_function(ctx, sub, prefix=info.qualname, class_qualname=class_qualname)
        return info

    def _make_class(self, ctx: ModuleContext, node: ast.ClassDef) -> ClassInfo:
        qualname = f"{ctx.module}.{node.name}"
        cinfo = ClassInfo(
            qualname=qualname,
            module=ctx.module,
            node=node,
            base_exprs=tuple(node.bases),
        )
        for sub in node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._make_function(ctx, sub, prefix=qualname, class_qualname=qualname)
                cinfo.methods[sub.name] = info
            elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                cinfo.attr_annotations[sub.target.id] = sub.annotation
        self.classes[qualname] = cinfo
        return cinfo

    def _link(self) -> None:
        """Second pass: resolve base classes and self-attribute types."""
        for cinfo in self.classes.values():
            ctx = self.modules[cinfo.module]
            bases: list[str] = []
            for expr in cinfo.base_exprs:
                qual = self._resolve_symbol_expr(expr, ctx)
                if qual is not None and qual in self.classes:
                    bases.append(qual)
            cinfo.bases = tuple(bases)
        for cinfo in self.classes.values():
            ctx = self.modules[cinfo.module]
            # Dataclass-style field annotations typed to project classes.
            for name, ann in cinfo.attr_annotations.items():
                typ = self.annotation_type(ann, ctx)
                if typ is not None and typ[0] != "external":
                    cinfo.attr_types.setdefault(name, typ)
            for method_name in ("__init__", "__post_init__"):
                init = self.lookup_method(cinfo.qualname, method_name)
                if init is None or init.class_qualname != cinfo.qualname:
                    continue
                self._type_construction(init, cinfo, ctx)
        # Module-level singletons (``_DEFAULT = _build_default()``): typed so
        # attribute calls on them resolve from any function in the module.
        for module, ctx in self.modules.items():
            mvars = self.module_vars.setdefault(module, {})
            for stmt in ctx.tree.body:
                target = None
                value = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value = stmt.target, stmt.value
                if not isinstance(target, ast.Name):
                    continue
                typ = None
                if isinstance(stmt, ast.AnnAssign):
                    typ = self.annotation_type(stmt.annotation, ctx)
                if typ is None and value is not None:
                    typ = self.value_type(value, {}, ctx)
                if typ is not None:
                    mvars[target.id] = typ

    def _type_construction(self, init: FunctionInfo, cinfo: ClassInfo, ctx: ModuleContext) -> None:
        """Ordered walk of a constructor body typing ``self.*`` attributes.

        Locals assigned earlier feed the attributes assigned later —
        ``registry = get_registry(); self._m = registry.counter(...)``
        types ``_m`` from ``counter``'s return annotation.  Control-flow
        blocks are descended in source order; nested defs are not.
        """
        scope = self._scope_for(init, ctx)
        local_defs = self._local_defs_for(init)

        def visit(body: list[ast.stmt]) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                target = None
                value = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value = stmt.target, stmt.value
                if target is not None:
                    typ = None
                    if isinstance(stmt, ast.AnnAssign):
                        typ = self.annotation_type(stmt.annotation, ctx)
                    if typ is None and value is not None:
                        typ = self.value_type(value, scope, ctx, local_defs=local_defs)
                    if isinstance(target, ast.Name):
                        if typ is not None:
                            scope[target.id] = typ
                        else:
                            scope.pop(target.id, None)
                    elif (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and typ is not None
                        and typ[0] != "external"
                    ):
                        cinfo.attr_types.setdefault(target.attr, typ)
                for _field, val in ast.iter_fields(stmt):
                    if isinstance(val, list):
                        visit([s for s in val if isinstance(s, ast.stmt)])
                        for sub in val:
                            if isinstance(sub, (ast.excepthandler, ast.match_case)):
                                visit(sub.body)

        visit(init.node.body)

    # -- symbol resolution ----------------------------------------------
    def resolve_name(self, dotted: str, *, _depth: int = 0) -> str | None:
        """Project qualname for a dotted name, chasing re-exports."""
        if _depth > 16:
            return None
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            module = ".".join(parts[:i])
            if module not in self.modules:
                continue
            rest = parts[i:]
            if not rest:
                return None  # a bare module is not a callable definition
            head, tail = rest[0], rest[1:]
            defs = self.module_defs.get(module, {})
            if head in defs:
                qual = defs[head]
                for attr in tail:
                    qual = f"{qual}.{attr}"
                if qual in self.functions or qual in self.classes:
                    return qual
                return None
            origin = self.modules[module].imports.get(head)
            if origin is not None:
                suffix = "." + ".".join(tail) if tail else ""
                return self.resolve_name(origin + suffix, _depth=_depth + 1)
            return None
        return None

    def _resolve_symbol_expr(self, expr: ast.expr, ctx: ModuleContext) -> str | None:
        """Qualname of a Name/Attribute expression in ``ctx``, if internal."""
        if isinstance(expr, ast.Name):
            local = self.module_defs.get(ctx.module, {}).get(expr.id)
            if local is not None:
                return local
        dotted = ctx.resolve(expr)
        if dotted is not None:
            return self.resolve_name(dotted)
        return None

    def lookup_method(self, class_qualname: str, name: str, *, _seen: frozenset = frozenset()) -> FunctionInfo | None:
        """Method by name, walking resolvable base classes depth-first."""
        if class_qualname in _seen:
            return None
        cinfo = self.classes.get(class_qualname)
        if cinfo is None:
            return None
        if name in cinfo.methods:
            return cinfo.methods[name]
        for base in cinfo.bases:
            found = self.lookup_method(base, name, _seen=_seen | {class_qualname})
            if found is not None:
                return found
        return None

    def constructor_target(self, class_qualname: str) -> str:
        """The edge target for ``ClassName(...)``: ``__init__`` when defined."""
        init = self.lookup_method(class_qualname, "__init__")
        if init is not None:
            return init.qualname
        return class_qualname

    # -- light type inference -------------------------------------------
    def annotation_type(
        self, ann: ast.expr | None, ctx: ModuleContext
    ) -> tuple[str, str] | None:
        """Type tag for an annotation expression.

        Tags: ``('class', qual)`` project instance, ``('type', qual)``
        project class object, ``('seq', qual)``/``('map', qual)`` container
        of/onto project instances, ``('external', label)`` everything else.
        """
        if ann is None:
            return None
        if isinstance(ann, ast.Constant):
            if isinstance(ann.value, str):
                try:
                    return self.annotation_type(ast.parse(ann.value, mode="eval").body, ctx)
                except SyntaxError:
                    return None
            return None
        if isinstance(ann, (ast.Name, ast.Attribute)):
            qual = self._resolve_symbol_expr(ann, ctx)
            if qual is not None and qual in self.classes:
                return ("class", qual)
            dotted = ctx.resolve(ann)
            if dotted is not None and not _is_project_dotted(dotted, self):
                return ("external", dotted)
            if dotted is None and isinstance(ann, ast.Name) and qual is None:
                # A plain name that is neither a project class nor an import:
                # a builtin (float, dict) or a module-level type alias.
                return ("external", ann.id)
            return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            left = self.annotation_type(ann.left, ctx)
            if left is not None and left[0] == "class":
                return left
            right = self.annotation_type(ann.right, ctx)
            if right is not None and right[0] == "class":
                return right
            return left or right
        if isinstance(ann, ast.Subscript):
            dotted = ctx.resolve(ann.value) or ""
            head = dotted.rsplit(".", 1)[-1] if dotted else (
                ann.value.id if isinstance(ann.value, ast.Name) else ""
            )
            if head == "Optional":
                return self.annotation_type(ann.slice, ctx)
            if head == "Annotated" and isinstance(ann.slice, ast.Tuple) and ann.slice.elts:
                return self.annotation_type(ann.slice.elts[0], ctx)
            if head == "type" or head == "Type":
                elem = self.annotation_type(ann.slice, ctx)
                if elem is not None and elem[0] == "class":
                    return ("type", elem[1])
                return ("external", "type-object")
            if head in ("list", "List", "tuple", "Tuple", "set", "frozenset",
                        "Sequence", "Iterable", "Iterator", "Collection"):
                elem_ann = ann.slice
                if isinstance(elem_ann, ast.Tuple) and elem_ann.elts:
                    elem_ann = elem_ann.elts[0]
                elem = self.annotation_type(elem_ann, ctx)
                if elem is not None and elem[0] == "class":
                    return ("seq", elem[1])
                return ("external", "generic-container")
            if head in ("dict", "Dict", "Mapping", "MutableMapping", "defaultdict"):
                if isinstance(ann.slice, ast.Tuple) and len(ann.slice.elts) == 2:
                    val = self.annotation_type(ann.slice.elts[1], ctx)
                    if val is not None and val[0] == "class":
                        return ("map", val[1])
                return ("external", "generic-container")
            return ("external", "generic-container")
        return None

    def _scope_for(self, fn: FunctionInfo, ctx: ModuleContext) -> dict[str, tuple[str, str]]:
        """Initial type scope of one function: self + annotated params."""
        scope: dict[str, tuple[str, str]] = {}
        if fn.class_qualname is not None and fn.params:
            if fn.params[0] == "self":
                scope["self"] = ("class", fn.class_qualname)
            elif fn.params[0] == "cls":
                scope["cls"] = ("type", fn.class_qualname)
        args = fn.node.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            typ = self.annotation_type(a.annotation, ctx)
            if typ is not None:
                scope.setdefault(a.arg, typ)
        return scope

    def value_type(
        self,
        expr: ast.expr,
        scope: dict[str, tuple[str, str]],
        ctx: ModuleContext,
        *,
        local_defs: dict[str, str] | None = None,
        _depth: int = 0,
    ) -> tuple[str, str] | None:
        """Best-effort type of an expression under ``scope``."""
        if _depth > 12:
            return None
        if isinstance(expr, ast.Name):
            typ = scope.get(expr.id)
            if typ is not None:
                return typ
            # Module-level fallbacks: a class used as a value, a typed
            # module singleton (``_DEFAULT``), or an imported project class.
            qual = self.module_defs.get(ctx.module, {}).get(expr.id)
            if qual is None:
                origin = ctx.imports.get(expr.id)
                if origin is not None:
                    qual = self.resolve_name(origin)
            if qual is not None and qual in self.classes:
                return ("type", qual)
            return self.module_vars.get(ctx.module, {}).get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.value_type(expr.value, scope, ctx, local_defs=local_defs, _depth=_depth + 1)
            if base is None:
                return None
            if base[0] == "external":
                return ("external", f"{base[1]}.{expr.attr}")
            if base[0] in ("seq", "map"):
                return None  # container attribute access: nothing useful
            cinfo = self.classes.get(base[1])
            if cinfo is None:
                return None
            attr_qual = self._class_attr_type(base[1], expr.attr)
            if attr_qual is not None:
                return attr_qual
            prop = self.lookup_method(base[1], expr.attr)
            if prop is not None and prop.is_property:
                owner_ctx = self.modules.get(prop.module, ctx)
                return self.annotation_type(prop.returns, owner_ctx)
            return None
        if isinstance(expr, ast.Subscript):
            base = self.value_type(expr.value, scope, ctx, local_defs=local_defs, _depth=_depth + 1)
            if base is not None and base[0] in ("seq", "map"):
                return ("class", base[1])
            return None
        if isinstance(expr, ast.Call):
            site = self.classify_call(expr, scope, ctx, caller="<expr>", local_defs=local_defs)
            if site.kind == "external":
                # reversed()/sorted()/list()/tuple() preserve element types.
                if site.target in _CONTAINER_PASSTHROUGH and expr.args:
                    inner = self.value_type(expr.args[0], scope, ctx, local_defs=local_defs, _depth=_depth + 1)
                    if inner is not None and inner[0] == "seq":
                        return inner
                return ("external", site.target or site.expr)
            if site.kind == "resolved" and site.target is not None:
                fn = self.functions.get(site.target)
                if fn is not None:
                    if fn.name == "__init__" and fn.class_qualname is not None:
                        return ("class", fn.class_qualname)
                    owner_ctx = self.modules.get(fn.module, ctx)
                    return self.annotation_type(fn.returns, owner_ctx)
                if site.target in self.classes:
                    return ("class", site.target)
            return None
        if isinstance(expr, ast.IfExp):
            body = self.value_type(expr.body, scope, ctx, local_defs=local_defs, _depth=_depth + 1)
            if body is not None and body[0] == "class":
                return body
            orelse = self.value_type(expr.orelse, scope, ctx, local_defs=local_defs, _depth=_depth + 1)
            if orelse is not None and orelse[0] == "class":
                return orelse
            return body or orelse
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                typ = self.value_type(value, scope, ctx, local_defs=local_defs, _depth=_depth + 1)
                if typ is not None and typ[0] == "class":
                    return typ
            return None
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            # ``[Model(...) for _ in range(n)]`` builds a typed sequence;
            # element types that don't resolve stay opaque literals.
            elem = self.value_type(expr.elt, scope, ctx, local_defs=local_defs, _depth=_depth + 1)
            if elem is not None and elem[0] == "class":
                return ("seq", elem[1])
            return ("external", "literal")
        if isinstance(expr, ast.DictComp):
            val = self.value_type(expr.value, scope, ctx, local_defs=local_defs, _depth=_depth + 1)
            if val is not None and val[0] == "class":
                return ("map", val[1])
            return ("external", "literal")
        if isinstance(
            expr,
            (ast.Constant, ast.List, ast.Tuple, ast.Dict, ast.Set, ast.JoinedStr,
             ast.Compare, ast.FormattedValue),
        ):
            return ("external", "literal")
        return None

    def _class_attr_type(
        self, class_qualname: str, attr: str, *, _seen: frozenset = frozenset()
    ) -> tuple[str, str] | None:
        if class_qualname in _seen:
            return None
        cinfo = self.classes.get(class_qualname)
        if cinfo is None:
            return None
        if attr in cinfo.attr_types:
            return cinfo.attr_types[attr]
        if attr in cinfo.attr_annotations:
            typ = self.annotation_type(cinfo.attr_annotations[attr], self.modules[cinfo.module])
            if typ is not None:
                return typ
        for base in cinfo.bases:
            found = self._class_attr_type(base, attr, _seen=_seen | {class_qualname})
            if found is not None:
                return found
        return None

    # -- call classification --------------------------------------------
    def classify_call(
        self,
        call: ast.Call,
        scope: dict[str, tuple[str, str]],
        ctx: ModuleContext,
        *,
        caller: str,
        local_defs: dict[str, str] | None = None,
    ) -> CallSite:
        func = call.func
        expr = source_text(func)

        def site(kind: str, target: str | None = None, reason: str = "", bound: bool = False) -> CallSite:
            return CallSite(
                caller=caller,
                module=ctx.module,
                path=ctx.rel_path,
                line=call.lineno,
                col=call.col_offset,
                expr=expr,
                kind=kind,
                target=target,
                reason=reason,
                bound=bound,
                node=call,
            )

        # super().method(...) -> first resolvable base's method.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        ):
            enclosing = scope.get("self") or scope.get("cls")
            if enclosing is not None and enclosing[0] == "class":
                cinfo = self.classes.get(enclosing[1])
                for base in cinfo.bases if cinfo else ():
                    method = self.lookup_method(base, func.attr)
                    if method is not None:
                        return site("resolved", method.qualname, bound=True)
            return site("external", None, reason="super() outside an indexed class")

        if isinstance(func, ast.Name):
            name = func.id
            if local_defs and name in local_defs:
                return site("resolved", local_defs[name])
            local_type = scope.get(name)
            if local_type is not None:
                if local_type[0] == "external":
                    return site("external", local_type[1])
                if local_type[0] == "type":
                    return site("resolved", self.constructor_target(local_type[1]), bound=True)
                if local_type[0] in ("seq", "map"):
                    return site("unresolved", reason=f"call of a container of {local_type[1]}")
                call_method = self.lookup_method(local_type[1], "__call__")
                if call_method is not None:
                    return site("resolved", call_method.qualname, bound=True)
                if _class_has_external_bases(self, local_type[1]):
                    return site("external", f"<{local_type[1]}>.__call__")
                return site("unresolved", reason=f"call of {local_type[1]} instance without __call__")
            defs = self.module_defs.get(ctx.module, {})
            if name in defs:
                qual = defs[name]
                if qual in self.classes:
                    return site("resolved", self.constructor_target(qual), bound=True)
                return site("resolved", qual)
            origin = ctx.imports.get(name)
            if origin is not None:
                qual = self.resolve_name(origin)
                if qual is not None:
                    if qual in self.classes:
                        return site("resolved", self.constructor_target(qual), bound=True)
                    return site("resolved", qual)
                if _is_project_dotted(origin, self):
                    return site("unresolved", reason=f"import {origin} not found in index")
                return site("external", origin)
            if name in _BUILTIN_NAMES:
                return site("external", f"builtins.{name}")
            mvar = self.module_vars.get(ctx.module, {}).get(name)
            if mvar is not None and mvar[0] == "external":
                return site("external", mvar[1])
            return site("unresolved", reason=f"unknown name {name!r}")

        if isinstance(func, ast.Attribute):
            dotted = ctx.resolve(func)
            if dotted is not None:
                qual = self.resolve_name(dotted)
                if qual is not None:
                    if qual in self.classes:
                        return site("resolved", self.constructor_target(qual), bound=True)
                    return site("resolved", qual)
                if not _is_project_dotted(dotted, self):
                    return site("external", dotted)
            base_type = self.value_type(func.value, scope, ctx, local_defs=local_defs)
            if base_type is not None:
                if base_type[0] == "external":
                    return site("external", f"{base_type[1]}.{func.attr}")
                if base_type[0] in ("seq", "map"):
                    if func.attr in _KNOWN_EXTERNAL_METHODS:
                        return site("external", f"<container>.{func.attr}")
                    return site("unresolved", reason=f"method .{func.attr} on a container")
                if base_type[0] == "type":
                    method = self.lookup_method(base_type[1], func.attr)
                    if method is not None:
                        bound = "classmethod" in method.decorators
                        return site("resolved", method.qualname, bound=bound)
                method = self.lookup_method(base_type[1], func.attr)
                if method is not None:
                    return site("resolved", method.qualname, bound=True)
                attr_type = self._class_attr_type(base_type[1], func.attr)
                if attr_type is not None:
                    if attr_type[0] == "external":
                        return site("external", f"{attr_type[1]}.__call__")
                    if attr_type[0] == "class":
                        call_method = self.lookup_method(attr_type[1], "__call__")
                        if call_method is not None:
                            return site("resolved", call_method.qualname, bound=True)
                if func.attr in _KNOWN_EXTERNAL_METHODS:
                    return site("external", f"<{base_type[1]}>.{func.attr}")
                if _class_has_external_bases(self, base_type[1]):
                    # The method must come from the unindexed external base
                    # (e.g. ast.NodeVisitor.generic_visit).
                    return site("external", f"<{base_type[1]} base>.{func.attr}")
                return site(
                    "unresolved",
                    reason=f"no method {func.attr!r} on {base_type[1]}",
                )
            if func.attr in _KNOWN_EXTERNAL_METHODS:
                return site("external", f"<unknown>.{func.attr}")
            return site("unresolved", reason=f"receiver type of .{func.attr} unknown")

        # Calling the result of another expression: ``Sigmoid()(x)``,
        # ``registry[name]()`` — resolvable when the value type is known.
        value = self.value_type(func, scope, ctx, local_defs=local_defs)
        if value is not None:
            if value[0] == "external":
                return site("external", f"{value[1]}.__call__")
            if value[0] == "type":
                return site("resolved", self.constructor_target(value[1]), bound=True)
            if value[0] == "class":
                call_method = self.lookup_method(value[1], "__call__")
                if call_method is not None:
                    return site("resolved", call_method.qualname, bound=True)
        return site("unresolved", reason="dynamic callee expression")

    # -- call graph ------------------------------------------------------
    def call_graph(self) -> CallGraph:
        """Every call site in every indexed module (built once, cached)."""
        if self._graph is not None:
            return self._graph
        sites: list[CallSite] = []
        for ctx in self.modules.values():
            sites.extend(self._module_sites(ctx))
        self._graph = CallGraph(sites)
        return self._graph

    def _module_sites(self, ctx: ModuleContext) -> list[CallSite]:
        sites: list[CallSite] = []
        # Module-level statements (decorators, constants, __all__ plumbing).
        module_stmts = [
            stmt
            for stmt in ctx.tree.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        sites.extend(self._scan_body(module_stmts, {}, ctx, caller=ctx.module, local_defs={}))
        for fn in self.functions.values():
            if fn.module != ctx.module:
                continue
            scope = self._scope_for(fn, ctx)
            local_defs = self._local_defs_for(fn)
            body = [
                stmt
                for stmt in fn.node.body
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            sites.extend(self._scan_body(body, scope, ctx, caller=fn.qualname, local_defs=local_defs))
        return sites

    def _local_defs_for(self, fn: FunctionInfo) -> dict[str, str]:
        """Closure-visible nested defs: own plus every enclosing function's.

        A nested helper can call its siblings (and itself) by bare name;
        outer scopes are added first so inner definitions shadow them.
        """
        chain = [fn]
        parent_qual = fn.qualname.rsplit(".", 1)[0]
        while parent_qual in self.functions:
            chain.append(self.functions[parent_qual])
            parent_qual = parent_qual.rsplit(".", 1)[0]
        defs: dict[str, str] = {}
        for enclosing in reversed(chain):
            for sub in _block_nested_defs(enclosing.node.body):
                defs[sub.name] = f"{enclosing.qualname}.{sub.name}"
        return defs

    def _scan_body(
        self,
        body: list[ast.stmt],
        scope: dict[str, tuple[str, str]],
        ctx: ModuleContext,
        *,
        caller: str,
        local_defs: dict[str, str],
    ) -> list[CallSite]:
        """Walk statements in source order, tracking assignment types."""
        sites: list[CallSite] = []

        def scan_expr(expr: ast.expr) -> None:
            for node in walk(expr):
                if isinstance(node, ast.Call):
                    sites.append(
                        self.classify_call(node, scope, ctx, caller=caller, local_defs=local_defs)
                    )

        def scan_stmt(stmt: ast.stmt) -> None:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                return  # nested defs are scanned as their own callers
            if isinstance(stmt, ast.Assign):
                scan_expr(stmt.value)
                typ = self.value_type(stmt.value, scope, ctx, local_defs=local_defs)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if typ is not None:
                            scope[target.id] = typ
                        else:
                            scope.pop(target.id, None)
                return
            if isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None:
                    scan_expr(stmt.value)
                if isinstance(stmt.target, ast.Name):
                    typ = self.annotation_type(stmt.annotation, ctx)
                    if typ is None and stmt.value is not None:
                        typ = self.value_type(stmt.value, scope, ctx, local_defs=local_defs)
                    if typ is not None:
                        scope[stmt.target.id] = typ
                return
            if isinstance(stmt, (ast.For, ast.AsyncFor)) and isinstance(stmt.target, ast.Name):
                scan_expr(stmt.iter)
                iter_type = self.value_type(stmt.iter, scope, ctx, local_defs=local_defs)
                if iter_type is not None and iter_type[0] == "seq":
                    scope[stmt.target.id] = ("class", iter_type[1])
                else:
                    scope.pop(stmt.target.id, None)
                for child in (*stmt.body, *stmt.orelse):
                    scan_stmt(child)
                return
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    scan_stmt(child)
                elif isinstance(child, ast.expr):
                    scan_expr(child)
                elif isinstance(child, (ast.withitem, ast.excepthandler)):
                    for sub in ast.iter_child_nodes(child):
                        if isinstance(sub, ast.stmt):
                            scan_stmt(sub)
                        elif isinstance(sub, ast.expr):
                            scan_expr(sub)

        for stmt in body:
            scan_stmt(stmt)
        return sites


def _block_nested_defs(stmts: list[ast.stmt]) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Function defs in a statement list, descending into control-flow
    blocks (if/for/while/try/with/match) but never into nested scopes —
    a def inside a ``try:`` belongs to the enclosing function, a def
    inside another def does not."""
    found: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

    def visit(body: list) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(stmt)
            elif not isinstance(stmt, ast.ClassDef):
                for _field, value in ast.iter_fields(stmt):
                    if isinstance(value, list):
                        visit([s for s in value if isinstance(s, ast.stmt)])
                        for sub in value:
                            if isinstance(sub, (ast.excepthandler, ast.match_case)):
                                visit(sub.body)

    visit(stmts)
    return found


def _is_project_dotted(dotted: str, index: ProjectIndex) -> bool:
    """Whether a dotted name lives under any indexed top-level package."""
    return dotted.split(".", 1)[0] in index.top_packages


def _class_has_external_bases(
    index: ProjectIndex, class_qualname: str, *, _seen: frozenset = frozenset()
) -> bool:
    """Whether the class (or any resolved ancestor) inherits from outside the project."""
    if class_qualname in _seen:
        return False
    cinfo = index.classes.get(class_qualname)
    if cinfo is None:
        return False
    if cinfo.has_external_bases:
        return True
    return any(
        _class_has_external_bases(index, base, _seen=_seen | {class_qualname})
        for base in cinfo.bases
    )


# ----------------------------------------------------------------------
# Argument binding (used by DET003 and the units pass)
# ----------------------------------------------------------------------
def bind_arguments(site: CallSite, fn: FunctionInfo) -> dict[str, ast.expr]:
    """Map call-site argument expressions to the callee's parameter names.

    Bound calls (methods, constructors) skip the implicit first
    parameter.  ``*args``/``**kwargs`` at the call site end positional
    matching early rather than guessing.
    """
    call = site.node
    if call is None:
        return {}
    params = list(fn.params)
    if site.bound and params and params[0] in ("self", "cls"):
        params = params[1:]
    binding: dict[str, ast.expr] = {}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if i < len(params):
            binding[params[i]] = arg
    for kw in call.keywords:
        if kw.arg is not None:
            binding[kw.arg] = kw.value
    return binding


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def index_from_sources(sources: dict[str, str]) -> tuple[dict[str, ModuleContext], ProjectIndex]:
    """Index a set of in-memory modules (tests and fixtures).

    ``sources`` maps dotted module names to source text; returns the
    contexts (keyed by module) and the built index.
    """
    contexts = {
        module: context_from_source(text, module=module) for module, text in sources.items()
    }
    index = ProjectIndex.from_contexts(list(contexts.values()))
    for ctx in contexts.values():
        ctx.project = index
    return contexts, index


def index_from_root(root: Path) -> tuple[list[ModuleContext], ProjectIndex, list]:
    """Index every parseable source file under ``root/repro``.

    Returns (contexts, index, skipped) where ``skipped`` holds
    ``(path, exception)`` pairs for files that failed to parse — callers
    decide whether that is fatal (the engine reports PARSE001).
    """
    from repro.devtools.engine import iter_source_files

    contexts: list[ModuleContext] = []
    skipped: list[tuple[Path, Exception]] = []
    for path in iter_source_files(root):
        from repro.devtools.context import build_context

        try:
            contexts.append(build_context(path, root))
        except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
            skipped.append((path, exc))
    index = ProjectIndex.from_contexts(contexts)
    for ctx in contexts:
        ctx.project = index
    return contexts, index, skipped
