"""Numeric dataflow analysis: dtypes, shapes, hot-path perf, cache purity.

The serving chain is only trustworthy because float64 flows end to end:
the serving engine's bitwise equivalence to ``run_online``, the golden
suites and the LRU curve cache all assume no silent ``float32``
narrowing, no shape surprise inside the packed forward pass, and no
impurity behind a memoised value.  This module checks those assumptions statically, the
same way :mod:`repro.devtools.units` checks dimensions: an abstract
``(dtype, rank, symbolic dims)`` value is propagated through
assignments, numpy API calls and resolved call edges of the
:class:`~repro.devtools.graph.ProjectIndex`.

Four rule families consume the analysis (see
:mod:`repro.devtools.rules.numeric`):

* **NUM002** — dtype drift: a float64 value in the model/serving/gpusim
  packages is narrowed (``astype(np.float32)``, bare ``int()``
  truncation) or a sub-float64 float array is created in the float64
  pipeline.
* **SHAPE001** — broadcast/matmul dimension mismatch, proven by
  symbolic-dim unification (two *concrete* incompatible dims; symbols
  unify by name and stay silent otherwise).
* **PERF001** — hot-path hygiene inside the *hot set* (call-graph
  descendants of ``SelectionService._flush``/``_flush_traced``,
  ``FusedInferenceEngine.infer`` and the telemetry collection roots):
  ``np.append``, per-element Python loops over ndarrays,
  list-append-then-stack, loop-invariant allocation inside loops.
* **PURE001** — cache-safety purity: every function whose *result*
  feeds the serving curve cache, the fleet admission decision cache or
  an ``@lru_cache`` must be proven free of non-seeded RNG, wall clocks,
  I/O and mutated-global reads.  Purity is value-sensitive: an impure
  source only poisons a function if it taints the *returned* value, so
  ``perf_counter`` spans around a computation do not.

Everything the rules need is computed once per check run and cached on
the index (:func:`get_numeric_analysis`), mirroring
:mod:`repro.devtools.concurrency`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.devtools.context import ModuleContext, walk
from repro.devtools.graph import FunctionInfo, ProjectIndex

__all__ = [
    "ArrayVal",
    "CacheFeed",
    "DTYPES",
    "NumericAnalysis",
    "NumericFinding",
    "broadcast_dims",
    "dtype_table",
    "get_numeric_analysis",
    "promote",
]

# ----------------------------------------------------------------------
# Dtype promotion lattice
# ----------------------------------------------------------------------
#: The closed dtype universe the analysis reasons about.
DTYPES = (
    "bool",
    "int8", "int16", "int32", "int64",
    "uint8", "uint16", "uint32", "uint64",
    "float16", "float32", "float64",
    "complex64", "complex128",
)

#: dtype -> (kind, bits): b(ool), i(nt), u(int), f(loat), c(omplex).
_KIND_BITS: dict[str, tuple[str, int]] = {
    "bool": ("b", 8),
    **{f"int{b}": ("i", b) for b in (8, 16, 32, 64)},
    **{f"uint{b}": ("u", b) for b in (8, 16, 32, 64)},
    **{f"float{b}": ("f", b) for b in (16, 32, 64)},
    "complex64": ("c", 64),
    "complex128": ("c", 128),
}


def _float_bits_needed(dtype: str) -> int:
    """Smallest float width that holds every value of ``dtype`` (numpy rules)."""
    kind, bits = _KIND_BITS[dtype]
    if kind == "f":
        return bits
    if kind == "c":
        return bits // 2
    # bool/int8/uint8 fit float16; int16/uint16 fit float32; wider ints
    # lose precision in anything below float64.
    return {8: 16, 16: 32}.get(bits, 64)


def promote(a: str, b: str) -> str:
    """``np.promote_types`` over the closed universe, in pure Python.

    The hypothesis suite (tests/devtools/test_numeric.py) checks this
    table against numpy exactly, plus associativity/commutativity, so
    the checker never needs numpy at analysis time.
    """
    if a == b:
        return a
    ka, _ = _KIND_BITS[a]
    kb, _ = _KIND_BITS[b]
    if ka == "b":
        return b
    if kb == "b":
        return a
    if ka in "iu" and kb in "iu":
        if ka == kb:
            bits = max(_KIND_BITS[a][1], _KIND_BITS[b][1])
            return f"int{bits}" if ka == "i" else f"uint{bits}"
        signed, unsigned = (a, b) if ka == "i" else (b, a)
        if _KIND_BITS[signed][1] > _KIND_BITS[unsigned][1]:
            return signed
        wider = _KIND_BITS[unsigned][1] * 2
        return f"int{wider}" if wider <= 64 else "float64"
    fbits = max(_float_bits_needed(a), _float_bits_needed(b))
    if "c" in (ka, kb):
        return f"complex{max(64, fbits * 2)}"
    return f"float{fbits}"


#: Weak (python-scalar) pseudo-dtypes — NEP 50: a python float does not
#: promote a float32 array, a python int does not promote anything.
_WEAK_INT = "~int"
_WEAK_FLOAT = "~float"
_WEAK = (_WEAK_INT, _WEAK_FLOAT)


def _combine(a: str | None, b: str | None) -> str | None:
    """Binary-op result dtype, with NEP 50 weak-scalar handling."""
    if a is None or b is None:
        return None
    if a in _WEAK and b in _WEAK:
        return _WEAK_FLOAT if _WEAK_FLOAT in (a, b) else _WEAK_INT
    if a in _WEAK:
        a, b = b, a
    if b == _WEAK_INT:
        return a
    if b == _WEAK_FLOAT:
        kind = _KIND_BITS[a][0]
        return a if kind in "fc" else "float64"
    return promote(a, b)


def _true_divide(dtype: str | None) -> str | None:
    """Result dtype of ``/`` given the promoted operand dtype."""
    if dtype is None:
        return None
    if dtype in _WEAK:
        return _WEAK_FLOAT
    kind = _KIND_BITS[dtype][0]
    return dtype if kind in "fc" else "float64"


def _is_narrow_float(dtype: str | None) -> bool:
    return dtype in ("float16", "float32")


# ----------------------------------------------------------------------
# Shapes: rank + symbolic dims
# ----------------------------------------------------------------------
#: One dimension: a concrete int, a symbol (source text), or unknown.
Dim = object  # int | str | None


@dataclass(frozen=True)
class ArrayVal:
    """Abstract ndarray/scalar value: ``(dtype, rank, symbolic dims)``.

    ``dtype`` is one of :data:`DTYPES`, a weak pseudo-dtype for python
    scalars, or ``None`` (unknown).  ``rank`` is ``ndim`` or ``None``;
    ``dims`` — when known — is a tuple of length ``rank`` of concrete
    ints, symbol strings or ``None``.  Anything unprovable stays
    unknown; unknowns never produce findings.
    """

    dtype: str | None = None
    rank: int | None = None
    dims: tuple | None = None

    def with_dtype(self, dtype: str | None) -> "ArrayVal":
        return ArrayVal(dtype, self.rank, self.dims)

    @property
    def is_array(self) -> bool:
        return self.rank is not None and self.rank >= 1


def _dims_compatible(a: Dim, b: Dim) -> bool:
    """Whether two aligned broadcast dims can coexist (conservative)."""
    if a is None or b is None or a == 1 or b == 1:
        return True
    return a == b  # equal ints, or identical symbols


def broadcast_dims(
    a: "ArrayVal", b: "ArrayVal"
) -> tuple[tuple | None, int | None, tuple[Dim, Dim] | None]:
    """Broadcast two shapes: ``(dims, rank, conflict)``.

    ``conflict`` is the offending ``(dim_a, dim_b)`` pair when both dims
    are concrete, unequal and neither is 1 — the only case the analysis
    is *sure* numpy would raise on.
    """
    if a.rank is None or b.rank is None:
        return None, None, None
    rank = max(a.rank, b.rank)
    if a.dims is None or b.dims is None:
        return None, rank, None
    out: list[Dim] = []
    for i in range(1, rank + 1):
        da = a.dims[-i] if i <= len(a.dims) else 1
        db = b.dims[-i] if i <= len(b.dims) else 1
        if not _dims_compatible(da, db):
            if isinstance(da, int) and isinstance(db, int):
                return None, rank, (da, db)
            out.append(None)
            continue
        if da == 1:
            out.append(db)
        elif db == 1 or da == db:
            out.append(da)
        else:
            out.append(da if db is None else db if da is None else None)
    return tuple(reversed(out)), rank, None


def _matmul_shape(
    a: "ArrayVal", b: "ArrayVal"
) -> tuple[int | None, tuple | None, tuple[Dim, Dim] | None]:
    """Result (rank, dims, inner-dim conflict) of ``a @ b``."""
    if a.rank is None or b.rank is None:
        return None, None, None
    if a.rank < 1 or b.rank < 1:
        return None, None, None
    inner_a = a.dims[-1] if a.dims else None
    inner_b = (b.dims[-2] if b.rank >= 2 else b.dims[-1]) if b.dims else None
    conflict = None
    if (
        isinstance(inner_a, int)
        and isinstance(inner_b, int)
        and inner_a != inner_b
    ):
        conflict = (inner_a, inner_b)
    if a.rank == 1 and b.rank == 1:
        return 0, (), conflict
    if a.rank == 1:
        rank = b.rank - 1
        dims = (*b.dims[:-2], b.dims[-1]) if b.dims else None
        return rank, dims, conflict
    if b.rank == 1:
        rank = a.rank - 1
        dims = a.dims[:-1] if a.dims else None
        return rank, dims, conflict
    rank = max(a.rank, b.rank)
    dims = None
    if a.dims is not None and b.dims is not None and a.rank == 2 and b.rank == 2:
        dims = (a.dims[0], b.dims[1])
    return rank, dims, conflict


# ----------------------------------------------------------------------
# Reading dtype/shape declarations out of expressions
# ----------------------------------------------------------------------
#: ``dtype=`` spellings -> lattice dtype.
_DTYPE_NAMES: dict[str, str] = {
    **{d: d for d in DTYPES},
    "float": "float64", "int": "int64", "bool": "bool", "complex": "complex128",
    "double": "float64", "single": "float32", "half": "float16",
    "intp": "int64", "uintp": "uint64", "longlong": "int64",
    "byte": "int8", "ubyte": "uint8",
}

#: repro.units Annotated ndarray aliases — float64 arrays by contract.
_F64_ARRAY_ALIASES = frozenset(
    {"MHzArray", "WattsArray", "SecondsArray", "JoulesArray",
     "EDPArray", "ED2PArray", "FractionArray"}
)
#: repro.units scalar aliases — float64 scalars by contract.
_F64_SCALAR_ALIASES = frozenset(
    {"MHz", "Watts", "Seconds", "Joules", "EDPScore", "ED2PScore", "Fraction"}
)

#: Packages where a bare ``np.ndarray`` annotation means float64: the
#: paper pipeline's end-to-end dtype contract (NUM002's seed roots).
F64_CONTRACT_PACKAGES = (
    "repro.core", "repro.nn", "repro.serving", "repro.gpusim"
)


def _dtype_of_expr(expr: ast.expr | None, ctx: ModuleContext) -> str | None:
    """Lattice dtype named by a ``dtype=`` argument expression, if any."""
    if expr is None:
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return _DTYPE_NAMES.get(expr.value)
    if isinstance(expr, ast.Name):
        if expr.id in ("float", "int", "bool", "complex") and expr.id not in ctx.imports:
            return _DTYPE_NAMES[expr.id]
        return None
    if isinstance(expr, (ast.Attribute,)):
        dotted = ctx.resolve(expr)
        if dotted is not None and dotted.startswith("numpy."):
            return _DTYPE_NAMES.get(dotted.split(".", 1)[1])
        return None
    if isinstance(expr, ast.Call):  # np.dtype("float32")
        dotted = ctx.resolve(expr.func)
        if dotted == "numpy.dtype" and expr.args:
            return _dtype_of_expr(expr.args[0], ctx)
    return None


def _dim_of_expr(expr: ast.expr) -> Dim:
    """One shape entry: concrete int, symbol text, or unknown."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
        return int(expr.value)
    if isinstance(expr, (ast.Name, ast.Attribute, ast.Call, ast.Subscript)):
        try:
            return ast.unparse(expr)
        except Exception:  # pragma: no cover - unparse is total on valid ASTs
            return None
    return None


def _shape_of_expr(expr: ast.expr | None) -> tuple[int | None, tuple | None]:
    """(rank, dims) declared by a ``shape`` argument expression."""
    if expr is None:
        return None, None
    if isinstance(expr, (ast.Tuple, ast.List)):
        dims = tuple(_dim_of_expr(e) for e in expr.elts)
        return len(dims), dims
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
        return 1, (int(expr.value),)
    if isinstance(expr, (ast.Name, ast.Attribute, ast.Call, ast.Subscript)):
        # A scalar-valued expression (``np.zeros(n)``) is rank 1; an
        # unknown tuple stays rank-unknown.  Be conservative: symbol.
        return None, None
    return None, None


def _keyword(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


#: numpy constructors: name -> (shape-arg index, default dtype).
_CONSTRUCTORS: dict[str, str] = {
    "numpy.zeros": "float64",
    "numpy.ones": "float64",
    "numpy.empty": "float64",
}
#: *_like constructors propagate the prototype, dtype kwarg overrides.
_LIKE_CONSTRUCTORS = frozenset(
    {"numpy.zeros_like", "numpy.ones_like", "numpy.empty_like", "numpy.full_like"}
)
#: Coercions that keep dtype/shape unless told otherwise.
_COERCIONS = frozenset(
    {"numpy.asarray", "numpy.array", "numpy.ascontiguousarray",
     "numpy.asfortranarray", "numpy.atleast_1d", "numpy.atleast_2d"}
)
#: Float-valued ufuncs: float in -> same float out, int in -> float64.
_FLOAT_UFUNCS = frozenset(
    {"numpy.exp", "numpy.exp2", "numpy.expm1", "numpy.log", "numpy.log2",
     "numpy.log10", "numpy.log1p", "numpy.sqrt", "numpy.cbrt", "numpy.tanh",
     "numpy.sin", "numpy.cos", "numpy.tan", "numpy.arctan", "numpy.arctan2",
     "numpy.sinh", "numpy.cosh", "numpy.reciprocal", "numpy.true_divide",
     "numpy.divide", "numpy.interp", "numpy.hypot"}
)
#: Shape/dtype-preserving elementwise passthroughs.
_PASSTHROUGH_UFUNCS = frozenset(
    {"numpy.abs", "numpy.absolute", "numpy.clip", "numpy.copy", "numpy.sort",
     "numpy.negative", "numpy.positive", "numpy.square", "numpy.round",
     "numpy.rint", "numpy.floor", "numpy.ceil", "numpy.trunc", "numpy.diff",
     "numpy.cumsum", "numpy.nan_to_num", "numpy.ravel"}
)
#: Reductions: dtype-preserving (mean-family promotes ints to float64).
_REDUCTIONS = frozenset(
    {"numpy.sum", "numpy.min", "numpy.max", "numpy.amin", "numpy.amax",
     "numpy.prod", "numpy.ptp", "numpy.nansum", "numpy.nanmin", "numpy.nanmax"}
)
_FLOAT_REDUCTIONS = frozenset(
    {"numpy.mean", "numpy.median", "numpy.std", "numpy.var", "numpy.average",
     "numpy.nanmean", "numpy.nanmedian", "numpy.percentile", "numpy.quantile",
     "numpy.linalg.norm", "numpy.trapz", "numpy.dot"}
)
#: Index producers (always int64 on this platform).
_INT_CALLS = frozenset(
    {"numpy.argmin", "numpy.argmax", "numpy.argsort", "numpy.searchsorted",
     "numpy.count_nonzero", "numpy.lexsort", "numpy.digitize",
     "numpy.ravel_multi_index", "builtins.len", "builtins.int",
     "builtins.round"}
)
#: Joins promote their element dtypes; stack adds an axis.
_JOINS = frozenset(
    {"numpy.concatenate", "numpy.hstack", "numpy.vstack",
     "numpy.column_stack", "numpy.stack", "numpy.append"}
)
#: Elementwise binary numpy calls (promote both operand dtypes).
_BINARY_UFUNCS = frozenset(
    {"numpy.minimum", "numpy.maximum", "numpy.add", "numpy.subtract",
     "numpy.multiply", "numpy.power", "numpy.fmin", "numpy.fmax",
     "numpy.mod", "numpy.remainder"}
)
#: ndarray methods preserving dtype (and, where obvious, shape).
_PASSTHROUGH_METHODS = frozenset(
    {"copy", "reshape", "ravel", "flatten", "squeeze", "clip", "round",
     "take", "transpose", "sum", "min", "max", "cumsum", "sort", "fill",
     "repeat", "view", "item"}
)
#: Rounding wrappers that make a following int() cast exact/intended.
_ROUNDING_CALLS = frozenset(
    {"builtins.round", "numpy.round", "numpy.rint", "numpy.floor",
     "numpy.ceil", "numpy.trunc", "math.floor", "math.ceil", "math.trunc"}
)


# ----------------------------------------------------------------------
# Declared dtypes from annotations and signatures
# ----------------------------------------------------------------------
def annotation_val(ann: ast.expr | None, ctx: ModuleContext) -> ArrayVal | None:
    """Abstract value declared by an annotation expression, if any."""
    if ann is None:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            return annotation_val(ast.parse(ann.value, mode="eval").body, ctx)
        except SyntaxError:
            return None
    if isinstance(ann, (ast.Name, ast.Attribute)):
        dotted = ctx.resolve(ann)
        if dotted is not None and dotted.startswith("repro.units."):
            alias = dotted.rsplit(".", 1)[1]
            if alias in _F64_ARRAY_ALIASES:
                return ArrayVal("float64", rank=1)
            if alias in _F64_SCALAR_ALIASES:
                return ArrayVal("float64", rank=0)
            return None
        if dotted in ("numpy.ndarray", "numpy.typing.NDArray"):
            dtype = "float64" if ctx.in_package(*F64_CONTRACT_PACKAGES) else None
            return ArrayVal(dtype)
        if isinstance(ann, ast.Name) and ann.id not in ctx.imports:
            if ann.id == "float":
                return ArrayVal("float64", rank=0)
            if ann.id == "int":
                return ArrayVal("int64", rank=0)
            if ann.id == "bool":
                return ArrayVal("bool", rank=0)
        return None
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        return annotation_val(ann.left, ctx) or annotation_val(ann.right, ctx)
    if isinstance(ann, ast.Subscript):
        dotted = ctx.resolve(ann.value) or ""
        head = dotted.rsplit(".", 1)[-1] if dotted else (
            ann.value.id if isinstance(ann.value, ast.Name) else ""
        )
        if head == "Optional":
            return annotation_val(ann.slice, ctx)
        if head == "Annotated" and isinstance(ann.slice, ast.Tuple) and ann.slice.elts:
            return annotation_val(ann.slice.elts[0], ctx)
        if dotted == "numpy.typing.NDArray" or head == "NDArray":
            elem = _dtype_of_expr(ann.slice, ctx)
            return ArrayVal(elem)
        return None
    return None


def _param_vals(fn: FunctionInfo, ctx: ModuleContext) -> dict[str, ArrayVal]:
    """Declared abstract values of one function's parameters."""
    out: dict[str, ArrayVal] = {}
    args = fn.node.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        val = annotation_val(a.annotation, ctx)
        if val is not None:
            out[a.arg] = val
    return out


# ----------------------------------------------------------------------
# Per-function abstract interpretation
# ----------------------------------------------------------------------
@dataclass
class NumericFinding:
    """One violation found by the numeric pass (pre-Finding form)."""

    rule: str  # "NUM002" | "SHAPE001" | "PERF001"
    node: ast.AST
    message: str


class _FunctionNumerics:
    """In-order dtype/shape inference over one function body.

    Mirrors ``units._FunctionUnits``: an environment of abstract values
    seeded from parameter annotations, updated through the statement
    walk, consulted by the expression visitor.  NUM002/SHAPE001
    findings are emitted inline; PERF001 runs as a separate lexical
    pass (it needs the *final* environment to type loop subjects).
    """

    def __init__(
        self,
        fn: FunctionInfo,
        ctx: ModuleContext,
        index: ProjectIndex,
        return_vals: dict[str, ArrayVal],
    ) -> None:
        self.fn = fn
        self.ctx = ctx
        self.index = index
        self.return_vals = return_vals
        self.findings: list[NumericFinding] = []
        self.env: dict[str, ArrayVal] = dict(_param_vals(fn, ctx))
        self.tscope = index._scope_for(fn, ctx)
        self.returned: list[ArrayVal | None] = []
        self._f64_contract = ctx.in_package(*F64_CONTRACT_PACKAGES)
        self._emit = True

    # -- expression inference -------------------------------------------
    def infer(self, expr: ast.expr) -> ArrayVal | None:
        if isinstance(expr, ast.Constant):
            v = expr.value
            if isinstance(v, bool):
                return ArrayVal("bool", rank=0)
            if isinstance(v, int):
                return ArrayVal(_WEAK_INT, rank=0)
            if isinstance(v, float):
                return ArrayVal(_WEAK_FLOAT, rank=0)
            if isinstance(v, complex):
                return ArrayVal("complex128", rank=0)
            return None
        if isinstance(expr, ast.Name):
            return self._name_val(expr)
        if isinstance(expr, ast.Attribute):
            return self._attribute_val(expr)
        if isinstance(expr, ast.Subscript):
            return self._subscript_val(expr)
        if isinstance(expr, ast.UnaryOp):
            if isinstance(expr.op, ast.Not):
                self.infer(expr.operand)
                return ArrayVal("bool", rank=0)
            return self.infer(expr.operand)
        if isinstance(expr, ast.BinOp):
            return self._binop_val(expr)
        if isinstance(expr, ast.Compare):
            left = self.infer(expr.left)
            rank = left.rank if left is not None else None
            for comparator in expr.comparators:
                right = self.infer(comparator)
                if rank in (0, None) and right is not None:
                    rank = right.rank
            return ArrayVal("bool", rank=rank)
        if isinstance(expr, ast.Call):
            return self._call_val(expr)
        if isinstance(expr, ast.IfExp):
            self.infer(expr.test)
            body = self.infer(expr.body)
            orelse = self.infer(expr.orelse)
            return body if body == orelse else None
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            for elt in expr.elts:
                self.infer(elt)
            return None
        return None

    def _name_val(self, expr: ast.Name) -> ArrayVal | None:
        if expr.id in self.env:
            return self.env[expr.id]
        return self._contract_fallback(expr)

    def _attribute_val(self, expr: ast.Attribute) -> ArrayVal | None:
        btype = self.index.value_type(expr.value, self.tscope, self.ctx)
        if btype is not None and btype[0] == "class":
            prop = self.index.lookup_method(btype[1], expr.attr)
            if prop is not None and prop.is_property:
                owner_ctx = self.index.modules.get(prop.module, self.ctx)
                val = annotation_val(prop.returns, owner_ctx)
                if val is not None:
                    return val
                return self.return_vals.get(prop.qualname)
            cinfo = self.index.classes.get(btype[1])
            if cinfo is not None and expr.attr in cinfo.attr_annotations:
                owner_ctx = self.index.modules.get(cinfo.module, self.ctx)
                val = annotation_val(cinfo.attr_annotations[expr.attr], owner_ctx)
                if val is not None:
                    return val
        if expr.attr == "T":
            base = self.infer(expr.value)
            if base is not None and base.is_array:
                dims = tuple(reversed(base.dims)) if base.dims else None
                return ArrayVal(base.dtype, base.rank, dims)
        if expr.attr in ("shape", "strides"):
            return None
        if expr.attr in ("size", "ndim", "itemsize", "nbytes"):
            return ArrayVal("int64", rank=0)
        return self._contract_fallback(expr)

    def _contract_fallback(self, expr: ast.expr) -> ArrayVal | None:
        """ndarray-typed (per the index) values in contract packages are f64."""
        if not self._f64_contract:
            return None
        typ = self.index.value_type(expr, self.tscope, self.ctx)
        if typ is not None and typ[0] == "external" and typ[1] in (
            "numpy.ndarray", "numpy.typing.NDArray"
        ):
            return ArrayVal("float64")
        return None

    def _subscript_val(self, expr: ast.Subscript) -> ArrayVal | None:
        base = self.infer(expr.value)
        if base is None or base.rank is None:
            return base.with_dtype(base.dtype) if base is not None else None

        def is_scalar_index(e: ast.expr) -> bool:
            return not isinstance(e, (ast.Slice,)) and not (
                isinstance(e, ast.Constant) and e.value is Ellipsis
            )

        if isinstance(expr.slice, ast.Tuple):
            dropped = sum(1 for e in expr.slice.elts if is_scalar_index(e))
        else:
            dropped = 1 if is_scalar_index(expr.slice) else 0
        # A scalar index may itself be an array (fancy indexing) — in
        # that case the rank does not drop; stay rank-unknown then.
        idx_val = (
            self.infer(expr.slice)
            if not isinstance(expr.slice, (ast.Slice, ast.Tuple))
            else None
        )
        if idx_val is not None and idx_val.is_array:
            return ArrayVal(base.dtype, idx_val.rank)
        rank = max(base.rank - dropped, 0)
        dims = None
        if base.dims is not None and dropped and not isinstance(expr.slice, ast.Tuple):
            dims = base.dims[1:]
        elif base.dims is not None and not dropped:
            dims = None  # slicing changes extents; keep rank only
        return ArrayVal(base.dtype, rank, dims)

    def _binop_val(self, expr: ast.BinOp) -> ArrayVal | None:
        left = self.infer(expr.left)
        right = self.infer(expr.right)
        if isinstance(expr.op, ast.MatMult):
            return self._matmul_val(expr, left, right)
        if left is None or right is None:
            return None
        # Non-numeric operand dtypes (str %, list +) stay unknown.
        dtype = _combine(left.dtype, right.dtype)
        if isinstance(expr.op, ast.Div):
            dtype = _true_divide(dtype)
        elif isinstance(expr.op, ast.FloorDiv):
            if dtype is not None and dtype not in _WEAK and _KIND_BITS[dtype][0] in "fc":
                pass  # float floor-div stays float
        dims, rank, conflict = broadcast_dims(left, right)
        if conflict is not None and self._emit:
            self.findings.append(
                NumericFinding(
                    "SHAPE001",
                    expr,
                    f"broadcast mismatch: dimensions {conflict[0]} and {conflict[1]} "
                    "are incompatible (neither is 1)",
                )
            )
            return None
        if left.rank == 0 and right.rank == 0:
            rank = 0
            dims = ()
        return ArrayVal(dtype, rank, dims)

    def _matmul_val(
        self, expr: ast.BinOp, left: ArrayVal | None, right: ArrayVal | None
    ) -> ArrayVal | None:
        if left is None or right is None:
            return None
        rank, dims, conflict = _matmul_shape(left, right)
        if conflict is not None and self._emit:
            self.findings.append(
                NumericFinding(
                    "SHAPE001",
                    expr,
                    f"matmul inner dimensions differ: {conflict[0]} vs {conflict[1]}",
                )
            )
            return None
        return ArrayVal(_combine(left.dtype, right.dtype), rank, dims)

    # -- calls -----------------------------------------------------------
    _BUILTIN_DISPATCH = frozenset(
        {"int", "round", "float", "abs", "max", "min", "sum", "len"}
    )

    def _call_val(self, expr: ast.Call) -> ArrayVal | None:
        for arg in expr.args:
            self.infer(arg)
        for kw in expr.keywords:
            self.infer(kw.value)
        dotted = self.ctx.resolve(expr.func)
        if (
            dotted is None
            and isinstance(expr.func, ast.Name)
            and expr.func.id in self._BUILTIN_DISPATCH
            and expr.func.id not in self.ctx.imports
        ):
            dotted = f"builtins.{expr.func.id}"
        if dotted is not None:
            val = self._numpy_call_val(expr, dotted)
            if val is not None:
                return val
        if isinstance(expr.func, ast.Attribute):
            val = self._method_call_val(expr)
            if val is not None:
                return val
        site = self.index.classify_call(
            expr, self.tscope, self.ctx, caller=self.fn.qualname
        )
        if site.kind == "resolved" and site.target is not None:
            callee = self.index.functions.get(site.target)
            if callee is not None and callee.name != "__init__":
                owner_ctx = self.index.modules.get(callee.module, self.ctx)
                declared = annotation_val(callee.returns, owner_ctx)
                if declared is not None:
                    return declared
                return self.return_vals.get(site.target)
        return None

    def _numpy_call_val(self, expr: ast.Call, dotted: str) -> ArrayVal | None:
        arg0 = expr.args[0] if expr.args else None
        kw_dtype = _dtype_of_expr(_keyword(expr, "dtype"), self.ctx)
        if dotted in _CONSTRUCTORS:
            dtype = kw_dtype
            if dtype is None and len(expr.args) >= 2:
                dtype = _dtype_of_expr(expr.args[1], self.ctx)
            if dtype is None:
                dtype = _CONSTRUCTORS[dotted]
            self._check_constructed_dtype(expr, dotted, dtype)
            rank, dims = _shape_of_expr(arg0)
            if rank is None and isinstance(arg0, (ast.Name, ast.Attribute, ast.Call)):
                rank, dims = 1, (_dim_of_expr(arg0),)
            return ArrayVal(dtype, rank, dims)
        if dotted == "numpy.full":
            fill = self.infer(expr.args[1]) if len(expr.args) >= 2 else None
            dtype = kw_dtype
            if dtype is None and fill is not None:
                dtype = {_WEAK_INT: "int64", _WEAK_FLOAT: "float64"}.get(
                    fill.dtype, fill.dtype
                )
            self._check_constructed_dtype(expr, dotted, dtype)
            rank, dims = _shape_of_expr(arg0)
            return ArrayVal(dtype, rank, dims)
        if dotted in _LIKE_CONSTRUCTORS:
            proto = self.infer(arg0) if arg0 is not None else None
            dtype = kw_dtype or (proto.dtype if proto is not None else None)
            self._check_constructed_dtype(expr, dotted, dtype)
            if proto is not None:
                return ArrayVal(dtype, proto.rank, proto.dims)
            return ArrayVal(dtype)
        if dotted in _COERCIONS:
            inner = self.infer(arg0) if arg0 is not None else None
            dtype = kw_dtype
            if dtype is None and inner is not None:
                dtype = inner.dtype
                if dtype == _WEAK_INT:
                    dtype = "int64"
                elif dtype == _WEAK_FLOAT:
                    dtype = "float64"
            if kw_dtype is not None:
                self._check_narrowing_cast(expr, inner, kw_dtype, f"{dotted.split('.')[-1]}(dtype=...)")
                self._check_constructed_dtype(expr, dotted, kw_dtype)
            if isinstance(arg0, (ast.List, ast.Tuple)):
                elems = [self.infer(e) for e in arg0.elts]
                rank = 1
                edt: str | None = None
                for ev in elems:
                    if ev is None:
                        edt = None
                        break
                    edt = ev.dtype if edt is None else _combine(edt, ev.dtype)
                    if ev.is_array:
                        rank = (ev.rank or 0) + 1
                if dtype is None and edt is not None:
                    dtype = "int64" if edt == _WEAK_INT else "float64" if edt == _WEAK_FLOAT else edt
                return ArrayVal(dtype, rank if elems else 1, (len(elems),) if rank == 1 else None)
            if inner is not None:
                rank = inner.rank
                if dotted == "numpy.atleast_1d" and rank == 0:
                    rank = 1
                if dotted == "numpy.atleast_2d" and rank is not None and rank < 2:
                    rank = 2
                return ArrayVal(dtype, rank, inner.dims if rank == inner.rank else None)
            return ArrayVal(dtype)
        if dotted == "numpy.arange":
            any_float = any(
                (v := self.infer(a)) is not None and v.dtype in (_WEAK_FLOAT, "float64", "float32", "float16")
                for a in expr.args
            )
            return ArrayVal(kw_dtype or ("float64" if any_float else "int64"), 1)
        if dotted in ("numpy.linspace", "numpy.logspace", "numpy.geomspace"):
            return ArrayVal(kw_dtype or "float64", 1)
        if dotted in ("numpy.eye", "numpy.identity"):
            return ArrayVal(kw_dtype or "float64", 2)
        if dotted in _FLOAT_UFUNCS:
            inner = self.infer(arg0) if arg0 is not None else None
            if inner is None:
                return ArrayVal("float64")
            dtype = inner.dtype
            if dtype is None:
                dtype = None
            elif dtype in _WEAK or _KIND_BITS[dtype][0] in "biu":
                dtype = "float64"
            return ArrayVal(dtype, inner.rank, inner.dims)
        if dotted in _PASSTHROUGH_UFUNCS:
            inner = self.infer(arg0) if arg0 is not None else None
            return inner
        if dotted in _REDUCTIONS:
            inner = self.infer(arg0) if arg0 is not None else None
            if inner is None:
                return None
            axis = _keyword(expr, "axis")
            rank = 0 if axis is None and len(expr.args) < 2 else None
            return ArrayVal(inner.dtype, rank)
        if dotted in _FLOAT_REDUCTIONS:
            inner = self.infer(arg0) if arg0 is not None else None
            dtype = "float64"
            if inner is not None and inner.dtype is not None and inner.dtype not in _WEAK:
                dtype = inner.dtype if _KIND_BITS[inner.dtype][0] in "fc" else "float64"
            axis = _keyword(expr, "axis")
            rank = 0 if axis is None and len(expr.args) < 2 else None
            return ArrayVal(dtype, rank)
        if dotted in _INT_CALLS:
            if dotted in ("builtins.int", "builtins.round"):
                self._check_int_truncation(expr)
                return ArrayVal("int64", rank=0)
            inner = self.infer(arg0) if arg0 is not None else None
            axis = _keyword(expr, "axis")
            rank = None
            if dotted in ("numpy.argmin", "numpy.argmax", "numpy.count_nonzero"):
                rank = 0 if axis is None else None
            elif inner is not None:
                rank = inner.rank
            return ArrayVal("int64", rank)
        if dotted in _JOINS:
            return self._join_val(expr, dotted, arg0)
        if dotted in _BINARY_UFUNCS:
            if len(expr.args) >= 2:
                left = self.infer(expr.args[0])
                right = self.infer(expr.args[1])
                if left is not None and right is not None:
                    dims, rank, conflict = broadcast_dims(left, right)
                    if conflict is not None and self._emit:
                        self.findings.append(
                            NumericFinding(
                                "SHAPE001",
                                expr,
                                f"broadcast mismatch in {dotted.split('.')[-1]}: "
                                f"dimensions {conflict[0]} and {conflict[1]} are incompatible",
                            )
                        )
                        return None
                    return ArrayVal(_combine(left.dtype, right.dtype), rank, dims)
            return None
        if dotted in ("numpy.matmul", "numpy.dot"):
            if len(expr.args) >= 2:
                return self._matmul_call_val(expr)
            return None
        if dotted == "numpy.einsum":
            dtype: str | None = None
            for a in expr.args[1:]:
                v = self.infer(a)
                if v is None or v.dtype is None:
                    dtype = None
                    break
                dtype = v.dtype if dtype is None else _combine(dtype, v.dtype)
            return ArrayVal(dtype)
        if dotted == "numpy.where":
            if len(expr.args) >= 3:
                a = self.infer(expr.args[1])
                b = self.infer(expr.args[2])
                if a is not None and b is not None:
                    return ArrayVal(_combine(a.dtype, b.dtype))
            return None
        if dotted.startswith("numpy.float"):
            suffix = dotted[len("numpy."):]
            if suffix in _DTYPE_NAMES:
                target = _DTYPE_NAMES[suffix]
                inner = self.infer(arg0) if arg0 is not None else None
                self._check_narrowing_cast(expr, inner, target, f"np.{suffix}()")
                return ArrayVal(target, rank=0)
        if dotted.startswith(("numpy.int", "numpy.uint", "numpy.bool", "numpy.complex")):
            suffix = dotted[len("numpy."):]
            if suffix in _DTYPE_NAMES:
                return ArrayVal(_DTYPE_NAMES[suffix], rank=0)
        if dotted == "builtins.float":
            inner = self.infer(arg0) if arg0 is not None else None
            rank = 0
            return ArrayVal("float64", rank)
        if dotted in ("builtins.abs", "builtins.max", "builtins.min", "builtins.sum"):
            inner = self.infer(arg0) if arg0 is not None else None
            return inner
        if dotted == "builtins.len":
            return ArrayVal("int64", rank=0)
        return None

    def _matmul_call_val(self, expr: ast.Call) -> ArrayVal | None:
        left = self.infer(expr.args[0])
        right = self.infer(expr.args[1])
        if left is None or right is None:
            return None
        rank, dims, conflict = _matmul_shape(left, right)
        if conflict is not None and self._emit:
            self.findings.append(
                NumericFinding(
                    "SHAPE001",
                    expr,
                    f"matmul inner dimensions differ: {conflict[0]} vs {conflict[1]}",
                )
            )
            return None
        return ArrayVal(_combine(left.dtype, right.dtype), rank, dims)

    def _join_val(self, expr: ast.Call, dotted: str, arg0: ast.expr | None) -> ArrayVal | None:
        elems: list[ArrayVal | None] = []
        if isinstance(arg0, (ast.List, ast.Tuple)):
            elems = [self.infer(e) for e in arg0.elts]
        elif arg0 is not None:
            elems = [self.infer(arg0)]
        if dotted == "numpy.append" and len(expr.args) >= 2:
            elems.append(self.infer(expr.args[1]))
        dtype: str | None = None
        rank: int | None = None
        for ev in elems:
            if ev is None:
                return None
            dtype = ev.dtype if dtype is None else _combine(dtype, ev.dtype)
            if ev.rank is not None:
                rank = ev.rank if rank is None else max(rank, ev.rank)
        if dtype == _WEAK_INT:
            dtype = "int64"
        elif dtype == _WEAK_FLOAT:
            dtype = "float64"
        if dotted == "numpy.stack" and rank is not None:
            rank += 1
        if dotted == "numpy.column_stack":
            rank = 2
        return ArrayVal(dtype, rank)

    def _method_call_val(self, expr: ast.Call) -> ArrayVal | None:
        assert isinstance(expr.func, ast.Attribute)
        recv = expr.func.value
        name = expr.func.attr
        if name == "astype":
            base = self.infer(recv)
            target = _dtype_of_expr(
                expr.args[0] if expr.args else _keyword(expr, "dtype"), self.ctx
            )
            self._check_narrowing_cast(expr, base, target, "astype()")
            if base is not None:
                return ArrayVal(target or base.dtype, base.rank, base.dims)
            return ArrayVal(target) if target is not None else None
        if name in _PASSTHROUGH_METHODS:
            base = self.infer(recv)
            if base is None:
                return None
            if name in ("sum", "min", "max"):
                has_axis = bool(expr.args) or _keyword(expr, "axis") is not None
                return ArrayVal(base.dtype, None if has_axis else 0)
            if name == "mean":
                dtype = base.dtype
                if dtype is not None and dtype not in _WEAK and _KIND_BITS[dtype][0] in "biu":
                    dtype = "float64"
                has_axis = bool(expr.args) or _keyword(expr, "axis") is not None
                return ArrayVal(dtype, None if has_axis else 0)
            if name == "item":
                return ArrayVal(base.dtype, 0)
            if name == "reshape":
                shape_arg: ast.expr | None
                if len(expr.args) == 1:
                    shape_arg = expr.args[0]
                elif expr.args:
                    shape_arg = ast.Tuple(elts=list(expr.args), ctx=ast.Load())
                else:
                    shape_arg = _keyword(expr, "shape")
                rank, dims = _shape_of_expr(shape_arg)
                return ArrayVal(base.dtype, rank, dims)
            if name in ("ravel", "flatten"):
                return ArrayVal(base.dtype, 1)
            return base
        if name == "mean":
            base = self.infer(recv)
            if base is None:
                return None
            dtype = base.dtype
            if dtype is not None and dtype not in _WEAK and _KIND_BITS[dtype][0] in "biu":
                dtype = "float64"
            return ArrayVal(dtype)
        return None

    # -- NUM002 checks ---------------------------------------------------
    def _check_constructed_dtype(self, expr: ast.Call, dotted: str, dtype: str | None) -> None:
        """Sub-float64 float array created inside the float64 pipeline."""
        if not (self._emit and self._f64_contract):
            return
        if _is_narrow_float(dtype):
            self.findings.append(
                NumericFinding(
                    "NUM002",
                    expr,
                    f"{dotted.split('.')[-1]}(dtype={dtype}) creates a sub-float64 "
                    "array in the float64 pipeline — the 1e-9 equivalence gate and "
                    "the golden suites assume float64 end to end",
                )
            )

    def _check_narrowing_cast(
        self, expr: ast.Call, base: ArrayVal | None, target: str | None, what: str
    ) -> None:
        """float64 value narrowed to a lower-precision float."""
        if not (self._emit and self._f64_contract):
            return
        if base is None or base.dtype != "float64":
            return
        if _is_narrow_float(target):
            self.findings.append(
                NumericFinding(
                    "NUM002",
                    expr,
                    f"{what} narrows a float64 value to {target} on a hot-path "
                    "dtype contract — keep float64 or justify the cast",
                )
            )

    def _check_int_truncation(self, expr: ast.Call) -> None:
        """Bare ``int()`` on a provably-float64 value truncates, not rounds."""
        if not (self._emit and self._f64_contract):
            return
        dotted = self.ctx.resolve(expr.func)
        if dotted != "builtins.int" and not (
            isinstance(expr.func, ast.Name)
            and expr.func.id == "int"
            and "int" not in self.ctx.imports
        ):
            return
        if not expr.args:
            return
        inner = expr.args[0]
        # int(round(x)) / int(np.floor(x)) is an intended rounding; only
        # bare truncation of a float64 value drifts.
        if isinstance(inner, ast.Call):
            inner_dotted = self.ctx.resolve(inner.func)
            if inner_dotted in _ROUNDING_CALLS:
                return
            if (
                isinstance(inner.func, ast.Name)
                and inner.func.id == "round"
                and "round" not in self.ctx.imports
            ):
                return
        val = self.infer(inner)
        if val is not None and val.dtype == "float64":
            self.findings.append(
                NumericFinding(
                    "NUM002",
                    expr,
                    "bare int() truncates a float64 value toward zero — use "
                    "int(round(...)) (or floor/ceil) to make the rounding explicit",
                )
            )

    # -- statement walk --------------------------------------------------
    def run(self) -> list[NumericFinding]:
        for stmt in self.fn.node.body:
            self._stmt(stmt)
        return self.findings

    def return_val(self) -> ArrayVal | None:
        """Join of every return expression's abstract value."""
        vals = [v for v in self.returned if v is not None]
        if not vals or len(vals) != len(self.returned):
            return None
        out = vals[0]
        for v in vals[1:]:
            dtype = out.dtype if out.dtype == v.dtype else None
            rank = out.rank if out.rank == v.rank else None
            dims = out.dims if out.dims == v.dims else None
            out = ArrayVal(dtype, rank, dims)
        return out if out != ArrayVal() else None

    def _bind(self, target: ast.expr, val: ArrayVal | None) -> None:
        if isinstance(target, ast.Name):
            if val is not None:
                self.env[target.id] = val
            else:
                self.env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, None)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, None)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            val = self.infer(stmt.value)
            typ = self.index.value_type(stmt.value, self.tscope, self.ctx)
            for target in stmt.targets:
                self._bind(target, val)
                if isinstance(target, ast.Name) and typ is not None:
                    self.tscope[target.id] = typ
                if isinstance(target, ast.Subscript):
                    self.infer(target.value)
            return
        if isinstance(stmt, ast.AnnAssign):
            declared = annotation_val(stmt.annotation, self.ctx)
            val = self.infer(stmt.value) if stmt.value is not None else None
            if isinstance(stmt.target, ast.Name):
                self._bind(stmt.target, declared or val)
            return
        if isinstance(stmt, ast.AugAssign):
            val = self.infer(stmt.value)
            if isinstance(stmt.target, ast.Name):
                cur = self.env.get(stmt.target.id)
                if cur is not None and val is not None:
                    dtype = _combine(cur.dtype, val.dtype)
                    if isinstance(stmt.op, ast.Div):
                        dtype = _true_divide(dtype)
                    self.env[stmt.target.id] = ArrayVal(dtype, cur.rank, cur.dims)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returned.append(self.infer(stmt.value))
            else:
                self.returned.append(None)
            return
        if isinstance(stmt, ast.For):
            iter_val = self.infer(stmt.iter)
            if (
                isinstance(stmt.target, ast.Name)
                and iter_val is not None
                and iter_val.rank != 0
            ):
                # rank None (unknown) stays unknown; a known rank drops one.
                self._bind(
                    stmt.target,
                    ArrayVal(
                        iter_val.dtype,
                        None if iter_val.rank is None else iter_val.rank - 1,
                        iter_val.dims[1:] if iter_val.dims else None,
                    ),
                )
            else:
                self._bind(stmt.target, None)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self.infer(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self.infer(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, None)
            for sub in stmt.body:
                self._stmt(sub)
            return
        if isinstance(stmt, ast.Try):
            for sub in stmt.body + stmt.orelse + stmt.finalbody:
                self._stmt(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._stmt(sub)
            return
        if isinstance(stmt, ast.Expr):
            self.infer(stmt.value)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, ast.expr):
                self.infer(child)


# ----------------------------------------------------------------------
# Hot set: call-graph descendants of the serving/telemetry roots
# ----------------------------------------------------------------------
#: (owner class or None, function name) patterns anchoring the hot set.
#: Matched against the tail of each indexed qualname so fixtures can
#: declare their own ``FusedInferenceEngine.infer``.
HOT_ROOT_PATTERNS: tuple[tuple[str | None, str], ...] = (
    ("SelectionService", "_flush"),
    ("SelectionService", "_flush_traced"),
    ("SelectionService", "flush"),
    ("FusedInferenceEngine", "infer"),
    ("Launcher", "collect"),
    ("Launcher", "collect_at_max"),
    (None, "run_campaign"),
)


def _hot_roots(index: ProjectIndex) -> set[str]:
    roots: set[str] = set()
    for qualname, fn in index.functions.items():
        for owner, name in HOT_ROOT_PATTERNS:
            if fn.name != name:
                continue
            if owner is None:
                if fn.class_qualname is None:
                    roots.add(qualname)
            elif fn.class_qualname is not None and fn.class_qualname.rsplit(".", 1)[-1] == owner:
                roots.add(qualname)
    return roots


def _descendants(index: ProjectIndex, roots: set[str]) -> set[str]:
    """Transitive closure of ``roots`` over resolved call edges."""
    by_caller: dict[str, set[str]] = {}
    for site in index.call_graph().edges:
        if site.target is not None:
            by_caller.setdefault(site.caller, set()).add(site.target)
    seen = set(roots)
    frontier = list(roots)
    while frontier:
        qual = frontier.pop()
        for target in by_caller.get(qual, ()):
            if target not in seen and target in index.functions:
                seen.add(target)
                frontier.append(target)
    return seen


# ----------------------------------------------------------------------
# PERF001: hot-path hygiene (lexical pass, typed by the interpreter env)
# ----------------------------------------------------------------------
_ALLOC_CALLS = frozenset(
    {"numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full",
     "numpy.zeros_like", "numpy.ones_like", "numpy.empty_like", "numpy.full_like"}
)
_STACK_CALLS = frozenset(
    {"numpy.stack", "numpy.vstack", "numpy.hstack", "numpy.concatenate",
     "numpy.column_stack", "numpy.array", "numpy.asarray"}
)


def _loop_bound_names(loop: ast.For) -> set[str]:
    """Names bound by the loop target or assigned inside its body."""
    names: set[str] = set()
    for sub in walk(loop.target):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
    for stmt in loop.body:
        for sub in walk(stmt):
            if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for t in targets:
                    for n in walk(t):
                        if isinstance(n, ast.Name):
                            names.add(n.id)
            elif isinstance(sub, ast.For):
                for n in walk(sub.target):
                    if isinstance(n, ast.Name):
                        names.add(n.id)
            elif isinstance(sub, ast.comprehension):
                for n in walk(sub.target):
                    if isinstance(n, ast.Name):
                        names.add(n.id)
    return names


class _HotPathScan:
    """PERF001 patterns over one hot function (post-inference env)."""

    def __init__(self, interp: _FunctionNumerics, hot_via: str) -> None:
        self.interp = interp
        self.ctx = interp.ctx
        self.hot_via = hot_via
        self.findings: list[NumericFinding] = []

    def _is_arrayish(self, name: str) -> bool:
        val = self.interp.env.get(name)
        return val is not None and (val.is_array or val.rank is None and val.dtype is not None)

    def run(self) -> list[NumericFinding]:
        fn = self.interp.fn.node
        suffix = f" (hot via {self.hot_via})"
        # np.append anywhere in a hot function is O(n) per element.
        for node in walk(fn):
            if isinstance(node, ast.Call) and self.ctx.resolve(node.func) == "numpy.append":
                self.findings.append(
                    NumericFinding(
                        "PERF001",
                        node,
                        "np.append reallocates the whole array per call — gather into "
                        "a list and stack once, or preallocate" + suffix,
                    )
                )
        list_lits = {
            t.id
            for stmt in walk(fn)
            if isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.List)
            and not stmt.value.elts
            for t in stmt.targets
            if isinstance(t, ast.Name)
        }
        stacked = self._stacked_lists(fn)
        for loop in (n for n in walk(fn) if isinstance(n, ast.For)):
            self._check_per_element(loop, suffix)
            self._check_append_then_stack(loop, list_lits & stacked, suffix)
            self._check_loop_invariant_alloc(loop, suffix)
        return self.findings

    def _stacked_lists(self, fn: ast.AST) -> set[str]:
        out: set[str] = set()
        for node in walk(fn):
            if (
                isinstance(node, ast.Call)
                and self.ctx.resolve(node.func) in _STACK_CALLS
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                out.add(node.args[0].id)
        return out

    def _check_per_element(self, loop: ast.For, suffix: str) -> None:
        """``for i in range(n): ... arr[i] ...`` doing per-element arithmetic."""
        if not (
            isinstance(loop.iter, ast.Call)
            and isinstance(loop.iter.func, ast.Name)
            and loop.iter.func.id == "range"
            and isinstance(loop.target, ast.Name)
        ):
            return
        ivar = loop.target.id

        def is_indexed_array(sub: ast.Subscript) -> bool:
            # Only a *scalar* index by the loop var counts — ``z[s:s+f]``
            # slice stores are blocked/chunked operations, not per-element.
            index = sub.slice
            if isinstance(index, ast.Tuple):
                scalar = any(
                    isinstance(e, ast.Name) and e.id == ivar for e in index.elts
                )
            else:
                scalar = isinstance(index, ast.Name) and index.id == ivar
            return (
                scalar
                and isinstance(sub.value, ast.Name)
                and self._is_arrayish(sub.value.id)
            )

        for stmt in loop.body:
            for node in walk(stmt):
                # Store: out[i] = ...   Load in arithmetic: ... + a[i]
                if isinstance(node, ast.Assign):
                    for t in node.targets:
                        if isinstance(t, ast.Subscript) and is_indexed_array(t):
                            self.findings.append(
                                NumericFinding(
                                    "PERF001",
                                    node,
                                    "Python per-element loop writes one array slot per "
                                    "iteration — vectorise over the whole axis" + suffix,
                                )
                            )
                            return
                if isinstance(node, ast.BinOp):
                    for side in (node.left, node.right):
                        if isinstance(side, ast.Subscript) and is_indexed_array(side):
                            self.findings.append(
                                NumericFinding(
                                    "PERF001",
                                    node,
                                    "Python per-element loop does scalar arithmetic on "
                                    "one array element per iteration — vectorise" + suffix,
                                )
                            )
                            return

    def _check_append_then_stack(self, loop: ast.For, candidates: set[str], suffix: str) -> None:
        """ndarray values appended in a loop, stacked afterwards."""
        if not candidates:
            return
        for stmt in loop.body:
            for node in walk(stmt):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in candidates
                    and node.args
                ):
                    continue
                val = self.interp.infer(node.args[0])
                # The list is provably stacked later, so anything with a
                # known dtype that is not a provable scalar is a row gather.
                if val is not None and val.rank != 0 and val.dtype is not None:
                    self.findings.append(
                        NumericFinding(
                            "PERF001",
                            node,
                            f"list '{node.func.value.id}' collects ndarray rows in a "
                            "Python loop and is stacked later — compute the whole "
                            "block vectorised instead" + suffix,
                        )
                    )
                    return

    def _check_loop_invariant_alloc(self, loop: ast.For, suffix: str) -> None:
        bound = _loop_bound_names(loop)
        for stmt in loop.body:
            for node in walk(stmt):
                if not (
                    isinstance(node, ast.Call)
                    and self.ctx.resolve(node.func) in _ALLOC_CALLS
                ):
                    continue
                mentions_bound = any(
                    isinstance(n, ast.Name) and n.id in bound
                    for arg in list(node.args) + [kw.value for kw in node.keywords]
                    for n in walk(arg)
                )
                if not mentions_bound:
                    self.findings.append(
                        NumericFinding(
                            "PERF001",
                            node,
                            "loop-invariant array allocation inside a hot loop — "
                            "hoist the buffer out of the loop and reuse it" + suffix,
                        )
                    )
                    return


# ----------------------------------------------------------------------
# PURE001: value-sensitive purity over the call graph
# ----------------------------------------------------------------------
#: External calls whose *result* is ambient (non-reproducible) state.
_IMPURE_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns", "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
        "os.urandom", "os.getenv", "os.getpid", "os.getloadavg", "os.times",
        "uuid.uuid1", "uuid.uuid4",
        "builtins.input", "builtins.open", "io.open",
        "socket.gethostname", "platform.node",
    }
)
_IMPURE_PREFIXES = ("random.", "secrets.")
#: Seeded construction APIs — *with arguments* they are reproducible.
_RNG_FACTORIES = frozenset(
    {"numpy.random.default_rng", "numpy.random.Generator",
     "numpy.random.SeedSequence", "numpy.random.PCG64", "numpy.random.Philox",
     "numpy.random.MT19937", "numpy.random.SFC64"}
)


def _impure_external(call: ast.Call, ctx: ModuleContext) -> str | None:
    """Reason string when a call expression is an ambient-state source."""
    dotted = ctx.resolve(call.func)
    if dotted is None:
        if (
            isinstance(call.func, ast.Name)
            and call.func.id in ("open", "input")
            and call.func.id not in ctx.imports
        ):
            return f"builtins.{call.func.id}()"
        return None
    if dotted in _IMPURE_CALLS:
        return f"{dotted}()"
    if dotted.startswith(_IMPURE_PREFIXES):
        return f"{dotted}()"
    if dotted.startswith("numpy.random."):
        if dotted in _RNG_FACTORIES:
            if not call.args and not call.keywords:
                return f"{dotted}() with no seed (OS entropy)"
            return None
        return f"module-level {dotted}()"
    return None


def _mutated_globals(index: ProjectIndex) -> dict[str, set[str]]:
    """module -> module-level names rebound via ``global`` somewhere."""
    out: dict[str, set[str]] = {}
    for module, ctx in index.modules.items():
        names: set[str] = set()
        for node in walk(ctx.tree):
            if isinstance(node, ast.Global):
                names.update(node.names)
        if names:
            out[module] = names
    return out


@dataclass
class _PurityInfo:
    """Pre-chewed structure of one function for the purity fixpoint."""

    fn: FunctionInfo
    ctx: ModuleContext
    #: (targets, value) pairs of every binding statement.
    bindings: list[tuple[list[ast.expr], ast.expr]]
    #: Return value expressions.
    returns: list[ast.expr]
    #: call node -> resolved project target (for callee impurity lookup).
    project_calls: dict[ast.Call, str]
    #: call node -> impurity reason (ambient external sources).
    impure_calls: dict[ast.Call, str]
    #: Name nodes reading a mutated module global: name -> reason.
    global_reads: dict[str, str]


def _purity_info(
    fn: FunctionInfo,
    ctx: ModuleContext,
    index: ProjectIndex,
    mutated: dict[str, set[str]],
) -> _PurityInfo:
    bindings: list[tuple[list[ast.expr], ast.expr]] = []
    returns: list[ast.expr] = []
    project_calls: dict[ast.Call, str] = {}
    impure_calls: dict[ast.Call, str] = {}
    tscope = index._scope_for(fn, ctx)
    local_names: set[str] = set(fn.params)
    for node in walk(fn.node):
        if isinstance(node, ast.Assign):
            bindings.append((list(node.targets), node.value))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            bindings.append(([node.target], node.value))
        elif isinstance(node, ast.AugAssign):
            bindings.append(([node.target], node.value))
        elif isinstance(node, ast.For):
            bindings.append(([node.target], node.iter))
        elif isinstance(node, ast.comprehension):
            bindings.append(([node.target], node.iter))
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            bindings.append(([node.optional_vars], node.context_expr))
        elif isinstance(node, ast.Return) and node.value is not None:
            returns.append(node.value)
        elif isinstance(node, ast.Call):
            # Container mutation flows values into the receiver:
            # ``out.append(time.time())`` taints ``out``.
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend", "insert", "add", "update")
                and isinstance(node.func.value, ast.Name)
                and node.args
            ):
                bindings.append(
                    ([node.func.value], ast.Tuple(elts=list(node.args), ctx=ast.Load()))
                )
            reason = _impure_external(node, ctx)
            if reason is not None:
                impure_calls[node] = reason
                continue
            site = index.classify_call(node, tscope, ctx, caller=fn.qualname)
            if site.kind == "resolved" and site.target is not None:
                project_calls[node] = site.target
    for target_list, _ in bindings:
        for target in target_list:
            for sub in walk(target):
                if isinstance(sub, ast.Name):
                    local_names.add(sub.id)
    module_mutated = mutated.get(fn.module, set())
    global_reads = {
        name: f"read of mutated module global {fn.module}.{name}"
        for name in module_mutated
        if name not in local_names
    }
    return _PurityInfo(fn, ctx, bindings, returns, project_calls, impure_calls, global_reads)


def _return_impurity(
    info: _PurityInfo,
    impure_of: "dict[str, tuple[bool, str]]",
    overrides: dict[str, tuple[str, ...]],
) -> tuple[bool, str]:
    """(is return-impure, witness) for one function under current facts."""

    def call_reason(call: ast.Call) -> str | None:
        if call in info.impure_calls:
            return info.impure_calls[call]
        target = info.project_calls.get(call)
        if target is None:
            return None
        for candidate in (target, *overrides.get(target, ())):
            impure, witness = impure_of.get(candidate, (False, ""))
            if impure:
                short = candidate.rsplit(".", 2)
                return f"calls {'.'.join(short[-2:])} ({witness})"
        return None

    def expr_reason(expr: ast.AST, tainted: set[str]) -> str | None:
        for node in walk(expr):
            if isinstance(node, ast.Call):
                reason = call_reason(node)
                if reason is not None:
                    return reason
            elif isinstance(node, ast.Name) and node.id in tainted:
                return f"value derived from {node.id} ({taint_why[node.id]})"
        return None

    tainted: set[str] = set()
    taint_why: dict[str, str] = {}
    for name, reason in info.global_reads.items():
        # A mutated-global *name* used in any expression taints directly;
        # model it as an always-tainted pseudo-binding.
        tainted.add(name)
        taint_why[name] = reason
    changed = True
    while changed:
        changed = False
        for targets, value in info.bindings:
            reason = expr_reason(value, tainted)
            if reason is None:
                continue
            for target in targets:
                for sub in walk(target):
                    if isinstance(sub, ast.Name) and sub.id not in tainted:
                        tainted.add(sub.id)
                        taint_why[sub.id] = reason
                        changed = True
    for ret in info.returns:
        reason = expr_reason(ret, tainted)
        if reason is not None:
            return True, reason
    return False, ""


# ----------------------------------------------------------------------
# Cache feeds: who produces memoised values
# ----------------------------------------------------------------------
@dataclass
class CacheFeed:
    """One site where a computed value enters a cache."""

    module: str
    line: int
    col: int
    label: str  # "LRUCache.put_many", "self._decision_cache[...]", "@lru_cache"
    #: Project functions whose results feed the cached value (+ overrides).
    roots: tuple[str, ...]
    #: (root, witness) pairs for roots that failed the purity proof.
    impure: tuple[tuple[str, str], ...] = ()
    node: ast.AST | None = field(default=None, repr=False, compare=False)

    @property
    def proven_pure(self) -> bool:
        return not self.impure


def _cache_attr_in(expr: ast.expr) -> str | None:
    """Name of a ``*_cache`` attribute anywhere under ``expr``, if any."""
    for node in walk(expr):
        if isinstance(node, ast.Attribute) and (
            node.attr.endswith("_cache") or node.attr == "cache"
        ):
            return node.attr
    return None


def _feed_roots(info: _PurityInfo, value_expr: ast.expr) -> set[str]:
    """Project functions whose results flow into ``value_expr`` (backward taint)."""
    needed = {
        n.id for n in walk(value_expr) if isinstance(n, ast.Name)
    }
    roots = {
        info.project_calls[c]
        for c in walk(value_expr)
        if isinstance(c, ast.Call) and c in info.project_calls
    }
    changed = True
    while changed:
        changed = False
        for targets, value in info.bindings:
            hit = any(
                isinstance(sub, ast.Name) and sub.id in needed
                for t in targets
                for sub in walk(t)
            )
            if not hit:
                continue
            for node in walk(value):
                if isinstance(node, ast.Call) and node in info.project_calls:
                    if info.project_calls[node] not in roots:
                        roots.add(info.project_calls[node])
                        changed = True
                elif isinstance(node, ast.Name) and node.id not in needed:
                    needed.add(node.id)
                    changed = True
    return roots


# ----------------------------------------------------------------------
# The analysis object (one per ProjectIndex, cached)
# ----------------------------------------------------------------------
class NumericAnalysis:
    """Dtype/shape propagation, hot set and purity facts for one project."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        #: Inferred abstract return values of project functions.
        self.return_vals: dict[str, ArrayVal] = {}
        #: Hot function qualname -> root label that makes it hot.
        self.hot_map: dict[str, str] = {}
        #: module -> NUM002/SHAPE001/PERF001 findings.
        self.module_findings: dict[str, list[NumericFinding]] = {}
        #: qualname -> (return-impure, witness).
        self.impurity: dict[str, tuple[bool, str]] = {}
        #: method qualname -> overriding qualnames in subclasses.
        self.overrides: dict[str, tuple[str, ...]] = {}
        #: Every discovered cache-feed site, proofs attached.
        self.cache_feeds: list[CacheFeed] = []
        self._project_fns = [
            fn
            for qual, fn in sorted(index.functions.items())
            if fn.module in index.modules
            and index.modules[fn.module].in_package("repro")
        ]
        self._infer_returns()
        self._compute_hot_map()
        self._run_module_pass()
        self._compute_overrides()
        self._compute_purity()
        self._discover_cache_feeds()

    # -- dtype/shape passes ---------------------------------------------
    def _infer_returns(self) -> None:
        for _ in range(3):
            changed = False
            for fn in self._project_fns:
                ctx = self.index.modules[fn.module]
                interp = _FunctionNumerics(fn, ctx, self.index, self.return_vals)
                interp._emit = False
                interp.run()
                val = interp.return_val()
                if val is None:
                    declared = annotation_val(fn.returns, ctx)
                    val = declared
                if val is not None and self.return_vals.get(fn.qualname) != val:
                    self.return_vals[fn.qualname] = val
                    changed = True
            if not changed:
                break

    def _compute_hot_map(self) -> None:
        by_caller: dict[str, set[str]] = {}
        for site in self.index.call_graph().edges:
            if site.target is not None:
                by_caller.setdefault(site.caller, set()).add(site.target)
        for root in sorted(_hot_roots(self.index)):
            label = ".".join(root.rsplit(".", 2)[-2:])
            frontier = [root]
            while frontier:
                qual = frontier.pop()
                if qual in self.hot_map:
                    continue
                self.hot_map[qual] = label
                frontier.extend(
                    t for t in by_caller.get(qual, ()) if t in self.index.functions
                )

    def _run_module_pass(self) -> None:
        for fn in self._project_fns:
            ctx = self.index.modules[fn.module]
            interp = _FunctionNumerics(fn, ctx, self.index, self.return_vals)
            findings = interp.run()
            if fn.qualname in self.hot_map:
                findings.extend(
                    _HotPathScan(interp, self.hot_map[fn.qualname]).run()
                )
            if findings:
                self.module_findings.setdefault(fn.module, []).extend(findings)

    # -- purity ----------------------------------------------------------
    def _compute_overrides(self) -> None:
        children: dict[str, list[str]] = {}
        for qual, cinfo in self.index.classes.items():
            for base in cinfo.bases:
                children.setdefault(base, []).append(qual)

        def subclasses(qual: str) -> list[str]:
            out: list[str] = []
            stack = list(children.get(qual, ()))
            while stack:
                sub = stack.pop()
                out.append(sub)
                stack.extend(children.get(sub, ()))
            return out

        for qual, cinfo in self.index.classes.items():
            subs = subclasses(qual)
            if not subs:
                continue
            for name, method in cinfo.methods.items():
                over = tuple(
                    self.index.classes[s].methods[name].qualname
                    for s in subs
                    if name in self.index.classes[s].methods
                )
                if over:
                    self.overrides[method.qualname] = over

    def _compute_purity(self) -> None:
        mutated = _mutated_globals(self.index)
        infos: dict[str, _PurityInfo] = {}
        for fn in self._project_fns:
            ctx = self.index.modules[fn.module]
            infos[fn.qualname] = _purity_info(fn, ctx, self.index, mutated)
        self.impurity = {qual: (False, "") for qual in infos}
        for _ in range(len(infos)):
            changed = False
            for qual, info in infos.items():
                fact = _return_impurity(info, self.impurity, self.overrides)
                if fact != self.impurity[qual]:
                    self.impurity[qual] = fact
                    changed = True
            if not changed:
                break
        self._purity_infos = infos

    def _impure_roots(self, roots: set[str]) -> tuple[tuple[str, str], ...]:
        bad: list[tuple[str, str]] = []
        for root in sorted(roots):
            for candidate in (root, *self.overrides.get(root, ())):
                impure, witness = self.impurity.get(candidate, (False, ""))
                if impure:
                    bad.append((candidate, witness))
        return tuple(bad)

    def _discover_cache_feeds(self) -> None:
        # (a) LRUCache.put / put_many call sites (the serving curve cache).
        for site in self.index.call_graph().edges:
            target = site.target or ""
            parts = target.rsplit(".", 2)
            if len(parts) < 3 or parts[-2] != "LRUCache":
                continue
            if parts[-1] not in ("put", "put_many") or site.node is None:
                continue
            info = self._purity_infos.get(site.caller)
            if info is None:
                continue
            args = site.node.args
            value_expr: ast.expr | None = None
            if parts[-1] == "put" and len(args) >= 2:
                value_expr = args[1]
            elif parts[-1] == "put_many" and args:
                value_expr = args[0]
            for kw in site.node.keywords:
                if kw.arg in ("value", "entries"):
                    value_expr = kw.value
            if value_expr is None:
                continue
            roots = _feed_roots(info, value_expr)
            self.cache_feeds.append(
                CacheFeed(
                    module=site.module,
                    line=site.line,
                    col=site.col,
                    label=f"LRUCache.{parts[-1]}",
                    roots=tuple(sorted(roots)),
                    impure=self._impure_roots(roots),
                    node=site.node,
                )
            )
        # (b) subscript stores into ``*_cache`` attributes (decision cache).
        for qual, info in self._purity_infos.items():
            fn = info.fn
            for node in walk(fn.node):
                if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Subscript):
                    continue
                attr = _cache_attr_in(target.value)
                if attr is None:
                    continue
                roots = _feed_roots(info, node.value)
                self.cache_feeds.append(
                    CacheFeed(
                        module=fn.module,
                        line=node.lineno,
                        col=node.col_offset,
                        label=f"self.{attr}[...]",
                        roots=tuple(sorted(roots)),
                        impure=self._impure_roots(roots),
                        node=node,
                    )
                )
        # (c) @lru_cache / @functools.cache functions memoise themselves.
        for fn in self._project_fns:
            if not any(
                "lru_cache" in dec or dec in ("cache", "functools.cache")
                for dec in fn.decorators
            ):
                continue
            roots = {fn.qualname}
            self.cache_feeds.append(
                CacheFeed(
                    module=fn.module,
                    line=fn.lineno,
                    col=fn.node.col_offset,
                    label="@lru_cache",
                    roots=tuple(sorted(roots)),
                    impure=self._impure_roots(roots),
                    node=fn.node,
                )
            )
        self.cache_feeds.sort(key=lambda f: (f.module, f.line, f.col))

    # -- rule API --------------------------------------------------------
    def findings_for_module(self, module: str) -> list[NumericFinding]:
        return self.module_findings.get(module, [])

    def feeds_in_module(self, module: str) -> list[CacheFeed]:
        return [f for f in self.cache_feeds if f.module == module]


def get_numeric_analysis(index: ProjectIndex) -> NumericAnalysis:
    """The (cached) numeric analysis for one project index."""
    analysis = getattr(index, "_numeric_analysis", None)
    if analysis is None:
        analysis = NumericAnalysis(index)
        index._numeric_analysis = analysis  # type: ignore[attr-defined]
    return analysis


# ----------------------------------------------------------------------
# Dtype table (for ``repro graph --dtypes``)
# ----------------------------------------------------------------------
def _format_val(val: ArrayVal) -> str:
    dtype = {_WEAK_INT: "int", _WEAK_FLOAT: "float"}.get(val.dtype, val.dtype) or "?"
    if val.rank == 0:
        return dtype
    if val.rank is None:
        return f"{dtype}[...]"
    dims = (
        ",".join("?" if d is None else str(d) for d in val.dims)
        if val.dims is not None
        else ",".join("?" * 0) or "x".join(["?"] * val.rank)
    )
    return f"{dtype}[{dims}]"


def dtype_table(index: ProjectIndex) -> dict:
    """Inferred dtypes/shapes across the project, JSON-ready."""
    analysis = get_numeric_analysis(index)
    functions = {
        qual: _format_val(val)
        for qual, val in sorted(analysis.return_vals.items())
        if val.dtype is not None or val.rank is not None
    }
    parameters: dict[str, dict[str, str]] = {}
    for qual, fn in sorted(index.functions.items()):
        ctx = index.modules.get(fn.module)
        if ctx is None:
            continue
        params = {
            name: _format_val(val) for name, val in _param_vals(fn, ctx).items()
        }
        if params:
            parameters[qual] = params
    return {
        "schema": 1,
        "lattice": list(DTYPES),
        "hot_roots": sorted(set(analysis.hot_map.values())),
        "hot_functions": sorted(analysis.hot_map),
        "functions": functions,
        "parameters": parameters,
        "cache_feeds": [
            {
                "module": feed.module,
                "line": feed.line,
                "label": feed.label,
                "roots": list(feed.roots),
                "proven_pure": feed.proven_pure,
            }
            for feed in analysis.cache_feeds
        ],
    }
