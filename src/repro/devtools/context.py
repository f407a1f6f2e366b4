"""Per-module analysis context: AST, import table, noqa suppressions.

Every rule sees one :class:`ModuleContext` per file.  The context does
the work every rule would otherwise repeat:

* an **import table** mapping local names to dotted origins
  (``np`` -> ``numpy``, ``_time`` -> ``time``,
  ``default_rng`` -> ``numpy.random.default_rng``), built from every
  ``import`` statement in the file including function-local ones;
* :meth:`ModuleContext.resolve`, which turns an attribute chain like
  ``np.random.default_rng`` into its fully qualified dotted name;
* the **noqa map**: physical lines carrying ``# repro: noqa[RULE]`` (or
  the blanket ``# repro: noqa``) suppress findings reported on them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.findings import Finding

__all__ = ["ModuleContext", "build_context", "context_from_source", "source_text", "walk"]

#: ``# repro: noqa`` (blanket) or ``# repro: noqa[DET001,NUM001]``.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?")


def walk(node: ast.AST) -> tuple[ast.AST, ...]:
    """Every node under ``node`` (itself included), in :func:`ast.walk` order.

    The rules walk the same module trees and function bodies many times
    over (once per rule, and again on every fixpoint round), so both the
    flattened walk and each node's direct children are memoised on the
    nodes themselves.  The checker never rewrites a tree after parsing,
    so the memo cannot go stale.
    """
    cached = node.__dict__.get("_repro_walk")
    if cached is not None:
        return cached
    out = [node]
    # Breadth-first: the list grows while it is iterated, as ast.walk's
    # queue does.
    for current in out:
        children = current.__dict__.get("_repro_children")
        if children is None:
            children = current._repro_children = tuple(ast.iter_child_nodes(current))
        out.extend(children)
    nodes = tuple(out)
    node._repro_walk = nodes
    return nodes


def source_text(node: ast.AST) -> str:
    """:func:`ast.unparse` of ``node``, memoised on the node like :func:`walk`."""
    text = node.__dict__.get("_repro_text")
    if text is None:
        text = node._repro_text = ast.unparse(node)
    return text


def _scan_noqa(lines: list[str]) -> dict[int, frozenset[str] | None]:
    """Map 1-based line number -> suppressed rule ids (None = all rules)."""
    out: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(lines, start=1):
        if "repro:" not in line:
            continue
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        raw = match.group("rules")
        if raw is None or not raw.strip():
            out[lineno] = None
        else:
            out[lineno] = frozenset(token.strip().upper() for token in raw.split(",") if token.strip())
    return out


def _resolve_relative(module: str, is_package: bool, from_module: str | None, level: int) -> str:
    """Absolute dotted origin of a (possibly relative) ``from`` import."""
    if level == 0:
        return from_module or ""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    parts = parts[: max(len(parts) - (level - 1), 0)]
    base = ".".join(parts)
    if from_module:
        return f"{base}.{from_module}" if base else from_module
    return base


def _build_imports(
    tree: ast.Module, module: str, is_package: bool
) -> tuple[dict[str, str], frozenset[str]]:
    """(local name -> dotted origin, set of all imported dotted modules)."""
    table: dict[str, str] = {}
    modules: set[str] = set()
    for node in walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules.add(alias.name)
                if alias.asname is not None:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(module, is_package, node.module, node.level)
            if base:
                modules.add(base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                origin = f"{base}.{alias.name}" if base else alias.name
                modules.add(origin)
                table[alias.asname or alias.name] = origin
    return table, frozenset(modules)


@dataclass
class ModuleContext:
    """Everything a rule needs to analyse one source file."""

    rel_path: str
    module: str
    source: str
    tree: ast.Module
    lines: list[str] = field(repr=False)
    imports: dict[str, str] = field(repr=False)
    #: Every dotted module/name this file imports (for "does it use X" checks).
    imported: frozenset[str] = field(repr=False)
    noqa: dict[int, frozenset[str] | None] = field(repr=False)
    #: Shared :class:`repro.devtools.graph.ProjectIndex` for rules that set
    #: ``needs_project`` — attached by the engine, ``None`` for purely
    #: per-file runs.
    project: object | None = field(default=None, repr=False)

    @property
    def is_package(self) -> bool:
        return self.rel_path.endswith("__init__.py")

    def in_package(self, *packages: str) -> bool:
        """Whether this module lives in (or is) any of the dotted packages."""
        return any(self.module == p or self.module.startswith(p + ".") for p in packages)

    def imports_module(self, package: str) -> bool:
        """Whether the file imports ``package`` or anything inside it."""
        prefix = package + "."
        if any(m == package or m.startswith(prefix) for m in self.imported):
            return True
        return any(o == package or o.startswith(prefix) for o in self.imports.values())

    def resolve(self, node: ast.AST) -> str | None:
        """Fully qualified dotted name of a Name/Attribute chain, or None.

        Resolution goes through the import table, so only names that
        trace back to an import resolve — ``self.rng.normal`` or a local
        variable returns None, which is exactly the conservative
        behaviour rules want.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.imports.get(node.id)
        if origin is None:
            return None
        parts.append(origin)
        return ".".join(reversed(parts))

    def finding(self, rule, node: ast.AST, message: str) -> Finding:
        """A finding anchored at ``node`` for ``rule``."""
        return Finding(
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=rule.rule_id,
            severity=rule.severity,
            message=message,
        )

    def suppressed(self, finding: Finding) -> bool:
        """Whether an inline noqa on the finding's line silences it."""
        entry = self.noqa.get(finding.line, ...)
        if entry is ...:
            return False
        return entry is None or finding.rule_id in entry


def context_from_source(source: str, *, module: str, rel_path: str | None = None) -> ModuleContext:
    """Context for an in-memory source string (tests and fixtures)."""
    if rel_path is None:
        rel_path = module.replace(".", "/") + ".py"
    tree = ast.parse(source)
    is_package = rel_path.endswith("__init__.py")
    imports, imported = _build_imports(tree, module, is_package)
    lines = source.splitlines()
    return ModuleContext(
        rel_path=rel_path,
        module=module,
        source=source,
        tree=tree,
        lines=lines,
        imports=imports,
        imported=imported,
        noqa=_scan_noqa(lines),
    )


def build_context(path: Path, root: Path) -> ModuleContext:
    """Context for a file on disk; ``root`` is the directory holding ``repro/``."""
    rel = path.relative_to(root).as_posix()
    parts = rel[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    module = ".".join(parts)
    source = path.read_text(encoding="utf-8")
    ctx = context_from_source(source, module=module, rel_path=rel)
    return ctx
