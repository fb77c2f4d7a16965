"""AST index and name-based call graph over the repro's own source.

The audit never imports the code it analyzes — it parses every file
under the given root and builds:

* a function/method index (with ``@fastpath`` markers detected
  syntactically, so the analysis works on any tree, importable or not);
* a class table with base-class names, giving an inheritance *family*
  (ancestors + descendants) for ``self.method()`` resolution;
* an over-approximate call-edge resolver: ``self.x()`` prefers the
  caller's class family, ``obj.x()`` and ``x()`` fall back to every
  known function of that name.  Over-approximation is safe for every
  audit rule: reachability checks only get quieter with extra edges,
  never wrongly loud.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.analysis_common import iter_python_files


def _rel_name(path: Path) -> str:
    """Stable tree-relative name: start at the ``repro`` package dir."""
    parts = path.as_posix().split("/")
    if "repro" in parts:
        return "/".join(parts[parts.index("repro"):])
    return path.name


def _is_fastpath_marked(node: ast.AST) -> bool:
    for deco in getattr(node, "decorator_list", []):
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "fastpath":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "fastpath":
            return True
    return False


def _is_staticmethod(node: ast.AST) -> bool:
    for deco in getattr(node, "decorator_list", []):
        if isinstance(deco, ast.Name) and deco.id in ("staticmethod",
                                                      "classmethod"):
            return True
    return False


@dataclass
class ModuleInfo:
    """One parsed source file plus its module-level constant tables."""

    path: Path
    rel: str
    tree: ast.Module
    lines: list[str]
    #: ``_MAND = Category.MANDATORY`` style aliases -> member name.
    category_aliases: dict[str, str] = field(default_factory=dict)
    #: Module-level integer constants (``AM_ORIGIN_OVERHEAD = 34``).
    int_constants: dict[str, int] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    """One function or method definition in the indexed tree."""

    module: ModuleInfo
    cls: Optional[str]
    name: str
    node: ast.FunctionDef
    fastpath: bool
    staticmethod: bool

    @property
    def short(self) -> str:
        """``Class.method`` or bare function name."""
        return f"{self.cls}.{self.name}" if self.cls else self.name

    @property
    def qualname(self) -> str:
        """Stable provenance id: ``repro/core/ch4.py:CH4Device.isend``."""
        return f"{self.module.rel}:{self.short}"


@dataclass
class ClassInfo:
    """One class definition: base names and own methods."""

    name: str
    module: ModuleInfo
    bases: tuple[str, ...]
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


class CodeIndex:
    """Parsed view of a source tree with call-edge resolution."""

    def __init__(self) -> None:
        self.modules: list[ModuleInfo] = []
        self.functions: dict[str, FunctionInfo] = {}
        self.by_name: dict[str, list[FunctionInfo]] = {}
        self.classes: dict[str, list[ClassInfo]] = {}
        #: Module-level ``NAME = {key: function, ...}`` dispatch tables
        #: -> the names they hold.
        self.tables: dict[str, list[str]] = {}
        self._family_cache: dict[str, frozenset[str]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, paths: Sequence[str | Path]) -> "CodeIndex":
        """Parse every ``*.py`` under *paths* into one index."""
        index = cls()
        for path in iter_python_files([str(p) for p in paths]):
            index.add_file(Path(path))
        return index

    def add_file(self, path: Path) -> None:
        """Parse one file into the index (syntax errors are skipped —
        the sanitizer/compileall tiers own syntax checking)."""
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source)
        except (OSError, SyntaxError):
            return
        mod = ModuleInfo(path=path, rel=_rel_name(path), tree=tree,
                         lines=source.splitlines())
        self.modules.append(mod)
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                value = stmt.value
                if (isinstance(value, ast.Attribute)
                        and isinstance(value.value, ast.Name)
                        and value.value.id == "Category"):
                    mod.category_aliases[name] = value.attr
                elif isinstance(value, ast.Constant) \
                        and isinstance(value.value, int):
                    mod.int_constants[name] = value.value
                elif isinstance(value, ast.Dict):
                    self.tables[name] = [v.id for v in value.values
                                         if isinstance(v, ast.Name)]
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, None, stmt)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(mod, stmt)

    def _add_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        bases = tuple(b.id if isinstance(b, ast.Name) else b.attr
                      for b in node.bases
                      if isinstance(b, (ast.Name, ast.Attribute)))
        info = ClassInfo(name=node.name, module=mod, bases=bases)
        self.classes.setdefault(node.name, []).append(info)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = self._add_function(
                    mod, node.name, stmt)

    def _add_function(self, mod: ModuleInfo, cls: Optional[str],
                      node: ast.FunctionDef) -> FunctionInfo:
        info = FunctionInfo(module=mod, cls=cls, name=node.name, node=node,
                            fastpath=_is_fastpath_marked(node),
                            staticmethod=_is_staticmethod(node))
        self.functions[info.qualname] = info
        self.by_name.setdefault(node.name, []).append(info)
        return info

    # -- queries -----------------------------------------------------------

    def fastpath_functions(self) -> list[FunctionInfo]:
        """Every function carrying the ``@fastpath`` marker."""
        return [f for f in self.functions.values() if f.fastpath]

    def find_method(self, cls: str, name: str) -> Optional[FunctionInfo]:
        """Locate ``cls.name`` anywhere in the tree (first match)."""
        for info in self.classes.get(cls, []):
            if name in info.methods:
                return info.methods[name]
        return None

    def class_family(self, cls: str) -> frozenset[str]:
        """*cls* plus its (transitive, name-matched) ancestors and
        descendants."""
        cached = self._family_cache.get(cls)
        if cached is not None:
            return cached
        family = {cls}
        # Ancestors.
        frontier = [cls]
        while frontier:
            current = frontier.pop()
            for info in self.classes.get(current, []):
                for base in info.bases:
                    if base not in family:
                        family.add(base)
                        frontier.append(base)
        # Descendants (one fixpoint sweep per new member).
        changed = True
        while changed:
            changed = False
            for name, infos in self.classes.items():
                if name in family:
                    continue
                if any(base in family for info in infos
                       for base in info.bases):
                    family.add(name)
                    changed = True
        result = frozenset(family)
        self._family_cache[cls] = result
        return result

    def resolve_call(self, func_expr: ast.expr,
                     caller: FunctionInfo) -> list[FunctionInfo]:
        """Over-approximate callee set for a ``Call.func`` expression."""
        if isinstance(func_expr, ast.Name):
            # Plain call: module-level functions of that name anywhere,
            # or — the name being a class — its constructor and, for a
            # context object, the enter/exit pair the ``with`` around
            # the call runs.
            return [f for f in self.by_name.get(func_expr.id, [])
                    if f.cls is None] + [
                info.methods[name]
                for info in self.classes.get(func_expr.id, [])
                for name in ("__init__", "__enter__", "__exit__")
                if name in info.methods]
        if isinstance(func_expr, ast.Attribute):
            name = func_expr.attr
            candidates = self.by_name.get(name, [])
            if (isinstance(func_expr.value, ast.Name)
                    and func_expr.value.id in ("self", "cls")
                    and caller.cls is not None):
                family = self.class_family(caller.cls)
                in_family = [f for f in candidates if f.cls in family]
                if in_family:
                    return in_family
            return candidates
        if isinstance(func_expr, ast.Subscript) \
                and isinstance(func_expr.value, ast.Name):
            # ``TABLE[key](...)``: any function the table holds.
            return [f for name in self.tables.get(func_expr.value.id, ())
                    for f in self.by_name.get(name, []) if f.cls is None]
        return []

    def walk_body(self, func: FunctionInfo) -> Iterable[ast.AST]:
        """Walk a function body, *excluding* nested function/class
        definitions (closures run off the audited path)."""
        stack: list[ast.AST] = list(func.node.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))
