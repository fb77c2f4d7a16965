"""Charge-provenance verification (rules FP101–FP104).

A context-sensitive symbolic walk of the call graph from each MPI
entry point.  Local names are mapped to small symbol sets:

* ``"costs"`` — the cost-model root (``COSTS``, ``self.costs``, a
  bound local like ``c``);
* ``"group:<field>"`` — a cost group (``isend_error``,
  ``put_mandatory``, ``ch3_put_steps``);
* ``"cost:<key>"`` — a fully resolved registry key;
* ``"proc"`` — the rank's Proc handle (any chain ending ``.proc`` or a
  propagated parameter);
* ``"chargefn"`` — a hoisted bound method (``charge =
  self.proc.charge``);
* ``"cat:<MEMBER>"`` — a resolved Category.

Parameter bindings propagate through calls (memoized per walk on the
(function, bindings) pair), tuple assignments and conditional
expressions are folded, and the CH3 ``for cat, sub, cost in
steps.values()`` idiom expands to every key of the bound step table.
The record call ``proc.plan(key, charging, *args)`` is followed as
``charging(proc, *args)``, so a charging function compiled into a
charge plan is walked exactly like one called stepwise — including
the ones a call plan fuses: ``call_plan`` / ``entry_plan`` /
``pt2pt_plan`` / ``rma_plan`` are ordinary functions that make the
record calls, reached by name from the entry point that compiles
them.  A call to a class (a context object ``Entry(...)``) is followed
into its ``__init__`` and its ``__enter__``/``__exit__`` pair.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis_common import Finding
from repro.audit.callgraph import CodeIndex, FunctionInfo
from repro.audit.manifest import AuditManifest
from repro.instrument.categories import Category

SymSet = frozenset[str]
UNKNOWN: SymSet = frozenset({"?"})
_INTERESTING = ("cost:", "group:", "cat:")
_INTERESTING_EXACT = ("costs", "proc", "chargefn")

#: Callee names that count as observable fast-path work for FP104.
WORK_CALLS = frozenset({
    "pack", "unpack", "deliver", "post", "issue", "acquire", "complete",
    "am_put", "am_get", "am_accumulate", "rdma",
})


def _is_interesting(syms: SymSet) -> bool:
    return any(s in _INTERESTING_EXACT or s.startswith(_INTERESTING)
               for s in syms)


@dataclass(frozen=True)
class ChargeSite:
    """One reachable ``proc.charge(...)`` call."""

    func: FunctionInfo
    line: int
    keys: frozenset[str]      #: registry keys the cost argument resolves to
    category_ok: bool


@dataclass
class EntryResult:
    """Outcome of one walk from one or more entry points."""

    entries: tuple[FunctionInfo, ...]
    sites: list[ChargeSite] = field(default_factory=list)
    reachable: set[str] = field(default_factory=set)

    def reachable_keys(self) -> dict[str, set[str]]:
        """Registry key -> set of charging-function qualnames."""
        out: dict[str, set[str]] = {}
        for site in self.sites:
            for key in site.keys:
                out.setdefault(key, set()).add(site.func.qualname)
        return out


class ProvenanceAnalyzer:
    """Symbolic charge extraction over one :class:`CodeIndex`."""

    def __init__(self, index: CodeIndex, manifest: AuditManifest):
        self.index = index
        self.man = manifest
        self.scalars = {k for k in manifest.registry if "." not in k}
        self.groups = {k.split(".", 1)[0]
                       for k in manifest.registry if "." in k}
        self._group_keys: dict[str, frozenset[str]] = {
            g: frozenset(k for k in manifest.registry
                         if k.startswith(g + "."))
            for g in self.groups}
        self._result: Optional[EntryResult] = None
        self._memo: set[tuple] = set()

    # -- public ------------------------------------------------------------

    def analyze(self, *entries: FunctionInfo) -> EntryResult:
        """Walk the call graph from *entries* under one memo, collecting
        charge sites: a function reached again with the same bindings
        is walked once, whichever entry reaches it."""
        self._result = EntryResult(entries=entries)
        self._memo = set()
        for entry in entries:
            self._visit(entry, {})
        result = self._result
        self._result = None
        return result

    # -- traversal ---------------------------------------------------------

    def _visit(self, func: FunctionInfo, bound: dict[str, SymSet]) -> None:
        key = (func.qualname,
               tuple(sorted((k, tuple(sorted(v))) for k, v in bound.items())))
        if key in self._memo or len(self._memo) > 20000:
            return
        self._memo.add(key)
        self._result.reachable.add(func.qualname)
        env: dict[str, SymSet] = dict(bound)
        self._scan_block(func.node.body, env, func)

    def _scan_block(self, stmts, env: dict[str, SymSet],
                    func: FunctionInfo) -> None:
        for stmt in stmts:
            self._scan_stmt(stmt, env, func)

    def _scan_stmt(self, stmt: ast.stmt, env, func) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value, env, func)
            self._bind_assign(stmt, env, func)
            return
        if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if stmt.value is not None:
                self._scan_expr(stmt.value, env, func)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, env, func)
            self._bind_loop(stmt, env, func)
            self._scan_block(stmt.body, env, func)
            self._scan_block(stmt.orelse, env, func)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr, env, func)
            self._scan_block(stmt.body, env, func)
            return
        if isinstance(stmt, ast.If) or isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, env, func)
            self._scan_block(stmt.body, env, func)
            self._scan_block(stmt.orelse, env, func)
            return
        if isinstance(stmt, ast.Try):
            self._scan_block(stmt.body, env, func)
            for handler in stmt.handlers:
                self._scan_block(handler.body, env, func)
            self._scan_block(stmt.orelse, env, func)
            self._scan_block(stmt.finalbody, env, func)
            return
        if isinstance(stmt, (ast.Return, ast.Expr)):
            if stmt.value is not None:
                self._scan_expr(stmt.value, env, func)
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._scan_expr(stmt.exc, env, func)
            return
        # Import / Pass / Global / Delete / Assert etc: nothing to do.

    def _scan_expr(self, expr: ast.expr, env, func) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._handle_call(node, env, func)

    # -- bindings ----------------------------------------------------------

    def _bind_assign(self, stmt: ast.Assign, env, func) -> None:
        if len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            env[target.id] = self._resolve(stmt.value, env, func)
        elif isinstance(target, ast.Tuple) \
                and isinstance(stmt.value, ast.Tuple) \
                and len(target.elts) == len(stmt.value.elts):
            for t, v in zip(target.elts, stmt.value.elts):
                if isinstance(t, ast.Name):
                    env[t.id] = self._resolve(v, env, func)

    def _bind_loop(self, stmt: ast.For, env, func) -> None:
        """The CH3 idiom: ``for cat, sub, cost in steps.values()``
        where *steps* is bound to a step-table group — expand *cost* to
        every key of that table and mark *cat* as table-derived."""
        target, it = stmt.target, stmt.iter
        names = ([t.id for t in target.elts if isinstance(t, ast.Name)]
                 if isinstance(target, ast.Tuple) else
                 [target.id] if isinstance(target, ast.Name) else [])
        for name in names:
            env[name] = UNKNOWN
        if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute)
                and it.func.attr == "values" and not it.args):
            return
        base = self._resolve(it.func.value, env, func)
        tables = [s[6:] for s in base
                  if s.startswith("group:") and s[6:] in self._group_keys]
        if not tables or not isinstance(target, ast.Tuple) \
                or len(target.elts) != 3:
            return
        elts = target.elts
        if isinstance(elts[0], ast.Name):
            env[elts[0].id] = frozenset({"cat:TABLE"})
        if isinstance(elts[2], ast.Name):
            env[elts[2].id] = frozenset(
                "cost:" + k for g in tables for k in self._group_keys[g])

    # -- symbolic resolution -----------------------------------------------

    def _resolve(self, expr: ast.expr, env, func) -> SymSet:
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in env:
                return env[name]
            if name == "COSTS":
                return frozenset({"costs"})
            if name == "Category":
                return frozenset({"Category"})
            if name in self.man.aux_name_keys \
                    and name in func.module.int_constants:
                return frozenset({"cost:" + self.man.aux_name_keys[name]})
            if name in func.module.category_aliases:
                return frozenset(
                    {"cat:" + func.module.category_aliases[name]})
            return UNKNOWN
        if isinstance(expr, ast.Attribute):
            attr = expr.attr
            if attr in self.man.aux_attr_keys:
                return frozenset({"cost:" + self.man.aux_attr_keys[attr]})
            base = self._resolve(expr.value, env, func)
            out: set[str] = set()
            if "Category" in base and attr in Category.__members__:
                out.add("cat:" + attr)
            if attr == "proc":
                out.add("proc")
            if attr == "costs":
                out.add("costs")
            for sym in base:
                if sym == "costs":
                    if attr in self.scalars:
                        out.add("cost:" + attr)
                    elif attr in self.groups:
                        out.add("group:" + attr)
                elif sym.startswith("group:"):
                    candidate = f"{sym[6:]}.{attr}"
                    if candidate in self.man.registry:
                        out.add("cost:" + candidate)
                elif sym == "proc" and attr == "charge":
                    out.add("chargefn")
            return frozenset(out) if out else UNKNOWN
        if isinstance(expr, ast.IfExp):
            return (self._resolve(expr.body, env, func)
                    | self._resolve(expr.orelse, env, func))
        return UNKNOWN

    # -- calls -------------------------------------------------------------

    def _handle_call(self, call: ast.Call, env, func) -> None:
        fn = call.func
        on_proc = (isinstance(fn, ast.Attribute)
                   and "proc" in self._resolve(fn.value, env, func))
        if on_proc and fn.attr == "charge":
            # ``proc.charge(plan)`` replays a compiled plan: its charge
            # sites are the steps of the charging function followed below.
            if len(call.args) + len(call.keywords) > 1:
                self._record_charge(call, env, func)
            return
        if on_proc and fn.attr == "plan" and len(call.args) >= 2:
            # The record call ``proc.plan(key, charging, *args)`` runs
            # ``charging(recorder, *args)``: follow it as that call, the
            # recorder standing in for the proc.
            call = ast.Call(func=call.args[1],
                            args=[fn.value, *call.args[2:]], keywords=[])
            fn = call.func
        if isinstance(fn, ast.Name) \
                and "chargefn" in env.get(fn.id, frozenset()):
            self._record_charge(call, env, func)
            return
        for callee in self.index.resolve_call(fn, func):
            self._visit(callee, self._bind_params(call, callee, env, func))

    def _record_charge(self, call: ast.Call, env, func) -> None:
        args = list(call.args)
        cat_syms = (self._resolve(args[0], env, func)
                    if args else UNKNOWN)
        cost_syms = (self._resolve(args[1], env, func)
                     if len(args) > 1 else UNKNOWN)
        keys = frozenset(s[5:] for s in cost_syms if s.startswith("cost:"))
        category_ok = any(s.startswith("cat:") for s in cat_syms)
        self._result.sites.append(ChargeSite(
            func=func, line=call.lineno, keys=keys, category_ok=category_ok))

    def _bind_params(self, call: ast.Call, callee: FunctionInfo,
                     env, func) -> dict[str, SymSet]:
        params = [a.arg for a in (callee.node.args.posonlyargs
                                  + callee.node.args.args)]
        if callee.cls is not None and not callee.staticmethod and params \
                and (isinstance(call.func, ast.Attribute)
                     or callee.name == "__init__"):   # Class(...) call
            params = params[1:]
        bound: dict[str, SymSet] = {}
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) or i >= len(params):
                break
            syms = self._resolve(arg, env, func)
            if _is_interesting(syms):
                bound[params[i]] = syms
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in params:
                syms = self._resolve(kw.value, env, func)
                if _is_interesting(syms):
                    bound[kw.arg] = syms
        return bound


# ---------------------------------------------------------------------------
# rule evaluation
# ---------------------------------------------------------------------------

def _suppressed(func: FunctionInfo, line: int, rule_id: str) -> bool:
    from repro.analysis_common import suppressed
    from repro.audit.rules import PRAGMA_MARKER
    return suppressed(func.module.lines, line, rule_id, PRAGMA_MARKER)


def run_provenance(index: CodeIndex, manifest: AuditManifest,
                   ) -> tuple[list[Finding], EntryResult]:
    """Run FP101–FP104 over *index*; returns (findings, the one walk
    from every entry point).  FP101–FP103a and the snapshot read only
    what some entry reaches, so the entries share one walk; FP103b
    walks each entry a published path names on its own."""
    analyzer = ProvenanceAnalyzer(index, manifest)
    findings: list[Finding] = []

    entry_funcs: dict[tuple[str, str], FunctionInfo] = {}
    for cls, method in manifest.entry_points:
        info = index.find_method(cls, method)
        if info is None:
            findings.append(Finding(
                "FP103", "<manifest>", 0,
                f"entry point {cls}.{method} not found in the audited tree"))
            continue
        entry_funcs[(cls, method)] = info
    union = analyzer.analyze(*entry_funcs.values())

    # FP101 / FP102: per charge site (once, whatever bindings reach it).
    seen: set[tuple[str, int, str]] = set()
    for site in union.sites:
        spot = (site.func.module.rel, site.line)
        if not site.category_ok and spot + ("FP101",) not in seen:
            seen.add(spot + ("FP101",))
            if not _suppressed(site.func, site.line, "FP101"):
                findings.append(Finding(
                    "FP101", str(site.func.module.path), site.line,
                    f"{site.func.short}: charge category does not "
                    "resolve to a Category member"))
        if not site.keys and spot + ("FP102",) not in seen:
            seen.add(spot + ("FP102",))
            if not _suppressed(site.func, site.line, "FP102"):
                findings.append(Finding(
                    "FP102", str(site.func.module.path), site.line,
                    f"{site.func.short}: charged cost does not resolve "
                    "to any registered cost-model entry"))

    # FP103a: non-zero registry entries no entry point ever reaches.
    reached = union.reachable_keys()
    for key, entry in sorted(manifest.registry.items()):
        if entry.cost != 0 and key not in reached:
            findings.append(Finding(
                "FP103", "<registry>", 0,
                f"cost-model entry '{key}' ({entry.cost} instr) has no "
                "reachable charge site from any MPI entry point"))

    # FP103b: per-path expected keys must be reachable from their entry
    # alone: one walk per distinct entry the paths name.
    alone = {entry: analyzer.analyze(entry_funcs[entry]).reachable_keys()
             for entry in {spec.entry for spec in manifest.paths}
             if entry in entry_funcs}
    for spec in manifest.paths:
        reachable = alone.get(spec.entry)
        if reachable is None:
            continue
        for key in sorted(spec.keys):
            if manifest.registry[key].cost != 0 and key not in reachable:
                findings.append(Finding(
                    "FP103", "<paths>", 0,
                    f"path '{spec.name}': expected key '{key}' has no "
                    f"charge site reachable from "
                    f"{spec.entry[0]}.{spec.entry[1]}"))

    # FP104: @fastpath functions doing observable work with no charge
    # anywhere in their call subtree.
    for fp in index.fastpath_functions():
        works = _observable_work(index, fp)
        if works and not _subtree_charges(index, fp):
            if not _suppressed(fp, fp.node.lineno, "FP104"):
                findings.append(Finding(
                    "FP104", str(fp.module.path), fp.node.lineno,
                    f"{fp.short}: fast-path function performs "
                    f"{'/'.join(sorted(works))} but no charge is reachable "
                    "from it"))
    return findings, union


def _observable_work(index: CodeIndex, func: FunctionInfo) -> set[str]:
    names: set[str] = set()
    for node in index.walk_body(func):
        if isinstance(node, ast.Call):
            fn = node.func
            attr = (fn.attr if isinstance(fn, ast.Attribute)
                    else fn.id if isinstance(fn, ast.Name) else None)
            if attr in WORK_CALLS:
                names.add(attr)
    return names


def _has_syntactic_charge(index: CodeIndex, func: FunctionInfo) -> bool:
    for node in index.walk_body(func):
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute) and fn.attr == "charge":
                return True
            if isinstance(fn, ast.Name) and fn.id == "charge":
                return True
    return False


def _tight_callees(index: CodeIndex, func_expr: ast.expr,
                   caller: FunctionInfo) -> list[FunctionInfo]:
    """Call edges for FP104 only: plain names and ``self.x()`` within
    the caller's class family.  Unlike :meth:`CodeIndex.resolve_call`
    there is **no** any-name fallback for ``obj.x()`` — FP104 needs the
    subtree *tight* (a duck-typed ``request.complete()`` must not make
    every ``complete`` in the tree count as "this function charges"),
    whereas the reachability rules want it over-approximate."""
    if isinstance(func_expr, ast.Name):
        return [f for f in index.by_name.get(func_expr.id, [])
                if f.cls is None]
    if (isinstance(func_expr, ast.Attribute)
            and isinstance(func_expr.value, ast.Name)
            and func_expr.value.id in ("self", "cls")
            and caller.cls is not None):
        family = index.class_family(caller.cls)
        return [f for f in index.by_name.get(func_expr.attr, [])
                if f.cls in family]
    return []


def _subtree_charges(index: CodeIndex, root: FunctionInfo,
                     limit: int = 2000) -> bool:
    """Does any function tightly reachable from *root* charge?"""
    seen: set[str] = set()
    frontier = [root]
    while frontier and len(seen) < limit:
        func = frontier.pop()
        if func.qualname in seen:
            continue
        seen.add(func.qualname)
        if _has_syntactic_charge(index, func):
            return True
        for node in index.walk_body(func):
            if isinstance(node, ast.Call):
                frontier.extend(_tight_callees(index, node.func, func))
    return False
