"""Interprocedural buffer-ownership dataflow.

The engine walks function bodies (reusing :class:`repro.audit.callgraph.
CodeIndex` for parsing and call-edge resolution — it never imports the
analyzed code) and tracks payload buffers as abstract *taints*:

* a :class:`Taint` records a buffer's role (``src`` / ``dest`` /
  ``inout``), how many times its bytes were already materialized on
  this path, whether the current reference is a *borrow* (a view of
  storage someone else owns), whether it is already *dense* contiguous
  bytes, and whether it is even contiguous;
* composites (operation descriptors, messages) are dicts of field
  taints, so ``SendOp(buf=...)`` → ``device.isend(op)`` → ``op.buf``
  flows through without losing track.

Every materialization (``tobytes()``, ``bytes()``, a scatter store
``dst[a:b] = src``), borrow (``memoryview``, ``.data``, a view slice),
and ownership transfer (``Message.own_data``) is recorded as an
:class:`Event` tagged with *branch qualifiers* — which build/protocol
branch it sits on (``strided``, ``copy_mode``, ``faults``, ...).  The
census (:mod:`repro.bufcheck.census`) filters events by qualifier to
count the copies of each published path variant; the ``BC5xx`` rules
fire directly during the walk.

Calls descend through :meth:`CodeIndex.resolve_call` (the audit's
over-approximation) whenever at least one argument carries taint, with
memoization keyed on the callee plus the canonical shape of its tainted
arguments.  The receive side runs later, on whichever thread makes the
match, so it is analyzed where it is *set up*: a module-level function
handed to a descriptor constructor (``PostedRecv(..., land_recv)``) is
walked there, the descriptor's fields as its first argument — that
landing is the entire receive-side datapath.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

from repro.analysis_common import Finding, suppressed
from repro.audit.callgraph import CodeIndex, FunctionInfo
from repro.bufcheck.rules import MARKER

# --------------------------------------------------------------------- #
# abstract values                                                        #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Taint:
    """Abstract state of one buffer reference."""

    role: str = "src"        #: "src" | "dest" | "inout"
    copies: int = 0          #: materializations already on this path
    borrowed: bool = False   #: view of storage owned elsewhere
    dense: bool = False      #: already-materialized contiguous bytes
    contig: bool = True      #: covers a contiguous byte range
    seq: bool = False        #: sequence of per-rank payloads
    owned: bool = False      #: storage is a local materialized copy —
    #: stores through views of it mutate runtime scratch, never the
    #: application's bytes (the multi-round collectives' accumulators)


@dataclass(frozen=True)
class FuncRef:
    """A function passed as an argument (``run_call(..., body, op)``
    handed ``proc.device.isend``): what a call of the parameter it is
    bound to descends into."""

    funcs: tuple             #: the candidate ``FunctionInfo``s


#: A tracked value: one buffer, a field->value composite (ops,
#: messages), a tuple of values (multi-returns), a function reference,
#: or untracked (None).
Value = Union[Taint, dict, list, FuncRef, None]


def first_taint(value: Value) -> Optional[Taint]:
    """The first :class:`Taint` reachable inside *value*, if any."""
    if isinstance(value, Taint):
        return value
    if isinstance(value, dict):
        for v in value.values():
            t = first_taint(v)
            if t is not None:
                return t
    if isinstance(value, list):
        for v in value:
            t = first_taint(v)
            if t is not None:
                return t
    return None


def merge_values(values: Sequence[Value]) -> Value:
    """Join of possible values (used for branch merges and multi-callee
    returns): identical shapes merge field-wise, otherwise the first
    tainted value wins (over-approximation, never silently untainted)."""
    tainted = [v for v in values if first_taint(v) is not None]
    if not tainted:   # a callback survives the join of its branches
        return next((v for v in values if isinstance(v, FuncRef)), None)
    head = tainted[0]
    if isinstance(head, Taint):
        out = head
        for other in tainted[1:]:
            if isinstance(other, Taint):
                out = replace(
                    out,
                    copies=max(out.copies, other.copies),
                    borrowed=out.borrowed or other.borrowed,
                    dense=out.dense or other.dense,
                    contig=out.contig and other.contig,
                    seq=out.seq or other.seq)
        return out
    return head


def canon(value: Value) -> tuple:
    """Canonical hashable shape of a value — the memoization key part.
    Copy counts saturate at 2: beyond "already copied twice" nothing
    in the rules or census distinguishes further."""
    if isinstance(value, Taint):
        return ("t", value.role, min(value.copies, 2), value.borrowed,
                value.dense, value.contig, value.seq)
    if isinstance(value, dict):
        return ("c",) + tuple(sorted(
            (k, canon(v)) for k, v in value.items()
            if first_taint(v) is not None))
    if isinstance(value, list):
        return ("l",) + tuple(canon(v) for v in value[:8])
    if isinstance(value, FuncRef):
        return ("f",) + tuple(f.qualname for f in value.funcs)
    return ("n",)


# --------------------------------------------------------------------- #
# events                                                                 #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Event:
    """One data-movement site on an analyzed path."""

    qual: str                #: FunctionInfo.qualname of the site
    line: int                #: line inside that function's module
    kind: str                #: "copy" | "borrow" | "transfer"
    what: str                #: tobytes / scatter / memoryview / ...
    quals: frozenset = frozenset()   #: branch qualifiers

    @property
    def site(self) -> str:
        """Line-number-free site id (stable across unrelated edits)."""
        return f"{self.qual}::{self.kind}:{self.what}"


#: Qualifiers marking a site off the contiguous zero-copy fast path.
OFFPATH_QUALS = frozenset({
    "strided", "copy_mode", "payload_recv",
    "faults", "sanitizer", "progress", "tsan", "hooks",
})

#: Qualifiers marking a site off the always-copy (fault-build) path.
OFFCOPY_QUALS = frozenset({
    "strided", "view_mode", "payload_recv",
    "faults", "sanitizer", "progress", "tsan", "hooks",
})

#: Names whose ``is (not) None`` guards gate optional subsystems: the
#: hook seam (``proc.hooks``, or a local bound from it — FP308's one
#: guard) and, inside the subsystems' own packages, their attributes.
FEATURE_ATTRS = frozenset({"hooks", "faults", "sanitizer", "progress",
                           "tsan"})


#: The device trees by qualifier: a site reached through a function
#: whose qualname starts with the prefix carries the qualifier.  The
#: resolver offers both devices' methods for ``proc.device.put``; a
#: shared helper only one device calls is on that device's paths alone.
DEVICE_TREES = {"ch3": "repro/ch3/", "ch4": "repro/core/ch4.py:CH4Device."}


def branch_quals(test: ast.expr) -> tuple[frozenset, frozenset]:
    """Qualifiers for the body / else branches of an ``if`` *test*."""
    none = frozenset()
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        body, orelse = branch_quals(test.operand)
        return orelse, body
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        body = none
        for value in test.values:
            body = body | branch_quals(value)[0]
        return body, none          # which conjunct failed is unknown
    if isinstance(test, ast.Attribute) and test.attr == "contig":
        return none, frozenset({"strided"})
    if isinstance(test, ast.Name) and test.id == "copy":
        return frozenset({"copy_mode"}), frozenset({"view_mode"})
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        left = test.left
        name = getattr(left, "id", getattr(left, "attr", None))
        if name == "buf":       # a local, or a descriptor's field
            pos, neg = frozenset({"payload_recv"}), \
                frozenset({"buffer_recv"})
        elif name in FEATURE_ATTRS and (isinstance(left, ast.Attribute)
                                        or name == "hooks"):
            pos, neg = none, frozenset({name})
        else:
            return none, none
        if isinstance(test.ops[0], ast.Is):
            return pos, neg
        return neg, pos
    return none, none


# --------------------------------------------------------------------- #
# name tables                                                            #
# --------------------------------------------------------------------- #

#: Calls that only read their buffer argument (checksums, sizes, ...).
SCALAR_CALLS = frozenset({
    "len", "int", "float", "bool", "str", "repr", "format", "range",
    "enumerate", "isinstance", "issubclass", "min", "max", "sum", "abs",
    "sorted", "zip", "print", "id", "hash", "type", "getattr", "hasattr",
    "divmod", "round", "all", "any", "iter", "next", "packed_size",
    "crc32", "ord", "chr",
})

#: Attribute reads on a taint that yield untracked scalars.
SCALAR_ATTRS = frozenset({
    "nbytes", "size", "shape", "dtype", "itemsize", "ndim", "flags",
    "contiguous", "readonly", "format",
})

#: Methods on a taint that materialize a dense private copy.
COPY_METHODS = frozenset({"tobytes", "copy", "flatten", "astype"})

#: Methods on a taint that return another view of the same storage.
BORROW_METHODS = frozenset({"view", "reshape", "ravel", "cast",
                            "squeeze", "byteswap"})

#: numpy-namespace constructors by behavior (receiver is ``np``).
NP_BORROW_FUNCS = frozenset({"frombuffer", "asarray"})
NP_COPY_FUNCS = frozenset({"array", "copy", "concatenate",
                           "ascontiguousarray"})

#: Descriptor constructors whose keyword fields carry payload buffers.
COMPOSITE_CTORS = frozenset({
    "SendOp", "RecvOp", "PutOp", "GetOp", "AccOp", "Message",
    "PostedRecv",
})

#: Attribute stores that ARE the sanctioned escape hatches — pinning a
#: view on its owning request/message is the keepalive BC503 demands.
SANCTIONED_ATTRS = frozenset({"_keepalive", "payload", "data", "buf"})

#: Name-based parameter seeding for the whole-tree scan.  ``origin``
#: is inout: it is the source of a put but the destination of a get.
SRC_PARAMS = frozenset({"sendbuf", "origin_buf", "inbuf", "send"})
DEST_PARAMS = frozenset({"recvbuf", "outbuf", "fetch_buf", "recv"})
DENSE_SRC_PARAMS = frozenset({"data", "payload"})
INOUT_PARAMS = frozenset({"buf", "array", "arr", "buffer", "origin"})
MSG_PARAMS = frozenset({"msg", "message"})

#: Op-annotation composite seeds (``def isend(self, op: SendOp)``).
OP_ANNOTATION_SEEDS = {
    "SendOp": {"buf": Taint("src", borrowed=True)},
    "RecvOp": {"buf": Taint("dest", borrowed=True)},
    "PutOp": {"origin_buf": Taint("src", borrowed=True)},
    "GetOp": {"origin_buf": Taint("dest", borrowed=True)},
    "AccOp": {"origin_buf": Taint("src", borrowed=True),
              "fetch_buf": Taint("dest", borrowed=True)},
}

#: Two-buffer APIs where aliased send/recv arguments violate MPI's
#: no-overlap rule (BC505) — checked syntactically.
ALIAS_APIS = frozenset({
    "Sendrecv", "sendrecv",
    "reduce_buf", "allreduce_buf", "scan_buf", "exscan_buf",
    "reduce_scatter_block_buf", "alltoall_buf", "allgather_buf",
    "gather_buf", "scatter_buf", "bcast_buf",
})

MAX_DEPTH = 16
MAX_CANDIDATES = 6


def name_seeds(func: FunctionInfo) -> dict[str, Value]:
    """Whole-tree-scan seeds for *func*'s parameters, by naming
    convention (entry-rooted analyses pass concrete taints instead)."""
    seeds: dict[str, Value] = {}
    for arg in func.node.args.args + func.node.args.kwonlyargs:
        name = arg.arg
        ann = arg.annotation
        ann_name = None
        if isinstance(ann, ast.Name):
            ann_name = ann.id
        elif isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            ann_name = ann.value.strip('"')
        if ann_name in OP_ANNOTATION_SEEDS:
            seeds[name] = dict(OP_ANNOTATION_SEEDS[ann_name])
        elif name in MSG_PARAMS or ann_name == "Message":
            seeds[name] = {"data": Taint("src", borrowed=True)}
        elif name in SRC_PARAMS:
            seeds[name] = Taint("src", borrowed=True)
        elif name in DEST_PARAMS:
            seeds[name] = Taint("dest", borrowed=True)
        elif name in DENSE_SRC_PARAMS:
            seeds[name] = Taint("src", dense=True)
        elif name in INOUT_PARAMS:
            seeds[name] = Taint("inout", borrowed=True)
    return seeds


# --------------------------------------------------------------------- #
# the engine                                                             #
# --------------------------------------------------------------------- #


@dataclass
class Summary:
    """Result of analyzing one function under one taint signature."""

    events: list = field(default_factory=list)
    ret: Value = None


class _Ctx:
    """Per-analysis mutable state for one function activation."""

    __slots__ = ("func", "events", "depth")

    def __init__(self, func: FunctionInfo, depth: int):
        self.func = func
        self.events: list[Event] = []
        self.depth = depth


class Analyzer:
    """The interprocedural walker.  One instance per tool run; findings
    and memoized summaries accumulate across entries."""

    def __init__(self, index: CodeIndex):
        self.index = index
        self.findings: dict[tuple, Finding] = {}
        self._memo: dict[tuple, Summary] = {}
        self._active: set[tuple] = set()
        self._calls: dict[str, frozenset] = {}

    # -- findings ----------------------------------------------------------

    def _report(self, func: FunctionInfo, node: ast.AST, rule_id: str,
                message: str) -> None:
        line = getattr(node, "lineno", 0)
        if suppressed(func.module.lines, line, rule_id, MARKER):
            return
        key = (rule_id, func.module.rel, line)
        if key not in self.findings:
            self.findings[key] = Finding(
                rule_id=rule_id, path=str(func.module.path), line=line,
                message=message)

    # -- entry points ------------------------------------------------------

    def run_entry(self, cls: Optional[str], method: str,
                  seeds: dict[str, Value]) -> list[Event]:
        """Analyze one call-graph root with concrete seeds; returns the
        full event stream of everything reachable from it."""
        func = (self.index.find_method(cls, method) if cls is not None
                else next((f for f in self.index.by_name.get(method, [])
                           if f.cls is None), None))
        if func is None:
            return []
        return self.analyze(func, seeds, depth=0).events

    def analyze(self, func: FunctionInfo, seeds: dict[str, Value],
                depth: int) -> Summary:
        """Memoized analysis of *func* under *seeds*."""
        key = (func.qualname, tuple(sorted(
            (k, canon(v)) for k, v in seeds.items()
            if first_taint(v) is not None or isinstance(v, FuncRef))))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if depth > MAX_DEPTH or key in self._active:
            return Summary()
        self._active.add(key)
        ctx = _Ctx(func, depth)
        env: dict[str, Value] = dict(seeds)
        summary = Summary()
        try:
            self._exec_block(func.node.body, env, frozenset(), ctx,
                             summary)
        finally:
            self._active.discard(key)
        summary.events = ctx.events
        self._memo[key] = summary
        return summary

    # -- statements --------------------------------------------------------

    @staticmethod
    def _terminates(stmts) -> bool:
        return bool(stmts) and isinstance(
            stmts[-1], (ast.Return, ast.Raise, ast.Break, ast.Continue))

    def _exec_block(self, stmts, env, quals, ctx, summary) -> None:
        for i, stmt in enumerate(stmts):
            # Early-return branching: when an if-body always leaves the
            # block, the statements after the if ARE the else branch
            # and inherit its qualifier (the `if datatype.contig: ...
            # return view` / fall-through-to-gather idiom).
            if isinstance(stmt, ast.If) and not stmt.orelse \
                    and self._terminates(stmt.body):
                body_q, else_q = branch_quals(stmt.test)
                self._eval(stmt.test, env, quals, ctx)
                self._exec_block(stmt.body, dict(env), quals | body_q,
                                 ctx, summary)
                self._exec_block(stmts[i + 1:], env, quals | else_q,
                                 ctx, summary)
                return
            self._exec(stmt, env, quals, ctx, summary)

    def _exec(self, stmt, env, quals, ctx, summary) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._exec_assign(stmt, env, quals, ctx)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env, quals, ctx)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._eval(stmt.value, env, quals, ctx)
                summary.ret = merge_values([summary.ret, value])
        elif isinstance(stmt, ast.If):
            body_q, else_q = branch_quals(stmt.test)
            self._eval(stmt.test, env, quals, ctx)
            body_env, else_env = dict(env), dict(env)
            self._exec_block(stmt.body, body_env, quals | body_q, ctx,
                             summary)
            self._exec_block(stmt.orelse, else_env, quals | else_q, ctx,
                             summary)
            for name in set(body_env) | set(else_env):
                env[name] = merge_values(
                    [body_env.get(name), else_env.get(name),
                     env.get(name)])
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_val = self._eval(stmt.iter, env, quals, ctx)
            elem = None
            if isinstance(iter_val, Taint) and iter_val.seq:
                elem = replace(iter_val, seq=False)
            elif isinstance(iter_val, list):
                elem = merge_values(iter_val)
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = elem
            # Two passes reach the loop-carried fixpoint that matters
            # for taint shapes (copy counts saturate at 2 anyway).
            for _ in range(2):
                self._exec_block(stmt.body, env, quals, ctx, summary)
            self._exec_block(stmt.orelse, env, quals, ctx, summary)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env, quals, ctx)
            for _ in range(2):
                self._exec_block(stmt.body, env, quals, ctx, summary)
            self._exec_block(stmt.orelse, env, quals, ctx, summary)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self._eval(item.context_expr, env, quals, ctx)
                if (item.optional_vars is not None
                        and isinstance(item.optional_vars, ast.Name)):
                    env[item.optional_vars.id] = value
            self._exec_block(stmt.body, env, quals, ctx, summary)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, env, quals, ctx, summary)
            for handler in stmt.handlers:
                self._exec_block(handler.body, dict(env), quals, ctx,
                                 summary)
            self._exec_block(stmt.orelse, env, quals, ctx, summary)
            self._exec_block(stmt.finalbody, env, quals, ctx, summary)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, env, quals, ctx)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, env, quals, ctx)
        # Everything else — nested definitions included: a closure is
        # off the datapath, which hands *functions* to descriptors
        # (see ``_run_landings``) — moves no bytes.

    def _exec_assign(self, stmt, env, quals, ctx) -> None:
        if isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value, env, quals, ctx)
            targets = [stmt.target]
        elif isinstance(stmt, ast.AnnAssign):
            value = (self._eval(stmt.value, env, quals, ctx)
                     if stmt.value is not None else None)
            targets = [stmt.target]
        else:
            value = self._eval(stmt.value, env, quals, ctx)
            targets = stmt.targets
        for target in targets:
            self._assign_target(target, value, env, quals, ctx)

    def _assign_target(self, target, value, env, quals, ctx) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            elems = (value if isinstance(value, list)
                     else [value] * len(target.elts))
            for sub, v in zip(target.elts, elems):
                self._assign_target(sub, v, env, quals, ctx)
        elif isinstance(target, ast.Subscript):
            base = None
            if isinstance(target.value, ast.Name):
                base = env.get(target.value.id)
            if isinstance(base, Taint) and base.borrowed \
                    and base.role == "src" and not base.owned:
                self._report(
                    ctx.func, target, "BC502",
                    f"store into borrowed send buffer "
                    f"'{target.value.id}' — the application owns these "
                    "bytes until the operation completes")
            # A slice-store of tainted bytes is the scatter copy (the
            # legitimate one-per-path-end data movement); an element
            # store is a reference stash, not a byte copy.
            if isinstance(target.slice, ast.Slice) \
                    and first_taint(value) is not None:
                ctx.events.append(Event(
                    qual=ctx.func.qualname, line=target.lineno,
                    kind="copy", what="scatter", quals=quals))
        elif isinstance(target, ast.Attribute):
            self._check_escape(target, value, env, quals, ctx)
            base = None
            if isinstance(target.value, ast.Name):
                base = env.get(target.value.id)
            if isinstance(base, dict):
                base[target.attr] = value

    def _check_escape(self, target: ast.Attribute, value, env, quals,
                      ctx) -> None:
        """BC503: a borrowed, not-yet-owned view stored on an object."""
        if not isinstance(value, Taint):
            return
        if not value.borrowed or value.dense:
            return
        if target.attr in SANCTIONED_ATTRS:
            return
        self._report(
            ctx.func, target, "BC503",
            f"borrowed buffer view stored as .{target.attr} outlives "
            "the operation — pin it on the owning request "
            "(request._keepalive) or take ownership with bytes()")

    # -- expressions -------------------------------------------------------

    def _eval(self, node, env, quals, ctx) -> Value:
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env, quals, ctx)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, env, quals, ctx)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env, quals, ctx)
        if isinstance(node, (ast.Tuple, ast.List)):
            return [self._eval(e, env, quals, ctx) for e in node.elts]
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env, quals, ctx)
            return merge_values([
                self._eval(node.body, env, quals, ctx),
                self._eval(node.orelse, env, quals, ctx)])
        if isinstance(node, ast.BoolOp):
            return merge_values([self._eval(v, env, quals, ctx)
                                 for v in node.values])
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env, quals, ctx)
            right = self._eval(node.right, env, quals, ctx)
            if isinstance(node.op, ast.Add):
                parts = [v for v in (left, right)
                         if isinstance(v, Taint)]
                if parts:
                    # bytes concatenation materializes a new buffer
                    ctx.events.append(Event(
                        qual=ctx.func.qualname, line=node.lineno,
                        kind="copy", what="concat", quals=quals))
                    t = merge_values(parts)
                    return replace(t, copies=t.copies + 1, dense=True,
                                   borrowed=False, contig=True)
            return None
        if isinstance(node, ast.Compare):
            self._eval(node.left, env, quals, ctx)
            for comp in node.comparators:
                self._eval(comp, env, quals, ctx)
            return None
        if isinstance(node, ast.UnaryOp):
            self._eval(node.operand, env, quals, ctx)
            return None
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env, quals, ctx)
        if isinstance(node, (ast.ListComp, ast.SetComp,
                             ast.GeneratorExp)):
            return self._eval_comprehension(node, env, quals, ctx)
        if isinstance(node, ast.DictComp):
            inner = dict(env)
            self._bind_comp_targets(node.generators, inner, quals, ctx)
            self._eval(node.key, inner, quals, ctx)
            self._eval(node.value, inner, quals, ctx)
            return None
        if isinstance(node, ast.JoinedStr):
            for v in node.values:
                if isinstance(v, ast.FormattedValue):
                    self._eval(v.value, env, quals, ctx)
            return None
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._eval(node.value, env, quals, ctx)
        if isinstance(node, ast.Yield):
            return (self._eval(node.value, env, quals, ctx)
                    if node.value is not None else None)
        if isinstance(node, ast.Dict):
            for v in node.values:
                if v is not None:
                    self._eval(v, env, quals, ctx)
            return None
        return None

    def _bind_comp_targets(self, generators, env, quals, ctx) -> None:
        for gen in generators:
            iter_val = self._eval(gen.iter, env, quals, ctx)
            elem = None
            if isinstance(iter_val, Taint) and iter_val.seq:
                elem = replace(iter_val, seq=False)
            elif isinstance(iter_val, list):
                elem = merge_values(iter_val)
            if isinstance(gen.target, ast.Name):
                env[gen.target.id] = elem

    def _eval_comprehension(self, node, env, quals, ctx) -> Value:
        inner = dict(env)
        self._bind_comp_targets(node.generators, inner, quals, ctx)
        elem = self._eval(node.elt, inner, quals, ctx)
        if isinstance(elem, Taint):
            return replace(elem, seq=True)
        return None

    def _eval_attribute(self, node: ast.Attribute, env, quals,
                        ctx) -> Value:
        base = self._eval(node.value, env, quals, ctx)
        if isinstance(base, dict):
            return base.get(node.attr)
        if isinstance(base, Taint):
            if node.attr in SCALAR_ATTRS:
                return None
            if node.attr == "data":
                # ndarray.data / memoryview export: a zero-copy borrow.
                ctx.events.append(Event(
                    qual=ctx.func.qualname, line=node.lineno,
                    kind="borrow", what="memoryview", quals=quals))
                return replace(base, borrowed=True)
            if node.attr == "T":
                return replace(base, borrowed=True, contig=False)
        return None

    def _eval_subscript(self, node: ast.Subscript, env, quals,
                        ctx) -> Value:
        base = self._eval(node.value, env, quals, ctx)
        sl = node.slice
        if isinstance(base, list):
            if isinstance(sl, ast.Constant) and isinstance(sl.value, int) \
                    and -len(base) <= sl.value < len(base):
                return base[sl.value]
            return merge_values(base)
        if not isinstance(base, Taint):
            if sl is not None and not isinstance(sl, ast.Slice):
                self._eval(sl, env, quals, ctx)
            return None
        if isinstance(sl, ast.Slice):
            for part in (sl.lower, sl.upper, sl.step):
                if part is not None:
                    self._eval(part, env, quals, ctx)
            contig = base.contig and sl.step is None
            if base.dense and not base.borrowed:
                # Slicing a bytes object copies the range.
                event = Event(qual=ctx.func.qualname, line=node.lineno,
                              kind="copy", what="byte-slice",
                              quals=quals)
                ctx.events.append(event)
                self._check_copy(node, base, "byte-slice", quals, ctx)
                return replace(base, copies=base.copies + 1,
                               dense=True, contig=True)
            # ndarray / memoryview slicing is a view.
            ctx.events.append(Event(
                qual=ctx.func.qualname, line=node.lineno,
                kind="borrow", what="slice", quals=quals))
            return replace(base, borrowed=True, contig=contig)
        if isinstance(sl, ast.Name):
            self._eval(sl, env, quals, ctx)
            # Fancy indexing: a gather staging view (the materializing
            # copy is the tobytes that follows — matching the runtime
            # counter, which notes one copy for the gathered bytes).
            return replace(base, borrowed=True, contig=False)
        if sl is not None:
            self._eval(sl, env, quals, ctx)
        return None             # scalar element read

    # -- calls -------------------------------------------------------------

    def _eval_call(self, node: ast.Call, env, quals, ctx) -> Value:
        argvals = [self._eval(a, env, quals, ctx) for a in node.args]
        for i, arg in enumerate(node.args):
            # ``obj.method`` passed uncalled: a callback the callee may
            # run (kept by ``_map_args`` only if it calls the parameter).
            if argvals[i] is None and isinstance(arg, ast.Attribute):
                funcs = self.index.resolve_call(arg, ctx.func)
                if funcs:
                    argvals[i] = FuncRef(tuple(funcs))
        kwvals = {kw.arg: self._eval(kw.value, env, quals, ctx)
                  for kw in node.keywords if kw.arg is not None}
        self._check_aliasing(node, ctx)
        func = node.func

        if isinstance(func, ast.Name):
            return self._call_name(node, func.id, argvals, kwvals,
                                   env, quals, ctx)
        if isinstance(func, ast.Attribute):
            return self._call_attr(node, func, argvals, kwvals,
                                   env, quals, ctx)
        return self._descend(self.index.resolve_call(func, ctx.func),
                             argvals, kwvals, quals, ctx)

    def _check_aliasing(self, node: ast.Call, ctx) -> None:
        """BC505: the same bare name in two buffer slots of a
        two-buffer API (syntactic — no taint needed)."""
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None)
        if name not in ALIAS_APIS:
            return
        buf_names = [a.id for a in node.args
                     if isinstance(a, ast.Name)]
        buf_names += [kw.value.id for kw in node.keywords
                      if isinstance(kw.value, ast.Name)]
        seen: set[str] = set()
        for nm in buf_names:
            if nm in ("self", "comm", "win"):
                continue
            if nm in seen:
                self._report(
                    ctx.func, node, "BC505",
                    f"'{nm}' passed twice to {name}() — MPI forbids "
                    "aliased send/receive buffers")
                return
            seen.add(nm)

    def _materialize(self, node, base: Taint, what: str, quals,
                     ctx) -> Taint:
        """Record a copy event + rule checks; return the dense result."""
        ctx.events.append(Event(
            qual=ctx.func.qualname, line=node.lineno, kind="copy",
            what=what, quals=quals))
        self._check_copy(node, base, what, quals, ctx)
        return Taint(role=base.role, copies=base.copies + 1,
                     borrowed=False, dense=True, contig=True,
                     seq=base.seq, owned=True)

    def _check_copy(self, node, base: Taint, what: str, quals,
                    ctx) -> None:
        if "copy_mode" in quals or "strided" in quals:
            return              # the legacy / gather paths copy by design
        if base.copies >= 1:
            self._report(
                ctx.func, node, "BC501",
                f"{what} of a payload already materialized upstream — "
                "a second copy on the same transfer path")
        elif base.dense or (base.borrowed and base.contig
                            and base.role in ("src", "inout")):
            self._report(
                ctx.func, node, "BC504",
                f"{what} of already-contiguous data — borrow a view "
                "instead (pack(...) returns one on the contig path)")

    def _call_name(self, node, name: str, argvals, kwvals, env, quals,
                   ctx) -> Value:
        arg0 = argvals[0] if argvals else None
        ref = env.get(name)
        if isinstance(ref, FuncRef):     # a call of a callback parameter
            return self._descend(list(ref.funcs), argvals, kwvals, quals,
                                 ctx)
        if name in SCALAR_CALLS:
            return None
        if name in ("bytes", "bytearray"):
            if isinstance(arg0, Taint):
                return self._materialize(node, arg0, name, quals, ctx)
            return None
        if name == "memoryview":
            if isinstance(arg0, Taint):
                ctx.events.append(Event(
                    qual=ctx.func.qualname, line=node.lineno,
                    kind="borrow", what="memoryview", quals=quals))
                return replace(arg0, borrowed=True)
            return None
        if name in COMPOSITE_CTORS:
            fields = dict(zip(self._ctor_fields(name), argvals))
            fields.update(kwvals)
            comp = {k: v for k, v in fields.items()
                    if first_taint(v) is not None}
            if comp:
                self._run_landings(node, comp, quals, ctx)
            return comp or None
        if name == "run_schedule":    # returns what its schedule returns
            return argvals[-1] if argvals else None
        candidates = [f for f in self.index.by_name.get(name, [])
                      if f.cls is None]
        return self._descend(candidates, argvals, kwvals, quals, ctx)

    def _run_landings(self, node: ast.Call, comp: dict, quals,
                      ctx) -> None:
        """A module-level function handed to the descriptor built at
        *node* is called back with that descriptor first (the receive
        landing): walk it here, the descriptor's tainted fields *comp*
        in hand and its other parameters seeded by name — the future
        call's message."""
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            for func in self.index.by_name.get(getattr(arg, "id", None), []):
                if func.cls is None and func.node.args.args:
                    seeds = name_seeds(func)
                    seeds[func.node.args.args[0].arg] = comp
                    inner = self.analyze(func, seeds, ctx.depth + 1)
                    ctx.events.extend(replace(ev, quals=ev.quals | quals)
                                      for ev in inner.events)

    def _ctor_fields(self, name: str) -> list[str]:
        """Positional field order of the descriptor class *name*: its
        ``__init__`` parameters, or — for a dataclass — its annotated
        fields, so ``SendOp(buf, count, ...)`` carries taint exactly
        like ``SendOp(buf=buf, count=count, ...)``."""
        for info in self.index.classes.get(name, []):
            init = info.methods.get("__init__")
            if init is not None:
                return [a.arg for a in init.node.args.args[1:]]
            for node in info.module.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == name:
                    return [stmt.target.id for stmt in node.body
                            if isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)]
        return []

    def _call_attr(self, node, func: ast.Attribute, argvals, kwvals,
                   env, quals, ctx) -> Value:
        attr = func.attr
        base = self._eval(func.value, env, quals, ctx)
        arg0 = argvals[0] if argvals else None

        if isinstance(base, Taint):
            if attr in COPY_METHODS:
                return self._materialize(node, base, attr, quals, ctx)
            if attr in BORROW_METHODS:
                ctx.events.append(Event(
                    qual=ctx.func.qualname, line=node.lineno,
                    kind="borrow", what=attr, quals=quals))
                return replace(base, borrowed=True)
            return None

        if isinstance(base, dict):
            data = base.get("data")
            if attr in ("own_data", "owned_data") \
                    and isinstance(data, Taint):
                ctx.events.append(Event(
                    qual=ctx.func.qualname, line=node.lineno,
                    kind="transfer", what=attr, quals=quals))
                owned = replace(data, dense=True, borrowed=False,
                                contig=True)
                base["data"] = owned
                return owned if attr == "owned_data" else None
            # Fall through: methods on descriptor objects resolve
            # through the index below (self-call style).

        # numpy namespace constructors (np.frombuffer / np.array ...).
        if attr in NP_BORROW_FUNCS and isinstance(arg0, Taint):
            ctx.events.append(Event(
                qual=ctx.func.qualname, line=node.lineno,
                kind="borrow", what=attr, quals=quals))
            return replace(arg0, borrowed=True)
        if attr in NP_COPY_FUNCS:
            t = first_taint(arg0)
            if t is not None:
                return self._materialize(node, t, attr, quals, ctx)
        if attr == "join":
            joined = merge_values(argvals)
            t = first_taint(joined)
            if t is not None:
                return self._materialize(
                    node, replace(t, seq=False), "join", quals, ctx)
            return None
        if attr in ("append", "extend", "add", "appendleft"):
            if isinstance(arg0, Taint) and arg0.borrowed \
                    and not arg0.dense:
                self._report(
                    ctx.func, node, "BC503",
                    f"borrowed buffer view {attr}()ed into a container "
                    "outlives the operation — take ownership with "
                    "bytes() or pin it on the owning request")
            return None

        candidates = self.index.resolve_call(func, ctx.func)
        return self._descend(candidates, argvals, kwvals, quals, ctx)

    def _map_args(self, callee: FunctionInfo, argvals,
                  kwvals) -> dict[str, Value]:
        params = [a.arg for a in callee.node.args.args]
        if callee.cls is not None and not callee.staticmethod \
                and params and params[0] in ("self", "cls"):
            params = params[1:]
        kwonly = [a.arg for a in callee.node.args.kwonlyargs]
        seeds: dict[str, Value] = {}
        for i, value in enumerate(argvals[:len(params)]):
            if first_taint(value) is not None or (
                    isinstance(value, FuncRef)
                    and params[i] in self._called_names(callee)):
                seeds[params[i]] = value
        for name, value in kwvals.items():
            if first_taint(value) is not None \
                    and (name in params or name in kwonly):
                seeds[name] = value
        return seeds

    def _called_names(self, func: FunctionInfo) -> frozenset:
        """The bare names *func*'s body calls (``body(op)`` -> body) or
        hands on to a call (``run_call(..., body, op)`` -> body)."""
        names = self._calls.get(func.qualname)
        if names is None:
            found = set()
            for n in ast.walk(func.node):
                if isinstance(n, ast.Call):
                    if isinstance(n.func, ast.Name):
                        found.add(n.func.id)
                    found.update(a.id for a in n.args
                                 if isinstance(a, ast.Name))
            names = self._calls[func.qualname] = frozenset(found)
        return names

    def _descend(self, candidates, argvals, kwvals, quals, ctx) -> Value:
        rets: list[Value] = []
        for cand in candidates[:MAX_CANDIDATES]:
            seeds = self._map_args(cand, argvals, kwvals)
            if first_taint(list(seeds.values())) is None:
                continue
            summ = self.analyze(cand, seeds, ctx.depth + 1)
            added = quals.union(device for device, prefix
                                in DEVICE_TREES.items()
                                if cand.qualname.startswith(prefix))
            # Events are frozen: one the call site's qualifiers add
            # nothing to is shared, not copied, on its way up.
            ctx.events.extend(
                ev if added <= ev.quals
                else replace(ev, quals=ev.quals | added)
                for ev in summ.events)
            rets.append(summ.ret)
        return merge_values(rets)


# --------------------------------------------------------------------- #
# whole-tree scan                                                        #
# --------------------------------------------------------------------- #


def scan_tree(analyzer: Analyzer) -> list[Finding]:
    """Analyze every function whose parameter names mark it as buffer-
    handling (the BC502/BC503/BC504/BC505 sweep beyond the census
    entry points).  Findings dedupe inside the analyzer."""
    for func in analyzer.index.functions.values():
        seeds = name_seeds(func)
        if seeds:
            analyzer.analyze(func, seeds, depth=0)
    return sorted(analyzer.findings.values(),
                  key=lambda f: (f.path, f.line, f.rule_id))
