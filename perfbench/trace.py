"""Span tracing from outside the runtime.

:class:`Tracer` replaces each layer's public entry point (a class
attribute, or the module attribute at the call site) with a wrapper
that records one span per call: name, start, end, the span that caused
it, and the id of the workload op it belongs to.  Per rank it keeps a
span stack, so a span's *self time* — its duration minus the part
covered by its child spans on the same thread — and call counts
accumulate online; the raw spans of the first ops are kept in memory
and written out as Chrome trace-event JSON when the run ends.

Nothing under ``src/`` is edited: :meth:`Tracer.uninstall` puts every
original attribute back.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable

#: Span name of one workload op; opens a new op id on each rank.
ROOT = "workload.op"
#: Span name of time spent inside ``Request.wait`` / ``waitall``: work
#: waiting, not work done, so it is left out of coverage and shares.
WAIT = "runtime.request.wait"


class _RankState:
    """Span stack, accumulators and raw spans of one rank's thread."""

    __slots__ = ("rank", "stack", "acc", "spans", "op")

    def __init__(self, rank: str):
        self.rank = rank
        #: Open spans, innermost last: [name, start_ns, child_ns].
        self.stack: list[list] = []
        #: name -> [calls, self_ns, total_ns].
        self.acc: dict[str, list[int]] = {}
        #: Raw spans (name, start_ns, end_ns, parent name, op id).
        self.spans: list[tuple] = []
        #: Ops opened so far on this rank (the current op's id + 1).
        self.op = 0


class Tracer:
    """Wraps layer entry points and accumulates per-layer self time.

    *clock* returns nanoseconds; tests pass a fake one.  Raw spans are
    kept for the first *keep_ops* ops of each rank.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 keep_ops: int = 200):
        self._clock = clock
        self._keep_ops = keep_ops
        self._lock = threading.Lock()
        self._tls = threading.local()
        #: Rank threads are respawned for every batch under the same
        #: name, so state is keyed by thread name and outlives them.
        self._ranks: dict[str, _RankState] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _state(self) -> _RankState:
        name = threading.current_thread().name
        with self._lock:
            state = self._ranks.get(name)
            if state is None:
                state = self._ranks[name] = _RankState(name)
        self._tls.state = state
        return state

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped to record one span called *name* per call."""
        tls, clock, keep_ops = self._tls, self._clock, self._keep_ops
        lookup = self._state
        is_root = name == ROOT

        def span(*args, **kwargs):
            try:
                state = tls.state
            except AttributeError:
                state = lookup()
            stack = state.stack
            if is_root and not stack:
                state.op += 1
            frame = [name, 0, 0]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - start
                acc = state.acc.get(name)
                if acc is None:
                    acc = state.acc[name] = [0, 0, 0]
                acc[0] += 1
                acc[1] += total - frame[2]
                acc[2] += total
                parent = None
                if stack:
                    stack[-1][2] += total
                    parent = stack[-1][0]
                if state.op <= keep_ops:
                    state.spans.append(
                        (name, start, end, parent, state.op - 1))

        span.__wrapped__ = fn
        return span

    def install(self, targets: Iterable[tuple[object, str, str]]) -> None:
        """Replace ``owner.attr`` by a span wrapper for every
        ``(owner, attr, span name)`` in *targets*."""
        for owner, attr, name in targets:
            # Patch the class that defines an inherited method, so that
            # uninstall leaves no shadowing attribute on a subclass.
            owner = next(k for k in getattr(owner, "__mro__", (owner,))
                         if attr in vars(k))
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        """Put every patched attribute back, most recent first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def totals(self, rank: str | None = None) -> dict[str, dict[str, int]]:
        """``name -> {calls, self_ns, total_ns}`` summed over every
        rank, or for the thread called *rank* alone."""
        out: dict[str, dict[str, int]] = {}
        with self._lock:
            states = [s for s in self._ranks.values()
                      if rank is None or s.rank == rank]
        for state in states:
            for name, (calls, self_ns, total_ns) in state.acc.items():
                row = out.setdefault(
                    name, {"calls": 0, "self_ns": 0, "total_ns": 0})
                row["calls"] += calls
                row["self_ns"] += self_ns
                row["total_ns"] += total_ns
        return out

    def chrome_trace(self) -> dict:
        """The kept raw spans as a Chrome trace-event document (open
        it in Perfetto or ``chrome://tracing``); timestamps in µs."""
        events = []
        with self._lock:
            states = sorted(self._ranks.values(), key=lambda s: s.rank)
        for tid, state in enumerate(states):
            events.append({"ph": "M", "pid": 0, "tid": tid,
                           "name": "thread_name",
                           "args": {"name": state.rank}})
            for name, start, end, parent, op in state.spans:
                events.append({
                    "ph": "X", "pid": 0, "tid": tid, "name": name,
                    "cat": layer_of(name), "ts": start / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "args": {"op": op, "parent": parent}})
        return {"traceEvents": events, "displayTimeUnit": "ns"}


# -- layers ------------------------------------------------------------------

def layer_of(name: str) -> str:
    """The budget layer a span name belongs to: spans that split one
    layer by entry point (``mpi.rma.put``, ``datatypes.pack``) fold
    back into it."""
    for layer in ("mpi.rma", "datatypes"):
        if name.startswith(layer + "."):
            return layer
    return name


def runtime_targets() -> list[tuple[object, str, str]]:
    """The runtime's layer boundaries, as ``(owner, attr, span name)``.

    Layer names are the repository's module names.  ``pack``/``unpack``
    and ``waitall`` are plain functions, so they are patched where
    they are looked up at call time: the importing module's namespace.
    """
    import repro.core.am as am
    import repro.core.ch4 as ch4
    import repro.runtime.request as request
    from repro.mpi.comm import Communicator
    from repro.mpi.rma import Window
    from repro.netmod.base import Netmod
    from repro.runtime.matching import BucketMatchingEngine
    from repro.runtime.proc import Proc

    return [
        (Communicator, "Isend", "mpi.pt2pt"),
        (Communicator, "Irecv", "mpi.pt2pt"),
        (Communicator, "Allreduce", "mpi.collectives"),
        (Window, "put", "mpi.rma.put"),
        (Window, "fence", "mpi.rma.fence"),
        (ch4.CH4Device, "isend", "core.ch4"),
        (ch4.CH4Device, "irecv", "core.ch4"),
        (ch4.CH4Device, "put", "core.ch4"),
        (Netmod, "issue", "netmod"),
        (Proc, "deliver", "runtime.proc"),
        (BucketMatchingEngine, "deposit", "runtime.matching"),
        (BucketMatchingEngine, "post", "runtime.matching"),
        (request.RequestPool, "acquire", "runtime.request"),
        (request.RequestPool, "release", "runtime.request"),
        (request.Request, "complete", "runtime.request"),
        (request.Request, "wait", WAIT),
        (request, "waitall", WAIT),
        (Proc, "charge", "instrument"),
        (ch4, "pack", "datatypes.pack"),
        (ch4, "unpack", "datatypes.unpack"),
        (am, "pack", "datatypes.pack"),
        (am, "unpack", "datatypes.unpack"),
    ]


def budget(totals: dict[str, dict[str, int]], ops: int) -> list[dict]:
    """Table-1-style rows, one per layer: calls per op, self µs per op
    and the layer's share of all self time (waiting excluded), largest
    first; the waiting row comes last with no share."""
    layers: dict[str, list[int]] = {}
    for name, row in totals.items():
        acc = layers.setdefault(layer_of(name), [0, 0])
        acc[0] += row["calls"]
        acc[1] += row["self_ns"]
    busy_ns = sum(ns for layer, (_, ns) in layers.items() if layer != WAIT)
    rows = []
    for layer, (calls, self_ns) in layers.items():
        rows.append({
            "layer": layer,
            "calls_per_op": calls / ops,
            "self_us_per_op": self_ns / ops / 1000.0,
            "share": (None if layer == WAIT or not busy_ns
                      else self_ns / busy_ns)})
    rows.sort(key=lambda r: (r["share"] is None, -r["self_us_per_op"]))
    return rows
