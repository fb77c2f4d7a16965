"""The hybrid happens-before + lockset detector (Eraser + FastTrack).

One :class:`WorldTsan` per ``BuildConfig(tsan=True)`` world holds all
detector state — threads cross rank boundaries in this runtime (a
sender's application thread acquires the *destination* rank's engine
lock inside ``deposit``), so vector clocks, the observed lock-order
graph, and the per-field access histories must be world-global.
Each rank's hook seam (``proc.hooks``, :mod:`repro.runtime.hooks`)
calls it directly; a plain build has no seam and runs none of it.

The four rules:

* **TS401 data race** — two accesses to the same annotated field from
  different threads, at least one a write, with *no* happens-before
  edge between them **and** an empty lockset intersection.  Requiring
  both halves keeps the detector sound against threads it never saw
  fork (Eraser's consistent-lock discipline covers them) while still
  accepting lock-free publication that is ordered by an explicit
  :meth:`WorldTsan.hb_publish` / :meth:`WorldTsan.hb_consume` edge
  (FastTrack's message clocks cover those).
* **TS402 lock-order inversion** — inserting an observed ``A`` held
  while acquiring ``B`` edge closes a cycle in the runtime lock
  graph.  This fires on *potential* deadlocks: the inverted pair need
  never actually interleave.
* **TS403 lock held across a blocking wait** — a thread parks on a
  request while holding any tracked lock.  Kind ``"sched"`` is exempt
  (the NBC weak-progress path deliberately spans inner waits with its
  schedule lock; see :mod:`repro.mpi.nbc`).
* **TS404 continuation under an engine lock** — the progress engine
  dispatches a continuation while the dispatching thread holds an
  ``engine``/``shard``/``wild`` matching lock.  The reentrant VCI
  ``cs_lock`` is *allowed*: continuations run under it by documented
  engine design (:mod:`repro.progress.engine`).

All detector state is guarded by one plain leaf ``threading.Lock``
that is never held while acquiring a runtime lock, so instrumentation
cannot deadlock the runtime it watches.  The detector charges nothing
— ``tsan=True`` is observational, and ``tsan=False`` charging is
byte-identical by construction (guarded in ``test_lint_ci.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable

from repro.tsan.locks import TsanLock
from repro.tsan.vectorclock import Epoch, VectorClock

if TYPE_CHECKING:
    from repro.runtime.world import World

#: Lock kinds exempt from TS403 (held across a blocking wait).
BLOCK_EXEMPT_KINDS = frozenset({"sched"})

#: Lock kinds TS404 flags under a dispatching continuation.
CONTINUATION_FLAGGED_KINDS = frozenset({"engine", "shard", "wild"})


@dataclass(frozen=True)
class TsanFinding:
    """One detector finding (a TS rule firing at runtime)."""

    rule_id: str
    message: str

    def render(self) -> str:
        """One-line ``[RULE] message`` form for reports."""
        return f"[{self.rule_id}] {self.message}"


class _ThreadState:
    """Per-thread detector state (vector clock + held-lock stack)."""

    __slots__ = ("tid", "name", "vc", "held")

    def __init__(self, tid: int, name: str):
        self.tid = tid
        self.name = name
        self.vc = VectorClock()
        self.vc.increment(tid)
        #: Tracked locks currently held, in acquisition order.
        self.held: list[TsanLock] = []


class _FieldState:
    """FastTrack access history for one annotated field.

    The last write is an epoch plus its Eraser lockset; reads since
    that write are per-thread epochs with their locksets (a write
    must be ordered after — or share a lock with — every one).
    """

    __slots__ = ("write", "reads")

    def __init__(self):
        #: (Epoch, frozenset[lock ids], thread name) of the last write.
        self.write: tuple[Epoch, frozenset, str] | None = None
        #: tid -> (timestamp, frozenset[lock ids], thread name).
        self.reads: dict[int, tuple[int, frozenset, str]] = {}


class WorldTsan:
    """World-level hybrid race/deadlock detector.

    Built by :class:`repro.runtime.world.World` when
    ``config.tsan`` is set, before the per-rank procs so every
    runtime lock can be constructed already instrumented.
    """

    def __init__(self, world: "World | None" = None):
        self.world = world
        self._mu = threading.Lock()
        self._tls = threading.local()
        self._next_tid = 0
        self._states: list[_ThreadState] = []
        #: Annotated-field access histories, keyed by annotation key.
        self._fields: dict[Hashable, _FieldState] = {}
        #: Message clocks for explicit hb_publish/hb_consume edges.
        self._sync: dict[Hashable, VectorClock] = {}
        #: Observed lock-order graph: id(A) -> {id(B): (A, B)}.
        self._edges: dict[int, dict[int, tuple[TsanLock, TsanLock]]] = {}
        #: Findings, deduplicated by (rule, site) key.
        self.findings: list[TsanFinding] = []
        self._seen: set = set()
        #: Observational counters (for BENCH_tsan and tests).
        self.n_lock_events = 0
        self.n_access_events = 0

    # -- thread identity ------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            with self._mu:
                tid = self._next_tid
                self._next_tid += 1
                state = _ThreadState(tid, threading.current_thread().name)
                self._states.append(state)
            self._tls.state = state
        return state

    # -- construction helpers (rank views call these) -------------------

    def make_lock(self, kind: str, name: str) -> TsanLock:
        """An instrumented reentrant lock for a runtime structure."""
        return TsanLock(self, kind, name)

    # -- findings -------------------------------------------------------

    def _report(self, rule_id: str, dedup_key: Hashable,
                message: str) -> None:
        """Record one deduplicated finding.  Callers hold ``self._mu``."""
        key = (rule_id, dedup_key)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(TsanFinding(rule_id, message))

    def report(self) -> list[str]:
        """Rendered findings, stable order."""
        with self._mu:
            return [f.render() for f in self.findings]

    def assert_clean(self) -> None:
        """Raise if any rule fired (the CI stress suite's postcondition)."""
        lines = self.report()
        if lines:
            raise AssertionError(
                "tsan found {} issue(s):\n{}".format(
                    len(lines), "\n".join(lines)))

    # -- FastTrack lock events ------------------------------------------

    def note_acquire(self, lock: TsanLock) -> None:
        """Outermost acquire: lock-order edges, then HB join."""
        state = self._state()
        with self._mu:
            self.n_lock_events += 1
            for held in state.held:
                if held is lock:
                    continue
                self._add_edge(held, lock)
            clock = self._sync.get(("lock", id(lock)))
            if clock is not None:
                state.vc.join(clock)
            state.held.append(lock)

    def note_release(self, lock: TsanLock) -> None:
        """Outermost release: publish the thread clock into the lock."""
        state = self._state()
        with self._mu:
            self.n_lock_events += 1
            self._sync[("lock", id(lock))] = state.vc.copy()
            state.vc.increment(state.tid)
            if lock in state.held:
                state.held.remove(lock)

    def _add_edge(self, a: TsanLock, b: TsanLock) -> None:
        """Record held-A-acquiring-B; cycle check on new edges only.

        Callers hold ``self._mu``.
        """
        out = self._edges.setdefault(id(a), {})
        if id(b) in out:
            return
        out[id(b)] = (a, b)
        cycle = self._find_path(id(b), id(a))
        if cycle is not None:
            # cycle lists the locks along b ->* a, ending at a itself,
            # so [a, b] + cycle walks the full loop back to a.
            loop = [a, b] + cycle
            chain = " -> ".join(f"{lk.kind}:{lk.name}" for lk in loop)
            self._report(
                "TS402", tuple(sorted(id(lk) for lk in loop)),
                f"lock-order inversion: observed acquisition cycle "
                f"{chain} (threads taking these locks in opposite "
                "orders can deadlock)")

    def _find_path(self, src: int, dst: int) -> list[TsanLock] | None:
        """DFS path src ->* dst in the edge graph (locks along it)."""
        stack: list[tuple[int, list[TsanLock]]] = [(src, [])]
        visited = {src}
        while stack:
            node, path = stack.pop()
            for nxt, (_, lock_b) in self._edges.get(node, {}).items():
                if nxt == dst:
                    return path + [lock_b]
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, path + [lock_b]))
        # src itself may be dst's node object
        if src == dst:
            return []
        return None

    # -- explicit happens-before message edges --------------------------

    def hb_publish(self, key: Hashable) -> None:
        """Publish the calling thread's clock under *key* (release side)."""
        state = self._state()
        with self._mu:
            clock = self._sync.get(("msg", key))
            if clock is None:
                self._sync[("msg", key)] = state.vc.copy()
            else:
                clock.join(state.vc)
            state.vc.increment(state.tid)

    def hb_consume(self, key: Hashable) -> None:
        """Join the clock published under *key* (acquire side)."""
        state = self._state()
        with self._mu:
            clock = self._sync.get(("msg", key))
            if clock is not None:
                state.vc.join(clock)

    def thread_fork(self, key: Hashable) -> None:
        """Parent-side edge before starting a child thread."""
        self.hb_publish(("fork", key))

    def thread_begin(self, key: Hashable) -> None:
        """Child-side edge at the top of the thread body."""
        self.hb_consume(("fork", key))

    def thread_end(self, key: Hashable) -> None:
        """Child-side edge at the bottom of the thread body."""
        self.hb_publish(("join", key))

    def thread_join(self, key: Hashable) -> None:
        """Joiner-side edge after ``thread.join()`` returns."""
        self.hb_consume(("join", key))

    # -- annotated shared-state accesses (TS401) ------------------------

    def note_access(self, key: Hashable, write: bool = True,
                    what: str | None = None) -> None:
        """One annotated access to shared field *key*.

        Applies the hybrid rule: a cross-thread conflicting pair races
        iff it is unordered by happens-before *and* the two accesses'
        locksets are disjoint.
        """
        state = self._state()
        with self._mu:
            self.n_access_events += 1
            field = self._fields.get(key)
            if field is None:
                field = self._fields[key] = _FieldState()
            heldset = frozenset(id(lk) for lk in state.held)
            label = what or repr(key)
            prior = field.write
            if prior is not None:
                epoch, lockset, wname = prior
                if (epoch.tid != state.tid
                        and not epoch.happens_before(state.vc)
                        and not (lockset & heldset)):
                    self._report(
                        "TS401", ("w", key),
                        f"data race on {label}: "
                        f"{'write' if write else 'read'} by thread "
                        f"{state.name!r} is unordered with the write by "
                        f"thread {wname!r} and the accesses share no "
                        "lock")
            if write:
                for tid, (t, lockset, rname) in field.reads.items():
                    if (tid != state.tid and t > state.vc.get(tid)
                            and not (lockset & heldset)):
                        self._report(
                            "TS401", ("r", key, tid),
                            f"data race on {label}: write by thread "
                            f"{state.name!r} is unordered with the read "
                            f"by thread {rname!r} and the accesses "
                            "share no lock")
                field.write = (Epoch(state.tid, state.vc.get(state.tid)),
                               heldset, state.name)
                field.reads.clear()
            else:
                field.reads[state.tid] = (
                    state.vc.get(state.tid), heldset, state.name)

    # -- structural checks (TS403 / TS404) ------------------------------

    def _held_kinds(self, exempt: Iterable[str]) -> list[TsanLock]:
        state = self._state()
        return [lk for lk in state.held if lk.kind not in exempt]

    def check_blocking_wait(self, what: str) -> None:
        """TS403: about to block on *what* — is any tracked lock held?"""
        state = self._state()
        with self._mu:
            offenders = [lk for lk in state.held
                         if lk.kind not in BLOCK_EXEMPT_KINDS]
            if offenders:
                names = ", ".join(f"{lk.kind}:{lk.name}"
                                  for lk in offenders)
                self._report(
                    "TS403", (what, tuple(id(lk) for lk in offenders)),
                    f"lock held across a blocking wait: thread "
                    f"{state.name!r} blocks on {what} while holding "
                    f"{names} (any thread needing those locks to "
                    "complete the wait deadlocks)")

    def check_continuation(self, what: str) -> None:
        """TS404: about to run a continuation — engine locks held?"""
        state = self._state()
        with self._mu:
            offenders = [lk for lk in state.held
                         if lk.kind in CONTINUATION_FLAGGED_KINDS]
            if offenders:
                names = ", ".join(f"{lk.kind}:{lk.name}"
                                  for lk in offenders)
                self._report(
                    "TS404", (what, tuple(id(lk) for lk in offenders)),
                    f"continuation {what} dispatched while holding "
                    f"{names}: a callback making MPI calls would "
                    "re-enter the matching engine and self-deadlock")

