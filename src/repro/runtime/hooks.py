"""The hook seam: one object between the runtime and its subsystems.

Five optional subsystems observe or reroute the runtime — the sanitizer
(``BuildConfig(sanitize=True)``), the fault layer (``fault_plan``),
the race detector (``tsan``), the background progress engine
(``progress``) and the virtual-time timeline
(:func:`repro.analysis.timeline.enable_timeline`) — and so does
per-VCI routing of the modeled critical section (``num_vcis > 1``).
A rank reaches all of them through :class:`Hooks`, bound as
``proc.hooks`` — ``None`` on a plain build, so the runtime tests one
attribute and runs no subsystem code.  Call sites name *events* (a call
entered, a request acquired, a wait blocked), never a subsystem; within
an event the seam calls the subsystems present in a fixed order.

Each observer event is an attribute bound once, when the rank is built
(and again when its timeline is switched), to what handles it: the one
subscriber's own method — no extra Python frame — a seam method calling
several in turn, or :func:`_skip` when nothing listens.  The fault
layer's two route events, ``deliver`` (the lossy wire in place of a
direct deposit) and ``comm_check`` (a revoked-communicator check that
also routes errors through the communicator's handler), and the VCI
router ``route`` (the VCI owning a call's stream) are ``None`` where
the plain route applies.  The subscriber set is fixed by the
build; this is not a publish/subscribe registry.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.proc import Proc

#: What the teardown report says where no sanitizer tracks requests.
NO_SANITIZER = ("(enable BuildConfig(sanitize=True) for per-request "
                "lifetimes and deadlock analysis)")


def _skip(*_args, **_kwargs) -> None:
    """An observer event nobody subscribes to."""


def _chain(*handlers: Callable) -> Callable:
    """One event's binding: its only handler itself, or a function
    calling each in order (``_skip`` when there is none)."""
    handlers = tuple(h for h in handlers if h is not None)
    if not handlers:
        return _skip
    if len(handlers) == 1:
        return handlers[0]

    def fire(*args):
        for handler in handlers:
            handler(*args)
    return fire


def is_plain(proc: "Proc") -> bool:
    """Does *proc* need no seam — its world runs no optional subsystem
    and its build one VCI?  (A timeline switched on later gives it one
    until switched off.)"""
    world = proc.world
    return proc.config.num_vcis == 1 and all(
        getattr(world, name, None) is None for name in (
            "sanitizer", "ft", "tsan", "progress"))


def build_hooks(proc: "Proc") -> Optional["Hooks"]:
    """*proc*'s seam, or None when it is plain (:func:`is_plain`)."""
    return None if is_plain(proc) else Hooks(proc)


def make_lock(hooks: Optional["Hooks"], kind: str, name: str,
              reentrant: bool = False):
    """A runtime lock: race-detector-instrumented (reentrant, labelled
    *kind* and ``r<rank>.<name>``) when the rank's seam has a
    detector, else a plain ``Lock`` — or ``RLock`` if *reentrant*."""
    tsan = hooks.tsan if hooks is not None else None
    if tsan is None:
        return threading.RLock() if reentrant else threading.Lock()
    return tsan.make_lock(kind, f"r{hooks.rank}.{name}")


def race_key(hooks: Optional["Hooks"], *parts) -> Optional[tuple]:
    """The key (*parts*) under which the rank's race detector
    annotates accesses to a shared structure; None when none runs —
    the structure's annotation sites test the key, not the detector."""
    return parts if hooks is not None and hooks.races else None


@contextmanager
def blocked_wait(hooks: Optional["Hooks"], what: str, request=None,
                 probe=None) -> Iterator[None]:
    """The blocked-wait event around a wait that sleeps outside
    ``Request.wait`` (a probe, a window lock): ``wait_enter`` before it
    and ``wait_exit`` however it ends.  Nothing on a rank without a
    seam."""
    if hooks is None:
        yield
        return
    hooks.wait_enter(what, request, probe)
    try:
        yield
    finally:
        hooks.wait_exit()


class Hooks:
    """One rank's seam to its optional subsystems.

    Subscribers: ``sanitizer`` (the rank's sanitizer view), ``faults``
    (its fault-layer view), ``tsan`` (the world's race detector, keyed
    by ``rank``), ``progress`` (the rank's engine, started last by
    :meth:`start`) and ``timeline`` (an event list, or None).
    ``races`` is True when the race detector annotates this rank's
    shared state.  Constructing one binds it as ``proc.hooks`` before
    the rank views are built, so they reach the seam through their
    proc.
    """

    __slots__ = (
        "proc", "world", "rank", "sanitizer", "faults", "tsan",
        "progress", "timeline", "races",
        # events
        "enter_call", "acquire", "release", "cancel", "send",
        "recv_posting", "recv_posted", "finish", "access",
        "rma_check", "rma_transmit", "deliver", "comm_check",
        "progress_lock", "route",
    )

    def __init__(self, proc: "Proc"):
        proc.hooks = self
        world = proc.world
        self.proc = proc
        self.world = world
        self.rank = proc.world_rank
        self.tsan = getattr(world, "tsan", None)
        self.races = self.tsan is not None
        world_san = getattr(world, "sanitizer", None)
        self.sanitizer = (world_san.rank_view(proc)
                          if world_san is not None else None)
        world_ft = getattr(world, "ft", None)
        self.faults = (world_ft.rank_view(proc)
                       if world_ft is not None else None)
        self.progress = None
        self.timeline = None
        self._bind()

    def start(self) -> None:
        """Start the rank's progress engine, if the world has one —
        last, since its daemon threads may touch any rank state — and
        bind the events it subscribes to."""
        world_progress = getattr(self.world, "progress", None)
        if world_progress is not None:
            self.progress = world_progress.rank_view(self.proc)
            self._bind()

    def set_timeline(self, events: Optional[list]) -> None:
        """Record MPI-call spans into *events* from now on (None
        stops); rebinds the call-entry event."""
        self.timeline = events
        self._bind()

    def _bind(self) -> None:
        """Bind every event to its handlers, in subscriber order."""
        san, faults, tsan = self.sanitizer, self.faults, self.tsan
        if self.timeline is not None:
            self.enter_call = self._enter_call
        else:
            self.enter_call = _chain(san.note_api if san else None,
                                     faults.check_self if faults else None)
        self.acquire = san.note_acquire if san else _skip
        self.release = _chain(san.note_release if san else None,
                              faults.forget_recv if faults else None)
        self.cancel = san.note_cancel if san else _skip
        self.send = san.note_send if san else _skip
        self.recv_posting = san.note_recv if san else _skip
        self.rma_check = san.check_rma if san else _skip
        self.recv_posted = faults.note_posted if faults else _skip
        self.rma_transmit = faults.rma_transmit if faults else _skip
        self.deliver = faults.deliver if faults else None
        self.comm_check = faults.comm_check if faults else None
        self.finish = _chain(self._consume_state if tsan else None,
                             san.note_finish if san else None,
                             faults.forget_recv if faults else None)
        self.access = tsan.note_access if tsan else _skip
        #: The CS lock a background engine charges under; None without
        #: one (its mere presence is the progress regime's mark).
        self.progress_lock = self.proc.cs_lock if self.progress else None
        self.route = (self.proc.vci_for if self.proc.config.num_vcis > 1
                      else None)

    # -- call entry --------------------------------------------------------

    def _enter_call(self, name: Optional[str]) -> Optional[float]:
        """Call entry on a rank with a timeline: the span's start time
        (None for an unnamed entry), then the other subscribers."""
        t0 = self.proc.vclock.now if name is not None else None
        if self.sanitizer is not None:
            self.sanitizer.note_api(name)
        if self.faults is not None:
            self.faults.check_self()
        return t0

    def exit_call(self, name: str, t0: float) -> None:
        """Call exit of a call whose entry returned a start time."""
        events = self.timeline
        if events is not None:
            from repro.analysis.timeline import TimelineEvent
            events.append(tuple.__new__(   # a C-level build: no frame
                TimelineEvent, (name, t0, self.proc.vclock.now)))

    # -- request lifetime and race annotations ------------------------------

    def _consume_state(self, request) -> None:
        """``wait`` reads a request's state bare: join the edge the
        completing thread published, then annotate the read."""
        key = request._race_key
        if key is not None:
            self.tsan.hb_consume(key)
            self.tsan.note_access(key, False, "request state")

    def publish(self, key) -> None:
        """A request state transition under its lock (annotated
        request, so a detector runs): the write, then its edge."""
        self.tsan.note_access(key, True, "request state")
        self.tsan.hb_publish(key)

    def on_complete(self, request, fn: Callable) -> Callable:
        """A continuation is attached to *request*: the sanitizer checks
        the handle is live (MS109); a progress engine takes the
        callback onto its thread.  Returns what to subscribe."""
        if self.sanitizer is not None:
            self.sanitizer.note_on_complete(request)
        progress = self.progress
        if progress is None:
            return fn
        return progress.attach(request, fn)

    def park_rendezvous(self, vci, transport, request,
                        complete_s: float) -> bool:
        """A rendezvous send's precomputed completion: True when a
        progress engine took it (it completes off this thread)."""
        if self.progress is None:
            return False
        self.progress.park_completion(vci, transport, request, complete_s)
        return True

    # -- blocked waits --------------------------------------------------------

    def wait_enter(self, what: str, request=None, probe=None) -> None:
        """This rank is about to block on *what* — a request, a probe
        (``(comm, source, tag)``), a window lock: the race detector
        checks no runtime lock is held (TS403), and the sanitizer
        records the wait-for edge (raising MSD201 instead of blocking
        into a certain deadlock)."""
        if self.tsan is not None:
            self.tsan.check_blocking_wait(what)
        if self.sanitizer is not None:
            if request is not None:
                self.sanitizer.note_block_request(request)
            elif probe is not None:
                self.sanitizer.note_block_probe(*probe)

    def wait_exit(self) -> None:
        """The wait that :meth:`wait_enter` announced is over."""
        if self.sanitizer is not None:
            self.sanitizer.note_unblock()

    # -- windows, communicators ----------------------------------------------

    def win_fence(self, win) -> None:
        """MPI_WIN_FENCE ran on *win*: its accesses are epoch-legal."""
        if self.sanitizer is not None:
            self.sanitizer.note_fence(win)

    def win_free(self, win) -> None:
        """*win* was freed."""
        if self.sanitizer is not None:
            self.sanitizer.note_win_free(win)

    def recovery(self):
        """The fault layer's world-global failure state — what ULFM's
        revoke / shrink / agree coordinate through — or None."""
        return self.faults.world_ft if self.faults is not None else None

    def comm_derived(self, parent, children) -> None:
        """*children* stage phases of collectives over *parent*: a
        revoke of the parent must reach them."""
        if self.faults is not None:
            for child in children:
                if child is not None:
                    self.faults.world_ft.add_derived(parent.ctx, child.ctx)

    # -- rank lifecycle ---------------------------------------------------------

    def run_begin(self) -> None:
        """Top of :meth:`World.run` (world-level: any rank's seam)."""
        if self.sanitizer is not None:
            self.sanitizer.world_san.begin_run()

    def rank_fork(self) -> None:
        """The parent side of starting this rank's thread."""
        if self.tsan is not None:
            self.tsan.thread_fork(("rank", self.rank))

    def rank_begin(self) -> None:
        """Top of this rank's thread body."""
        if self.tsan is not None:
            self.tsan.thread_begin(("rank", self.rank))

    def rank_exit(self) -> None:
        """This rank's application function returned: release any
        packet the wire still stashes, and close the sanitizer's books
        (MSD201 stalls, MSD202 leaks)."""
        if self.faults is not None:
            self.faults.drain()
        if self.sanitizer is not None:
            self.sanitizer.finalize()

    def rank_end(self) -> None:
        """Bottom of this rank's thread body, however it ended."""
        if self.tsan is not None:
            self.tsan.thread_end(("rank", self.rank))

    def rank_join(self) -> None:
        """The joiner side, once this rank's thread has ended."""
        if self.tsan is not None:
            self.tsan.thread_join(("rank", self.rank))

    def summary(self) -> str:
        """The teardown report's request lifetimes (world-level)."""
        if self.sanitizer is None:
            return NO_SANITIZER
        return self.sanitizer.world_san.pending_summary()
