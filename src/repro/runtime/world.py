"""The World: rank spawning, shared registries, and run orchestration.

A :class:`World` is the moral equivalent of ``mpiexec -n <nranks>``: it
owns one :class:`~repro.runtime.proc.Proc` per rank, the communicator
context-id space, and the window registry, and it runs an application
function on every rank concurrently (one OS thread per rank).

The world is reusable: successive :meth:`World.run` calls continue the
same virtual clocks and counters, which lets benchmark harnesses warm
up and then measure.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional, Sequence

from repro.core.config import BuildConfig
from repro.fabric.topology import Topology
from repro.runtime.completion import NotifyingEvent
from repro.runtime.hooks import NO_SANITIZER


class WorldAborted(RuntimeError):
    """Raised in surviving ranks when another rank failed and the world
    tore the run down."""


class World:
    """An MPI world of ``nranks`` ranks.

    Parameters
    ----------
    nranks:
        Number of ranks.  The thread-per-rank runtime is built for
        correctness and calibration, not scale: worlds beyond ~64 ranks
        work but are slow; the application *models* cover the paper's
        16384-rank regimes.
    config:
        Build configuration shared by every rank.
    topology:
        Rank placement; defaults to 16 cores/node block placement
        (the paper's cluster layout).
    """

    #: Context id of MPI_COMM_WORLD.
    WORLD_CTX = 0

    def __init__(self, nranks: int, config: Optional[BuildConfig] = None,
                 topology: Optional[Topology] = None):
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        #: The launch-time rank count: :meth:`run` drives exactly these
        #: ranks; ranks born later (:meth:`add_ranks`) are dynamic.
        self.static_nranks = nranks
        self.config = config if config is not None else BuildConfig()
        self.topology = topology if topology is not None \
            else Topology(nranks=nranks)
        if self.topology.nranks != nranks:
            raise ValueError(
                f"topology covers {self.topology.nranks} ranks, "
                f"world has {nranks}")
        #: Set when any rank raises.  A :class:`NotifyingEvent`:
        #: blocked waits (requests, probes, window locks) subscribe
        #: wake listeners, so an abort interrupts them immediately
        #: instead of at the next poll slice.  Created before the
        #: procs — each rank's request pool binds to it.
        self.abort_event = NotifyingEvent()

        # The world-level halves of the optional subsystems, each None
        # unless its BuildConfig field enables it.  Created before the
        # procs: each rank's seam (``proc.hooks``, see
        # :mod:`repro.runtime.hooks`) binds to them, and a world
        # without any gives every rank ``hooks = None`` — no subsystem
        # code runs and charging is byte-identical.
        #: Dynamic correctness checker (``sanitize=True``).
        self.sanitizer = None
        if self.config.sanitize:
            from repro.sanitize.runtime import WorldSanitizer
            self.sanitizer = WorldSanitizer(self)
        #: Fault-tolerance state (``fault_plan``): the only subsystem
        #: that charges (RELIABILITY).
        self.ft = None
        if self.config.fault_plan is not None:
            from repro.ft.reliability import WorldFaults
            self.ft = WorldFaults(self, self.config.fault_plan)
        #: Heartbeat failure detector (``detector``), after the fault
        #: layer it feeds.
        self.detector = None
        if self.config.detector is not None:
            from repro.ft.detector import WorldDetector
            self.detector = WorldDetector(self, self.config.detector)
        #: Background progress engine factory (``progress``).
        self.progress = None
        if self.config.progress is not None:
            from repro.progress.engine import WorldProgress
            self.progress = WorldProgress(self, self.config.progress)
        #: Hybrid race/deadlock detector (``tsan=True``): every runtime
        #: lock is then constructed instrumented.
        self.tsan = None
        if self.config.tsan:
            from repro.tsan.detector import WorldTsan
            self.tsan = WorldTsan(self)

        self._procs = [None] * nranks
        for r in range(nranks):
            from repro.runtime.proc import Proc
            self._procs[r] = Proc(self, r, self.config)

        self._ctx_lock = threading.Lock()
        self._next_ctx = World.WORLD_CTX + 1
        self._win_lock = threading.Lock()
        self._next_win = 0
        #: win_id -> list of per-rank window states (set by mpi.rma).
        self.windows: dict[int, list] = {}
        # Dynamic-process state: the growth lock serializes add_ranks
        # against itself, the registry backs MPI_OPEN_PORT /
        # connect-accept, and the thread list tracks spawned ranks.
        self._grow_lock = threading.Lock()
        self._ports = None
        self._dynamic: list[tuple[threading.Thread, dict]] = []

    # -- registries ---------------------------------------------------------

    def proc(self, world_rank: int):
        """The :class:`Proc` of *world_rank*."""
        return self._procs[world_rank]

    @property
    def procs(self) -> Sequence:
        """All procs, rank order."""
        return tuple(self._procs)

    def alloc_context_id(self) -> int:
        """Allocate a fresh communicator context id (called by rank 0 of
        the parent communicator during collective comm creation)."""
        with self._ctx_lock:
            ctx = self._next_ctx
            self._next_ctx += 1
            return ctx

    def alloc_window_id(self) -> int:
        """Allocate a fresh window id (collective, via rank 0)."""
        with self._win_lock:
            win = self._next_win
            self._next_win += 1
            return win

    @property
    def ports(self):
        """The world's connect/accept port registry
        (:class:`repro.mpi.intercomm.PortRegistry`), created lazily —
        static-only runs never build it."""
        with self._grow_lock:
            if self._ports is None:
                from repro.mpi.intercomm import PortRegistry
                self._ports = PortRegistry(self)
            return self._ports

    # -- dynamic processes --------------------------------------------------

    def add_ranks(self, n: int) -> list:
        """Grow the world by *n* fresh ranks; returns their Procs.

        The backbone of ``MPI_Comm_spawn`` and the sessions API.  Block
        placement makes growth safe: ``node_of(r) = r // cores_per_node``
        never moves an existing rank, so rebuilding the topology at the
        new size preserves every cached locality decision.  New ranks
        are *not* members of any existing communicator (groups snapshot
        their roster at creation — the MPI dynamic-process rule); they
        reach the rest of the world through the intercommunicator their
        spawn/connect returned.
        """
        if n <= 0:
            raise ValueError(f"must add a positive rank count, got {n}")
        import dataclasses
        from repro.runtime.proc import Proc
        with self._grow_lock:
            base = self.nranks
            self.topology = dataclasses.replace(
                self.topology, nranks=base + n)
            born = []
            for r in range(base, base + n):
                proc = Proc(self, r, self.config)
                self._procs.append(proc)
                born.append(proc)
            self.nranks = base + n
        return born

    def launch_rank(self, proc, fn: Callable, args: tuple = (),
                    comm_factory: Optional[Callable] = None,
                    name: Optional[str] = None) -> dict:
        """Start a dynamic rank: run ``fn(comm_factory(proc), *args)``
        on a fresh daemon thread through the same entry wrapper the
        static ranks use (kill handling, fault drain,
        sanitizer finalize).  Returns a holder dict whose ``done``
        event fires at exit, with ``result``/``error`` filled in; see
        :meth:`join_dynamic`."""
        from repro.mpi.comm import Communicator
        factory = (comm_factory if comm_factory is not None
                   else Communicator.world_view)
        holder: dict = {"rank": proc.world_rank, "result": None,
                        "error": None, "done": threading.Event()}

        def entry() -> None:
            holder["result"], holder["error"] = self._rank_body(
                proc, fn, args, factory)
            holder["done"].set()

        thread = threading.Thread(
            target=entry, daemon=True,
            name=name or f"mpi-dyn-{proc.world_rank}")
        if proc.hooks is not None:
            proc.hooks.rank_fork()
        with self._grow_lock:
            self._dynamic.append((thread, holder))
        thread.start()
        return holder

    def join_dynamic(self, timeout: float = 60.0) -> dict:
        """Join every dynamic rank launched so far; returns
        ``{world_rank: result}`` and re-raises the first error any of
        them recorded (kills excepted — a killed rank's result is None,
        as in :meth:`run`)."""
        with self._grow_lock:
            entries = list(self._dynamic)
        results: dict[int, Any] = {}
        for thread, holder in entries:
            if not holder["done"].wait(timeout=timeout):
                self.abort_event.set()
                raise TimeoutError(
                    f"dynamic rank {holder['rank']} did not finish "
                    f"within {timeout}s\n" + self._teardown_report())
            hooks = self._procs[holder["rank"]].hooks
            if hooks is not None and not thread.is_alive():
                hooks.rank_join()
            results[holder["rank"]] = holder["result"]
        first = next((h["error"] for _, h in entries
                      if h["error"] is not None), None)
        if first is not None:
            first.add_note(
                "raised on a dynamic MPI rank")
            raise first
        return results

    # -- run orchestration -----------------------------------------------------

    def _rank_body(self, proc, fn: Callable, args: tuple,
                   comm_factory: Callable) -> tuple[Any, Optional[BaseException]]:
        """The per-rank thread body shared by static runs and dynamic
        launches: build the rank's communicator view, run *fn*, and
        announce a clean exit to the seam (fault drain, detector
        departure, sanitizer finalize).  Returns
        ``(result, error)``; a fault-plan kill is neither."""
        from repro.ft.recovery import RankKilled

        hooks = proc.hooks
        if hooks is not None:
            hooks.rank_begin()
        result: Any = None
        error: Optional[BaseException] = None
        try:
            result = fn(comm_factory(proc), *args)
            if hooks is not None:
                hooks.rank_exit()
        except RankKilled:
            # A fault-plan kill is not an application error: the
            # rank just stops (results stay None) and the
            # survivors keep running — recovery is their job.
            result = None
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            error = exc
            self.abort_event.set()
        finally:
            if hooks is not None:
                hooks.rank_end()
        return result, error

    def run(self, fn: Callable, args: tuple = (),
            timeout: float = 300.0) -> list[Any]:
        """Run ``fn(comm, *args)`` on every rank; return per-rank results.

        ``comm`` is each rank's MPI_COMM_WORLD view.  If any rank
        raises, every other rank is unblocked via the abort event and
        the first failure (by rank order) propagates, with the failing
        rank recorded in the exception notes.  Ranks added later by
        :meth:`add_ranks` are not run here — they live on the dynamic
        threads :meth:`launch_rank` manages.
        """
        from repro.mpi.comm import Communicator

        self.abort_event.clear()
        nranks = self.static_nranks
        seams = [p.hooks for p in self._procs[:nranks]
                 if p.hooks is not None]
        if seams:
            seams[0].run_begin()
        results: list[Any] = [None] * nranks
        errors: list[Optional[BaseException]] = [None] * nranks

        def entry(rank: int) -> None:
            results[rank], errors[rank] = self._rank_body(
                self._procs[rank], fn, args, Communicator.world_view)

        threads = [threading.Thread(target=entry, args=(r,),
                                    name=f"mpi-rank-{r}", daemon=True)
                   for r in range(nranks)]
        for hooks in seams:
            hooks.rank_fork()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)
        for hooks in seams:
            if not threads[hooks.rank].is_alive():
                hooks.rank_join()
        hung = [t.name for t in threads if t.is_alive()]
        if hung:
            self.abort_event.set()
            for t in threads:
                t.join(timeout=5.0)
            raise TimeoutError(
                f"ranks did not finish within {timeout}s: {hung} "
                f"(likely deadlock in the application function)\n"
                + self._teardown_report())

        first_real = next(
            (e for e in errors if e is not None
             and not isinstance(e, WorldAborted)), None)
        if first_real is not None:
            rank = errors.index(first_real)
            first_real.add_note(f"raised on MPI rank {rank}")
            raise first_real
        first = next((e for e in errors if e is not None), None)
        if first is not None:
            raise first
        return results

    # -- reporting -------------------------------------------------------------

    def _teardown_report(self) -> str:
        """What was still in flight when the world tore down: per-rank
        matching-queue depths always, plus per-request lifetimes when
        the sanitizer is enabled — pending operations are reported, not
        silently dropped."""
        lines = []
        for p in self._procs:
            posted, unexpected = p.engine.pending_counts()
            if posted or unexpected:
                lines.append(f"rank {p.world_rank}: {posted} posted "
                             f"receive(s), {unexpected} unexpected "
                             "message(s) still queued")
                per_vci = getattr(p.engine, "per_vci_counts", None)
                if per_vci is not None:
                    shards = [f"vci {i}: {po}p/{ux}u"
                              for i, (po, ux) in enumerate(per_vci())
                              if po or ux]
                    if shards:
                        lines.append("  per-VCI: " + ", ".join(shards))
        if not lines:
            lines.append("no receives or unexpected messages queued")
        hooks = self._procs[0].hooks
        lines.append(NO_SANITIZER if hooks is None else hooks.summary())
        return "\n".join(lines)

    def max_vtime(self) -> float:
        """Latest virtual clock across ranks — the run's makespan."""
        return max(p.vclock.now for p in self._procs)

    def total_instructions(self) -> int:
        """Sum of abstract instructions charged across all ranks."""
        return sum(p.counter.total for p in self._procs)

    def reset_accounting(self) -> None:
        """Zero every rank's counter, tracer, and compute tally (clocks
        keep their value: virtual time is monotone per world)."""
        for p in self._procs:
            p.counter.reset()
            p.tracer.clear()
            p.compute_seconds = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"World(nranks={self.nranks}, "
                f"device={self.config.device.value}, "
                f"fabric={self.config.fabric!r})")
