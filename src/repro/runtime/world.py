"""The World: the ranks, shared registries, and run orchestration.

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
        Number of ranks, fixed when the world is built.  The
        thread-per-rank runtime is built for correctness and
        calibration, not scale: worlds beyond ~64 ranks work but are
        slow; the application *models* cover the paper's 16384-rank
        regimes.
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

    # -- run orchestration -----------------------------------------------------

    def run(self, fn: Callable, args: tuple = (),
            timeout: float = 300.0) -> list[Any]:
        """Run ``fn(comm, *args)`` on every rank; return per-rank results.

        ``comm`` is each rank's MPI_COMM_WORLD view.  If any rank
        raises, every other rank is unblocked via the abort event and
        the first failure (by rank order) propagates, with the failing
        rank recorded in the exception notes.  A fault-plan kill is not
        an error: the killed rank's result is None.
        """
        from repro.ft.recovery import RankKilled
        from repro.mpi.comm import Communicator

        self.abort_event.clear()
        nranks = self.nranks
        seams = [p.hooks for p in self._procs if p.hooks is not None]
        if seams:
            seams[0].run_begin()
        results: list[Any] = [None] * nranks
        errors: list[Optional[BaseException]] = [None] * nranks

        def entry(rank: int) -> None:
            proc = self._procs[rank]
            hooks = proc.hooks
            if hooks is not None:
                hooks.rank_begin()
            try:
                results[rank] = fn(Communicator.world_view(proc), *args)
                if hooks is not None:
                    # A clean exit: fault drain, sanitizer finalize.
                    hooks.rank_exit()
            except RankKilled:
                # The rank just stops; the survivors keep running —
                # recovery is their job.
                results[rank] = None
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors[rank] = exc
                self.abort_event.set()
            finally:
                if hooks is not None:
                    hooks.rank_end()

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
