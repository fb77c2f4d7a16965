"""Per-rank runtime state: the hub every layer hangs off.

A :class:`Proc` owns one rank's instruction counter, virtual clock,
matching engine, device instance, and (when thread-safety is built in)
the critical-section lock.  Devices, the MPI layer, and the application
proxies all reach their world through it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.consts import ANY_SOURCE, ANY_TAG
from repro.core.config import BuildConfig, Device
from repro.fabric.model import FabricSpec, fabric_by_name
from repro.instrument.categories import Subsystem
from repro.instrument.counter import InstructionCounter
from repro.instrument.plan import ChargePlan, PlanRecorder
from repro.instrument.trace import CallTracer
from repro.runtime.hooks import Hooks, build_hooks, is_plain
from repro.runtime.matching import build_engine
from repro.runtime.message import Message
from repro.runtime.request import RequestPool
from repro.runtime.vci import VCI, VCIMap
from repro.runtime.vclock import VClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.world import World


class Proc:
    """One MPI rank's runtime state.

    Parameters
    ----------
    world:
        The owning :class:`~repro.runtime.world.World`.
    world_rank:
        This rank's index in MPI_COMM_WORLD.
    config:
        The build configuration shared by the world.
    """

    def __init__(self, world: "World", world_rank: int, config: BuildConfig):
        self.world = world
        self.world_rank = world_rank
        self.config = config
        self.net_fabric: FabricSpec = fabric_by_name(config.fabric)
        self.shm_fabric: FabricSpec = fabric_by_name(config.shm_fabric)
        self.counter = InstructionCounter(label=f"rank {world_rank}")
        self.tracer = CallTracer(self.counter)
        self.vclock = VClock(self.net_fabric)
        #: Compiled charge plans by key (see :meth:`plan`).  Racing
        #: compiles of one key are harmless: same key, equal plan.
        self._plans: dict = {}
        #: The seam to the optional subsystems (sanitizer, fault layer,
        #: race detector, failure detector, progress engine, VCI
        #: routing; see :mod:`repro.runtime.hooks`), or None on a plain
        #: build.  Bound
        #: before the engine so every runtime lock below is constructed
        #: already instrumented.
        self.hooks = hooks = build_hooks(self)
        #: Call plans that belong to no handle (see
        #: :func:`repro.mpi.pt2pt.entry_plan`); a communicator's or a
        #: window's own call plans live on the handle.
        self._call_plans: dict = {}
        #: VCI sharding (``num_vcis=1`` is the unsharded calibrated
        #: default; >1 splits matching/locks/lanes per VCI — real-
        #: Python granularity only, charges are unchanged).
        self.num_vcis = config.num_vcis
        self.vci_map = VCIMap(config.num_vcis)
        self.engine = build_engine(world_rank, self.vci_map, hooks)
        #: The rank's VCIs.  Sharded builds share the engine's (lock +
        #: shard + completion segment per VCI); the unsharded build
        #: still materializes VCI 0 so ``cs_lock`` has one home.
        self.vcis = (self.engine.vcis if config.num_vcis > 1
                     else [VCI(0, hooks)])
        #: Per-rank §3.5 request free-pool (recycles handles on the
        #: real-Python hot path; charged costs are unaffected).
        self.request_pool = RequestPool(self, world.abort_event)
        #: Critical-section lock taken when thread_safety is built in:
        #: an alias of VCI 0's lock (same reentrant semantics as the
        #: old per-rank RLock).  Routed entries acquire their owning
        #: VCI's lock instead; unrouted entries default here.
        self.cs_lock = self.vcis[0].lock
        self.node = world.topology.node_of(world_rank)
        self.device = self._build_device()
        #: Charged compute (non-MPI) seconds — application proxies use
        #: this so figure timings separate work from overhead.
        self.compute_seconds = 0.0
        self._timeline = None
        #: Peer matching engines by world rank, filled by
        #: :meth:`deliver` (a rank's engine never changes).
        self._engines: dict = {}
        if hooks is not None:
            hooks.start()   # last: a progress engine's threads start now

    @property
    def timeline(self):
        """Optional event timeline (list of TimelineEvent), or None;
        enabled by :func:`repro.analysis.timeline.enable_timeline`.
        Turning it on gives a plain rank a seam."""
        return self._timeline

    @timeline.setter
    def timeline(self, events) -> None:
        """Bind (or drop, with None) the event list; a plain rank gets
        a seam whose one subscriber is the timeline, and loses it with
        the timeline."""
        self._timeline = events
        if events is None and is_plain(self):
            self.hooks = None
        else:
            (self.hooks or Hooks(self)).set_timeline(events)

    def _build_device(self):
        if self.config.device is Device.CH4:
            from repro.core.ch4 import CH4Device
            return CH4Device(self)
        from repro.ch3.device import CH3Device
        return CH3Device(self)

    # -- accounting ----------------------------------------------------------

    def charge(self, plan: ChargePlan, n: int | None = None,
               subsystem: Subsystem | None = None) -> None:
        """Replay the compiled *plan*: add its total, count the replay
        (folded on read), advance the clock now by each step's ``dt``
        in turn — bit-identical however the steps were compiled.
        ``charge(category, n, subsystem)`` replays the one-step plan it
        compiles (perfbench's per-call probe)."""
        if n is not None:   # keyed by index: an Enum hashes in Python
            key = ("step", plan.index, n, subsystem and subsystem.index)
            plan = self._plans.get(key) or self.plan(
                key, PlanRecorder.charge, plan, n, subsystem)
        counter, clock = self.counter, self.vclock
        counter.total += plan.total
        replays = counter.replays
        replays[plan] = replays.get(plan, 0) + 1
        now = clock.now
        for dt in plan.dts:
            now += dt
        clock.now = now

    def plan(self, key, charging, *args) -> ChargePlan:
        """The plan cached under *key*, compiled on first use by running
        ``charging(recorder, *args)``: the layer's own stepwise charging
        code, a :class:`PlanRecorder` standing in for this ``Proc``.
        *key* holds whatever that code branches on beyond the build
        config; one that raises caches nothing (see :meth:`recording`)."""
        plan = self._plans.get(key)
        if plan is None:
            recorder = PlanRecorder(self.config, self.net_fabric)
            charging(recorder, *args)
            plan = self._plans[key] = ChargePlan(recorder.steps)
        return plan

    def interned(self, plan: ChargePlan) -> ChargePlan:
        """The cached plan with *plan*'s steps (*plan* the first time):
        one object per step sequence keeps the counter's pending
        replays as few as the plans, however many handles come and go."""
        key = ("steps", plan.steps)
        cached = self._plans.get(key)
        if cached is None:
            cached = self._plans[key] = plan
        return cached

    @contextmanager
    def recording(self) -> Iterator[PlanRecorder]:
        """Charge what the ``with`` body records on the yielded
        :class:`PlanRecorder`, interned — also when it raises: a call
        no plan carries charges the prefix it reached, then fails."""
        recorder = PlanRecorder(self.config, self.net_fabric)
        try:
            yield recorder
        finally:
            self.charge(self.interned(ChargePlan(recorder.steps)))

    def charge_compute(self, seconds: float) -> None:
        """Advance virtual time by *seconds* of application compute.

        Compute is charged outside any MPI entry, so when a background
        progress engine shares this rank's clock the update serializes
        on the CS lock (the engine charges under the same lock); a
        ``progress=None`` build keeps the plain unlocked path.
        """
        if seconds < 0:
            raise ValueError(f"negative compute time: {seconds}")
        lock = self.hooks.progress_lock if self.hooks else None
        if lock is not None:
            with lock:
                self.vclock.advance_seconds(seconds)
                self.compute_seconds += seconds
            return
        self.vclock.advance_seconds(seconds)
        self.compute_seconds += seconds

    # -- VCI routing ---------------------------------------------------------

    def vci_for(self, ctx: int, peer: int, tag: int,
                nomatch: bool = False) -> VCI | None:
        """The VCI owning a concrete ``(ctx, peer, tag)`` stream (or a
        context's §3.6 arrival-order stream when *nomatch*) — the seam's
        ``route`` on a sharded build.  None for a wildcard receive,
        whose modeled CS lands on VCI 0 per the all-VCI wildcard
        discipline: callers then take ``cs_lock``, VCI 0's lock."""
        if nomatch:
            return self.vcis[self.vci_map.nomatch_index(ctx)]
        if peer == ANY_SOURCE or tag == ANY_TAG:
            return None
        return self.vcis[self.vci_map.index_for(ctx, peer, tag)]

    # -- delivery ---------------------------------------------------------------

    def deliver(self, dest_world_rank: int, msg: Message) -> None:
        """Deposit *msg* into the destination rank's matching engine.

        Under a ``fault_plan`` build the message instead crosses the
        reliability layer's lossy wire (sequence numbering, possible
        retransmissions, the receiver's dedup/reorder window) before
        reaching the engine."""
        hooks = self.hooks
        if hooks is not None and hooks.deliver is not None:
            hooks.deliver(dest_world_rank, msg)
            return
        engine = self._engines.get(dest_world_rank)
        if engine is None:
            engine = self._engines[dest_world_rank] = \
                self.world.proc(dest_world_rank).engine
        engine.deposit(msg)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Proc(rank={self.world_rank}/{self.world.nranks}, "
                f"device={self.config.device.value})")
