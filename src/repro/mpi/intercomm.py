"""Intercommunicators and the dynamic-process layer.

Covers MPI_INTERCOMM_CREATE / MPI_COMM_REMOTE_* plus the
dynamic-process surface of MPI chapter 10: ``MPI_Open_port`` /
``MPI_Comm_accept`` / ``MPI_Comm_connect`` (the client/server model)
and ``MPI_Comm_spawn`` / ``MPI_Comm_get_parent``.  The
:class:`PortRegistry` is the runtime's analog of the out-of-band
channel real implementations use for the connect/accept handshake (a
published port name resolved through a nameserver or the launcher):
it lives on the world, outside MPI messaging, and only carries the
handshake — the resulting communication happens on an ordinary
:class:`Intercommunicator` over the modeled fabric.

Point-to-point on an intercommunicator addresses ranks of the *remote*
group.  This module also honours a specific sentence of the paper's
§3.1: the proposed ``MPI_ISEND_GLOBAL`` "would not be
'intercommunicator-safe'" — and indeed
:meth:`Intercommunicator.isend_global` refuses to run.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import (MPIErrArg, MPIErrComm, MPIErrPort, MPIErrRank,
                          MPIErrSpawn, MPIError)
from repro.mpi.comm import Communicator
from repro.mpi.group import Group

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.proc import Proc
    from repro.runtime.world import World

#: Handshake tag used by intercomm_create's leader exchange.
_CREATE_TAG = (1 << 19) + 61


class Intercommunicator(Communicator):
    """A communicator whose send/recv targets live in a remote group.

    Matching uses the shared context id; envelope source ranks are the
    sender's rank in its *local* group, which is exactly what the
    receiver names with its ``source`` argument (the remote group from
    the receiver's point of view).
    """

    def __init__(self, proc: "Proc", local_group: Group,
                 remote_group: Group, ctx: int, name: str = "intercomm"):
        super().__init__(proc, local_group, ctx, name=name)
        self.remote_group = remote_group
        # Translation for *targets* must map remote ranks.
        from repro.runtime.ranktrans import build_translation
        self._remote_translation = build_translation(
            remote_group.world_ranks, proc.config.rank_translation)

    # -- queries ----------------------------------------------------------------

    @property
    def is_inter(self) -> bool:
        """MPI_COMM_TEST_INTER."""
        return True

    @property
    def remote_size(self) -> int:
        """MPI_COMM_REMOTE_SIZE."""
        return self.remote_group.size

    def world_rank_of(self, comm_rank: int) -> int:
        """Targets denote remote-group ranks on an intercommunicator."""
        return self._remote_translation.world_rank(comm_rank)

    # -- overridden addressing ---------------------------------------------------

    def _isend_bytes(self, data, dest, tag, sync=False, flags=None):
        if flags is None:
            return super()._isend_bytes(data, dest, tag, sync)
        if flags.global_rank:
            raise MPIErrArg(
                "MPI_ISEND_GLOBAL is not intercommunicator-safe (§3.1)")
        return super()._isend_bytes(data, dest, tag, sync, flags)

    @property
    def translation(self):
        """The device resolves destinations through this translation;
        for an intercommunicator that is the remote group's."""
        return self._remote_translation

    @translation.setter
    def translation(self, value):
        """Base-class __init__ assigns the local translation; keep it
        for the local group (the remote one is built afterwards)."""
        self._local_translation = value

    # -- the paper's §3.1 restriction ---------------------------------------------

    def isend_global(self, buf, dest_world: int, tag: int = 0):
        """Rejected: the paper's proposal explicitly excludes
        intercommunicators ("one could not use this function for
        communicating across processes that belong to different
        MPI_COMM_WORLD communicators")."""
        raise MPIErrArg(
            "MPI_ISEND_GLOBAL is not intercommunicator-safe (§3.1)")

    def isend_all_opts(self, buf, dest_world: int, tag: int = 0):
        """Rejected: subsumes the global-rank addressing of §3.1."""
        raise MPIErrArg(
            "MPI_ISEND_ALL_OPTS is not intercommunicator-safe (§3.1)")

    # -- unsupported-on-inter operations --------------------------------------------

    def dup(self, name: Optional[str] = None):
        """Intercomm dup: same groups, fresh context (agreed across
        both sides through the local leaders)."""
        raise MPIErrComm(
            "intercommunicator dup is not implemented in this runtime")

    def _no_inter_collectives(self, what: str):
        raise MPIErrComm(
            f"intercommunicator {what} is not implemented in this "
            "runtime (point-to-point only)")

    def barrier(self):
        """Unsupported on intercommunicators in this runtime."""
        self._no_inter_collectives("barrier")

    def bcast(self, obj=None, root=0):
        """Unsupported on intercommunicators in this runtime."""
        self._no_inter_collectives("bcast")

    def allreduce(self, obj, op=None):
        """Unsupported on intercommunicators in this runtime."""
        self._no_inter_collectives("allreduce")

    def allgather(self, obj):
        """Unsupported on intercommunicators in this runtime."""
        self._no_inter_collectives("allgather")


def intercomm_create(local_comm: Communicator, local_leader: int,
                     peer_comm: Communicator, remote_leader: int,
                     tag: int = 0) -> Intercommunicator:
    """MPI_INTERCOMM_CREATE.

    Collective over both local communicators; the leaders exchange
    group information and a jointly allocated context id through
    *peer_comm* (a communicator containing both leaders —
    MPI_COMM_WORLD in the tests, as is typical).
    """
    if not 0 <= local_leader < local_comm.size:
        raise MPIErrRank(
            f"local leader {local_leader} outside [0, {local_comm.size})")
    proc = local_comm.proc
    i_am_leader = local_comm.rank == local_leader

    handshake = None
    if i_am_leader:
        # Deterministic context agreement: the leader with the smaller
        # peer rank allocates and sends; the other receives.
        my_ranks = list(local_comm.group.world_ranks)
        if peer_comm.rank < remote_leader:
            ctx = proc.world.alloc_context_id()
            peer_comm.send((ctx, my_ranks), dest=remote_leader,
                           tag=_CREATE_TAG + tag)
            _, remote_ranks = peer_comm.recv(source=remote_leader,
                                             tag=_CREATE_TAG + tag)
        else:
            ctx, remote_ranks = peer_comm.recv(source=remote_leader,
                                               tag=_CREATE_TAG + tag)
            peer_comm.send((ctx, my_ranks), dest=remote_leader,
                           tag=_CREATE_TAG + tag)
        handshake = (ctx, remote_ranks)

    ctx, remote_ranks = local_comm.bcast(handshake, root=local_leader)
    return Intercommunicator(proc, local_comm.group, Group(remote_ranks),
                             ctx, name=f"{local_comm.name}.inter")


def split_type_shared(comm: Communicator) -> Communicator:
    """MPI_COMM_SPLIT_TYPE(MPI_COMM_TYPE_SHARED): one communicator per
    node — the ranks whose traffic the shmmod carries."""
    node = comm.proc.world.topology.node_of(comm.proc.world_rank)
    return comm.split(color=node, key=comm.rank)


# -- ports and connect/accept (MPI chapter 10 client/server model) ----------

class _PortOffer:
    """One posted accept: the server's half of a handshake, waiting
    for a client to claim it and fill in the other half."""

    __slots__ = ("ctx", "server_ranks", "client_ranks", "event")

    def __init__(self, ctx: int, server_ranks: list[int]):
        self.ctx = ctx
        self.server_ranks = server_ranks
        #: Filled by the claiming client before it fires ``event``.
        self.client_ranks: Optional[list[int]] = None
        self.event = threading.Event()


class _Port:
    """One opened port: a FIFO of posted accepts."""

    __slots__ = ("open", "offers")

    def __init__(self):
        self.open = True
        self.offers: deque[_PortOffer] = deque()


class PortRegistry:
    """World-level port namespace for connect/accept.

    The honest analog of the out-of-band channel behind
    ``MPI_Open_port``: port names resolve here, outside MPI messaging,
    and each posted accept is claimed by **exactly one** connect (the
    FIFO pop happens under the registry lock), so two racing clients
    can never share a handshake.  Built lazily by
    :attr:`repro.runtime.world.World.ports`.
    """

    def __init__(self, world: "World"):
        self.world = world
        self._cv = threading.Condition()
        self._ports: dict[str, _Port] = {}
        self._serial = 0
        #: Observational counters (tests and the service benchmark).
        self.n_opened = 0
        self.n_accepts = 0
        self.n_connects = 0

    def open_port(self) -> str:
        """MPI_OPEN_PORT: a fresh world-unique port name."""
        with self._cv:
            name = f"port#{self._serial}"
            self._serial += 1
            self._ports[name] = _Port()
            self.n_opened += 1
            return name

    def close_port(self, name: str) -> None:
        """MPI_CLOSE_PORT: further connects fail instead of waiting."""
        with self._cv:
            port = self._ports.get(name)
            if port is None:
                raise MPIErrPort(f"unknown port {name!r}",
                                 op="MPI_Close_port")
            port.open = False
            self._cv.notify_all()

    def post_offer(self, name: str, offer: _PortOffer) -> None:
        """Queue one accept on *name* (server side)."""
        with self._cv:
            port = self._ports.get(name)
            if port is None or not port.open:
                raise MPIErrPort(f"port {name!r} is not open",
                                 op="MPI_Comm_accept")
            port.offers.append(offer)
            self.n_accepts += 1
            self._cv.notify_all()

    def cancel_offer(self, name: str, offer: _PortOffer) -> bool:
        """Withdraw a timed-out accept.  Returns False when a client
        claimed it first — the accept then must complete normally."""
        with self._cv:
            port = self._ports.get(name)
            if port is None or offer not in port.offers:
                return False
            port.offers.remove(offer)
            return True

    def claim(self, name: str, deadline: float) -> Optional[_PortOffer]:
        """Pop one posted accept from *name*, waiting until *deadline*
        (monotonic) for a port that is not open yet or has no accept
        queued; None on timeout, :class:`MPIErrPort` on a closed port
        (the server is gone — retrying is pointless)."""
        with self._cv:
            while True:
                port = self._ports.get(name)
                if port is not None and not port.open:
                    raise MPIErrPort(f"port {name!r} is closed",
                                     op="MPI_Comm_connect")
                if port is not None and port.offers:
                    self.n_connects += 1
                    return port.offers.popleft()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                if self.world.abort_event.is_set():
                    from repro.runtime.world import WorldAborted
                    raise WorldAborted(
                        "world aborted during MPI_Comm_connect")
                self._cv.wait(min(remaining, 0.05))

    def stats(self) -> dict:
        """Counters snapshot."""
        with self._cv:
            return {"n_opened": self.n_opened,
                    "n_accepts": self.n_accepts,
                    "n_connects": self.n_connects}


def open_port(comm: Communicator) -> str:
    """MPI_OPEN_PORT (local: any rank may open a port)."""
    return comm.proc.world.ports.open_port()


def close_port(comm: Communicator, name: str) -> None:
    """MPI_CLOSE_PORT."""
    comm.proc.world.ports.close_port(name)


def _bcast_handshake(comm: Communicator, root: int,
                     build: Callable[[], object]) -> object:
    """Run *build* on the root and broadcast its result (or its MPI
    error) over *comm*, so a root-side failure raises collectively
    instead of stranding the non-roots in the broadcast."""
    payload = None
    if comm.rank == root:
        try:
            payload = ("ok", build())
        except MPIError as exc:
            comm.bcast(("error", exc), root=root)
            raise
    kind, value = comm.bcast(payload, root=root)
    if kind == "error":
        raise type(value)(value.message, rank=value.rank, op=value.op)
    return value


def comm_accept(port_name: str, comm: Communicator, root: int = 0,
                timeout: Optional[float] = None) -> Intercommunicator:
    """MPI_COMM_ACCEPT: collective over *comm*; blocks until one client
    connects to *port_name* (at most *timeout* wall seconds, then
    ``MPI_ERR_PORT``) and returns the server↔client intercommunicator.
    """
    proc = comm.proc
    registry = proc.world.ports

    def build():
        offer = _PortOffer(proc.world.alloc_context_id(),
                           list(comm.group.world_ranks))
        registry.post_offer(port_name, offer)
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        det = proc.detector
        if det is not None:
            # A rank blocked in accept is alive by construction: park
            # it (a monitored server waiting out a slow client must
            # never be suspected), and keep offering roster scans —
            # the accept loop may be the only runnable thread.
            det.enter_wait()
        try:
            while not offer.event.is_set():
                if proc.world.abort_event.is_set():
                    from repro.runtime.world import WorldAborted
                    raise WorldAborted(
                        "world aborted during MPI_Comm_accept")
                if deadline is not None \
                        and time.monotonic() >= deadline:
                    if registry.cancel_offer(port_name, offer):
                        raise MPIErrPort(
                            f"no connection on {port_name!r} within "
                            f"{timeout}s", op="MPI_Comm_accept")
                    # A client claimed at the buzzer: its reply is
                    # imminent, so this accept completes normally.
                    offer.event.wait()
                    break
                if det is not None:
                    det.maybe_tick()
                offer.event.wait(0.02)
        finally:
            if det is not None:
                det.exit_wait()
        return offer.ctx, offer.client_ranks

    ctx, client_ranks = _bcast_handshake(comm, root, build)
    return Intercommunicator(proc, comm.group, Group(client_ranks), ctx,
                             name=f"{comm.name}.accept")


def comm_connect(port_name: str, comm: Communicator, root: int = 0,
                 retries: int = 20, backoff_s: float = 0.05,
                 ) -> Intercommunicator:
    """MPI_COMM_CONNECT: collective over *comm*; claims one posted
    accept on *port_name*, retrying with exponential backoff while the
    server has not opened the port or posted an accept yet.  Raises
    ``MPI_ERR_PORT`` once the attempts are exhausted (or immediately
    when the port has been *closed* — the server is gone)."""
    proc = comm.proc
    registry = proc.world.ports

    def build():
        offer = None
        det = proc.detector
        if det is not None:
            # A rank queued behind a busy server makes no MPI calls
            # while it waits, so its heartbeat would go stale: park it
            # like a blocking wait — connecting is proof of life.
            det.enter_wait()
        try:
            for attempt in range(retries + 1):
                wait_s = backoff_s * (2 ** min(attempt, 5))
                offer = registry.claim(port_name,
                                       time.monotonic() + wait_s)
                if offer is not None:
                    break
            if offer is None:
                raise MPIErrPort(
                    f"nothing accepting on port {port_name!r} after "
                    f"{retries + 1} attempts", op="MPI_Comm_connect")
        finally:
            if det is not None:
                det.exit_wait()
        offer.client_ranks = list(comm.group.world_ranks)
        offer.event.set()
        return offer.ctx, offer.server_ranks

    ctx, server_ranks = _bcast_handshake(comm, root, build)
    return Intercommunicator(proc, comm.group, Group(server_ranks), ctx,
                             name=f"{comm.name}.connect")


# -- MPI_COMM_SPAWN / MPI_COMM_GET_PARENT -----------------------------------

def _child_comm_factory(child_ranks: list[int], child_ctx: int,
                        inter_ctx: int, parent_ranks: list[int],
                        ) -> Callable:
    """The communicator view a spawned rank's thread starts with: the
    children's own world communicator, carrying the parent
    intercommunicator for :func:`get_parent`."""
    def factory(proc: "Proc") -> Communicator:
        comm = Communicator(proc, Group(child_ranks), child_ctx,
                            name="MPI_COMM_WORLD.spawned")
        comm._parent_inter = Intercommunicator(
            proc, Group(child_ranks), Group(parent_ranks), inter_ctx,
            name="parent.inter")
        return comm
    return factory


def comm_spawn(comm: Communicator, fn: Callable, nprocs: int,
               args: tuple = (), root: int = 0) -> Intercommunicator:
    """MPI_COMM_SPAWN: collective over *comm*; starts *nprocs* fresh
    dynamic ranks running ``fn(child_comm, *args)`` and returns the
    parent↔children intercommunicator.

    The children share a world communicator of their own (they are not
    members of any parent communicator — groups snapshot their roster
    at creation) and reach the parents through
    :func:`get_parent`.  Join their threads with
    :meth:`repro.runtime.world.World.join_dynamic`.  On a detector
    build the children are registered for heartbeat monitoring — a
    spawned rank that vanishes is confirmed dead, exactly like a
    session client."""
    if nprocs <= 0:
        raise MPIErrSpawn(f"nprocs must be positive, got {nprocs}",
                          op="MPI_Comm_spawn")
    proc = comm.proc
    world = proc.world

    def build():
        born = world.add_ranks(nprocs)
        child_ranks = [p.world_rank for p in born]
        child_ctx = world.alloc_context_id()
        inter_ctx = world.alloc_context_id()
        parent_ranks = list(comm.group.world_ranks)
        factory = _child_comm_factory(child_ranks, child_ctx,
                                      inter_ctx, parent_ranks)
        for child in born:
            det = child.detector
            if det is not None:
                det.register()
            world.launch_rank(child, fn, args, comm_factory=factory,
                              name=f"mpi-spawn-{child.world_rank}")
        return child_ranks, inter_ctx

    child_ranks, inter_ctx = _bcast_handshake(comm, root, build)
    return Intercommunicator(proc, comm.group, Group(child_ranks),
                             inter_ctx, name=f"{comm.name}.spawn")


def get_parent(comm: Communicator) -> Intercommunicator:
    """MPI_COMM_GET_PARENT: the intercommunicator to the spawning
    processes; raises ``MPI_ERR_COMM`` on a process that was not
    spawned (where the standard returns MPI_COMM_NULL)."""
    parent = getattr(comm, "_parent_inter", None)
    if parent is None:
        raise MPIErrComm(
            "this process was not spawned — MPI_Comm_get_parent "
            "would return MPI_COMM_NULL")
    return parent
