"""Intercommunicators: MPI_INTERCOMM_CREATE / MPI_COMM_REMOTE_*.

Point-to-point on an intercommunicator addresses ranks of the *remote*
group.  This module also honours a specific sentence of the paper's
§3.1: the proposed ``MPI_ISEND_GLOBAL`` "would not be
'intercommunicator-safe'" — and indeed
:meth:`Intercommunicator.isend_global` refuses to run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import MPIErrArg, MPIErrComm, MPIErrRank
from repro.mpi.comm import Communicator
from repro.mpi.group import Group

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.proc import Proc

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
