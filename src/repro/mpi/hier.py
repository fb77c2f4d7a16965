"""Topology-aware collective strategies (ChainerMN-style).

A :class:`~repro.core.config.BuildConfig` (or an individual
communicator, via :func:`create_communicator`) names a collective
*strategy* — ``naive`` / ``flat`` / ``hierarchical`` /
``two_dimensional`` — governing how the buffer collectives route:

* **hierarchical** splits each collective into an intra-node phase over
  the node-local subcommunicator (whose messages the device routes to
  the shm-class fabric automatically — the CH4 locality check) and an
  inter-node phase among the per-node leaders (fabric path).  An
  allreduce thus moves each element across the network once per node
  instead of once per rank — the reason ChainerMN's hierarchical
  communicator is what makes data-parallel training scale.

* **two_dimensional** is the transpose composition: a reduce along
  each *core-index column* (the ranks sharing a core slot across
  nodes — every column message is inter-node), an allreduce among the
  column roots (all on the first node — intra-node), and a bcast back
  down the columns.  Correct for any block distribution including a
  partial last node, because every rank belongs to exactly one column
  and the roots cover all columns.

The subcommunicators are built lazily (``MPI_COMM_SPLIT`` is itself a
collective, so the first routed collective constructs them on every
rank together) and cached on the communicator.  Phase internals call
the :mod:`repro.mpi.collectives` entry points directly — unrouted,
never the ``Communicator`` methods, whose calls alone consult the
strategy (:func:`route`) — so routing can never recurse.

Hierarchical phases re-associate the reduction (node-grouped instead
of rank-ordered), so ops must be associative and commutative — true
for every numpy elementwise op shipped in :mod:`repro.mpi.reduceops`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.consts import UNDEFINED
from repro.errors import MPIErrArg
from repro.mpi import collectives as coll

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Communicator

#: Strategy names accepted by ``BuildConfig.communicator_name`` and
#: :func:`create_communicator`.
STRATEGIES = ("naive", "flat", "hierarchical", "two_dimensional")

#: Internal tag for leader<->root shuttles (continues the
#: collectives-module tag block).
TAG_HIER = coll._TAG_BASE + 15


def create_communicator(communicator_name: str,
                        comm: "Communicator") -> "Communicator":
    """ChainerMN-style factory: a dup of *comm* whose buffer
    collectives route through *communicator_name*, overriding the
    build-level selector (collective over *comm*)."""
    if communicator_name not in STRATEGIES:
        raise MPIErrArg(
            f"unknown communicator_name {communicator_name!r}; "
            f"expected one of {STRATEGIES}")
    dup = comm.dup(name=f"{comm.name}+{communicator_name}")
    dup.coll_strategy = communicator_name
    return dup


class HierContext:
    """Cached subcommunicators for one communicator's routed
    collectives (built collectively on first use).

    Attributes
    ----------
    local:
        This rank's node-local subcommunicator (ordered by comm rank,
        so ``local.rank == 0`` is the node leader).
    leaders:
        The inter-node subcommunicator over the node leaders; None on
        non-leader ranks.
    node_leader_rank:
        ``{node: leaders-comm rank}`` of every node's leader (known on
        all ranks, for rooted collectives).
    my_node:
        This rank's node id.
    columns/col_roots:
        The two_dimensional subcommunicators (same discipline: column
        ordered by comm rank; ``col_roots`` is None off the roots).
    """

    def __init__(self, comm: "Communicator"):
        topo = comm.world.topology
        self.my_node = topo.node_of(comm.proc.world_rank)
        self.local = comm.split(color=self.my_node, key=comm.rank)
        self.leaders = comm.split(
            color=0 if self.local.rank == 0 else UNDEFINED, key=comm.rank)
        # Everyone learns which leaders-comm rank fronts each node:
        # leaders allgather (node, rank), then each leader shares the
        # map with its node.
        table = None
        if self.leaders is not None:
            pairs = coll.allgather_obj(
                self.leaders, (self.my_node, self.leaders.rank))
            table = dict(pairs)
        self.node_leader_rank = coll.bcast_obj(self.local, table, 0)
        # two_dimensional: columns are the ranks sharing a core slot.
        my_col = topo.core_of(comm.proc.world_rank)
        self.columns = comm.split(color=my_col, key=comm.rank)
        self.col_roots = comm.split(
            color=0 if self.columns.rank == 0 else UNDEFINED, key=comm.rank)
        # Fault builds: register every staging subcommunicator as
        # derived from the parent, so MPIX_Comm_revoke(parent) reaches
        # a rank blocked inside a phase (the revocation cascade) — an
        # unregistered child context would strand it mid-collective.
        if comm.proc.hooks is not None:
            comm.proc.hooks.comm_derived(comm, (
                self.local, self.leaders, self.columns, self.col_roots))


def _ctx(comm: "Communicator") -> HierContext:
    if comm._hier_ctx is None:
        comm._hier_ctx = HierContext(comm)
    return comm._hier_ctx


def route(comm: "Communicator", kind: str):
    """The composition *comm*'s strategy sends its ``bcast`` /
    ``reduce`` / ``allreduce`` buffer collective through — None for a
    flat one (by strategy, or single-rank, or single-node).  Only the
    allreduce has a two-dimensional form: the rooted two use the
    leader composition under both strategies (a column-wise bcast
    would be its phase 3 alone)."""
    strategy = comm.collective_strategy()
    if (strategy not in ("hierarchical", "two_dimensional")
            or comm.size <= 1 or comm.world.topology.nnodes <= 1):
        return None
    if kind == "allreduce" and strategy == "two_dimensional":
        return _twod_allreduce
    return {"bcast": _hier_bcast, "reduce": _hier_reduce,
            "allreduce": _hier_allreduce}[kind]


# ---------------------------------------------------------------------------
# hierarchical (intra-node + leaders) compositions
# ---------------------------------------------------------------------------

def _hier_allreduce(comm: "Communicator", sendbuf: np.ndarray,
                    recvbuf: np.ndarray, op) -> None:
    ctx = _ctx(comm)
    # Phase 1 (shm): reduce onto the node leader, into recvbuf.
    coll.reduce_buf(ctx.local, sendbuf, recvbuf, op, 0)
    # Phase 2 (fabric): leaders allreduce the node partials.
    _allreduce_partials(ctx.leaders, recvbuf, op)
    # Phase 3 (shm): leader broadcasts the total over the node.
    coll.bcast_buf(ctx.local, recvbuf, 0)


def _allreduce_partials(sub: Optional["Communicator"], partial: np.ndarray,
                        op) -> None:
    """Phase 2 of both allreduce compositions: the ranks of *sub* (None
    elsewhere) allreduce their partials in place.  Large payloads force
    Rabenseifner — reduce-scatter+allgather moves 2m(P-1)/P bytes per
    rank where the flat default's reduce+bcast moves 2m log P — while
    small ones keep the latency-optimal size-based selection."""
    if sub is None:
        return
    alg = (None if partial.nbytes <= coll.ALLREDUCE_RECDOUBLE_MAX_BYTES
           else "reduce_scatter_allgather")
    # Aliasing is safe: the receive buffer is the accumulator every
    # algorithm reduces into — an elementwise ``out=`` may be an operand,
    # and ring/Rabenseifner's entry copy into it is then the identity.
    coll.allreduce_buf(sub, partial, partial, op, alg)  # bufcheck: ignore[BC505]


def _hier_bcast(comm: "Communicator", array: np.ndarray,
                root: int) -> None:
    ctx = _ctx(comm)
    topo = comm.world.topology
    root_node = topo.node_of(comm.world_rank_of(root))
    if ctx.my_node == root_node:
        # Reach the node leader (and the rest of the node) first.
        local_root = ctx.local.group.rank_of_world(comm.world_rank_of(root))
        coll.bcast_buf(ctx.local, array, local_root)
    if ctx.leaders is not None:
        coll.bcast_buf(ctx.leaders, array,
                       ctx.node_leader_rank[root_node])
    if ctx.my_node != root_node:
        coll.bcast_buf(ctx.local, array, 0)


def _hier_reduce(comm: "Communicator", sendbuf: np.ndarray,
                 recvbuf: Optional[np.ndarray], op, root: int) -> None:
    ctx = _ctx(comm)
    root_world = comm.world_rank_of(root)
    root_node = comm.world.topology.node_of(root_world)
    # Phase 1 (shm): node partials land on each leader in a scratch
    # buffer (recvbuf is only valid at the real root).
    partial = (np.empty_like(sendbuf) if ctx.local.rank == 0 else None)
    coll.reduce_buf(ctx.local, sendbuf, partial, op, 0)
    # Phase 2 (fabric): leaders reduce to the root node's leader —
    # straight into recvbuf when that leader is the root.
    total = None
    if ctx.leaders is not None:
        leader_root = ctx.node_leader_rank[root_node]
        if ctx.leaders.rank == leader_root:
            total = recvbuf if comm.rank == root else np.empty_like(sendbuf)
        coll.reduce_buf(ctx.leaders, partial, total, op, leader_root)
    # Phase 3 (shm): shuttle leader -> root when they differ.
    local_root = (ctx.local.group.rank_of_world(root_world)
                  if ctx.my_node == root_node else 0)
    if local_root and comm.rank == root:
        ctx.local._recv_bytes(0, TAG_HIER, coll._flat(recvbuf))
    elif local_root and ctx.local.rank == 0:
        ctx.local._send_bytes(coll._flat(total), local_root, TAG_HIER)


# ---------------------------------------------------------------------------
# two_dimensional (column reduce / root-row allreduce / column bcast)
# ---------------------------------------------------------------------------

def _twod_allreduce(comm: "Communicator", sendbuf: np.ndarray,
                    recvbuf: np.ndarray, op) -> None:
    ctx = _ctx(comm)
    # Phase 1 (fabric): reduce down each core-index column.
    coll.reduce_buf(ctx.columns, sendbuf, recvbuf, op, 0)
    # Phase 2 (shm, on a full first node): the column roots — one per
    # core slot — allreduce the column partials.
    _allreduce_partials(ctx.col_roots, recvbuf, op)
    # Phase 3 (fabric): broadcast the total back down the columns.
    coll.bcast_buf(ctx.columns, recvbuf, 0)
