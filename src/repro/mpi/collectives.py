"""Machine-independent collectives (MPICH's topmost-layer algorithms).

Built on the device's point-to-point path, exactly as MPICH's
machine-independent collectives are: a binomial tree for
broadcast/reduce, a linear root loop for gather/scatter, dissemination
for barrier, a ring for allgather, pairwise exchange for alltoall, and
a linear chain for scans.  Every internal message traverses the device
critical path, so collective timings inherit the per-build instruction
overheads — the mechanism behind the Nek5000 allreduce sensitivity in
Figure 7.

Each algorithm is written once, as a *schedule*: a generator
(``*_steps``) that yields every request it must see complete — a
receive (``data = yield comm._irecv_bytes(src, tag)`` resumes with the
payload — or, given a view to land in, the byte count) or a send
(``yield comm._isend_bytes(data, dest, tag)``) — composes
sub-schedules with ``yield from`` and returns its result.  A schedule
never waits and never releases: its driver waits on the yielded
request, returns the handle to the rank's pool and resumes the
schedule.  :func:`run_schedule` is the driver under
every blocking entry point; :class:`repro.mpi.nbc.NBCRequest` drives
the same schedules for the ``i*`` calls, from ``test``/``wait`` or from
the progress engine.  Sends are yielded, not waited on in the schedule,
for that second driver: under a progress engine a rendezvous send is
retired by the progress thread — the thread that resumes a nonblocking
schedule — which must never park on a completion only it can retire.
A request posted but not yet yielded (the receive half of an exchange)
stays in flight meanwhile.

The buffer (``*_buf``) entry points move raw memory: a schedule gets
borrowed byte views of the caller's arrays (a send the driver has seen
complete has copied its bytes out), reduces with ``out=`` into the
receive buffer and receives blocks straight into their slice of it.
What a call's shape fixes is resolved once, as a :class:`CollPlan`.

Internal messages use tags above the user tag space (>= 1 << 20 within
the reserved range), relying on MPI's non-overtaking guarantee for
correctness across back-to-back collectives of the same kind; the
schedules with a nonblocking entry take their tag as a parameter, so
concurrent ``i*`` calls stay apart.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from repro.core.ops import RECV_PLAN, RecvOp, SendOp
from repro.errors import MPIErrArg, MPIErrOp, MPIErrRank
from repro.mpi import reduceops
from repro.mpi.pt2pt import BYTE_REF

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Communicator
    from repro.runtime.request import Request

#: Internal tag block (kept below consts.TAG_UB so device-level checks
#: stay uniform; user code conventionally stays far below this).
_TAG_BASE = 1 << 20
TAG_BARRIER = _TAG_BASE + 1
TAG_BCAST = _TAG_BASE + 2
TAG_REDUCE = _TAG_BASE + 3
TAG_GATHER = _TAG_BASE + 4
TAG_ALLGATHER = _TAG_BASE + 5
TAG_SCATTER = _TAG_BASE + 6
TAG_ALLTOALL = _TAG_BASE + 7
TAG_SCAN = _TAG_BASE + 8
TAG_RECDOUBLE = _TAG_BASE + 10
TAG_RING_RS = _TAG_BASE + 11
TAG_RING_AG = _TAG_BASE + 12
TAG_RSAG = _TAG_BASE + 13
TAG_BCAST_RING = _TAG_BASE + 14

#: Payload size above which buffer allreduce switches from
#: recursive doubling (latency-optimal: log P rounds) to
#: reduce+broadcast (bandwidth-friendlier trees) — MPICH-style
#: algorithm selection.
ALLREDUCE_RECDOUBLE_MAX_BYTES = 64 * 1024

#: Payload size above which buffer bcast switches from the binomial
#: tree (latency-optimal) to scatter + ring allgather (van de Geijn —
#: each byte crosses each link once instead of log P times).
BCAST_BINOMIAL_MAX_BYTES = 128 * 1024

#: Segment size for the pipelined ring (chain) broadcast: small enough
#: that the pipeline fills quickly, large enough that per-message
#: overhead stays amortized.
BCAST_RING_SEGMENT = 32 * 1024


def _check_root(comm: "Communicator", root: int) -> None:
    if not 0 <= root < comm.size:
        raise MPIErrRank(f"root {root} outside [0, {comm.size})")


def _reduction_op(op) -> reduceops.Op:
    """*op* (default SUM), refused when it is MPI_ACCUMULATE's only."""
    the_op = op if op is not None else reduceops.SUM
    if getattr(the_op, "rma_only", False):   # duck-typed user ops have none
        raise MPIErrOp(f"{the_op.name} is RMA-only, not a reduction")
    return the_op


def run_schedule(comm: "Communicator", steps) -> Any:
    """Drive the schedule *steps* to completion on the calling thread:
    wait on each request it yields, recycle the handle, resume it with
    the payload (else the byte count); returns what the schedule
    returns.  The one place a blocking collective waits."""
    release = comm.proc.request_pool.release
    try:
        req = next(steps)
        while True:
            req.wait()
            data = req.count_bytes if req.payload is None else req.payload
            release(req)
            req = steps.send(data)
    except StopIteration as stop:
        return stop.value


# ---------------------------------------------------------------------------
# byte-level schedules
# ---------------------------------------------------------------------------

def _filled(comm: "Communicator", source: int, got: int,
            into: memoryview) -> memoryview:
    """*into*, which *source*'s *got* bytes must have filled exactly."""
    if got != len(into):
        raise MPIErrArg(f"rank {comm.rank} expected {len(into)} bytes "
                        f"from rank {source}, got {got}")
    return into


def _recv(comm: "Communicator", source: int, tag: int,
          into: Optional[memoryview] = None):
    """One receive: the owned payload, or the writable view *into* it
    went straight into."""
    got = yield comm._irecv_bytes(source, tag, into)
    return got if into is None else _filled(comm, source, got, into)


def _exchange(comm: "Communicator", data: "bytes | memoryview", dest: int,
              source: int, tag: int, into: Optional[memoryview] = None):
    """One sendrecv round (received as by :func:`_recv`), the receive
    posted before the send is yielded, so a ring of rendezvous sends
    cannot deadlock."""
    rreq = comm._irecv_bytes(source, tag, into)
    yield comm._isend_bytes(data, dest, tag)
    got = yield rreq
    return got if into is None else _filled(comm, source, got, into)


def barrier_steps(comm: "Communicator", tag: int = TAG_BARRIER):
    """Dissemination barrier: ceil(log2(P)) rounds of sendrecv."""
    size, rank = comm.size, comm.rank
    k = 1
    while k < size:
        yield from _exchange(comm, b"", (rank + k) % size,
                             (rank - k) % size, tag)
        k <<= 1


def barrier(comm: "Communicator") -> None:
    """MPI_BARRIER (and so every ``Window.fence``), on its
    :class:`CollPlan`."""
    run_schedule(comm, barrier_steps(CollPlan.of(comm, "barrier", 0)))


def bcast_steps(comm: "Communicator",
                buf: Optional["bytes | memoryview"],
                root: int, tag: int = TAG_BCAST):
    """Binomial-tree broadcast of a byte string (the root may pass a
    zero-copy view, which it also gets back; another rank a writable
    view to receive into, or None for an owned payload)."""
    _check_root(comm, root)
    size, rank = comm.size, comm.rank
    vrank = (rank - root) % size

    # Receive phase: a non-root rank receives from the rank that differs
    # in its lowest set bit; the loop leaves `mask` at that bit (or at
    # the first power of two >= size for the root, which receives from
    # nobody).
    mask = 1
    while mask < size:
        if vrank & mask:
            buf = yield from _recv(comm, (rank - mask) % size, tag, buf)
            break
        mask <<= 1
    if buf is None:
        buf = b""

    # Send phase: forward to every lower bit position.
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            yield comm._isend_bytes(buf, (rank + mask) % size, tag)
        mask >>= 1
    return buf


def _bcast_pieces(comm: "Communicator", buf: "bytes | memoryview",
                  root: int, piece: Optional[int] = None):
    """The segmented broadcasts' common start, every rank passing its
    *buf* (the root's payload; elsewhere the writable view it lands
    in): ship the root's length on the binomial tree, one tiny message
    per edge, check that this rank's holds exactly that, and cut it
    into views of *piece* bytes (default: P near-equal chunks) — one
    at least, so an empty payload still makes its round."""
    total = int((yield from bcast_steps(
        comm, str(len(buf)).encode() if comm.rank == root else None, root)))
    if len(buf) != total:
        raise MPIErrArg(f"bcast buffer is {len(buf)} bytes on rank "
                        f"{comm.rank} but the root sent {total}")
    if piece is None:
        piece, npieces = -(-total // comm.size), comm.size
    else:
        npieces = max(1, -(-total // piece))
    view = memoryview(buf)
    return [view[i * piece:(i + 1) * piece] for i in range(npieces)]


def bcast_scatter_allgather_steps(comm: "Communicator",
                                  buf: "bytes | memoryview", root: int):
    """Van de Geijn broadcast: scatter P near-equal chunks from the
    root, then ring-allgather them — the bandwidth-optimal large-
    message algorithm MPICH selects above its binomial threshold.
    The chunks land where they belong (see :func:`_bcast_pieces`)."""
    _check_root(comm, root)
    if comm.size == 1:
        return buf
    chunks = yield from _bcast_pieces(comm, buf, root)
    mine = chunks[comm.rank]
    yield from scatter_steps(comm, chunks, root, into=mine)
    # The root has every chunk: what comes back around the ring, it drops.
    yield from allgather_steps(comm, mine,
                               blocks=None if comm.rank == root else chunks)
    return buf


def reduce_steps(comm: "Communicator", payload: bytes, root: int,
                 combine, tag: int = TAG_REDUCE):
    """Binomial-tree reduction of byte payloads (None off the root).

    *combine(lower, higher)* merges two payloads and returns the
    payload to carry forward — a fresh object, or a view of the
    accumulator it reduced into — with *lower* coming from the smaller
    virtual rank: canonical rank ordering, so non-commutative combines
    behave deterministically.
    """
    _check_root(comm, root)
    size, rank = comm.size, comm.rank
    vrank = (rank - root) % size
    result = payload
    mask = 1
    while mask < size:
        if vrank & mask:
            dest = ((vrank & ~mask) + root) % size
            yield comm._isend_bytes(result, dest, tag)
            return None
        src_v = vrank | mask
        if src_v < size:
            incoming = yield comm._irecv_bytes((src_v + root) % size, tag)
            result = combine(result, incoming)
        mask <<= 1
    return result


def _fold(size: int) -> tuple[int, int]:
    """``(pof2, rem)`` with ``size = pof2 + rem`` and *pof2* the largest
    power of two <= *size*: the first ``2 * rem`` ranks pre-combine
    pairwise (odd partners contribute and drop out) so a power-of-two
    core runs the doubling/halving rounds, then results fan back out."""
    pof2 = 1 << (size.bit_length() - 1)
    return pof2, size - pof2


def _core_to_world(core_rank: int, rem: int) -> int:
    return core_rank * 2 if core_rank < rem else core_rank + rem


def recursive_doubling_steps(comm: "Communicator",
                             payload: "bytes | memoryview", combine,
                             work: Optional[memoryview] = None,
                             itemsize: int = 1):
    """Recursive-doubling allreduce: ceil(log2 P) rounds, every rank
    finishing with the full reduction — the latency-optimal algorithm
    MPICH selects for small messages.  Non-power-of-two sizes use the
    :func:`_fold`.

    *combine(lower, higher)* (see :func:`reduce_steps`) must be
    associative and commutative over payload bytes (true for all the
    numpy elementwise ops used here).  Like every allreduce schedule
    it takes *work*, where the caller wants the result (a folded-out
    rank receives it there), and *itemsize*, for those that cut it.
    """
    rank, tag = comm.rank, TAG_RECDOUBLE
    pof2, rem = _fold(comm.size)
    result = payload
    if rank < 2 * rem:
        if rank % 2:   # odd: contribute and wait for the final result
            yield comm._isend_bytes(result, rank - 1, tag)
            return (yield from _recv(comm, rank - 1, tag, work))
        incoming = yield comm._irecv_bytes(rank + 1, tag)
        result = combine(result, incoming)
        core_rank = rank // 2
    else:
        core_rank = rank - rem

    # Doubling phase over the power-of-two core.
    mask = 1
    while mask < pof2:
        partner_core = core_rank ^ mask
        partner = _core_to_world(partner_core, rem)
        incoming = yield from _exchange(comm, result, partner, partner, tag)
        # Canonical ordering keeps non-commutative combines sane.
        if partner_core > core_rank:
            result = combine(result, incoming)
        else:
            result = combine(incoming, result)
        mask <<= 1

    # Unfold: send the total back to the folded-out odd ranks.
    if rank < 2 * rem:
        yield comm._isend_bytes(result, rank + 1, tag)
    return result


def _chunk_bounds(nitems: int, nparts: int) -> list[tuple[int, int]]:
    """Split *nitems* into *nparts* near-equal contiguous ranges (the
    first ``nitems % nparts`` ranges get the extra item)."""
    base, rem = divmod(nitems, nparts)
    bounds = []
    lo = 0
    for i in range(nparts):
        hi = lo + base + (1 if i < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def allreduce_ring_steps(comm: "Communicator",
                         payload: "bytes | memoryview", combine,
                         work: memoryview, itemsize: int = 1):
    """Ring allreduce: a P-1-step reduce-scatter of P near-equal chunks
    followed by a P-1-step ring allgather — the bandwidth-optimal
    algorithm (each rank moves ``2 m (P-1)/P`` bytes total, Baidu/NCCL
    style) at the cost of 2(P-1) latency terms.

    Chunk boundaries are aligned to *itemsize* so *combine* always sees
    whole elements.  *combine(lower, higher, out)* reduces into the
    chunk of the accumulator it is given, and must be associative
    **and** commutative (chunk c accumulates contributions in
    ring-arrival order, not rank order) — true for every numpy
    elementwise op used here.  *work* is that accumulator, the
    caller's receive buffer: *payload*, which may be a zero-copy
    borrow, is copied into it at entry (the identity when they are the
    same memory) and never referenced again.
    """
    size, rank = comm.size, comm.rank
    nelems = len(payload) // itemsize
    bounds = [(lo * itemsize, hi * itemsize)
              for lo, hi in _chunk_bounds(nelems, size)]
    # Every round stages chunks as views of the accumulator.  The
    # driver sees each send complete before the schedule resumes
    # (delivery unpacks on the sending thread, the engine owns
    # unexpected arrivals), so mutating another chunk after is safe.
    work[:] = payload
    right = (rank + 1) % size
    left = (rank - 1) % size

    # Reduce-scatter phase: step s sends chunk (rank-s) right and
    # combines the incoming partial into chunk (rank-s-1).  After P-1
    # steps rank r owns the fully reduced chunk (r+1) % P.
    for step in range(size - 1):
        slo, shi = bounds[(rank - step) % size]
        rlo, rhi = bounds[(rank - step - 1) % size]
        incoming = yield from _exchange(comm, work[slo:shi], right, left,
                                        TAG_RING_RS)
        combine(work[rlo:rhi], incoming, work[rlo:rhi])

    # Allgather phase: circulate the reduced chunks the rest of the way
    # around the ring.
    for step in range(size - 1):
        slo, shi = bounds[(rank + 1 - step) % size]
        rlo, rhi = bounds[(rank - step) % size]
        yield from _exchange(comm, work[slo:shi], right, left, TAG_RING_AG,
                             work[rlo:rhi])
    return work


def allreduce_reduce_scatter_allgather_steps(comm: "Communicator",
                                             payload: "bytes | memoryview",
                                             combine, work: memoryview,
                                             itemsize: int = 1):
    """Rabenseifner allreduce: recursive-halving reduce-scatter then
    recursive-doubling allgather — log P latency terms with the ring's
    ``2 m (P-1)/P`` bandwidth, the algorithm MPICH selects for large
    reductions.

    Non-power-of-two sizes use the :func:`_fold`.  Each halving round
    records its parent segment on a stack; the doubling rounds pop it
    back — the partner at every level holds exactly the complement
    half, so no segment metadata crosses the wire.  *combine*, *work*
    and *payload* are :func:`allreduce_ring_steps`'s.
    """
    rank, tag = comm.rank, TAG_RSAG
    pof2, rem = _fold(comm.size)

    work[:] = payload
    nelems = len(work) // itemsize

    # Fold phase: odd ranks below 2*rem contribute and wait for the
    # final result.
    if rank < 2 * rem:
        if rank % 2:
            yield comm._isend_bytes(work, rank - 1, tag)
            return (yield from _recv(comm, rank - 1, tag, work))
        incoming = yield comm._irecv_bytes(rank + 1, tag)
        combine(work, incoming, work)
        core_rank = rank // 2
    else:
        core_rank = rank - rem

    # Recursive halving: each round splits the live segment, keeps the
    # half on this rank's side of the partner bit, and combines the
    # partner's contribution for that half.
    lo, hi = 0, nelems
    stack: list[tuple[int, int]] = []
    mask = pof2 >> 1
    while mask:
        partner_core = core_rank ^ mask
        partner = _core_to_world(partner_core, rem)
        mid = lo + (hi - lo) // 2
        if core_rank < partner_core:
            keep_lo, keep_hi, send_lo, send_hi = lo, mid, mid, hi
        else:
            keep_lo, keep_hi, send_lo, send_hi = mid, hi, lo, mid
        incoming = yield from _exchange(
            comm, work[send_lo * itemsize:send_hi * itemsize], partner,
            partner, tag)
        kept = work[keep_lo * itemsize:keep_hi * itemsize]
        if partner_core > core_rank:
            combine(kept, incoming, kept)
        else:
            combine(incoming, kept, kept)
        stack.append((lo, hi))
        lo, hi = keep_lo, keep_hi
        mask >>= 1

    # Recursive doubling allgather: pop the segment stack; at each
    # level the partner owns the complement of this rank's segment
    # within the recorded parent, so receiving it restores the parent.
    mask = 1
    while mask < pof2:
        partner = _core_to_world(core_rank ^ mask, rem)
        plo, phi = stack.pop()
        # The partner's half lands where it belongs: above this rank's
        # segment when it held the upper half, else below.
        theirs = (work[hi * itemsize:phi * itemsize] if lo == plo
                  else work[plo * itemsize:lo * itemsize])
        yield from _exchange(comm, work[lo * itemsize:hi * itemsize],
                             partner, partner, tag, theirs)
        lo, hi = plo, phi
        mask <<= 1

    # Unfold: ship the total to the folded-out odd ranks.
    if rank < 2 * rem:
        yield comm._isend_bytes(work, rank + 1, tag)
    return work


def bcast_ring_steps(comm: "Communicator", buf: "bytes | memoryview",
                     root: int, segment: int = BCAST_RING_SEGMENT):
    """Pipelined chain (ring) broadcast: the payload moves down the
    rank chain in *segment*-byte pieces, so every link carries each
    byte exactly once and the pipeline overlaps the hops — the
    bandwidth-optimal broadcast for long chains once the pipeline
    fills.

    The length ships first (:func:`_bcast_pieces`); segments are
    views of each rank's buffer, received in place and forwarded from
    there, every forward seen complete before the next.
    """
    _check_root(comm, root)
    size, rank = comm.size, comm.rank
    if size == 1:
        return buf
    segs = yield from _bcast_pieces(comm, buf, root, segment)
    vrank = (rank - root) % size
    nxt = (rank + 1) % size if vrank < size - 1 else None

    if vrank == 0:
        for seg in segs:
            yield comm._isend_bytes(seg, nxt, TAG_BCAST_RING)
        return buf
    # Pre-post every segment receive: same (src, tag) stream, so the
    # non-overtaking guarantee keeps segments in order.
    rreqs = [comm._irecv_bytes((rank - 1) % size, TAG_BCAST_RING, seg)
             for seg in segs]
    for seg, rreq in zip(segs, rreqs):
        yield rreq
        if nxt is not None:
            yield comm._isend_bytes(seg, nxt, TAG_BCAST_RING)
    return buf


def gather_steps(comm: "Communicator", data: bytes, root: int,
                 tag: int = TAG_GATHER, out: Optional[list] = None):
    """Linear gather of per-rank byte strings (root receives P-1, in
    rank order; None elsewhere).  *out*, at the root, may hold the
    writable view each rank's block is to land in."""
    _check_root(comm, root)
    if comm.rank != root:
        yield comm._isend_bytes(data, root, tag)
        return None
    out = out or [None] * comm.size
    out[root] = data
    for src in range(comm.size):
        if src != root:
            out[src] = yield from _recv(comm, src, tag, out[src])
    return out


def allgather_steps(comm: "Communicator", data: bytes,
                    tag: int = TAG_ALLGATHER, blocks: Optional[list] = None):
    """Ring allgather: P-1 steps, each forwarding one block.  *blocks*
    may hold the writable view each rank's block is to land in (and
    be forwarded from)."""
    size, rank = comm.size, comm.rank
    blocks = blocks or [None] * size
    blocks[rank] = data
    right = (rank + 1) % size
    left = (rank - 1) % size
    send_idx = rank
    for _ in range(size - 1):
        recv_idx = (send_idx - 1) % size
        blocks[recv_idx] = yield from _exchange(
            comm, blocks[send_idx], right, left, tag, blocks[recv_idx])
        send_idx = recv_idx
    return blocks


def scatter_steps(comm: "Communicator",
                  chunks: Optional[Sequence["bytes | memoryview"]],
                  root: int, tag: int = TAG_SCATTER,
                  into: Optional[memoryview] = None):
    """Linear scatter of per-rank byte chunks from the root (chunks
    may be zero-copy views; the root's own chunk is returned as-is,
    another rank's lands in *into* when given)."""
    _check_root(comm, root)
    size = comm.size
    if comm.rank != root:
        return (yield from _recv(comm, root, tag, into))
    if chunks is None or len(chunks) != size:
        raise MPIErrArg(
            f"scatter root needs exactly {size} chunks, got "
            f"{None if chunks is None else len(chunks)}")
    for dest in range(size):
        if dest != root:
            yield comm._isend_bytes(chunks[dest], dest, tag)
    return chunks[root]


def alltoall_steps(comm: "Communicator",
                   chunks: Sequence["bytes | memoryview"],
                   out: Optional[list] = None):
    """Pairwise-exchange alltoall (P-1 sendrecv rounds).  *out* may
    hold the writable view each rank's chunk is to land in."""
    size, rank = comm.size, comm.rank
    if len(chunks) != size:
        raise MPIErrArg(
            f"alltoall needs exactly {size} chunks, got {len(chunks)}")
    out = out or [None] * size
    out[rank] = chunks[rank]
    for step in range(1, size):
        dest = (rank + step) % size
        src = (rank - step) % size
        out[src] = yield from _exchange(comm, chunks[dest], dest, src,
                                        TAG_ALLTOALL, out[src])
    return out


def scan_steps(comm: "Communicator", payload: bytes, combine,
               inclusive: bool = True):
    """Linear-chain prefix reduction.

    Inclusive: rank i returns combine(payload_0..i).  Exclusive:
    rank i returns combine(payload_0..i-1); rank 0 returns None.
    """
    size, rank = comm.size, comm.rank
    prefix_below: Optional[bytes] = None
    if rank > 0:
        prefix_below = yield comm._irecv_bytes(rank - 1, TAG_SCAN)
    running = payload if prefix_below is None \
        else combine(prefix_below, payload)
    if rank < size - 1:
        yield comm._isend_bytes(running, rank + 1, TAG_SCAN)
    return running if inclusive else prefix_below


# ---------------------------------------------------------------------------
# lowercase: pickled Python objects (the ``*_obj_steps`` schedules are
# the ones the ``i*`` calls of repro.mpi.nbc return)
# ---------------------------------------------------------------------------

def _dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _combine_obj(op):
    """``combine(lower, higher)`` over pickled objects under *op*."""
    the_op = _reduction_op(op)

    def combine(lower: bytes, higher: bytes) -> bytes:
        return _dumps(the_op.combine_py(pickle.loads(lower),
                                        pickle.loads(higher)))
    return combine


def bcast_obj_steps(comm: "Communicator", obj: Any, root: int,
                    tag: int = TAG_BCAST):
    """Broadcast a Python object from *root*."""
    data = yield from bcast_steps(
        comm, _dumps(obj) if comm.rank == root else None, root, tag)
    return pickle.loads(data)


def allreduce_obj_steps(comm: "Communicator", obj: Any, op,
                        tag: int = TAG_REDUCE, bcast_tag: int = TAG_BCAST):
    """Allreduce Python objects (binomial reduce to 0, then binomial
    broadcast of the total)."""
    total = yield from reduce_steps(comm, _dumps(obj), 0, _combine_obj(op),
                                    tag)
    data = yield from bcast_steps(comm, total, 0, bcast_tag)
    return pickle.loads(data)


def gather_obj_steps(comm: "Communicator", obj: Any, root: int,
                     tag: int = TAG_GATHER):
    """Gather Python objects to *root* (None elsewhere)."""
    chunks = yield from gather_steps(comm, _dumps(obj), root, tag)
    if chunks is None:
        return None
    return [pickle.loads(c) for c in chunks]


def allgather_obj_steps(comm: "Communicator", obj: Any,
                        tag: int = TAG_ALLGATHER):
    """Allgather Python objects."""
    blocks = yield from allgather_steps(comm, _dumps(obj), tag)
    return [pickle.loads(c) for c in blocks]


def scatter_obj_steps(comm: "Communicator", objs: Optional[Sequence],
                      root: int, tag: int = TAG_SCATTER):
    """Scatter a per-rank list of Python objects from *root*."""
    chunks = None
    if comm.rank == root:
        if objs is None:
            raise MPIErrArg("scatter root must supply the object list")
        chunks = [_dumps(o) for o in objs]
    return pickle.loads((yield from scatter_steps(comm, chunks, root, tag)))


def bcast_obj(comm: "Communicator", obj: Any, root: int) -> Any:
    """Broadcast a Python object from *root*."""
    return run_schedule(comm, bcast_obj_steps(comm, obj, root))


def reduce_obj(comm: "Communicator", obj: Any, op, root: int) -> Any:
    """Reduce Python objects to *root* (None elsewhere)."""
    result = run_schedule(comm, reduce_steps(comm, _dumps(obj), root,
                                             _combine_obj(op)))
    return pickle.loads(result) if result is not None else None


def allreduce_obj(comm: "Communicator", obj: Any, op) -> Any:
    """Allreduce Python objects (reduce to 0, then broadcast)."""
    return run_schedule(comm, allreduce_obj_steps(comm, obj, op))


def gather_obj(comm: "Communicator", obj: Any,
               root: int) -> Optional[list]:
    """Gather Python objects to *root*."""
    return run_schedule(comm, gather_obj_steps(comm, obj, root))


def allgather_obj(comm: "Communicator", obj: Any) -> list:
    """Allgather Python objects."""
    return run_schedule(comm, allgather_obj_steps(comm, obj))


def scatter_obj(comm: "Communicator", objs: Optional[Sequence],
                root: int) -> Any:
    """Scatter a per-rank list of Python objects from *root*."""
    return run_schedule(comm, scatter_obj_steps(comm, objs, root))


def alltoall_obj(comm: "Communicator", objs: Sequence) -> list:
    """All-to-all personalized exchange of Python objects."""
    chunks = run_schedule(comm, alltoall_steps(comm,
                                               [_dumps(o) for o in objs]))
    return [pickle.loads(c) for c in chunks]


def reduce_scatter_block_obj(comm: "Communicator", objs: Sequence,
                             op) -> Any:
    """MPI_REDUCE_SCATTER_BLOCK over Python objects: each rank supplies
    one object per destination rank; rank i receives the op-reduction
    of everyone's i-th object."""
    if len(objs) != comm.size:
        raise MPIErrArg(
            f"reduce_scatter needs exactly {comm.size} objects, "
            f"got {len(objs)}")
    the_op = _reduction_op(op)

    def combine(lower: bytes, higher: bytes) -> bytes:
        a, b = pickle.loads(lower), pickle.loads(higher)
        return _dumps([the_op.combine_py(x, y) for x, y in zip(a, b)])

    reduced = run_schedule(comm, reduce_steps(comm, _dumps(list(objs)), 0,
                                              combine))
    chunks = None
    if comm.rank == 0:
        chunks = [_dumps(item) for item in pickle.loads(reduced)]
    return pickle.loads(run_schedule(comm, scatter_steps(comm, chunks, 0)))


def scan_obj(comm: "Communicator", obj: Any, op) -> Any:
    """Inclusive prefix reduction of Python objects."""
    return pickle.loads(run_schedule(
        comm, scan_steps(comm, _dumps(obj), _combine_obj(op))))


def exscan_obj(comm: "Communicator", obj: Any, op) -> Any:
    """Exclusive prefix reduction (None on rank 0)."""
    result = run_schedule(comm, scan_steps(comm, _dumps(obj),
                                           _combine_obj(op), inclusive=False))
    return pickle.loads(result) if result is not None else None


# ---------------------------------------------------------------------------
# capitalized: numpy buffers
# ---------------------------------------------------------------------------

def _as_contig(array: np.ndarray, what: str) -> np.ndarray:
    if not isinstance(array, np.ndarray):
        raise MPIErrArg(f"{what} must be a numpy array")
    if not array.flags.c_contiguous:
        raise MPIErrArg(f"{what} must be C-contiguous")
    return array


def _flat(array: np.ndarray) -> memoryview:
    """The bytes of a contiguous array, as a borrowed view."""
    return array.view(np.uint8).reshape(-1).data


def _blocks(array: np.ndarray, nblocks: int) -> list[memoryview]:
    """*array*'s bytes as *nblocks* equal borrowed views."""
    flat, blk = _flat(array), array.nbytes // nblocks
    return [flat[i * blk:(i + 1) * blk] for i in range(nblocks)]


def _same_dtype(what: str, send: np.ndarray, recv: np.ndarray) -> None:
    """A reduction neither reinterprets nor casts: refused before any
    message is posted."""
    if recv.dtype != send.dtype:
        raise MPIErrArg(f"{what}: sendbuf holds {send.dtype} but recvbuf "
                        f"holds {recv.dtype}")


def allreduce_reduce_bcast_steps(comm: "Communicator",
                                 payload: "bytes | memoryview", combine,
                                 work: memoryview, itemsize: int = 1):
    """Reduce + broadcast allreduce: the binomial reduction onto rank
    0, then the broadcast selected for the size — bandwidth-friendlier
    trees than recursive doubling's for large payloads.  *work* is
    the buffer the total is broadcast from and into."""
    total = yield from reduce_steps(comm, payload, 0, combine)
    if comm.rank == 0 and total is not work:
        work[:] = total    # P = 1, or a combine that reduces elsewhere
    return (yield from BCAST_ALGORITHMS[
        CollPlan.select("bcast", len(payload))](comm, work, 0))


#: ``Bcast(algorithm=...)``: name -> schedule(comm, payload, root).
BCAST_ALGORITHMS = {
    "binomial": bcast_steps,
    "scatter_allgather": bcast_scatter_allgather_steps,
    "ring": bcast_ring_steps,
}

#: ``Allreduce(algorithm=...)``: name -> schedule(comm, payload,
#: combine, work, itemsize).
ALLREDUCE_ALGORITHMS = {
    "reduce_bcast": allreduce_reduce_bcast_steps,
    "recursive_doubling": recursive_doubling_steps,
    "ring": allreduce_ring_steps,
    "reduce_scatter_allgather": allreduce_reduce_scatter_allgather_steps,
}


class CollPlan:
    """What the shape of one buffer collective fixes on a communicator,
    resolved on its first use and cached on the handle
    (``Communicator._coll_plans``, beside the pt2pt call plans;
    dropped by ``free``).

    The key — ``(collective, algorithm, nbytes, dtype, op, routed)`` —
    and the communicator decide ``route`` (the topology-aware
    composition of :mod:`repro.mpi.hier` that a *routed* call — one
    made through the ``Communicator`` method, not by a composition's
    own phases — goes through under the communicator's strategy, else
    None), ``algorithm`` (forced by name or selected by size) and
    ``op`` (the checked reduction operator).  The plan owns
    the ``scratch`` a rank with no receive buffer reduces into: one
    payload at most.

    A plan also stands in for its communicator inside a schedule: same
    ``size`` and ``rank``, and the two internal-message primitives,
    which keep one prebuilt ``SendOp`` / ``RecvOp`` per ``(peer, tag)``
    with its :class:`~repro.core.ops.CallPlan` attached.  Per message
    they point the op at the bytes and hand it to the communicator's
    ``_issue``, which charges the plan's path (the persistent-request
    trick) and runs the device's one send body or one post — after the
    seam's communicator check on a build that has one (a fault
    build's) — so the device's hooks (the sanitizer, the VCI lanes)
    see every message: the same messages and the same
    charges as the communicator's own primitives, which build the op
    and look the plan up every time.  Two kinds of schedule use those:
    the nonblocking collectives, since their concurrent schedules
    cannot share one op, and the pickled ``*_obj`` collectives, whose
    payload size, and so whose plan key, changes per call.
    """

    __slots__ = ("comm", "proc", "size", "rank", "nbytes", "dtype", "op",
                 "route", "algorithm", "_scratch", "_sends", "_recvs")

    #: Per collective with algorithms to choose from: its table, the
    #: payload size up to which the first of the two names that follow
    #: is selected (MPICH-style), and the name the ``naive`` strategy
    #: forces.
    SELECTION = {
        "bcast": (BCAST_ALGORITHMS, BCAST_BINOMIAL_MAX_BYTES,
                  "binomial", "scatter_allgather", "binomial"),
        "allreduce": (ALLREDUCE_ALGORITHMS, ALLREDUCE_RECDOUBLE_MAX_BYTES,
                      "recursive_doubling", "reduce_bcast", "reduce_bcast"),
    }

    @classmethod
    def select(cls, kind: str, nbytes: int, algorithm: Optional[str] = None,
               naive: bool = False) -> str:
        """The *kind* schedule to run: *algorithm* if named (and known),
        else the ``naive`` strategy's, else the one selected by size."""
        table, max_bytes, small, large, forced = cls.SELECTION[kind]
        if algorithm is None:
            algorithm = (forced if naive
                         else small if nbytes <= max_bytes else large)
        if algorithm not in table:
            raise MPIErrArg(f"unknown {kind} algorithm {algorithm!r} "
                            f"(one of {', '.join(table)})")
        return algorithm

    def __init__(self, comm: "Communicator", kind: str,
                 algorithm: Optional[str], nbytes: int, dtype, op,
                 routed: bool):
        self.comm, self.proc = comm, comm.proc
        self.size, self.rank = comm.size, comm.rank
        self.nbytes, self.dtype = nbytes, dtype
        self.op = None if dtype is None else _reduction_op(op)
        self.route = self._scratch = None
        self._sends: dict = {}
        self._recvs: dict = {}
        naive = False
        if routed and algorithm is None:
            from repro.mpi import hier
            self.route = hier.route(comm, kind)
            naive = comm.collective_strategy() == "naive"
        self.algorithm = kind in self.SELECTION and self.select(
            kind, nbytes, algorithm, naive)

    @classmethod
    def of(cls, comm: "Communicator", kind: str, nbytes: int, dtype=None,
           op=None, algorithm: Optional[str] = None,
           routed: bool = False) -> "CollPlan":
        """The plan of this call shape on *comm*: what its schedule
        sends and receives through."""
        key = (kind, algorithm, nbytes, dtype, op, routed)
        plan = comm._coll_plans.get(key)
        if plan is None:
            plan = comm._coll_plans[key] = cls(comm, *key)
        return plan

    @property
    def scratch(self) -> memoryview:
        """The plan-owned accumulator (allocated on first use)."""
        if self._scratch is None:
            self._scratch = np.empty(self.nbytes, np.uint8).data
        return self._scratch

    def combine(self, acc: memoryview):
        """``combine(lower, higher[, out])`` over the bytes of this
        plan's dtype: its elementwise op with ``out=`` the accumulator
        *acc* (or the chunk of it a schedule names), which may be
        either operand.  Allocates nothing; returns *out*, the payload
        to carry forward."""
        op, dtype = self.op, self.dtype

        def combine(lower, higher, out=acc):
            op(np.frombuffer(lower, dtype), np.frombuffer(higher, dtype),
               np.frombuffer(out, dtype))
            return out
        return combine

    def _isend_bytes(self, data: "bytes | memoryview", dest: int,
                     tag: int) -> "Request":
        op = self._sends.get((dest, tag))
        if op is None:
            op = self._sends[dest, tag] = SendOp(None, 0, BYTE_REF, dest,
                                                 tag, self.comm)
            op.plan = self.comm._call_plan(op, False, dest)
        op.buf, op.count = data, len(data)
        request = self.comm._issue(self.proc.device.isend, op)
        op.buf = None       # a plan pins nobody's memory between calls
        return request

    def _irecv_bytes(self, source: int, tag: int,
                     into: Optional[memoryview] = None) -> "Request":
        op = self._recvs.get((source, tag))
        if op is None:
            op = self._recvs[source, tag] = RecvOp(None, 0, BYTE_REF, source,
                                                   tag, self.comm)
            op.plan = self.comm._call_plan(op, RECV_PLAN, source)
        op.buf, op.count = into, 0 if into is None else len(into)
        request = self.comm._issue(self.proc.device.irecv, op)
        op.buf = None       # the posted descriptor holds the view now
        return request


def bcast_buf(comm: "Communicator", array: np.ndarray, root: int,
              algorithm: Optional[str] = None, routed: bool = False) -> None:
    """Broadcast a numpy buffer in place, selecting the binomial tree
    for small payloads and scatter+allgather (van de Geijn) beyond
    :data:`BCAST_BINOMIAL_MAX_BYTES`; *algorithm* forces
    ``"binomial"``, ``"scatter_allgather"``, or ``"ring"`` (the
    pipelined chain)."""
    arr = _as_contig(array, "bcast buffer")
    plan = CollPlan.of(comm, "bcast", arr.nbytes, algorithm=algorithm,
                       routed=routed)
    if plan.route is not None:
        return plan.route(comm, arr, root)
    # The root's buffer goes out as a borrow (every forward is seen
    # complete, the matching engine owns any unexpected copy); every
    # other rank receives into its own.
    run_schedule(comm, BCAST_ALGORITHMS[plan.algorithm](plan, _flat(arr),
                                                        root))


def reduce_buf(comm: "Communicator", sendbuf: np.ndarray,
               recvbuf: Optional[np.ndarray], op, root: int,
               routed: bool = False) -> None:
    """Reduce numpy buffers elementwise into *recvbuf* at *root*."""
    send = _as_contig(sendbuf, "reduce sendbuf")
    recv = None
    if comm.rank == root:
        if recvbuf is None:
            raise MPIErrArg("reduce root needs a recvbuf")
        recv = _as_contig(recvbuf, "reduce recvbuf")
        if recv.nbytes != send.nbytes:
            raise MPIErrArg(f"recvbuf holds {recv.nbytes} bytes, the "
                            f"reduction produces {send.nbytes}")
        _same_dtype("reduce", send, recv)
    plan = CollPlan.of(comm, "reduce", send.nbytes, send.dtype, op,
                       routed=routed)
    if plan.route is not None:
        return plan.route(comm, send, recv, op, root)
    acc = plan.scratch if recv is None else _flat(recv)
    result = run_schedule(comm, reduce_steps(plan, _flat(send), root,
                                             plan.combine(acc)))
    if recv is not None and result is not acc:
        acc[:] = result


def allreduce_buf(comm: "Communicator", sendbuf: np.ndarray,
                  recvbuf: np.ndarray, op,
                  algorithm: Optional[str] = None,
                  routed: bool = False) -> None:
    """Allreduce numpy buffers with MPICH-style algorithm selection:
    recursive doubling for small payloads, reduce+broadcast beyond
    :data:`ALLREDUCE_RECDOUBLE_MAX_BYTES`.  *algorithm* forces
    ``"recursive_doubling"``, ``"reduce_bcast"``, ``"ring"``, or
    ``"reduce_scatter_allgather"`` (Rabenseifner).  Every algorithm
    reduces into *recvbuf*, which may therefore be *sendbuf*."""
    send = _as_contig(sendbuf, "allreduce sendbuf")
    recv = _as_contig(recvbuf, "allreduce recvbuf")
    if recv.nbytes != send.nbytes:
        raise MPIErrArg("allreduce buffers must have equal byte size")
    _same_dtype("allreduce", send, recv)
    plan = CollPlan.of(comm, "allreduce", send.nbytes, send.dtype, op,
                       algorithm, routed)
    if plan.route is not None:
        return plan.route(comm, send, recv, op)
    acc = _flat(recv)
    result = run_schedule(comm, ALLREDUCE_ALGORITHMS[plan.algorithm](
        plan, _flat(send), plan.combine(acc), acc, send.dtype.itemsize))
    if result is not acc:
        acc[:] = result


def allgather_buf(comm: "Communicator", sendbuf: np.ndarray,
                  recvbuf: np.ndarray) -> None:
    """Allgather equal-size blocks: recvbuf holds P x sendbuf."""
    send = _as_contig(sendbuf, "allgather sendbuf")
    recv = _as_contig(recvbuf, "allgather recvbuf")
    if recv.nbytes != send.nbytes * comm.size:
        raise MPIErrArg(
            f"allgather recvbuf must hold {comm.size} blocks of "
            f"{send.nbytes} bytes, has {recv.nbytes}")
    plan = CollPlan.of(comm, "allgather", send.nbytes)
    # Blocks land in their slice of recvbuf and are forwarded from it;
    # this rank's own goes out as a borrow of sendbuf.
    blocks = _blocks(recv, comm.size)
    blocks[comm.rank][:] = payload = _flat(send)
    run_schedule(comm, allgather_steps(plan, payload, blocks=blocks))


def gather_buf(comm: "Communicator", sendbuf: np.ndarray,
               recvbuf: Optional[np.ndarray], root: int) -> None:
    """MPI_GATHER of equal-size numpy blocks into *recvbuf* at root."""
    send = _as_contig(sendbuf, "gather sendbuf")
    payload, out = _flat(send), None
    if comm.rank == root:
        if recvbuf is None:
            raise MPIErrArg("gather root needs a recvbuf")
        recv = _as_contig(recvbuf, "gather recvbuf")
        if recv.nbytes != send.nbytes * comm.size:
            raise MPIErrArg(
                f"gather recvbuf must hold {comm.size} blocks of "
                f"{send.nbytes} bytes, has {recv.nbytes}")
        out = _blocks(recv, comm.size)
        out[root][:] = payload
    plan = CollPlan.of(comm, "gather", send.nbytes)
    run_schedule(comm, gather_steps(plan, payload, root, out=out))


def scatter_buf(comm: "Communicator", sendbuf: Optional[np.ndarray],
                recvbuf: np.ndarray, root: int) -> None:
    """MPI_SCATTER of equal-size numpy blocks from *sendbuf* at root."""
    recv = _as_contig(recvbuf, "scatter recvbuf")
    chunks = None
    if comm.rank == root:
        if sendbuf is None:
            raise MPIErrArg("scatter root needs a sendbuf")
        send = _as_contig(sendbuf, "scatter sendbuf")
        if send.nbytes != recv.nbytes * comm.size:
            raise MPIErrArg(
                f"scatter sendbuf must hold {comm.size} blocks of "
                f"{recv.nbytes} bytes, has {send.nbytes}")
        chunks = _blocks(send, comm.size)
    _scatter_into(comm, chunks, recv, root)


def _scatter_into(comm: "Communicator", chunks: Optional[list],
                  recv: np.ndarray, root: int) -> None:
    """Scatter the root's *chunks*, each rank's straight into *recv*
    (the root copies its own)."""
    plan = CollPlan.of(comm, "scatter", recv.nbytes)
    into = _flat(recv)
    block = run_schedule(comm, scatter_steps(plan, chunks, root, into=into))
    if block is not into:
        into[:] = block


def reduce_scatter_block_buf(comm: "Communicator", sendbuf: np.ndarray,
                             recvbuf: np.ndarray, op) -> None:
    """MPI_REDUCE_SCATTER_BLOCK: reduce P equal blocks elementwise and
    scatter block i to rank i (reduce-to-root + scatter)."""
    send = _as_contig(sendbuf, "reduce_scatter sendbuf")
    recv = _as_contig(recvbuf, "reduce_scatter recvbuf")
    if send.nbytes != recv.nbytes * comm.size:
        raise MPIErrArg(
            f"reduce_scatter sendbuf must hold {comm.size} blocks of "
            f"{recv.nbytes} bytes, has {send.nbytes}")
    _same_dtype("reduce_scatter", send, recv)
    plan = CollPlan.of(comm, "reduce_scatter_block", send.nbytes,
                       send.dtype, op)
    # No rank's recvbuf holds P blocks: the tree reduces into scratch.
    reduced = run_schedule(comm, reduce_steps(plan, _flat(send), 0,
                                             plan.combine(plan.scratch)))
    chunks = None
    if comm.rank == 0:
        # Views of the scratch (at P=1, of the sendbuf borrow itself).
        blk = recv.nbytes
        chunks = [reduced[i * blk:(i + 1) * blk] for i in range(comm.size)]
    _scatter_into(comm, chunks, recv, 0)


def scan_buf(comm: "Communicator", sendbuf: np.ndarray,
             recvbuf: np.ndarray, op) -> None:
    """MPI_SCAN of numpy buffers (inclusive prefix)."""
    send = _as_contig(sendbuf, "scan sendbuf")
    recv = _as_contig(recvbuf, "scan recvbuf")
    if send.nbytes != recv.nbytes:
        raise MPIErrArg("scan buffers must match in size")
    _same_dtype("scan", send, recv)
    plan = CollPlan.of(comm, "scan", send.nbytes, send.dtype, op)
    acc = _flat(recv)
    result = run_schedule(comm, scan_steps(plan, _flat(send),
                                           plan.combine(acc)))
    if result is not acc:     # rank 0: its own contribution
        acc[:] = result


def alltoall_buf(comm: "Communicator", sendbuf: np.ndarray,
                 recvbuf: np.ndarray) -> None:
    """Alltoall of equal-size blocks (sendbuf/recvbuf hold P blocks)."""
    send = _as_contig(sendbuf, "alltoall sendbuf")
    recv = _as_contig(recvbuf, "alltoall recvbuf")
    if send.nbytes != recv.nbytes:
        raise MPIErrArg("alltoall buffers must have equal byte size")
    if send.nbytes % comm.size:
        raise MPIErrArg(
            f"alltoall buffer of {send.nbytes} bytes does not split into "
            f"{comm.size} blocks")
    plan = CollPlan.of(comm, "alltoall", send.nbytes)
    # Views of both buffers: each round is seen complete before the
    # next, and each chunk lands in its slice of recvbuf.
    chunks, out = _blocks(send, comm.size), _blocks(recv, comm.size)
    out[comm.rank][:] = chunks[comm.rank]
    run_schedule(comm, alltoall_steps(plan, chunks, out))
