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
payload) or a send (``yield comm._isend_bytes(data, dest, tag)``) —
composes sub-schedules with ``yield from`` and returns its result.  A
schedule never waits and never releases: its driver waits on the
yielded request, returns the handle to the rank's pool and resumes the
schedule with the payload.  :func:`run_schedule` is the driver under
every blocking entry point; :class:`repro.mpi.nbc.NBCRequest` drives
the same schedules for the ``i*`` calls, from ``test``/``wait`` or from
the progress engine.  Sends are yielded, not waited on in the schedule,
for that second driver: under a progress engine a rendezvous send is
retired by the progress thread — the thread that resumes a nonblocking
schedule — which must never park on a completion only it can retire.
A request posted but not yet yielded (the receive half of an exchange)
stays in flight meanwhile.

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

from repro.errors import MPIErrArg, MPIErrRank
from repro.mpi import reduceops

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Communicator

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


def _op_or_sum(op) -> reduceops.Op:
    return op if op is not None else reduceops.SUM


def run_schedule(comm: "Communicator", steps) -> Any:
    """Drive the schedule *steps* to completion on the calling thread:
    wait on each request it yields, recycle the handle, resume it with
    the payload; returns what the schedule returns.  The one place a
    blocking collective waits."""
    release = comm.proc.request_pool.release
    try:
        req = next(steps)
        while True:
            req.wait()
            data = req.payload if req.payload is not None else b""
            release(req)
            req = steps.send(data)
    except StopIteration as stop:
        return stop.value


# ---------------------------------------------------------------------------
# byte-level schedules
# ---------------------------------------------------------------------------

def _exchange(comm: "Communicator", data: "bytes | memoryview", dest: int,
              source: int, tag: int):
    """One sendrecv round: the receive is posted before the send is
    yielded, so a ring of rendezvous sends cannot deadlock."""
    rreq = comm._irecv_bytes(source, tag)
    yield comm._isend_bytes(data, dest, tag)
    return (yield rreq)


def barrier_steps(comm: "Communicator", tag: int = TAG_BARRIER):
    """Dissemination barrier: ceil(log2(P)) rounds of sendrecv."""
    size, rank = comm.size, comm.rank
    k = 1
    while k < size:
        yield from _exchange(comm, b"", (rank + k) % size,
                             (rank - k) % size, tag)
        k <<= 1


def barrier(comm: "Communicator") -> None:
    """MPI_BARRIER."""
    run_schedule(comm, barrier_steps(comm))


def bcast_steps(comm: "Communicator",
                data: Optional["bytes | memoryview"],
                root: int, tag: int = TAG_BCAST):
    """Binomial-tree broadcast of a byte string (the root may pass a
    zero-copy view, which it also gets back)."""
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
            data = yield comm._irecv_bytes((rank - mask) % size, tag)
            break
        mask <<= 1
    if data is None:
        data = b""

    # Send phase: forward to every lower bit position.
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            yield comm._isend_bytes(data, (rank + mask) % size, tag)
        mask >>= 1
    return data


def _bcast_length(comm: "Communicator",
                  data: Optional["bytes | memoryview"], root: int):
    """Ship the root's payload length on the binomial tree (one tiny
    message per edge): the segmented broadcasts size their pieces by
    it."""
    nbytes = yield from bcast_steps(
        comm, str(len(data)).encode() if comm.rank == root else None, root)
    return int(nbytes)


def bcast_scatter_allgather_steps(comm: "Communicator",
                                  data: Optional["bytes | memoryview"],
                                  root: int):
    """Van de Geijn broadcast: scatter P near-equal chunks from the
    root, then ring-allgather them — the bandwidth-optimal large-
    message algorithm MPICH selects above its binomial threshold."""
    _check_root(comm, root)
    size = comm.size
    if size == 1:
        return data if data is not None else b""
    total = yield from _bcast_length(comm, data, root)
    chunk = -(-total // size) if total else 0

    chunks = None
    if comm.rank == root:
        # Slice through a memoryview: chunking P ways stays zero-copy
        # whether the payload arrived as bytes or as a buffer view
        # (slicing a bytes object would copy every chunk).
        view = memoryview(data)
        chunks = [view[i * chunk:(i + 1) * chunk] for i in range(size)]
    mine = yield from scatter_steps(comm, chunks, root)
    # Ring allgather of the chunks, then reassemble in rank order.
    pieces = yield from allgather_steps(comm, mine)
    return b"".join(pieces)[:total]


def reduce_steps(comm: "Communicator", payload: bytes, root: int,
                 combine, tag: int = TAG_REDUCE):
    """Binomial-tree reduction of byte payloads (None off the root).

    *combine(lower, higher)* merges two payloads, with *lower* coming
    from the smaller virtual rank — giving canonical rank ordering so
    non-commutative combines behave deterministically.
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


def recursive_doubling_steps(comm: "Communicator", payload: bytes, combine):
    """Recursive-doubling allreduce: ceil(log2 P) rounds, every rank
    finishing with the full reduction — the latency-optimal algorithm
    MPICH selects for small messages.  Non-power-of-two sizes use the
    :func:`_fold`.

    *combine(lower, higher)* must be associative and commutative over
    payload bytes (true for all the numpy elementwise ops used here).
    """
    rank, tag = comm.rank, TAG_RECDOUBLE
    pof2, rem = _fold(comm.size)
    result = payload
    if rank < 2 * rem:
        if rank % 2:   # odd: contribute and wait for the final result
            yield comm._isend_bytes(result, rank - 1, tag)
            return (yield comm._irecv_bytes(rank - 1, tag))
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


def allreduce_recursive_doubling(comm: "Communicator", payload: bytes,
                                 combine) -> bytes:
    """Blocking :func:`recursive_doubling_steps`."""
    return run_schedule(comm,
                        recursive_doubling_steps(comm, payload, combine))


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
                         payload: "bytes | memoryview",
                         combine, itemsize: int = 1):
    """Ring allreduce: a P-1-step reduce-scatter of P near-equal chunks
    followed by a P-1-step ring allgather — the bandwidth-optimal
    algorithm (each rank moves ``2 m (P-1)/P`` bytes total, Baidu/NCCL
    style) at the cost of 2(P-1) latency terms.

    Chunk boundaries are aligned to *itemsize* so *combine* always sees
    whole elements.  *combine* must be associative **and** commutative
    (chunk c accumulates contributions in ring-arrival order, not rank
    order) — true for every numpy elementwise op used here.

    *payload* may be a zero-copy borrow: it is copied once into the
    working accumulator at entry and never referenced again.
    """
    size, rank = comm.size, comm.rank
    nelems = len(payload) // itemsize
    bounds = [(lo * itemsize, hi * itemsize)
              for lo, hi in _chunk_bounds(nelems, size)]
    # One owned working copy; every round stages chunks as views of it.
    # The driver sees each yielded send complete before the schedule
    # resumes (delivery unpacks on the sending thread, unexpected
    # arrivals are owned by the engine), so mutating a *different*
    # chunk after each send is safe.  The entry copy is the algorithm's
    # accumulator — required in-place combine target, not avoidable
    # staging.
    work = bytearray(payload)  # bufcheck: ignore[BC504]
    wv = memoryview(work)
    right = (rank + 1) % size
    left = (rank - 1) % size

    # Reduce-scatter phase: step s sends chunk (rank-s) right and
    # combines the incoming partial into chunk (rank-s-1).  After P-1
    # steps rank r owns the fully reduced chunk (r+1) % P.
    for step in range(size - 1):
        slo, shi = bounds[(rank - step) % size]
        rlo, rhi = bounds[(rank - step - 1) % size]
        incoming = yield from _exchange(comm, wv[slo:shi], right, left,
                                        TAG_RING_RS)
        wv[rlo:rhi] = combine(wv[rlo:rhi], incoming)

    # Allgather phase: circulate the reduced chunks the rest of the way
    # around the ring.
    for step in range(size - 1):
        slo, shi = bounds[(rank + 1 - step) % size]
        rlo, rhi = bounds[(rank - step) % size]
        wv[rlo:rhi] = yield from _exchange(comm, wv[slo:shi], right, left,
                                           TAG_RING_AG)
    return work


def allreduce_reduce_scatter_allgather_steps(comm: "Communicator",
                                             payload: "bytes | memoryview",
                                             combine, itemsize: int = 1):
    """Rabenseifner allreduce: recursive-halving reduce-scatter then
    recursive-doubling allgather — log P latency terms with the ring's
    ``2 m (P-1)/P`` bandwidth, the algorithm MPICH selects for large
    reductions.

    Non-power-of-two sizes use the :func:`_fold`.  Each halving round
    records its parent segment on a stack; the doubling rounds pop it
    back — the partner at every level holds exactly the complement
    half, so no segment metadata crosses the wire.  *combine* must be
    associative and commutative, and *payload* may be a zero-copy
    borrow (copied once at entry).
    """
    rank, tag = comm.rank, TAG_RSAG
    pof2, rem = _fold(comm.size)

    # Owned accumulator (see allreduce_ring_steps): one entry copy by
    # design.
    work = bytearray(payload)  # bufcheck: ignore[BC504]
    wv = memoryview(work)
    nelems = len(work) // itemsize

    # Fold phase: odd ranks below 2*rem contribute and wait for the
    # final result.
    if rank < 2 * rem:
        if rank % 2:
            yield comm._isend_bytes(wv, rank - 1, tag)
            return (yield comm._irecv_bytes(rank - 1, tag))
        incoming = yield comm._irecv_bytes(rank + 1, tag)
        wv[:] = combine(wv, incoming)
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
            comm, wv[send_lo * itemsize:send_hi * itemsize], partner,
            partner, tag)
        kept = wv[keep_lo * itemsize:keep_hi * itemsize]
        if partner_core > core_rank:
            merged = combine(kept, incoming)
        else:
            merged = combine(incoming, kept)
        wv[keep_lo * itemsize:keep_hi * itemsize] = merged
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
        incoming = yield from _exchange(
            comm, wv[lo * itemsize:hi * itemsize], partner, partner, tag)
        if lo == plo:          # partner held the upper half
            wv[hi * itemsize:phi * itemsize] = incoming
        else:                  # partner held the lower half
            wv[plo * itemsize:lo * itemsize] = incoming
        lo, hi = plo, phi
        mask <<= 1

    # Unfold: ship the total to the folded-out odd ranks.
    if rank < 2 * rem:
        yield comm._isend_bytes(wv, rank + 1, tag)
    return work


def bcast_ring_steps(comm: "Communicator",
                     data: Optional["bytes | memoryview"],
                     root: int,
                     segment: int = BCAST_RING_SEGMENT):
    """Pipelined chain (ring) broadcast: the payload moves down the
    rank chain in *segment*-byte pieces, so every link carries each
    byte exactly once and the pipeline overlaps the hops — the
    bandwidth-optimal broadcast for long chains once the pipeline
    fills.

    The total length ships first (:func:`_bcast_length`).  The root's
    payload may be a zero-copy borrow: segments are sliced as views and
    every forward is seen complete before the next.
    """
    _check_root(comm, root)
    size, rank = comm.size, comm.rank
    if size == 1:
        return data if data is not None else b""
    total = yield from _bcast_length(comm, data, root)
    vrank = (rank - root) % size
    nxt = (rank + 1) % size if vrank < size - 1 else None
    prev = (rank - 1) % size
    nseg = max(1, -(-total // segment))

    if vrank == 0:
        view = memoryview(data)
        for i in range(nseg):
            yield comm._isend_bytes(view[i * segment:(i + 1) * segment],
                                    nxt, TAG_BCAST_RING)
        return data
    out = bytearray(total)
    ov = memoryview(out)
    # Pre-post every segment receive: same (src, tag) stream, so the
    # non-overtaking guarantee keeps segments in order.
    rreqs = [comm._irecv_bytes(prev, TAG_BCAST_RING) for _ in range(nseg)]
    for i, rreq in enumerate(rreqs):
        seg = yield rreq
        ov[i * segment:i * segment + len(seg)] = seg
        if nxt is not None:
            yield comm._isend_bytes(seg, nxt, TAG_BCAST_RING)
    return out


def gather_steps(comm: "Communicator", data: bytes, root: int,
                 tag: int = TAG_GATHER):
    """Linear gather of per-rank byte strings (root receives P-1, in
    rank order; None elsewhere)."""
    _check_root(comm, root)
    if comm.rank != root:
        yield comm._isend_bytes(data, root, tag)
        return None
    out: list[Optional[bytes]] = [None] * comm.size
    out[root] = data
    for src in range(comm.size):
        if src != root:
            out[src] = yield comm._irecv_bytes(src, tag)
    return out


def allgather_steps(comm: "Communicator", data: bytes,
                    tag: int = TAG_ALLGATHER):
    """Ring allgather: P-1 steps, each forwarding one block."""
    size, rank = comm.size, comm.rank
    blocks: list[Optional[bytes]] = [None] * size
    blocks[rank] = data
    right = (rank + 1) % size
    left = (rank - 1) % size
    send_idx = rank
    for _ in range(size - 1):
        incoming = yield from _exchange(comm, blocks[send_idx], right,
                                        left, tag)
        send_idx = (send_idx - 1) % size
        blocks[send_idx] = incoming
    return blocks


def scatter_steps(comm: "Communicator",
                  chunks: Optional[Sequence["bytes | memoryview"]],
                  root: int, tag: int = TAG_SCATTER):
    """Linear scatter of per-rank byte chunks from the root (chunks
    may be zero-copy views; the root's own chunk is returned as-is)."""
    _check_root(comm, root)
    size = comm.size
    if comm.rank != root:
        return (yield comm._irecv_bytes(root, tag))
    if chunks is None or len(chunks) != size:
        raise MPIErrArg(
            f"scatter root needs exactly {size} chunks, got "
            f"{None if chunks is None else len(chunks)}")
    for dest in range(size):
        if dest != root:
            yield comm._isend_bytes(chunks[dest], dest, tag)
    return chunks[root]


def alltoall_steps(comm: "Communicator",
                   chunks: Sequence["bytes | memoryview"]):
    """Pairwise-exchange alltoall (P-1 sendrecv rounds)."""
    size, rank = comm.size, comm.rank
    if len(chunks) != size:
        raise MPIErrArg(
            f"alltoall needs exactly {size} chunks, got {len(chunks)}")
    out: list[Optional[bytes]] = [None] * size
    out[rank] = chunks[rank]
    for step in range(1, size):
        dest = (rank + step) % size
        src = (rank - step) % size
        out[src] = yield from _exchange(comm, chunks[dest], dest, src,
                                        TAG_ALLTOALL)
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
    the_op = _op_or_sum(op)

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
    the_op = _op_or_sum(op)

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


def _combine_arrays(op, dtype):
    """``combine(lower, higher)`` over the bytes of *dtype* arrays,
    elementwise under *op*."""
    the_op = _op_or_sum(op)

    def combine(lower: bytes, higher: bytes) -> bytes:
        a = np.frombuffer(lower, dtype=dtype)
        b = np.frombuffer(higher, dtype=dtype)
        return the_op.combine_arrays(a, b).tobytes()
    return combine


#: ``Bcast(algorithm=...)``: name -> schedule(comm, payload, root).
BCAST_ALGORITHMS = {
    "binomial": bcast_steps,
    "scatter_allgather": bcast_scatter_allgather_steps,
    "ring": bcast_ring_steps,
}

#: ``Allreduce(algorithm=...)``: name -> byte-level schedule.
#: ``reduce_bcast`` has none of its own — it composes reduce_buf and
#: bcast_buf, each half selecting its algorithm by size.
ALLREDUCE_ALGORITHMS = {
    "reduce_bcast": None,
    "recursive_doubling": recursive_doubling_steps,
    "ring": allreduce_ring_steps,
    "reduce_scatter_allgather": allreduce_reduce_scatter_allgather_steps,
}


def _check_algorithm(what: str, algorithm: str, table: dict) -> None:
    if algorithm not in table:
        raise MPIErrArg(f"unknown {what} algorithm {algorithm!r} "
                        f"(one of {', '.join(table)})")


def bcast_buf(comm: "Communicator", array: np.ndarray, root: int,
              algorithm: Optional[str] = None) -> None:
    """Broadcast a numpy buffer in place, selecting the binomial tree
    for small payloads and scatter+allgather (van de Geijn) beyond
    :data:`BCAST_BINOMIAL_MAX_BYTES`; *algorithm* forces
    ``"binomial"``, ``"scatter_allgather"``, or ``"ring"`` (the
    pipelined chain)."""
    arr = _as_contig(array, "bcast buffer")
    if algorithm is None:
        algorithm = ("binomial" if arr.nbytes <= BCAST_BINOMIAL_MAX_BYTES
                     else "scatter_allgather")
    _check_algorithm("bcast", algorithm, BCAST_ALGORITHMS)
    # The root's payload is a borrow of the user buffer: every forward
    # on the tree is seen complete before the call returns, and the
    # matching engine owns any unexpected copy, so no materialization
    # is needed.
    payload = (arr.view(np.uint8).reshape(-1).data
               if comm.rank == root else None)
    data = run_schedule(comm,
                        BCAST_ALGORITHMS[algorithm](comm, payload, root))
    if comm.rank != root:
        if len(data) != arr.nbytes:
            raise MPIErrArg(
                f"bcast buffer is {arr.nbytes} bytes on rank {comm.rank} "
                f"but the root sent {len(data)}")
        arr.view(np.uint8).reshape(-1)[:] = np.frombuffer(data, np.uint8)


def reduce_buf(comm: "Communicator", sendbuf: np.ndarray,
               recvbuf: Optional[np.ndarray], op, root: int) -> None:
    """Reduce numpy buffers elementwise into *recvbuf* at *root*."""
    send = _as_contig(sendbuf, "reduce sendbuf")
    # Snapshot once up front: the binomial tree holds the running
    # payload across log P combine rounds, and bounding the user-buffer
    # borrow to the entry keeps the rounds free to interleave recvs.
    result = run_schedule(comm, reduce_steps(
        comm, send.tobytes(), root,  # bufcheck: ignore[BC504]
        _combine_arrays(op, send.dtype)))
    if comm.rank == root:
        if recvbuf is None:
            raise MPIErrArg("reduce root needs a recvbuf")
        recv = _as_contig(recvbuf, "reduce recvbuf")
        if recv.nbytes != len(result):
            raise MPIErrArg(
                f"recvbuf holds {recv.nbytes} bytes, reduction produced "
                f"{len(result)}")
        recv.view(np.uint8).reshape(-1)[:] = np.frombuffer(result, np.uint8)


def allreduce_buf(comm: "Communicator", sendbuf: np.ndarray,
                  recvbuf: np.ndarray, op,
                  algorithm: Optional[str] = None) -> None:
    """Allreduce numpy buffers with MPICH-style algorithm selection:
    recursive doubling for small payloads, reduce+broadcast beyond
    :data:`ALLREDUCE_RECDOUBLE_MAX_BYTES`.  *algorithm* forces
    ``"recursive_doubling"``, ``"reduce_bcast"``, ``"ring"``, or
    ``"reduce_scatter_allgather"`` (Rabenseifner)."""
    send = _as_contig(sendbuf, "allreduce sendbuf")
    recv = _as_contig(recvbuf, "allreduce recvbuf")
    if recv.nbytes != send.nbytes:
        raise MPIErrArg("allreduce buffers must have equal byte size")
    if algorithm is None:
        algorithm = ("recursive_doubling"
                     if send.nbytes <= ALLREDUCE_RECDOUBLE_MAX_BYTES
                     else "reduce_bcast")
    _check_algorithm("allreduce", algorithm, ALLREDUCE_ALGORITHMS)
    if algorithm == "reduce_bcast":
        reduce_buf(comm, send, recv, op, 0)
        bcast_buf(comm, recv, 0)
        return
    combine = _combine_arrays(op, send.dtype)
    if algorithm == "recursive_doubling":
        # Snapshot up front: recursive doubling reuses the running
        # payload across rounds with pre-posted receives in flight.
        result = allreduce_recursive_doubling(comm, send.tobytes(),  # bufcheck: ignore[BC504]
                                              combine)
    else:
        # The ring and Rabenseifner schedules own their working copy at
        # entry, so the sendbuf borrow never outlives the call.
        result = run_schedule(comm, ALLREDUCE_ALGORITHMS[algorithm](
            comm, send.view(np.uint8).reshape(-1).data, combine,
            send.dtype.itemsize))
    recv.view(np.uint8).reshape(-1)[:] = np.frombuffer(result, np.uint8)


def allgather_buf(comm: "Communicator", sendbuf: np.ndarray,
                  recvbuf: np.ndarray) -> None:
    """Allgather equal-size blocks: recvbuf holds P x sendbuf."""
    send = _as_contig(sendbuf, "allgather sendbuf")
    recv = _as_contig(recvbuf, "allgather recvbuf")
    if recv.nbytes != send.nbytes * comm.size:
        raise MPIErrArg(
            f"allgather recvbuf must hold {comm.size} blocks of "
            f"{send.nbytes} bytes, has {recv.nbytes}")
    # Zero-copy staging: every forward on the ring is seen complete
    # before the next (the engine owns any unexpected copy), and the
    # result list — the only place the sendbuf borrow is stored — dies
    # before this returns, so no up-front snapshot is needed.
    blocks = run_schedule(comm, allgather_steps(
        comm, send.view(np.uint8).reshape(-1).data))
    flat = recv.view(np.uint8).reshape(-1)
    for i, block in enumerate(blocks):
        flat[i * send.nbytes:(i + 1) * send.nbytes] = \
            np.frombuffer(block, np.uint8)


def gather_buf(comm: "Communicator", sendbuf: np.ndarray,
               recvbuf: Optional[np.ndarray], root: int) -> None:
    """MPI_GATHER of equal-size numpy blocks into *recvbuf* at root."""
    send = _as_contig(sendbuf, "gather sendbuf")
    # Own bytes up front: the root stores its own block in the gathered
    # result list, so a sendbuf borrow would escape the call.
    chunks = run_schedule(comm, gather_steps(
        comm, send.tobytes(), root))  # bufcheck: ignore[BC504]
    if comm.rank != root:
        return
    if recvbuf is None:
        raise MPIErrArg("gather root needs a recvbuf")
    recv = _as_contig(recvbuf, "gather recvbuf")
    if recv.nbytes != send.nbytes * comm.size:
        raise MPIErrArg(
            f"gather recvbuf must hold {comm.size} blocks of "
            f"{send.nbytes} bytes, has {recv.nbytes}")
    flat = recv.view(np.uint8).reshape(-1)
    for i, block in enumerate(chunks):
        flat[i * send.nbytes:(i + 1) * send.nbytes] = \
            np.frombuffer(block, np.uint8)


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
        # Per-rank chunks are borrows of sendbuf — each linear send is
        # seen complete and the engine materializes unexpected arrivals.
        raw = send.view(np.uint8).reshape(-1)
        chunks = [raw[i * recv.nbytes:(i + 1) * recv.nbytes].data
                  for i in range(comm.size)]
    block = run_schedule(comm, scatter_steps(comm, chunks, root))
    recv.view(np.uint8).reshape(-1)[:] = np.frombuffer(block, np.uint8)


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
    reduced = run_schedule(comm, reduce_steps(
        comm, send.view(np.uint8).reshape(-1).data, 0,
        _combine_arrays(op, send.dtype)))
    chunks = None
    if comm.rank == 0:
        # The reduction output is already owned bytes (or, at P=1, the
        # sendbuf borrow itself) — chunk it with views either way.
        raw = np.frombuffer(reduced, np.uint8)
        chunks = [raw[i * recv.nbytes:(i + 1) * recv.nbytes].data
                  for i in range(comm.size)]
    block = run_schedule(comm, scatter_steps(comm, chunks, 0))
    recv.view(np.uint8).reshape(-1)[:] = np.frombuffer(block, np.uint8)


def scan_buf(comm: "Communicator", sendbuf: np.ndarray,
             recvbuf: np.ndarray, op) -> None:
    """MPI_SCAN of numpy buffers (inclusive prefix)."""
    send = _as_contig(sendbuf, "scan sendbuf")
    recv = _as_contig(recvbuf, "scan recvbuf")
    if send.nbytes != recv.nbytes:
        raise MPIErrArg("scan buffers must match in size")
    # Snapshot up front: rank i's payload may be returned as-is (rank
    # 0) or forwarded down the chain after the local recv completes.
    result = run_schedule(comm, scan_steps(
        comm, send.tobytes(),  # bufcheck: ignore[BC504]
        _combine_arrays(op, send.dtype)))
    recv.view(np.uint8).reshape(-1)[:] = np.frombuffer(result, np.uint8)


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
    blk = send.nbytes // comm.size
    # Chunk sendbuf with views: every pairwise round is seen complete
    # before the next, so the borrows never outlive the exchange.
    raw = send.view(np.uint8).reshape(-1)
    chunks = [raw[i * blk:(i + 1) * blk].data
              for i in range(comm.size)]
    out = run_schedule(comm, alltoall_steps(comm, chunks))
    flat = recv.view(np.uint8).reshape(-1)
    for i, block in enumerate(out):
        flat[i * blk:(i + 1) * blk] = np.frombuffer(block, np.uint8)
