"""The seven workloads.

Each is a closed loop with a fixed number of rank threads and a fixed
op count per batch, on the default ``BuildConfig()``.  One batch is one
``world.run``; a *unit* is what rank 0 times (a round trip, a window, an
exchange, a call, an epoch) and holds ``ops_per_unit`` ops.  Windowed
workloads hand a one-byte token between the ranks so that whether a
payload message matches a posted receive or sits in the unexpected
queue is decided by the workload, never by the scheduler.

``--seed`` draws payload bytes and initial arrays only; sizes, counts,
tags and rank layout are fixed by the workload.  Every payload and
status is checked: cheap checks (a sequence number at the head, the
last element) inside the loop, a full comparison of the last unit in
:meth:`Workload.final_failed` after the clock stops.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import repro.runtime.request as request
from repro.core.config import BuildConfig
from repro.datatypes import DOUBLE, vector
from repro.fabric.topology import Topology
from repro.instrument import copies
from repro.mpi.rma import Window
from repro.mpi.tools import PvarSession
from repro.perf.msgrate import measure_instructions
from repro.runtime.world import World

TAG, TOKEN, ACK = 7, 8, 9
#: A batch that has not finished after this long counts as failed.
BATCH_TIMEOUT_S = 60.0

_now = time.perf_counter_ns


def check_calibration() -> None:
    """The calibration invariant: the benchmark measures the build the
    paper's Table 1 describes, or it does not run."""
    for op, expected in (("isend", 221), ("put", 215)):
        got = measure_instructions(BuildConfig(), op)
        if got != expected:
            raise SystemExit(
                f"perfbench: calibration drifted: {op} charges {got} "
                f"instructions, Table 1 says {expected}")


@dataclass
class RankResult:
    """What one rank reports from a batch."""

    failed: int = 0
    unit_ns: np.ndarray | None = None   #: rank 0 only
    posted: int = 0          #: payload receives this rank posted
    found_unexpected: int = 0   #: ... that found their message queued
    depth_peak: int = 0      #: unexpected-queue depth seen before posting


@dataclass
class Batch:
    """One measured ``world.run``."""

    ops: int
    failed: int
    wall_s: float
    cpu_s: float
    unit_ns: np.ndarray | None


class _Posting:
    """Brackets a rank's receive posting with pvar reads, so the share
    of payload receives that found their message already queued is
    counted where it happens, tokens excluded."""

    def __init__(self, comm):
        self.pvars = PvarSession(comm.proc)
        self.posted = self.found_unexpected = self.depth_peak = 0

    def begin(self) -> float:
        depth = self.pvars.read("unexpected_queue_length")
        if depth > self.depth_peak:
            self.depth_peak = depth
        return self.pvars.read("matches_on_unexpected_queue")

    def end(self, before: float, nposted: int) -> None:
        self.posted += nposted
        self.found_unexpected += int(
            self.pvars.read("matches_on_unexpected_queue") - before)

    def result(self, failed: int, unit_ns=None) -> RankResult:
        return RankResult(failed, unit_ns, self.posted,
                          self.found_unexpected, self.depth_peak)


class Workload:
    """A world, its buffers, and the per-rank loop of one workload."""

    name = ""
    why = ""
    op = ""                  #: what ``ops_per_s`` counts
    nranks = 2
    cores_per_node = 1       #: 2-rank worlds cross the netmod
    units_per_batch = 0
    ops_per_unit = 1
    payload_bytes_per_op = 1
    #: The per-rank unit methods; the traced run wraps these as the
    #: root span of every op.
    unit_methods: tuple[str, ...] = ("unit_r0", "unit_r1")
    #: Count metrics that define the workload: a run that reads
    #: anything else measured some other workload and is thrown away.
    must_read: dict[str, float] = {}

    def __init__(self, seed: int, quick: bool = False):
        self.rng = np.random.default_rng(seed)
        if quick:
            self.units_per_batch = max(4, self.units_per_batch // 8)
        self.world = World(self.nranks, BuildConfig(),
                           Topology(self.nranks, self.cores_per_node))
        self.batches_run = 0
        self.posted = self.found_unexpected = self.depth_peak = 0
        self.build()

    @property
    def ops_per_batch(self) -> int:
        """Ops in one batch."""
        return self.units_per_batch * self.ops_per_unit

    def build(self) -> None:
        """Allocate buffers, commit datatypes, create windows."""
        raise NotImplementedError

    def rank_main(self, comm, batch: int) -> RankResult:
        """One rank's share of batch number *batch*."""
        raise NotImplementedError

    def final_failed(self) -> int:
        """Ops of the last unit whose full payload is wrong."""
        raise NotImplementedError

    def run_batch(self) -> Batch:
        """Run one batch; a batch that raises or times out counts every
        one of its ops as failed."""
        ops = self.ops_per_batch
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            results = self.world.run(self.rank_main,
                                     args=(self.batches_run,),
                                     timeout=BATCH_TIMEOUT_S)
        except Exception:  # noqa: BLE001 - counted, reported, run goes on
            traceback.print_exc(file=sys.stderr)
            results = None
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        self.batches_run += 1
        if results is None:
            return Batch(ops, ops, wall, cpu, None)
        for r in results:
            self.posted += r.posted
            self.found_unexpected += r.found_unexpected
            self.depth_peak = max(self.depth_peak, r.depth_peak)
        # Ranks check different messages of a pt2pt op and the same
        # result of a collective one; the clip keeps both within ops.
        failed = min(ops, sum(r.failed for r in results))
        return Batch(ops, failed, wall, cpu, results[0].unit_ns)

    def _release(self, comm, reqs) -> None:
        release = comm.proc.request_pool.release
        for req in reqs:
            release(req)


def _bad_status(reqs, source: int, nbytes: int) -> int:
    return sum(1 for r in reqs if r.source != source or r.tag != TAG
               or r.count_bytes != nbytes)


class PingPong1B(Workload):
    """Blocking 1-byte ping-pong."""

    name = "pingpong_1b"
    why = ("blocking 1-byte Send/Recv round trips: two thread hand-offs per "
           "round trip, so request wait/wake-up and the per-message software "
           "path share the time (paper 4.4 latency case)")
    op = "message"
    units_per_batch = 1000
    ops_per_unit = 2

    def build(self) -> None:
        self.key = int(self.rng.integers(1, 256))
        self.first = int(self.rng.integers(0, 256))
        self.buf = {r: (np.zeros(1, np.uint8), np.zeros(1, np.uint8))
                    for r in range(2)}

    def unit_r0(self, comm, sbuf, rbuf, post):
        comm.Send(sbuf, 1, TAG)
        before = post.begin()
        status = comm.Recv(rbuf, 1, TAG)
        post.end(before, 1)
        return status

    def unit_r1(self, comm, sbuf, rbuf, post):
        before = post.begin()
        status = comm.Recv(rbuf, 0, TAG)
        post.end(before, 1)
        sbuf[0] = rbuf[0] ^ self.key
        comm.Send(sbuf, 0, TAG)
        return status

    def rank_main(self, comm, batch: int) -> RankResult:
        n, key = self.units_per_batch, self.key
        sbuf, rbuf = self.buf[comm.rank]
        start = self.first + batch * n
        failed = 0
        post = _Posting(comm)
        if comm.rank == 0:
            unit, unit_ns = self.unit_r0, np.empty(n, np.int64)
            for i in range(n):
                x = (start + i) & 0xFF
                sbuf[0] = x
                t0 = _now()
                st = unit(comm, sbuf, rbuf, post)
                unit_ns[i] = _now() - t0
                if (rbuf[0] != x ^ key or st.source != 1 or st.tag != TAG
                        or st.count_bytes != 1):
                    failed += 1
            return post.result(failed, unit_ns)
        unit = self.unit_r1
        for i in range(n):
            st = unit(comm, sbuf, rbuf, post)
            # The ping carries its sequence number: a wrong one is a
            # lost, repeated or overtaken message.
            if (rbuf[0] != (start + i) & 0xFF or st.source != 0
                    or st.tag != TAG or st.count_bytes != 1):
                failed += 1
        return post.result(failed)

    def final_failed(self) -> int:
        last = (self.first + self.batches_run * self.units_per_batch - 1) \
            & 0xFF
        ok = (self.buf[1][1][0] == last
              and self.buf[0][1][0] == last ^ self.key)
        return 0 if ok else 2


class _Windowed(Workload):
    """Shared loop of the three windowed streams: rank 0 sends
    ``window`` messages per unit to rank 1.  Message *j* of a unit
    carries ``seq0 + j`` at its head; the rest of each buffer is the
    seeded payload."""

    window = 0
    dtype = np.uint8
    count = 1                #: elements per message

    def build(self) -> None:
        shape = (self.window, self.count)
        if self.dtype is np.uint8:
            self.src = self.rng.integers(0, 256, shape, np.uint8)
        else:
            self.src = self.rng.random(shape)
        self.dst = np.zeros(shape, self.dtype)
        self.head = self._head_view(self.src)
        self.got_head = self._head_view(self.dst)
        self.token = {r: (np.zeros(1, np.uint8), np.zeros(1, np.uint8))
                      for r in range(2)}
        #: The posted receive of the next token, carried across units
        #: and batches by the one rank that waits for tokens.
        self.next_token = None

    @property
    def ops_per_unit(self) -> int:
        """One op per message of the window."""
        return self.window

    @property
    def payload_bytes_per_op(self) -> int:
        """Bytes of one message."""
        return self.count * np.dtype(self.dtype).itemsize

    def _take_token(self, comm, source: int, tag: int) -> None:
        """Wait for the token whose receive the previous unit posted,
        then post the receive of the next one.  The peer cannot send a
        token before it has seen this unit's messages, so every token
        finds its receive posted and the handshake costs the same
        copies on every run (but for the first token of the warm-up)."""
        buf = self.token[comm.rank][1]
        req = self.next_token or comm.Irecv(buf, source, tag)
        req.wait()
        self._release(comm, [req])
        self.next_token = comm.Irecv(buf, source, tag)

    def _head_view(self, arr):
        """Where each message's sequence number lives: its first 8
        bytes, or the single byte of a 1-byte message."""
        if arr.dtype == np.uint8 and self.count >= 8:
            return arr.view(np.uint64)[:, 0]
        return arr[:, 0]

    def _seq(self, unit_index: int):
        seq = unit_index * self.window + np.arange(self.window)
        return seq & 0xFF if self.count < 8 else seq

    def _check_window(self, reqs, unit_index: int) -> int:
        bad = self.got_head != self._seq(unit_index)
        if self.count >= 8:
            bad |= self.dst[:, -1] != self.src[:, -1]
        return max(int(bad.sum()),
                   _bad_status(reqs, 0, self.payload_bytes_per_op))

    def rank_main(self, comm, batch: int) -> RankResult:
        n = self.units_per_batch
        first_unit = batch * n
        post = _Posting(comm)
        if comm.rank == 0:
            unit, unit_ns = self.unit_r0, np.empty(n, np.int64)
            views = list(self.src)
            for i in range(n):
                self.head[:] = self._seq(first_unit + i)
                t0 = _now()
                unit(comm, views)
                unit_ns[i] = _now() - t0
            return post.result(0, unit_ns)
        unit = self.unit_r1
        views = list(self.dst)
        failed = 0
        for i in range(n):
            failed += unit(comm, views, post, first_unit + i)
        return post.result(failed)

    def final_failed(self) -> int:
        return int((self.dst != self.src).any(axis=1).sum())


class _PrePosted(_Windowed):
    """Receiver posts the whole window, then sends the token; sender
    fires the window only after the token: every match is a posted-
    queue hit."""

    def unit_r0(self, comm, views):
        self._take_token(comm, 1, TOKEN)
        reqs = [comm.Isend(v, 1, TAG) for v in views]
        request.waitall(reqs)
        self._release(comm, reqs)

    def unit_r1(self, comm, views, post, unit_index):
        before = post.begin()
        reqs = [comm.Irecv(v, 0, TAG) for v in views]
        post.end(before, len(reqs))
        comm.Send(self.token[1][0], 0, TOKEN)
        request.waitall(reqs)
        failed = self._check_window(reqs, unit_index)
        self._release(comm, reqs)
        return failed


class MsgRate1B(_PrePosted):
    """The paper's message-rate shape."""

    name = "msgrate_1b"
    why = ("64 pre-posted Irecv, then 64 Isend + waitall per window: the "
           "per-message software path does ~all the work, every match is a "
           "posted-queue hit (paper 4.2 message rate)")
    op = "message"
    units_per_batch = 40
    window = 64
    must_read = {"runtime.matching.posted_hit_share": 1.0,
                 "core.ch4.eager_share": 1.0,
                 "netmod.native_share": 1.0}


class Stream4M(_PrePosted):
    """Large-message bandwidth."""

    name = "stream_4m"
    why = ("4 MiB contiguous rendezvous messages, window 4 pre-posted: bytes "
           "dominate and the per-message software path is < 20% of the "
           "time; per-message optimisations must not move it")
    op = "message"
    units_per_batch = 125
    window = 4
    dtype = np.float64
    count = 4 * 1024 * 1024 // 8
    must_read = {"runtime.matching.posted_hit_share": 1.0,
                 "core.ch4.eager_share": 0.0,
                 "netmod.native_share": 1.0}


class Unexpected32K(_Windowed):
    """Eager messages that all land in the unexpected queue."""

    name = "unexpected_32k"
    why = ("32 KiB eager messages received only after all 32 of a window "
           "have arrived: every match is an unexpected-queue hit and every "
           "payload is copied twice; bounded depth 32")
    op = "message"
    units_per_batch = 70
    window = 32
    count = 32 * 1024
    must_read = {"runtime.matching.posted_hit_share": 0.0,
                 "runtime.matching.unexpected_depth_peak": 32.0,
                 "core.ch4.eager_share": 1.0,
                 "netmod.native_share": 1.0}

    def unit_r0(self, comm, views):
        reqs = [comm.Isend(v, 1, TAG) for v in views]
        request.waitall(reqs)
        self._release(comm, reqs)
        ack = comm.Irecv(self.token[0][1], 1, ACK)
        # Sent after the window on the same channel, so it arrives last.
        comm.Send(self.token[0][0], 1, TOKEN)
        ack.wait()
        self._release(comm, [ack])

    def unit_r1(self, comm, views, post, unit_index):
        self._take_token(comm, 0, TOKEN)
        before = post.begin()
        reqs = [comm.Irecv(v, 0, TAG) for v in views]
        post.end(before, len(reqs))
        request.waitall(reqs)
        failed = self._check_window(reqs, unit_index)
        self._release(comm, reqs)
        comm.Send(self.token[1][0], 0, ACK)
        return failed


class HaloVector32K(Workload):
    """Strided-column halo exchange."""

    name = "halo_vector_32k"
    why = ("Sendrecv of one strided column (vector(4096,1,4096,DOUBLE), "
           "32 KiB packed) of a 4096x4096 field: derived-datatype "
           "gather/scatter is most of the time")
    op = "exchange"
    units_per_batch = 300
    n = 4096
    payload_bytes_per_op = n * 8
    unit_methods = ("unit",)
    must_read = {"core.ch4.eager_share": 1.0, "netmod.native_share": 1.0}

    def build(self) -> None:
        n = self.n
        self.column = vector(n, 1, n, DOUBLE).commit()
        self.field = {r: self.rng.random((n, n)) for r in range(2)}

    def unit(self, comm, peer, send, recv):
        return comm.Sendrecv(send, peer, recv, peer, TAG, TAG)

    def rank_main(self, comm, batch: int) -> RankResult:
        units = self.units_per_batch
        me, peer = comm.rank, 1 - comm.rank
        field, flat = self.field[me], self.field[me].reshape(-1)
        tail = self.field[peer][-1, 1]
        # Column 1 goes out, column 0 is the ghost column coming in.
        send = (flat[1:], 1, self.column)
        recv = (flat, 1, self.column)
        unit, unit_ns = self.unit, np.empty(units, np.int64)
        post = _Posting(comm)
        failed = 0
        for i in range(units):
            seq = float(batch * units + i)
            field[0, 1] = seq
            before = post.begin()
            t0 = _now()
            st = unit(comm, peer, send, recv)
            unit_ns[i] = _now() - t0
            post.end(before, 1)
            if (field[0, 0] != seq or field[-1, 0] != tail
                    or st.source != peer or st.tag != TAG
                    or st.count_bytes != self.payload_bytes_per_op):
                failed += 1
        return post.result(failed, unit_ns if me == 0 else None)

    def final_failed(self) -> int:
        ok = (np.array_equal(self.field[0][:, 0], self.field[1][:, 1])
              and np.array_equal(self.field[1][:, 0], self.field[0][:, 1]))
        return 0 if ok else 1


class Allreduce4R64K(Workload):
    """Four-rank allreduce over two nodes."""

    name = "allreduce_4r_64k"
    why = ("Allreduce of 8192 float64 on 4 ranks over 2 nodes: collective "
           "schedule + reduce op + a 4-thread hand-off chain over shmmod "
           "and netmod; the slowest rank sets the time")
    op = "allreduce"
    nranks = 4
    cores_per_node = 2
    units_per_batch = 320
    count = 8192
    payload_bytes_per_op = count * 8
    unit_methods = ("unit",)
    must_read = {"core.ch4.eager_share": 1.0, "netmod.native_share": 1.0}

    def build(self) -> None:
        # Small integers held as floats: the sum is exact in any order.
        self.send = self.rng.integers(
            0, 1000, (self.nranks, self.count)).astype(np.float64)
        self.recv = np.zeros((self.nranks, self.count))
        self.send[:, 0] = 0.0
        self.total = self.send.sum(axis=0)

    def unit(self, comm, send, recv):
        comm.Allreduce(send, recv)

    def rank_main(self, comm, batch: int) -> RankResult:
        units = self.units_per_batch
        send, recv = self.send[comm.rank], self.recv[comm.rank]
        head = float(self.nranks)
        tail = self.total[-1]
        unit, unit_ns = self.unit, np.empty(units, np.int64)
        failed = 0
        for i in range(units):
            seq = float(batch * units + i)
            send[0] = seq
            t0 = _now()
            unit(comm, send, recv)
            unit_ns[i] = _now() - t0
            if recv[0] != head * seq or recv[-1] != tail:
                failed += 1
        return RankResult(failed, unit_ns if comm.rank == 0 else None)

    def final_failed(self) -> int:
        self.total[0] = self.nranks * self.send[0, 0]
        return 0 if (self.recv == self.total).all() else 1


class RmaPut1B(Workload):
    """One-byte puts in fence epochs."""

    name = "rma_put_1b"
    why = ("fence epochs of 64 one-byte Window.put: the paper's second "
           "measured op, through mpi.rma, core.ch4 and the netmod with no "
           "matching and no request wait")
    op = "put"
    units_per_batch = 100
    ops_per_unit = 64
    must_read = {"netmod.native_share": 1.0}

    def build(self) -> None:
        self.first = int(self.rng.integers(0, 256))
        self.src = np.zeros(self.ops_per_unit, np.uint8)
        # Epochs alternate between the halves of the target window, so
        # rank 1 reads the half just fenced while rank 0 fills the other.
        self.target = np.zeros(2 * self.ops_per_unit, np.uint8)
        self.win: dict[int, Window] = {}
        self.world.run(self._create_window, timeout=BATCH_TIMEOUT_S)

    def _create_window(self, comm) -> None:
        exposed = self.target if comm.rank == 1 else None
        win = Window.create(comm, exposed, disp_unit=1)
        win.fence()
        self.win[comm.rank] = win

    def _values(self, epoch: int):
        return (self.first + epoch + np.arange(self.ops_per_unit)) & 0xFF

    def unit_r0(self, win, views, disp):
        for j, view in enumerate(views):
            win.put(view, 1, disp + j)
        win.fence()

    def unit_r1(self, win):
        win.fence()

    def rank_main(self, comm, batch: int) -> RankResult:
        units, w = self.units_per_batch, self.ops_per_unit
        win = self.win[comm.rank]
        first_epoch = batch * units
        if comm.rank == 0:
            unit, unit_ns = self.unit_r0, np.empty(units, np.int64)
            views = [self.src[j:j + 1] for j in range(w)]
            for i in range(units):
                epoch = first_epoch + i
                self.src[:] = self._values(epoch)
                t0 = _now()
                unit(win, views, (epoch % 2) * w)
                unit_ns[i] = _now() - t0
            return RankResult(0, unit_ns)
        unit = self.unit_r1
        failed = 0
        for i in range(units):
            epoch = first_epoch + i
            unit(win)
            half = self.target[(epoch % 2) * w:(epoch % 2 + 1) * w]
            failed += int((half != self._values(epoch)).sum())
        return RankResult(failed)

    def final_failed(self) -> int:
        epoch = self.batches_run * self.units_per_batch - 1
        w = self.ops_per_unit
        half = self.target[(epoch % 2) * w:(epoch % 2 + 1) * w]
        return int((half != self._values(epoch)).sum())


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (
        PingPong1B, MsgRate1B, Unexpected32K, Stream4M, HaloVector32K,
        Allreduce4R64K, RmaPut1B)}


class Counters:
    """The runtime's own counters over a stretch of batches, read from
    outside between ``world.run`` calls (no rank thread is alive)."""

    _PVARS = ("instructions_total", "messages_deposited",
              "matches_on_posted_queue", "matches_on_unexpected_queue")

    def __init__(self, workload: Workload):
        self.workload = workload
        self._start = self._read()

    def _read(self) -> dict[str, float]:
        w = self.workload
        procs = w.world.procs
        sessions = [PvarSession(p) for p in procs]
        out = {f"{name}.{r}": s.read(name)
               for r, s in enumerate(sessions) for name in self._PVARS}
        mods = [m for p in procs for m in (p.device.netmod, p.device.shmmod)]
        out["native"] = sum(m.n_native for m in mods)
        out["am_fallback"] = sum(m.n_am_fallback for m in mods)
        out["eager"] = procs[0].device.n_eager
        out["rendezvous"] = procs[0].device.n_rendezvous
        out["pool_reuse"] = sum(p.request_pool.n_reuse for p in procs)
        out["pool_alloc"] = sum(p.request_pool.n_alloc for p in procs)
        out["vtime_s"] = procs[0].vclock.now
        snap = copies.snapshot()
        out["copies"] = snap.n_copies + snap.n_transfers
        out["views"] = snap.n_views
        out["bytes_copied"] = snap.bytes_copied + snap.bytes_transferred
        out["posted"] = w.posted
        out["found_unexpected"] = w.found_unexpected
        return out

    def delta(self) -> dict[str, float]:
        """Movement of every counter since construction."""
        now = self._read()
        return {k: now[k] - self._start[k] for k in now}


def _share(part: float, rest: float) -> float:
    total = part + rest
    return part / total if total else 0.0


def count_metrics(workload: Workload, delta: dict[str, float],
                  ops: int) -> dict[str, float]:
    """The per-layer *count* metrics from a :class:`Counters` delta
    over *ops* ops.  All are ratios of integers that scale with the
    number of batches, so they repeat exactly."""
    ranks = range(workload.nranks)

    def total(name: str) -> float:
        return sum(delta[f"{name}.{r}"] for r in ranks)

    if delta["posted"]:
        # Payload receives the workload posted itself, tokens excluded.
        posted_hit = 1.0 - delta["found_unexpected"] / delta["posted"]
    else:
        posted_hit = _share(total("matches_on_posted_queue"),
                            total("matches_on_unexpected_queue"))
    payload_bytes = ops * workload.payload_bytes_per_op
    return {
        "mpi.collectives.msgs_per_op": total("messages_deposited") / ops,
        "core.ch4.eager_share": _share(delta["eager"], delta["rendezvous"]),
        "netmod.native_share": _share(delta["native"], delta["am_fallback"]),
        "runtime.matching.posted_hit_share": posted_hit,
        "runtime.matching.unexpected_depth_peak": float(workload.depth_peak),
        "runtime.request.pool_reuse_share": _share(delta["pool_reuse"],
                                                   delta["pool_alloc"]),
        "instrument.charged_instr_per_op": delta["instructions_total.0"] / ops,
        "datatypes.copies_per_op": delta["copies"] / ops,
        "datatypes.views_per_op": delta["views"] / ops,
        "datatypes.bytes_copied_per_payload_byte":
            delta["bytes_copied"] / payload_bytes,
    }
