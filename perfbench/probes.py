"""Single-layer probes: one thread, no rank hand-offs.

Each probe times a tight loop over one layer's entry point, subtracts
the same loop with the call removed, repeats five times and reports the
median.  They bound what a change to that layer alone can give the
workloads, free of the scheduling noise every ``world.run`` carries.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

from repro.core.config import BuildConfig
from repro.datatypes import DOUBLE, vector
from repro.datatypes.pack import pack, unpack
from repro.fabric.topology import Topology
from repro.instrument.categories import Category, Subsystem
from repro.runtime.matching import BucketMatchingEngine, PostedRecv
from repro.runtime.message import Envelope, Message
from repro.runtime.request import RequestKind
from repro.runtime.world import World

REPEATS = 5
_now = time.perf_counter_ns


def _per_call_ns(body: Callable[[int], None], empty: Callable[[int], None],
                 calls: int, repeats: int) -> float:
    """Median over *repeats* of (body - empty) / calls, in ns."""
    body(1)   # first-touch page faults and cold caches are set-up cost
    samples = []
    for _ in range(repeats):
        t0 = _now()
        body(calls)
        t1 = _now()
        empty(calls)
        t2 = _now()
        samples.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(samples)


def _empty_loop(n: int) -> None:
    for _ in range(n):
        pass


def probe_charge(calls: int, repeats: int) -> float:
    """ns per ``proc.charge`` call."""
    proc = World(1).proc(0)

    def body(n: int) -> None:
        charge, cat, sub = proc.charge, Category.MANDATORY, Subsystem.DESCRIPTOR
        for _ in range(n):
            charge(cat, 1, sub)

    return _per_call_ns(body, _empty_loop, calls, repeats)


def probe_post_deposit(depth: int, calls: int, repeats: int) -> float:
    """µs per ``engine.post`` + ``engine.deposit`` pair with *depth*
    receives posted, the matched one under the last tag."""
    engine = BucketMatchingEngine(0)

    def matched(_msg) -> None:
        pass

    for tag in range(depth - 1):
        engine.post(PostedRecv(0, 0, tag, False, None, matched))
    last = depth - 1
    msg = Message(Envelope(0, 0, last), b"x", 0.0)

    def body(n: int) -> None:
        post, deposit = engine.post, engine.deposit
        for _ in range(n):
            post(PostedRecv(0, 0, last, False, None, matched))
            deposit(msg)

    def empty(n: int) -> None:
        for _ in range(n):
            PostedRecv(0, 0, last, False, None, matched)

    return _per_call_ns(body, empty, calls, repeats) / 1000.0


def probe_request_cycle(calls: int, repeats: int) -> float:
    """µs per acquire -> complete -> wait -> release on one thread."""
    pool = World(1).proc(0).request_pool

    def body(n: int) -> None:
        acquire, release, kind = pool.acquire, pool.release, RequestKind.RECV
        for _ in range(n):
            req = acquire(kind)
            req.complete(0.0)
            req.wait()
            release(req)

    return _per_call_ns(body, _empty_loop, calls, repeats) / 1000.0


def probe_datatypes(calls: int, repeats: int) -> dict[str, float]:
    """µs per pack/unpack on the buffers ``stream_4m`` (4 MiB
    contiguous) and ``halo_vector_32k`` (one strided column) move."""
    big = np.zeros(4 * 1024 * 1024 // 8)
    big_out = np.zeros_like(big)
    n = 4096
    column = vector(n, 1, n, DOUBLE).commit()
    field = np.zeros(n * n)
    packed_big, packed_col = pack(big, big.size, DOUBLE), pack(field, 1, column)
    # Fault the column's pages in, so pack reads memory, not the zero page.
    unpack(packed_col, field, 1, column)

    def loop(fn, *args):
        def body(k: int) -> None:
            for _ in range(k):
                fn(*args)
        return body

    def us(fn, *args, scale: int = 1) -> float:
        k = max(1, calls // scale)
        return _per_call_ns(loop(fn, *args), _empty_loop, k, repeats) / 1000.0

    return {
        "datatypes.pack_contig_us.probe.4m": us(pack, big, big.size, DOUBLE),
        "datatypes.unpack_contig_us.probe.4m":
            us(unpack, packed_big, big_out, big.size, DOUBLE, scale=20),
        "datatypes.pack_vector_us.probe.32k": us(pack, field, 1, column),
        "datatypes.unpack_vector_us.probe.32k":
            us(unpack, packed_col, field, 1, column),
    }


def probe_world(repeats: int) -> dict[str, float]:
    """ms to construct a 2-rank world and to run a no-op on it: the
    rank-thread spawn/join every batch and every set-up pays."""
    construct, noop = [], []
    for _ in range(repeats):
        t0 = _now()
        world = World(2, BuildConfig(), Topology(2, 1))
        t1 = _now()
        world.run(lambda comm: None, timeout=60.0)
        t2 = _now()
        construct.append((t1 - t0) / 1e6)
        noop.append((t2 - t1) / 1e6)
    return {"runtime.world.construct_ms.probe": statistics.median(construct),
            "runtime.world.run_noop_ms.probe": statistics.median(noop)}


def run_probes(quick: bool = False) -> dict[str, float]:
    """Every probe metric by name."""
    repeats = 1 if quick else REPEATS
    scale = 20 if quick else 1
    out = {
        "instrument.charge_ns_per_call.probe":
            probe_charge(200_000 // scale, repeats),
        "runtime.matching.post_deposit_us.probe.d1":
            probe_post_deposit(1, 10_000 // scale, repeats),
        "runtime.matching.post_deposit_us.probe.d256":
            probe_post_deposit(256, 10_000 // scale, repeats),
        "runtime.request.cycle_us.probe":
            probe_request_cycle(20_000 // scale, repeats),
    }
    out.update(probe_datatypes(400 // scale, repeats))
    out.update(probe_world(repeats))
    return out
