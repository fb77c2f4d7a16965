"""Property-based tests of the matching engine against a reference
matcher, plus randomized whole-runtime traffic (chaos) tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.consts import ANY_SOURCE, ANY_TAG
from repro.mpi import reduceops
from repro.runtime.matching import (BucketMatchingEngine,
                                    LinearMatchingEngine, PostedRecv)
from repro.runtime.message import Envelope, Message
from repro.runtime.request import Request, RequestKind
from tests.conftest import run_world

#: Both engine implementations must satisfy every matching property.
ENGINES = [LinearMatchingEngine, BucketMatchingEngine]


class ReferenceMatcher:
    """Straight-line reimplementation of MPI matching semantics used as
    the oracle: posted list and unexpected list, first-match-in-order."""

    def __init__(self):
        self.posted = []       # (id, src, tag)
        self.unexpected = []   # (id, src, tag)
        self.pairs = []        # (posted_id, message_id)

    @staticmethod
    def _match(recv, msg):
        rsrc, rtag = recv
        msrc, mtag = msg
        return ((rsrc == ANY_SOURCE or rsrc == msrc)
                and (rtag == ANY_TAG or rtag == mtag))

    def post(self, rid, src, tag):
        for i, (mid, msrc, mtag) in enumerate(self.unexpected):
            if self._match((src, tag), (msrc, mtag)):
                del self.unexpected[i]
                self.pairs.append((rid, mid))
                return
        self.posted.append((rid, src, tag))

    def deposit(self, mid, src, tag):
        for i, (rid, rsrc, rtag) in enumerate(self.posted):
            if self._match((rsrc, rtag), (src, tag)):
                del self.posted[i]
                self.pairs.append((rid, mid))
                return
        self.unexpected.append((mid, src, tag))


# Events: (kind, src, tag) where kind 0 = post recv, 1 = deposit msg.
_event = st.tuples(st.integers(0, 1),
                   st.sampled_from([ANY_SOURCE, 0, 1, 2]),
                   st.sampled_from([ANY_TAG, 0, 1, 2]))


@pytest.mark.parametrize("engine_cls", ENGINES)
@given(st.lists(_event, max_size=40))
@settings(max_examples=120, deadline=None)
def test_engine_matches_reference_for_any_sequence(engine_cls, events):
    """For any single-threaded post/deposit interleaving, the engine
    pairs exactly the same (receive, message) couples as the reference
    matcher, in the same order."""
    engine = engine_cls(0)
    ref = ReferenceMatcher()
    engine_pairs = []

    for i, (kind, src, tag) in enumerate(events):
        if kind == 0:
            # Posted receives cannot use wildcards... they can; but a
            # deposited message's envelope must be concrete.
            req = Request(RequestKind.RECV)

            def on_match(msg, rid=i):
                engine_pairs.append((rid, msg.seq))

            engine.post(PostedRecv(ctx=0, src=src, tag=tag, nomatch=False,
                                   request=req, on_match=on_match))
            ref.post(i, src, tag)
        else:
            msrc = 0 if src == ANY_SOURCE else src
            mtag = 0 if tag == ANY_TAG else tag
            msg = Message(env=Envelope(ctx=0, src=msrc, tag=mtag),
                          data=b"", arrive_s=0.0, seq=i)
            engine.deposit(msg)
            ref.deposit(i, msrc, mtag)

    assert engine_pairs == ref.pairs
    posted_n, unexpected_n = engine.pending_counts()
    assert posted_n == len(ref.posted)
    assert unexpected_n == len(ref.unexpected)


# Events with cancels: kind 0 = post, 1 = deposit, 2 = cancel the
# oldest still-pending posted receive (src/tag reused for 0/1).
_event_with_cancel = st.tuples(st.integers(0, 2),
                               st.sampled_from([ANY_SOURCE, 0, 1, 2]),
                               st.sampled_from([ANY_TAG, 0, 1, 2]))


@given(st.lists(_event_with_cancel, max_size=40))
@settings(max_examples=120, deadline=None)
def test_bucket_engine_equivalent_to_linear_with_cancels(events):
    """Linear and bucketed engines are observationally equivalent under
    any post/deposit/cancel interleaving: same match pairs in the same
    order, same cancel outcomes, same queue depths."""
    pairs = {"linear": [], "bucket": []}
    cancels = {}

    for label, engine in (("linear", LinearMatchingEngine(0)),
                          ("bucket", BucketMatchingEngine(0))):
        requests = []      # (event_id, request) of posts, oldest first
        outcomes = []
        for i, (kind, src, tag) in enumerate(events):
            if kind == 0:
                req = Request(RequestKind.RECV)

                def on_match(msg, rid=i, out=pairs[label]):
                    out.append((rid, msg.seq))

                engine.post(PostedRecv(ctx=0, src=src, tag=tag,
                                       nomatch=False, request=req,
                                       on_match=on_match))
                requests.append((i, req))
            elif kind == 1:
                msrc = 0 if src == ANY_SOURCE else src
                mtag = 0 if tag == ANY_TAG else tag
                engine.deposit(Message(
                    env=Envelope(ctx=0, src=msrc, tag=mtag),
                    data=b"", arrive_s=0.0, seq=i))
            elif requests:
                rid, req = requests.pop(0)
                outcomes.append((rid, engine.cancel_posted(req),
                                 req.cancelled))
        outcomes.append(engine.pending_counts())
        cancels[label] = outcomes

    assert pairs["bucket"] == pairs["linear"]
    assert cancels["bucket"] == cancels["linear"]


# ---------------------------------------------------------------------------
# VCI-sharded engine: same oracle, plus wildcard/concrete races
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("num_vcis", [2, 4])
@given(st.lists(_event, max_size=40))
@settings(max_examples=60, deadline=None)
def test_sharded_engine_matches_reference_for_any_sequence(num_vcis,
                                                           events):
    """The VCI-sharded engine pairs exactly like the reference matcher
    for any single-threaded interleaving: concrete streams meet their
    shard in FIFO order and wildcards arbitrate on the global sequence,
    so sharding must not change a single pairing."""
    from repro.runtime.vci import VCIMap, VCIShardedEngine
    engine = VCIShardedEngine(0, VCIMap(num_vcis))
    ref = ReferenceMatcher()
    engine_pairs = []

    for i, (kind, src, tag) in enumerate(events):
        if kind == 0:
            req = Request(RequestKind.RECV)

            def on_match(msg, rid=i):
                engine_pairs.append((rid, msg.seq))

            engine.post(PostedRecv(ctx=0, src=src, tag=tag, nomatch=False,
                                   request=req, on_match=on_match))
            ref.post(i, src, tag)
        else:
            msrc = 0 if src == ANY_SOURCE else src
            mtag = 0 if tag == ANY_TAG else tag
            msg = Message(env=Envelope(ctx=0, src=msrc, tag=mtag),
                          data=b"", arrive_s=0.0, seq=i)
            engine.deposit(msg)
            ref.deposit(i, msrc, mtag)

    assert engine_pairs == ref.pairs
    posted_n, unexpected_n = engine.pending_counts()
    assert posted_n == len(ref.posted)
    assert unexpected_n == len(ref.unexpected)
    per_vci = engine.per_vci_counts()
    assert sum(po for po, _ in per_vci) <= posted_n  # wildcards aside
    assert sum(ux for _, ux in per_vci) == unexpected_n


@pytest.mark.parametrize("num_vcis", [2, 4])
@given(st.lists(_event_with_cancel, max_size=40))
@settings(max_examples=60, deadline=None)
def test_sharded_engine_equivalent_to_linear_with_cancels(num_vcis,
                                                          events):
    """Linear and VCI-sharded engines agree under any single-threaded
    post/deposit/cancel interleaving (cancels hit both the shard fast
    path and the wildcard registry)."""
    from repro.runtime.vci import VCIMap, VCIShardedEngine
    pairs = {"linear": [], "sharded": []}
    cancels = {}

    for label, engine in (("linear", LinearMatchingEngine(0)),
                          ("sharded", VCIShardedEngine(0, VCIMap(num_vcis)))):
        requests = []
        outcomes = []
        for i, (kind, src, tag) in enumerate(events):
            if kind == 0:
                req = Request(RequestKind.RECV)

                def on_match(msg, rid=i, out=pairs[label]):
                    out.append((rid, msg.seq))

                engine.post(PostedRecv(ctx=0, src=src, tag=tag,
                                       nomatch=False, request=req,
                                       on_match=on_match))
                requests.append((i, req))
            elif kind == 1:
                msrc = 0 if src == ANY_SOURCE else src
                mtag = 0 if tag == ANY_TAG else tag
                engine.deposit(Message(
                    env=Envelope(ctx=0, src=msrc, tag=mtag),
                    data=b"", arrive_s=0.0, seq=i))
            elif requests:
                rid, req = requests.pop(0)
                outcomes.append((rid, engine.cancel_posted(req),
                                 req.cancelled))
        outcomes.append(engine.pending_counts())
        cancels[label] = outcomes

    assert pairs["sharded"] == pairs["linear"]
    assert cancels["sharded"] == cancels["linear"]


@pytest.mark.parametrize("num_vcis", [2, 4])
def test_wildcard_receives_racing_concrete_sends(num_vcis):
    """Wildcard posts racing concrete deposits from several threads:
    nothing is lost, nothing matches twice.  Exercises the REGISTERED
    -> scan -> ARMED discipline against deposits landing on every
    shard concurrently."""
    import threading
    from repro.runtime.vci import VCIMap, VCIShardedEngine

    engine = VCIShardedEngine(0, VCIMap(num_vcis))
    n_depositors, msgs_each, n_wild = 3, 60, 40
    matched = []            # (wildcard id, message seq)
    matched_lock = threading.Lock()

    def poster():
        for w in range(n_wild):
            req = Request(RequestKind.RECV)

            def on_match(msg, rid=w):
                with matched_lock:
                    matched.append((rid, msg.seq))

            engine.post(PostedRecv(ctx=0, src=ANY_SOURCE, tag=ANY_TAG,
                                   nomatch=False, request=req,
                                   on_match=on_match))

    def depositor(tid):
        for i in range(msgs_each):
            seq = tid * msgs_each + i
            engine.deposit(Message(
                env=Envelope(ctx=0, src=tid, tag=i % 5),
                data=b"", arrive_s=0.0, seq=seq))

    threads = [threading.Thread(target=poster)] + [
        threading.Thread(target=depositor, args=(t,))
        for t in range(n_depositors)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    total_sent = n_depositors * msgs_each
    # Every wildcard matched exactly once (enough messages for all).
    assert len(matched) == n_wild
    assert len({rid for rid, _ in matched}) == n_wild
    # No message delivered to two receives.
    assert len({seq for _, seq in matched}) == n_wild
    # Conservation: every deposit either matched or is still queued.
    posted_n, unexpected_n = engine.pending_counts()
    assert posted_n == 0
    assert unexpected_n == total_sent - n_wild
    assert engine.n_deposited == total_sent
    assert (engine.n_matched_posted
            + engine.n_matched_unexpected) == n_wild


class TestChaosTraffic:
    """Randomized all-pairs traffic through the full runtime: every
    sent payload must arrive exactly once, regardless of interleaving."""

    def _run(self, seed, nranks=4, nmsgs=30):
        def main(comm):
            rng = np.random.default_rng(seed + comm.rank)
            plan = [(int(rng.integers(0, comm.size)),
                     int(rng.integers(0, 4)), i)
                    for i in range(nmsgs)]
            # Tell every rank how many messages to expect from me & tag.
            sends_per_dest = [[p for p in plan if p[0] == d]
                              for d in range(comm.size)]
            counts = comm.alltoall([len(s) for s in sends_per_dest])

            reqs = [comm.isend((comm.rank, tag, idx), dest, tag=tag)
                    for dest, tag, idx in plan]
            received = []
            for _ in range(sum(counts)):
                received.append(comm.recv(source=ANY_SOURCE, tag=ANY_TAG))
            for r in reqs:
                r.wait()
            return sorted(received), plan

        results = run_world(4, main)
        # Build the global multiset of sent vs received messages.
        sent = sorted(
            (src_rank, tag, idx)
            for src_rank, (_, plan) in enumerate(results)
            for (_dest, tag, idx) in plan)
        got = sorted(msg for recvd, _ in results for msg in recvd)
        assert got == sent

    def test_seed_1(self):
        self._run(1)

    def test_seed_2(self):
        self._run(20260707)

    def test_seed_3(self):
        self._run(999)


class TestChaosCollectives:
    """Random mixtures of collectives agree with serial references."""

    def _run(self, seed):
        def main(comm):
            rng = np.random.default_rng(seed)   # SAME seed: same plan
            out = []
            for _ in range(12):
                kind = rng.integers(0, 5)
                if kind == 0:
                    out.append(comm.allreduce(comm.rank + 1,
                                              op=reduceops.SUM))
                elif kind == 1:
                    out.append(tuple(comm.allgather(comm.rank * 3)))
                elif kind == 2:
                    root = int(rng.integers(0, comm.size))
                    out.append(comm.bcast(
                        ("payload", root) if comm.rank == root else None,
                        root=root))
                elif kind == 3:
                    out.append(comm.scan(comm.rank, op=reduceops.MAX))
                else:
                    comm.barrier()
                    out.append("barrier")
            return out

        results = run_world(5, main)
        size = 5
        # Verify against per-kind references on each rank.
        for rank, out in enumerate(results):
            rng = np.random.default_rng(seed)
            for value in out:
                kind = rng.integers(0, 5)
                if kind == 0:
                    assert value == size * (size + 1) // 2
                elif kind == 1:
                    assert value == tuple(3 * i for i in range(size))
                elif kind == 2:
                    root = int(rng.integers(0, size))
                    assert value == ("payload", root)
                elif kind == 3:
                    assert value == rank   # max of 0..rank
                else:
                    assert value == "barrier"

    def test_seed_a(self):
        self._run(7)

    def test_seed_b(self):
        self._run(4242)
