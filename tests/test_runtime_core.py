"""VClock, rank translation, requests, matching engine, build config."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.consts import ANY_SOURCE, ANY_TAG
from repro.core.config import BuildConfig, Device
from repro.errors import MPIErrRank, MPIErrRequest
from repro.fabric.model import INFINITE, OFI_PSM2
from repro.runtime.matching import MatchingEngine, PostedRecv
from repro.runtime.message import Envelope, Message
from repro.runtime.ranktrans import (CompressedTranslation,
                                     DirectTableTranslation,
                                     build_translation)
from repro.runtime.request import Request, RequestKind, waitall, waitany
from repro.runtime.request import testall as request_testall
from repro.runtime.vclock import VClock


class TestVClock:
    def test_advance_and_merge(self):
        clock = VClock(OFI_PSM2)
        clock.advance_seconds(1e-6)
        clock.merge(0.5e-6)            # older timestamp: no change
        assert clock.now == pytest.approx(1e-6)
        clock.merge(2e-6)
        assert clock.now == pytest.approx(2e-6)

    def test_advance_instructions_uses_cpi(self):
        clock = VClock(OFI_PSM2)
        clock.advance_instructions(220)
        expected = OFI_PSM2.cycles_to_seconds(OFI_PSM2.sw_cycles(220))
        assert clock.now == pytest.approx(expected)

    def test_negative_rejected(self):
        clock = VClock(INFINITE)
        with pytest.raises(ValueError):
            clock.advance_seconds(-1.0)
        with pytest.raises(ValueError):
            VClock(INFINITE, start=-0.1)


class TestRankTranslation:
    def test_direct_table(self):
        t = DirectTableTranslation([4, 2, 9])
        assert t.world_rank(0) == 4
        assert t.world_rank(2) == 9
        assert t.size == 3
        assert t.lookup_instructions == 2
        with pytest.raises(MPIErrRank):
            t.world_rank(3)

    def test_compressed_regular(self):
        t = CompressedTranslation([10, 12, 14, 16])
        assert t.is_regular
        assert t.world_rank(3) == 16
        assert t.memory_bytes == 24
        assert t.lookup_instructions == 11

    def test_compressed_irregular_fallback(self):
        t = CompressedTranslation([0, 1, 5])
        assert not t.is_regular
        assert t.world_rank(2) == 5
        assert t.memory_bytes > 24

    def test_compressed_single_rank(self):
        t = CompressedTranslation([7])
        assert t.world_rank(0) == 7
        assert t.is_regular

    def test_builder(self):
        assert isinstance(build_translation([0, 1], "direct"),
                          DirectTableTranslation)
        assert isinstance(build_translation([0, 1], "compressed"),
                          CompressedTranslation)
        with pytest.raises(ValueError):
            build_translation([0], "quantum")

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=30,
                    unique=True))
    @settings(max_examples=50, deadline=None)
    def test_strategies_agree(self, world_ranks):
        direct = DirectTableTranslation(world_ranks)
        compressed = CompressedTranslation(world_ranks)
        for i in range(len(world_ranks)):
            assert direct.world_rank(i) == compressed.world_rank(i)


def _msg(ctx=0, src=0, tag=0, data=b"x", nomatch=False, t=0.0):
    return Message(env=Envelope(ctx=ctx, src=src, tag=tag, nomatch=nomatch),
                   data=data, arrive_s=t)


def _posted(engine_hits, ctx=0, src=0, tag=0, nomatch=False):
    req = Request(RequestKind.RECV)
    return PostedRecv(ctx=ctx, src=src, tag=tag, nomatch=nomatch,
                      request=req,
                      on_match=lambda m: engine_hits.append(m)), req


class TestMatchingEngine:
    def test_posted_then_deposit(self):
        engine = MatchingEngine(0)
        hits = []
        posted, _ = _posted(hits, src=1, tag=5)
        engine.post(posted)
        engine.deposit(_msg(src=1, tag=5))
        assert len(hits) == 1
        assert engine.pending_counts() == (0, 0)
        assert engine.n_matched_posted == 1

    def test_deposit_then_post(self):
        engine = MatchingEngine(0)
        engine.deposit(_msg(src=2, tag=9))
        hits = []
        posted, _ = _posted(hits, src=2, tag=9)
        engine.post(posted)
        assert len(hits) == 1
        assert engine.n_matched_unexpected == 1

    def test_wildcards(self):
        engine = MatchingEngine(0)
        hits = []
        posted, _ = _posted(hits, src=ANY_SOURCE, tag=ANY_TAG)
        engine.post(posted)
        engine.deposit(_msg(src=3, tag=42))
        assert len(hits) == 1

    def test_context_isolation(self):
        engine = MatchingEngine(0)
        hits = []
        posted, _ = _posted(hits, ctx=1, src=ANY_SOURCE, tag=ANY_TAG)
        engine.post(posted)
        engine.deposit(_msg(ctx=2, src=0, tag=0))
        assert not hits
        assert engine.pending_counts() == (1, 1)

    def test_unexpected_queue_order_preserved(self):
        engine = MatchingEngine(0)
        engine.deposit(_msg(src=0, tag=1, data=b"first"))
        engine.deposit(_msg(src=0, tag=1, data=b"second"))
        hits = []
        posted, _ = _posted(hits, src=0, tag=1)
        engine.post(posted)
        assert hits[0].data == b"first"

    def test_tag_mismatch_queues(self):
        engine = MatchingEngine(0)
        hits = []
        posted, _ = _posted(hits, src=0, tag=7)
        engine.post(posted)
        engine.deposit(_msg(src=0, tag=8))
        assert not hits

    def test_nomatch_streams_are_separate(self):
        """A nomatch message never matches a normal receive and vice
        versa, but matches an arrival-order receive in any src/tag."""
        engine = MatchingEngine(0)
        normal_hits, nm_hits = [], []
        normal, _ = _posted(normal_hits, src=ANY_SOURCE, tag=ANY_TAG)
        engine.post(normal)
        engine.deposit(_msg(src=5, tag=77, nomatch=True))
        assert not normal_hits
        nm, _ = _posted(nm_hits, src=9, tag=1, nomatch=True)
        engine.post(nm)
        assert len(nm_hits) == 1

    def test_iprobe_and_probe(self):
        engine = MatchingEngine(0)
        assert engine.iprobe(0, ANY_SOURCE, ANY_TAG) is None
        engine.deposit(_msg(src=4, tag=6, data=b"abc"))
        env, nbytes = engine.iprobe(0, 4, 6)
        assert env.src == 4 and nbytes == 3
        env2, _ = engine.probe(0, ANY_SOURCE, ANY_TAG)
        assert env2.tag == 6
        # probing does not consume
        assert engine.pending_counts() == (0, 1)

    def test_cancel_posted(self):
        engine = MatchingEngine(0)
        hits = []
        posted, req = _posted(hits, src=0, tag=0)
        engine.post(posted)
        assert engine.cancel_posted(req)
        assert req.cancelled
        assert engine.pending_counts() == (0, 0)
        assert not engine.cancel_posted(req)

    def test_request_points_at_its_descriptor_only_while_queued(self):
        """The back-pointer ``cancel_posted`` follows: set on enqueue,
        dropped on match and on cancel — a finished receive must not
        pin its descriptor (and through it the user's buffer)."""
        engine = MatchingEngine(0)
        for src in (3, ANY_SOURCE):
            posted, req = _posted([], src=src, tag=5)
            assert req._posted is None
            engine.post(posted)
            assert req._posted is posted
            engine.deposit(_msg(src=3, tag=5))
            assert req._posted is None and posted.removed
            assert not engine.cancel_posted(req)
            posted, req = _posted([], src=src, tag=5)
            engine.post(posted)
            assert engine.cancel_posted(req)
            assert req._posted is None
        assert engine.pending_counts() == (0, 0)


class TestRequest:
    def test_complete_and_wait(self):
        req = Request(RequestKind.SEND)
        req.complete(1.5, source=2, tag=3, count_bytes=8)
        req.wait()
        assert req.source == 2
        assert req.count_bytes == 8

    def test_double_complete_rejected(self):
        req = Request(RequestKind.SEND)
        req.complete(0.0)
        with pytest.raises(MPIErrRequest):
            req.complete(0.0)

    def test_error_propagates_at_wait(self):
        req = Request(RequestKind.RECV)
        req.complete(0.0, error=ValueError("boom"))
        with pytest.raises(ValueError):
            req.wait()

    def test_test_nonblocking(self):
        req = Request(RequestKind.RECV)
        assert not req.test()
        req.complete(0.0)
        assert req.test()

    def test_wait_blocks_until_cross_thread_completion(self):
        req = Request(RequestKind.RECV)
        timer = threading.Timer(0.05, lambda: req.complete(1.0))
        timer.start()
        req.wait()
        assert req.is_complete()

    def test_waitall_waitany_testall(self):
        reqs = [Request(RequestKind.SEND) for _ in range(3)]
        assert not request_testall(reqs)
        for r in reqs:
            r.complete(0.0)
        assert request_testall(reqs)
        waitall(reqs)
        assert waitany(reqs) in (0, 1, 2)
        with pytest.raises(MPIErrRequest):
            waitany([])


class TestBuildConfig:
    @pytest.mark.parametrize("field, illegal", [
        ("communicator_name", dict(communicator_name="hierachical")),
        ("eager_threshold", dict(eager_threshold=-1)),
        ("rank_translation", dict(rank_translation="bogus")),
        ("fabric", dict(fabric="bogus")),
        ("fabric", dict(fabric="posix")),       # a model, but no netmod
        ("shm_fabric", dict(shm_fabric="ofi")),
        ("device", dict(device="ch4")),         # the name, not the enum
        ("progress", dict(progress="bogus")),
        ("progress", dict(progress="thread", thread_safety=False)),
        ("num_vcis", dict(num_vcis=0)),
        # MPICH/Original had no VCIs: no CH3 lane would tally a call.
        ("num_vcis", dict(device=Device.CH3, num_vcis=4)),
    ])
    def test_illegal_build_rejected_at_construction(self, field, illegal):
        """``BuildConfig(...)`` itself raises — no ``World`` is built —
        and the error names the field and the offending value."""
        with pytest.raises(ValueError) as err:
            BuildConfig(**illegal)
        assert f"BuildConfig.{field}={illegal[field]!r}" in str(err.value)
