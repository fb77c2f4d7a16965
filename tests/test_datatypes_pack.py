"""Pack/unpack engines, including hypothesis round-trip properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes import (contiguous, hindexed, hvector, indexed,
                             indexed_block, pack, packed_size, resized,
                             struct, subarray, unpack, vector)
from repro.datatypes.pack import as_bytes
from repro.datatypes.predefined import BYTE, DOUBLE, INT, SHORT
from repro.datatypes.typemap import GatherPlan
from repro.errors import (MPIErrBuffer, MPIErrCount, MPIErrDatatype,
                          MPIErrTruncate)
from repro.instrument import copies


class TestAsBytes:
    def test_ndarray_view(self):
        arr = np.arange(4, dtype=np.float64)
        raw = as_bytes(arr)
        assert raw.size == 32
        raw[0] = 255   # view, not copy
        assert arr.view(np.uint8)[0] == 255

    def test_bytes_and_bytearray(self):
        assert as_bytes(b"abc").tolist() == [97, 98, 99]
        assert as_bytes(bytearray(b"xy")).size == 2

    def test_noncontiguous_rejected(self):
        arr = np.arange(16, dtype=np.float64)[::2]
        with pytest.raises(MPIErrBuffer):
            as_bytes(arr)

    def test_unsupported_type_rejected(self):
        with pytest.raises(MPIErrBuffer):
            as_bytes([1, 2, 3])


class TestPackContiguous:
    def test_whole_array(self):
        arr = np.arange(5, dtype=np.float64)
        data = pack(arr, 5, DOUBLE)
        assert np.frombuffer(data, np.float64).tolist() == arr.tolist()

    def test_prefix(self):
        arr = np.arange(5, dtype=np.int32)
        data = pack(arr, 2, INT)
        assert np.frombuffer(data, np.int32).tolist() == [0, 1]

    def test_zero_count(self):
        assert pack(np.zeros(1), 0, DOUBLE) == b""

    def test_count_beyond_buffer_rejected(self):
        with pytest.raises(MPIErrBuffer):
            pack(np.zeros(2, dtype=np.float64), 3, DOUBLE)

    def test_negative_count_rejected(self):
        with pytest.raises(MPIErrCount):
            pack(np.zeros(2), -1, DOUBLE)
        with pytest.raises(MPIErrCount):
            packed_size(-1, DOUBLE)


class TestPackDerived:
    def test_vector_gathers_strided(self):
        arr = np.arange(8, dtype=np.float64)
        dt = vector(count=2, blocklength=1, stride=2, base=DOUBLE).commit()
        data = pack(arr, 2, dt)   # two vector elements, extent 3*8? no:
        vals = np.frombuffer(data, np.float64)
        # element 0 gathers arr[0], arr[2]; element 1 starts at extent.
        assert vals[0] == arr[0]
        assert vals[1] == arr[2]

    def test_indexed_pack(self):
        arr = np.arange(6, dtype=np.float64)
        dt = indexed([1, 2], [0, 3], DOUBLE).commit()
        vals = np.frombuffer(pack(arr, 1, dt), np.float64)
        assert vals.tolist() == [0.0, 3.0, 4.0]

    def test_subarray_pack_matches_numpy_slice(self):
        arr = np.arange(16, dtype=np.float64).reshape(4, 4)
        dt = subarray([4, 4], [2, 3], [1, 0], DOUBLE).commit()
        vals = np.frombuffer(pack(np.ascontiguousarray(arr), 1, dt),
                             np.float64)
        assert vals.tolist() == arr[1:3, 0:3].reshape(-1).tolist()

    def test_struct_pack(self):
        raw = np.zeros(24, dtype=np.uint8)
        raw[:4].view(np.int32)[0] = 7
        raw[8:24].view(np.float64)[:] = [1.5, 2.5]
        dt = struct([1, 2], [0, 8], [INT, DOUBLE]).commit()
        data = pack(raw, 1, dt)
        assert len(data) == 20
        assert np.frombuffer(data[:4], np.int32)[0] == 7
        assert np.frombuffer(data[4:], np.float64).tolist() == [1.5, 2.5]


class TestUnpack:
    def test_roundtrip_contiguous(self):
        arr = np.arange(4, dtype=np.float64)
        out = np.zeros_like(arr)
        n = unpack(pack(arr, 4, DOUBLE), out, 4, DOUBLE)
        assert n == 4
        assert out.tolist() == arr.tolist()

    def test_short_message_allowed(self):
        out = np.zeros(4, dtype=np.float64)
        n = unpack(pack(np.ones(2), 2, DOUBLE), out, 4, DOUBLE)
        assert n == 2
        assert out.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_oversized_message_truncates(self):
        out = np.zeros(1, dtype=np.float64)
        with pytest.raises(MPIErrTruncate):
            unpack(pack(np.ones(2), 2, DOUBLE), out, 1, DOUBLE)

    def test_partial_element_rejected(self):
        out = np.zeros(2, dtype=np.float64)
        with pytest.raises(MPIErrTruncate):
            unpack(b"\x00" * 12, out, 2, DOUBLE)

    def test_readonly_target_rejected(self):
        with pytest.raises(MPIErrBuffer):
            unpack(b"\x00" * 8, b"\x00" * 8, 1, DOUBLE)

    def test_zero_bytes(self):
        out = np.ones(2, dtype=np.float64)
        assert unpack(b"", out, 2, DOUBLE) == 0
        assert out.tolist() == [1.0, 1.0]


def _as(kind, values):
    """Eight float64 values as each buffer kind the contiguous branch
    of pack/unpack accepts."""
    arr = np.array(values, dtype=np.float64)
    return {
        "ndarray": lambda: arr,
        "ndarray-2d": lambda: arr.reshape(2, -1),
        "ndarray-big-endian": lambda: arr.astype(">f8"),
        "ndarray-complex": lambda: arr.view(np.complex128),
        "bytes": lambda: arr.tobytes(),
        "bytearray": lambda: bytearray(arr.tobytes()),
        "memoryview": lambda: memoryview(bytearray(arr.tobytes())),
    }[kind]()


_KINDS = ["ndarray", "ndarray-2d", "ndarray-big-endian", "ndarray-complex",
          "bytes", "bytearray", "memoryview"]
_WRITABLE = [k for k in _KINDS if k != "bytes"]


class TestContiguousBranch:
    """The one contiguous branch at the head of pack/unpack, over every
    buffer kind: same bytes, same counters, same typed errors as the
    as_bytes -> view -> reshape -> frombuffer chain it replaced."""

    VALUES = [1.5, -2.0, 3.25, 4.0, 5.5, 6.0, 7.75, 8.0]

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("copy", [False, True])
    def test_pack_moves_the_storage_bytes(self, kind, copy):
        buf = _as(kind, self.VALUES)
        want = bytes(as_bytes(buf))
        with copies.track() as delta:
            data = pack(buf, 8, DOUBLE, copy=copy)
        assert bytes(data) == want and len(data) == 64
        assert isinstance(data, bytes if copy else memoryview)
        moved = delta()
        assert (moved.n_copies, moved.bytes_copied) == (
            (1, 64) if copy else (0, 0))
        assert (moved.n_views, moved.bytes_viewed) == (
            (0, 0) if copy else (1, 64))
        assert bytes(pack(buf, 3, DOUBLE)) == want[:24]      # a prefix

    @pytest.mark.parametrize("kind", _WRITABLE)
    def test_pack_borrows_rather_than_copies(self, kind):
        buf = _as(kind, self.VALUES)
        data = pack(buf, 8, DOUBLE)
        as_bytes(buf)[0] ^= 0xFF
        assert data[0] == as_bytes(buf)[0]     # reads through to buf

    @pytest.mark.parametrize("kind", _WRITABLE)
    def test_unpack_scatters_once(self, kind):
        buf = _as(kind, [0.0] * 8)
        payload = np.array(self.VALUES).tobytes()
        for data in (payload, memoryview(payload), bytearray(payload)):
            as_bytes(buf)[:] = 0
            with copies.track() as delta:
                assert unpack(data, buf, 8, DOUBLE) == 8
            assert bytes(as_bytes(buf)) == payload
            moved = delta()
            assert (moved.n_copies, moved.bytes_copied,
                    moved.n_views) == (1, 64, 0)
        as_bytes(buf)[:] = 0
        assert unpack(payload[:16], buf, 8, DOUBLE) == 2     # short message
        assert bytes(as_bytes(buf)) == payload[:16] + bytes(48)

    @pytest.mark.parametrize("kind", _KINDS)
    def test_count_zero_touches_nothing(self, kind):
        buf = _as(kind, self.VALUES)
        with copies.track() as delta:
            assert pack(buf, 0, DOUBLE) == b""
            assert unpack(b"", buf, 0, DOUBLE) == 0
            assert unpack(b"", buf, 8, DOUBLE) == 0
        assert delta() == copies.CopySnapshot()
        with pytest.raises(MPIErrCount):
            pack(buf, -1, DOUBLE)
        with pytest.raises(MPIErrCount):
            unpack(b"", buf, -1, DOUBLE)

    @pytest.mark.parametrize("kind", _KINDS)
    def test_short_send_buffer(self, kind):
        with pytest.raises(MPIErrBuffer, match="holds 64 bytes, need 72"):
            pack(_as(kind, self.VALUES), 9, DOUBLE)

    @pytest.mark.parametrize("kind", _WRITABLE)
    def test_short_receive_buffer_and_truncation(self, kind):
        buf = _as(kind, [0.0] * 8)
        with pytest.raises(MPIErrTruncate, match="exceeds receive buffer"):
            unpack(bytes(72), buf, 8, DOUBLE)       # message > count * size
        with pytest.raises(MPIErrTruncate, match="whole number"):
            unpack(bytes(12), buf, 8, DOUBLE)
        with pytest.raises(MPIErrBuffer, match="holds 64 bytes, need 72"):
            unpack(bytes(72), buf, 9, DOUBLE)       # count > the buffer
        assert bytes(as_bytes(buf)) == bytes(64)    # nothing was written

    def test_read_only_receive_buffers(self):
        frozen = np.zeros(8)
        frozen.flags.writeable = False
        for buf in (frozen, bytes(64), memoryview(bytes(64))):
            with pytest.raises(MPIErrBuffer, match="read-only"):
                unpack(bytes(8), buf, 8, DOUBLE)
        assert frozen.tolist() == [0.0] * 8
        assert bytes(pack(frozen, 8, DOUBLE)) == bytes(64)   # sends are fine

    def test_non_c_contiguous_arrays(self):
        field = np.zeros((4, 4))
        for buf in (field[:, :2], field.T, field[::2]):
            with pytest.raises(MPIErrBuffer, match="C-contiguous"):
                pack(buf, 1, DOUBLE)
            with pytest.raises(MPIErrBuffer, match="C-contiguous"):
                unpack(bytes(8), buf, 1, DOUBLE)
        assert not field.any()

    def test_unsupported_buffer_types(self):
        for buf in ([1.0, 2.0], "text", 7, None):
            with pytest.raises(MPIErrBuffer, match="unsupported buffer"):
                pack(buf, 1, DOUBLE)
            with pytest.raises(MPIErrBuffer, match="unsupported buffer"):
                unpack(bytes(8), buf, 1, DOUBLE)

    def test_empty_shapes(self):
        for buf in (np.zeros(0), np.zeros((2, 0)), b"", bytearray()):
            assert pack(buf, 0, DOUBLE) == b""
            with pytest.raises(MPIErrBuffer, match="holds 0 bytes"):
                pack(buf, 1, DOUBLE)

    def test_byte_buffers_whose_length_is_not_a_multiple(self):
        assert bytes(pack(b"abcdefghij", 1, DOUBLE)) == b"abcdefgh"
        out = bytearray(10)
        assert unpack(b"12345678", out, 1, DOUBLE) == 1
        assert bytes(out) == b"12345678\0\0"


# ---------------------------------------------------------------------------
# property-based round trips
# ---------------------------------------------------------------------------

_derived_strategy = st.one_of(
    st.builds(lambda c: contiguous(c, DOUBLE), st.integers(1, 5)),
    st.builds(lambda c, b, s: vector(c, b, b + s, DOUBLE),
              st.integers(1, 4), st.integers(1, 3), st.integers(0, 3)),
    st.builds(lambda lens: indexed(
        lens, list(np.cumsum([0] + [ln + 1 for ln in lens[:-1]])), DOUBLE),
        st.lists(st.integers(1, 3), min_size=1, max_size=4)),
    st.builds(lambda: resized(DOUBLE, 0, 24)),
)


@settings(max_examples=60, deadline=None)
@given(dt=_derived_strategy, count=st.integers(1, 4), data=st.data())
def test_pack_unpack_roundtrip_any_derived_type(dt, count, data):
    """unpack(pack(x)) == x on the packed positions, for any layout."""
    dt.commit()
    span = int((count - 1) * dt.extent + dt.typemap.ub)
    nvals = span // 8 + 1
    values = data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=nvals, max_size=nvals))
    src = np.asarray(values, dtype=np.float64)
    packed = pack(src, count, dt)
    assert len(packed) == packed_size(count, dt)

    dst = np.full_like(src, -999.0)
    n = unpack(packed, dst, count, dt)
    assert n == count

    # The gathered byte positions must round-trip exactly; the rest of
    # the destination must be untouched.
    idx = set()
    for k in range(count):
        for off in dt.typemap.byte_offsets():
            idx.add(k * dt.extent + off)
    src_raw = src.view(np.uint8).reshape(-1)
    dst_raw = dst.view(np.uint8).reshape(-1)
    for byte in range(src_raw.size):
        if byte in idx:
            assert dst_raw[byte] == src_raw[byte]


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=0, max_size=200))
def test_byte_pack_roundtrip(payload):
    """BYTE pack/unpack is the identity on raw bytes."""
    out = bytearray(len(payload))
    packed = pack(np.frombuffer(payload, np.uint8)
                  if payload else np.empty(0, np.uint8),
                  len(payload), BYTE)
    assert packed == payload
    n = unpack(packed, out, len(payload), BYTE)
    assert n == len(payload)
    assert bytes(out) == payload


# ---------------------------------------------------------------------------
# the compiled gather plan against the per-byte oracle
# ---------------------------------------------------------------------------

def oracle_offsets(dt, count):
    """Byte positions of *count* elements, from the typemap's per-byte
    definition — what the pack engine did before plans, one byte at a
    time."""
    return np.asarray([k * dt.extent + off for k in range(count)
                       for off in dt.typemap.byte_offsets()], dtype=np.intp)


def span_of(dt, count):
    return (count - 1) * dt.extent + dt.typemap.ub


def random_bytes(seed, n):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


def assert_matches_oracle(dt, count, src, dst):
    """pack picks the oracle's bytes; unpack puts them back and leaves
    every gap byte of *dst* alone."""
    where = oracle_offsets(dt, count)
    packed = pack(src, count, dt)
    assert isinstance(packed, bytes)
    assert packed == src[where].tobytes()

    before = dst.copy()
    assert unpack(packed, dst, count, dt) == count
    assert np.array_equal(dst[where], src[where])
    gaps = np.ones(dst.size, dtype=bool)
    gaps[where] = False
    assert np.array_equal(dst[gaps], before[gaps])


def _gapped(lens, gaps, unit):
    """Displacements of blocks *lens* long (in *unit*) with *gaps*
    between them."""
    out, at = [], 0
    for ln, gap in zip(lens, gaps):
        out.append(at)
        at += ln * unit + gap
    return out


_lens = st.lists(st.integers(1, 3), min_size=1, max_size=3)
# Byte-unit gaps: multiples of 1, 2, 4 or 8, so that every granule
# occurs about as often as the others.
_gaps = st.tuples(st.sampled_from([1, 2, 4, 8]),
                  st.lists(st.integers(0, 2), min_size=4, max_size=4)
                  ).map(lambda ug: [ug[0] * k for k in ug[1]])


def _constructed_over(bases):
    """Every constructor applied to bases drawn from *bases*, with
    strides and displacements that keep blocks disjoint."""
    def subarrays(base):
        return st.integers(1, 3).flatmap(lambda nd: st.tuples(
            st.lists(st.integers(2, 4), min_size=nd, max_size=nd),
            st.lists(st.integers(0, 1), min_size=nd, max_size=nd),
            st.sampled_from("CF"))).map(lambda a: subarray(
                a[0], [n - s for n, s in zip(a[0], a[1])], a[1], base,
                order=a[2]))

    def structs(members, gaps):
        lens = [ln for ln, _ in members]
        types = [t for _, t in members]
        return struct(lens, _gapped([ln * t.extent for ln, t in members],
                                    gaps, 1), types)

    def over(base):
        return st.one_of(
            st.builds(lambda c, b, s: vector(c, b, b + s, base),
                      st.integers(2, 4), st.integers(1, 3),
                      st.integers(0, 3)),
            st.builds(lambda c, b, gaps, sign: hvector(
                c, b, sign * (b * base.extent + gaps[0]), base),
                st.integers(2, 4), st.integers(1, 3), _gaps,
                st.sampled_from([1, -1])),
            st.builds(lambda lens, gaps: indexed(
                lens, _gapped(lens, gaps, 1), base), _lens, _gaps),
            st.builds(lambda lens, gaps: hindexed(
                lens, _gapped(lens, gaps, base.extent), base),
                _lens, _gaps),
            st.builds(lambda b, n, gaps: indexed_block(
                b, _gapped([b] * n, gaps, 1), base),
                st.integers(1, 3), st.integers(1, 3), _gaps),
            subarrays(base),
            st.builds(lambda gaps: resized(
                base, 0, base.typemap.ub + gaps[0]), _gaps),
            st.builds(structs, st.lists(
                st.tuples(st.integers(1, 2), st.one_of(st.just(base), bases)),
                min_size=1, max_size=4), _gaps),
        )

    return bases.flatmap(over)


_one_deep = _constructed_over(st.sampled_from([BYTE, SHORT, INT, DOUBLE]))
_any_layout = st.one_of(_one_deep, _constructed_over(_one_deep)).filter(
    lambda dt: not dt.contig)      # contiguous types have no plan


@settings(max_examples=200, deadline=None)
@given(dt=_any_layout, count=st.integers(1, 4), shift=st.integers(0, 7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_plan_equals_byte_oracle_for_every_constructor(dt, count, shift,
                                                       seed):
    """Whatever granule the plan picks, and wherever the buffer starts,
    pack/unpack move exactly the bytes ``byte_offsets`` names."""
    dt.commit()
    span = span_of(dt, count)
    noise = random_bytes(seed, 2 * (span + 8))
    src = noise[shift: shift + span]
    dst = noise[span + 8 + shift: span + 8 + shift + span]
    assert dt.plan.granule in (8, 4, 2, 1)
    assert_matches_oracle(dt, count, src, dst)


class TestGranule:
    @pytest.mark.parametrize("make, granule", [
        (lambda: vector(3, 1, 2, DOUBLE), 8),
        (lambda: subarray([4, 4], [4, 1], [0, 1], DOUBLE), 8),
        (lambda: vector(3, 1, 2, INT), 4),
        (lambda: struct([1, 1], [0, 8], [INT, DOUBLE]), 4),
        (lambda: resized(vector(2, 1, 2, DOUBLE), 0, 28), 4),
        (lambda: vector(3, 2, 3, SHORT), 2),
        (lambda: hindexed([1, 1], [0, 10], DOUBLE), 2),
        (lambda: vector(3, 1, 2, BYTE), 1),
        (lambda: struct([1, 1], [0, 9], [DOUBLE, DOUBLE]), 1),
        (lambda: resized(vector(2, 1, 2, DOUBLE), 0, 25), 1),
    ])
    def test_each_granule_moves_the_oracle_bytes(self, make, granule):
        dt = make().commit()
        assert dt.plan.granule == granule
        for count in (1, 3):
            span = span_of(dt, count)
            assert_matches_oracle(dt, count, random_bytes(granule, span),
                                  random_bytes(count, span))

    def test_index_counts_words_not_bytes(self):
        column = vector(64, 1, 64, DOUBLE).commit()
        idx, overlapping = column.plan.index(1, 8)
        assert idx.dtype == np.intp and idx.tolist() == list(range(0, 4096, 64))
        assert not overlapping
        assert column.plan.index(1, 1)[0].size == 8 * idx.size

    def test_word_offsets_match_byte_offsets(self):
        dt = struct([2, 1, 3], [0, 12, 24], [INT, SHORT, DOUBLE])
        tm = dt.typemap
        assert tm.granule(dt.extent) == 2
        words = tm.word_offsets(2)
        assert [2 * w + b for w in words for b in (0, 1)] \
            == list(tm.byte_offsets())


def _spy_on_granules(monkeypatch):
    asked = []
    real = GatherPlan.index

    def index(self, count, granule):
        asked.append(granule)
        return real(self, count, granule)

    monkeypatch.setattr(GatherPlan, "index", index)
    return asked


class TestMisalignedBase:
    """A buffer that does not start on a granule boundary is moved at
    the widest width its address allows — same bytes, narrower words."""

    def test_bytearray_view_off_by_one(self, monkeypatch):
        dt = vector(4, 1, 2, DOUBLE).commit()
        span = span_of(dt, 2)
        asked = _spy_on_granules(monkeypatch)
        backing = bytearray(random_bytes(1, span + 1).tobytes())
        src = np.frombuffer(memoryview(backing)[1:], dtype=np.uint8)
        where = oracle_offsets(dt, 2)
        assert pack(memoryview(backing)[1:], 2, dt) == src[where].tobytes()
        out = bytearray(span + 1)
        assert unpack(src[where].tobytes(), memoryview(out)[1:], 2, dt) == 2
        assert np.array_equal(np.frombuffer(out, np.uint8)[1:][where],
                              src[where])
        assert out[0] == 0
        assert asked == [1, 1]

    def test_float32_flat_under_a_double_granule(self, monkeypatch):
        dt = vector(4, 1, 2, DOUBLE).commit()
        floats = np.arange(64, dtype=np.float32)
        tail = floats.reshape(-1)[1:]           # base address % 8 == 4
        assert tail.ctypes.data % 8 == 4
        asked = _spy_on_granules(monkeypatch)
        raw = tail.view(np.uint8)
        where = oracle_offsets(dt, 2)
        packed = pack(tail, 2, dt)
        assert packed == raw[where].tobytes()
        out = np.zeros(64, dtype=np.float32)
        assert unpack(packed, out[1:], 2, dt) == 2
        assert np.array_equal(out[1:].view(np.uint8)[where], raw[where])
        assert asked == [4, 4]

    def test_aligned_base_uses_the_plan_granule(self, monkeypatch):
        dt = vector(4, 1, 2, DOUBLE).commit()
        asked = _spy_on_granules(monkeypatch)
        pack(np.zeros(16), 2, dt)
        assert asked == [8]


class TestPlanLifetime:
    def test_commit_compiles_and_free_drops(self):
        dt = vector(4, 1, 2, DOUBLE)
        assert dt.plan is None
        dt.commit()
        plan = dt.plan
        assert isinstance(plan, GatherPlan)
        idx = plan.index(1, plan.granule)[0]
        pack(np.zeros(8), 1, dt)
        assert dt.plan is plan and plan.index(1, plan.granule)[0] is idx
        dt.free()
        assert dt.plan is None and not dt.committed

    def test_contiguous_types_hold_no_plan(self):
        assert DOUBLE.plan is None
        dense = contiguous(4, DOUBLE).commit()
        pack(np.zeros(4), 1, dense)
        assert dense.contig and dense.plan is None

    def test_uncommitted_pack_compiles_on_first_use(self):
        dt = vector(4, 1, 2, DOUBLE)
        arr = np.arange(8, dtype=np.float64)
        assert pack(arr, 1, dt) == arr[::2].tobytes()
        assert dt.plan is not None and not dt.committed

    def test_dup_starts_without_a_plan(self):
        dt = vector(4, 1, 2, DOUBLE).commit()
        assert dt.dup().plan is None

    def test_smaller_counts_are_prefixes_of_the_largest(self):
        dt = vector(2, 1, 2, INT).commit()
        plan = dt.plan
        big = plan.index(4, 4)[0]
        small = plan.index(2, 4)[0]
        assert np.shares_memory(small, big)
        assert (4 * small).tolist() == oracle_offsets(dt, 2)[::4].tolist()
        assert plan.index(4, 4)[0] is big


class TestShortAndEmpty:
    def test_short_receive_writes_only_what_arrived(self):
        dt = vector(2, 1, 2, INT).commit()
        src = np.arange(16, dtype=np.int32)
        out = np.full(16, -1, dtype=np.int32)
        assert unpack(pack(src, 2, dt), out, 4, dt) == 2
        assert out.tolist() == [0, -1, 2, 3, -1, 5] + [-1] * 10

    def test_count_zero(self):
        dt = vector(2, 1, 2, INT).commit()
        assert pack(np.zeros(0, dtype=np.int32), 0, dt) == b""
        out = np.ones(4, dtype=np.int32)
        assert unpack(b"", out, 0, dt) == 0
        assert unpack(b"", out, 3, dt) == 0
        assert out.tolist() == [1, 1, 1, 1]

    def test_strided_moves_report_their_bytes(self):
        dt = vector(4, 1, 2, DOUBLE).commit()
        arr = np.arange(16, dtype=np.float64)
        with copies.track() as delta:
            packed = pack(arr, 2, dt)
        assert (delta().n_copies, delta().bytes_copied) == (1, 64)
        with copies.track() as delta:
            unpack(packed, arr, 2, dt)
        assert (delta().n_copies, delta().bytes_copied) == (1, 64)


class TestErrorsOnTheStridedPath:
    """Every check of the byte engine still fires, with its text."""

    dt = vector(2, 1, 2, DOUBLE).commit()        # size 16, span 24

    def test_negative_count(self):
        with pytest.raises(MPIErrCount, match=r"count must be >= 0, got -1"):
            pack(np.zeros(4), -1, self.dt)
        with pytest.raises(MPIErrCount, match=r"count must be >= 0, got -2"):
            unpack(b"", np.zeros(4), -2, self.dt)

    def test_send_buffer_span(self):
        with pytest.raises(MPIErrBuffer, match=(
                r"buffer holds 16 bytes, need 24 for 1 x "
                r"hvector\(2,1,16,MPI_DOUBLE\)")):
            pack(np.zeros(2), 1, self.dt)

    def test_receive_buffer_span(self):
        with pytest.raises(MPIErrBuffer,
                           match=r"receive buffer holds 16 bytes, need 24"):
            unpack(b"\x00" * 16, np.zeros(2), 1, self.dt)

    def test_read_only_target(self):
        with pytest.raises(MPIErrBuffer,
                           match=r"cannot unpack into a read-only buffer"):
            unpack(b"\x00" * 16, b"\x00" * 24, 1, self.dt)

    def test_message_longer_than_the_receive(self):
        with pytest.raises(MPIErrTruncate, match=(
                r"message of 32 bytes exceeds receive buffer of 16 bytes "
                r"\(1 x hvector")):
            unpack(b"\x00" * 32, np.zeros(8), 1, self.dt)

    def test_message_of_a_partial_element(self):
        with pytest.raises(MPIErrTruncate, match=(
                r"message of 24 bytes is not a whole number of hvector")):
            unpack(b"\x00" * 24, np.zeros(8), 2, self.dt)


class TestOverlappingReceiveLayout:
    """Elements *extent* apart may interleave; once two of them cover
    the same bytes the layout can be sent from but not received into
    (MPI-3.1 4.1)."""

    def interleaved(self):
        # One element covers ints 0 and 2; the next starts one int on.
        return resized(vector(2, 1, 2, INT), 0, 4).commit()

    def test_pack_of_an_overlapping_layout_stays_legal(self):
        dt = self.interleaved()
        src = np.arange(8, dtype=np.int32)
        assert np.frombuffer(pack(src, 3, dt), np.int32).tolist() \
            == [0, 2, 1, 3, 2, 4]

    def test_unpack_is_rejected_naming_type_and_count(self):
        dt = self.interleaved()
        out = np.zeros(8, dtype=np.int32)
        with pytest.raises(MPIErrDatatype, match=(
                r"cannot unpack 3 x resized\(hvector\(2,1,8,MPI_INT\),"
                r"lb=0,extent=4\): its elements overlap")):
            unpack(b"\x00" * 24, out, 3, dt)
        assert not out.any()

    def test_interleaving_without_overlap_is_received(self):
        dt = self.interleaved()
        out = np.zeros(8, dtype=np.int32)
        data = np.array([10, 12, 11, 13], dtype=np.int32).tobytes()
        assert unpack(data, out, 2, dt) == 2
        assert out.tolist() == [10, 11, 12, 13, 0, 0, 0, 0]

    def test_verdict_is_per_count_whatever_was_built_first(self):
        dt = self.interleaved()
        out = np.zeros(16, dtype=np.int32)
        pack(out, 5, dt)                       # builds the 5-element index
        data = np.arange(10, dtype=np.int32).tobytes()
        assert unpack(data[:16], out, 2, dt) == 2
        assert unpack(data[:16], out, 5, dt) == 2     # short receive
        for count in (3, 4, 5):
            with pytest.raises(MPIErrDatatype, match=f"unpack {count} x"):
                unpack(data[:8 * count], out, count, dt)

    def test_first_overlapping_count_can_be_late(self):
        # Blocks at ints 0 and 6, elements 2 ints apart: element 3
        # lands on element 0's second block.
        dt = resized(indexed([1, 1], [0, 6], INT), 0, 8).commit()
        out = np.zeros(16, dtype=np.int32)
        assert unpack(b"\x01" * 24, out, 3, dt) == 3
        with pytest.raises(MPIErrDatatype, match="unpack 4 x"):
            unpack(b"\x01" * 32, out, 4, dt)
