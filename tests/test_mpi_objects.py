"""Groups, Info, Status, reduction operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.consts import UNDEFINED
from repro.datatypes.predefined import DOUBLE, INT
from repro.errors import (MPIErrGroup, MPIErrInfo, MPIErrOp, MPIErrRank,
                          MPIErrTruncate)
from repro.mpi import reduceops
from repro.mpi.group import IDENT, SIMILAR, UNEQUAL, Group
from repro.mpi.info import MAX_INFO_KEY, MAX_INFO_VAL, Info
from repro.mpi.status import Status
from repro.runtime.request import Request, RequestKind


class TestGroup:
    def test_basic_queries(self):
        g = Group([3, 1, 4])
        assert g.size == 3
        assert g.world_rank(0) == 3
        assert g.rank_of_world(4) == 2
        assert g.rank_of_world(9) == UNDEFINED
        assert 1 in g and 9 not in g

    def test_duplicates_rejected(self):
        with pytest.raises(MPIErrGroup):
            Group([0, 0])

    def test_negative_rank_rejected(self):
        with pytest.raises(MPIErrRank):
            Group([-1])

    def test_set_operations_preserve_order(self):
        a = Group([0, 1, 2, 3])
        b = Group([2, 3, 4, 5])
        assert a.union(b).world_ranks == (0, 1, 2, 3, 4, 5)
        assert a.intersection(b).world_ranks == (2, 3)
        assert a.difference(b).world_ranks == (0, 1)

    def test_incl_excl(self):
        g = Group([10, 20, 30, 40])
        assert g.incl([2, 0]).world_ranks == (30, 10)
        assert g.excl([1, 3]).world_ranks == (10, 30)
        with pytest.raises(MPIErrRank):
            g.incl([4])

    def test_range_incl(self):
        g = Group(list(range(10)))
        assert g.range_incl([(0, 6, 2)]).world_ranks == (0, 2, 4, 6)
        assert g.range_incl([(3, 1, -1)]).world_ranks == (3, 2, 1)
        with pytest.raises(MPIErrGroup):
            g.range_incl([(0, 3, 0)])

    def test_compare(self):
        assert Group([0, 1]).compare(Group([0, 1])) == IDENT
        assert Group([0, 1]).compare(Group([1, 0])) == SIMILAR
        assert Group([0, 1]).compare(Group([0, 2])) == UNEQUAL

    def test_translate_ranks(self):
        """The §3.1 recipe: comm ranks -> world ranks."""
        sub = Group([5, 7, 9])
        world = Group(range(12))
        assert sub.translate_ranks([0, 1, 2], world) == [5, 7, 9]
        assert world.translate_ranks([7, 0], sub) == [1, UNDEFINED]

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=16,
                    unique=True),
           st.lists(st.integers(0, 63), min_size=1, max_size=16,
                    unique=True))
    @settings(max_examples=50, deadline=None)
    def test_set_identities(self, xs, ys):
        a, b = Group(xs), Group(ys)
        union = a.union(b)
        inter = a.intersection(b)
        diff = a.difference(b)
        assert union.size == a.size + b.size - inter.size
        assert diff.size == a.size - inter.size
        for wr in inter.world_ranks:
            assert wr in a and wr in b
        for wr in a.world_ranks:
            assert wr in union


class TestInfo:
    def test_set_get_delete(self):
        info = Info()
        info.set("no_locks", "true")
        assert info.get("no_locks") == "true"
        assert info.get("missing", "d") == "d"
        assert "no_locks" in info
        info.delete("no_locks")
        assert info.nkeys == 0

    def test_delete_missing_rejected(self):
        with pytest.raises(MPIErrInfo):
            Info().delete("nope")

    def test_length_limits(self):
        info = Info()
        with pytest.raises(MPIErrInfo):
            info.set("k" * (MAX_INFO_KEY + 1), "v")
        with pytest.raises(MPIErrInfo):
            info.set("k", "v" * (MAX_INFO_VAL + 1))
        with pytest.raises(MPIErrInfo):
            info.set("", "v")

    def test_dup_is_independent(self):
        a = Info({"x": "1"})
        b = a.dup()
        b.set("x", "2")
        assert a.get("x") == "1"
        assert a == Info({"x": "1"})

    def test_key_order(self):
        info = Info()
        info.set("b", "1")
        info.set("a", "2")
        assert list(info.keys()) == ["b", "a"]


class TestStatus:
    def test_from_request(self):
        req = Request(RequestKind.RECV)
        req.complete(0.0, source=3, tag=9, count_bytes=16)
        status = Status.from_request(req)
        assert (status.source, status.tag) == (3, 9)
        assert status.get_count(DOUBLE) == 2
        assert status.get_elements(INT) == 4

    def test_partial_element_rejected(self):
        status = Status(source=0, tag=0, count_bytes=10)
        with pytest.raises(MPIErrTruncate):
            status.get_count(DOUBLE)


class TestReduceOps:
    @staticmethod
    def _reduced(op, a, b):
        """``op(a, b, out)`` into a fresh array of the operand dtype."""
        return op(a, b, np.empty_like(a)).tolist()

    def test_arithmetic_ops(self):
        a = np.array([1.0, 5.0])
        b = np.array([3.0, 2.0])
        assert self._reduced(reduceops.SUM, a, b) == [4.0, 7.0]
        assert self._reduced(reduceops.PROD, a, b) == [3.0, 10.0]
        assert self._reduced(reduceops.MAX, a, b) == [3.0, 5.0]
        assert self._reduced(reduceops.MIN, a, b) == [1.0, 2.0]

    def test_logical_ops_normalize(self):
        a = np.array([0, 2, 0, 5], dtype=np.int32)
        b = np.array([1, 0, 0, 7], dtype=np.int32)
        assert self._reduced(reduceops.LAND, a, b) == [0, 0, 0, 1]
        assert self._reduced(reduceops.LOR, a, b) == [1, 1, 0, 1]
        # In place, into either operand, in the operand's dtype.
        f = np.array([0.0, 2.5, 0.0, np.nan])
        assert reduceops.LOR(f, f.copy(), f) is f
        assert f.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_bitwise_ops(self):
        a = np.array([0b1100], dtype=np.uint8)
        b = np.array([0b1010], dtype=np.uint8)
        assert self._reduced(reduceops.BAND, a, b) == [0b1000]
        assert self._reduced(reduceops.BOR, a, b) == [0b1110]
        assert self._reduced(reduceops.BXOR, a, b) == [0b0110]

    def test_apply_numpy_in_place(self):
        target = np.array([1.0, 2.0])
        reduceops.SUM.apply_numpy(np.array([10.0, 20.0]), target)
        assert target.tolist() == [11.0, 22.0]

    def test_replace_and_noop(self):
        target = np.array([1.0])
        reduceops.REPLACE.apply_numpy(np.array([9.0]), target)
        assert target[0] == 9.0
        reduceops.NO_OP.apply_numpy(np.array([5.0]), target)
        assert target[0] == 9.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MPIErrOp):
            reduceops.SUM(np.zeros(2), np.zeros(3), np.zeros(2))
        with pytest.raises(MPIErrOp):
            reduceops.SUM(np.zeros(2), np.zeros(2), np.zeros(3))
        with pytest.raises(MPIErrOp):
            reduceops.SUM.apply_numpy(np.zeros(2), np.zeros(3))

    def test_python_object_face(self):
        assert reduceops.SUM.combine_py(2, 3) == 5
        assert reduceops.MAX.combine_py("a", "b") == "b"
        assert reduceops.LAND.combine_py(1, 0) is False

    def test_registry(self):
        assert reduceops.BY_NAME["MPI_SUM"] is reduceops.SUM
        assert len(reduceops.BY_NAME) == 11

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_sum_commutative_associative(self, values):
        arr = np.asarray(values)
        rev = arr[::-1].copy()
        forward = reduceops.SUM(arr, np.zeros_like(arr), np.empty_like(arr))
        backward = reduceops.SUM(rev, np.zeros_like(rev), np.empty_like(rev))
        assert float(forward.sum()) == pytest.approx(float(backward.sum()))
