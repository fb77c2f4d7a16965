"""The copy census: COPYMAP.json snapshot discipline and its runtime
ground truth.

Static side: the committed ``COPYMAP.json`` is byte-equivalent to a
fresh census over the shipped tree, covers all 12 published paths, and
shows the zero-copy conversion (fastpath strictly cheaper than the
legacy copy mode on every converted path).

Dynamic side: one eager contiguous transfer performs *exactly* the
number of payload copies the census predicts — in the default build
one copy end-to-end (the receive-side scatter), in a fault build,
whose sends snapshot their payload, two (pack materialization +
scatter) — measured by the :mod:`repro.instrument.copies` counters the
pack layer and the matching engine report into.  A contiguous put or
get moves its bytes once, with no view, charged native or as the AM
fallback; a derived target layout packs and unpacks.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.core.config import BuildConfig
from repro.ft import FaultPlan
from repro.instrument import copies
from tests.conftest import run_world

ROOT = pathlib.Path(__file__).resolve().parent.parent

PATH_NAMES = {
    "ch3_isend", "ch3_put",
    "ch4_isend_default", "ch4_isend_noerr", "ch4_isend_nothread",
    "ch4_isend_ipo", "isend_all_opts",
    "ch4_put_default", "ch4_put_noerr", "ch4_put_nothread",
    "ch4_put_ipo", "put_all_opts",
}


@pytest.fixture(scope="module")
def committed() -> dict:
    return json.loads((ROOT / "COPYMAP.json").read_text())


class TestCopymapSnapshot:
    def test_matches_committed(self, tree, committed):
        """Regenerating the census reproduces the committed artifact —
        the AUDIT.json diff discipline for data movement."""
        assert tree.bufcheck_snapshot == committed

    def test_all_published_paths_covered(self, committed):
        assert set(committed["paths"]) == PATH_NAMES

    def test_tree_is_finding_free(self, committed):
        assert committed["findings"]["count"] == 0
        assert committed["findings"]["by_rule"] == {}

    def test_isend_rows_have_both_sides(self, committed):
        for name, row in committed["paths"].items():
            assert row["send"], name
            if row["op"] == "isend":
                assert row["recv"], name


class TestZeroCopyConversion:
    """The conversion's contract, as frozen in the committed census."""

    def test_fastpath_never_costlier_than_copy_mode(self, committed):
        for name, row in committed["paths"].items():
            for side in ("send", "recv"):
                variant = row.get(side)
                if not variant:
                    continue
                assert variant["fastpath"]["copies"] \
                    <= variant["copy_mode"]["copies"], (name, side)

    def test_isend_send_side_is_zero_copy(self, committed):
        """The converted eager contiguous send path carries a view the
        whole way: no copy site on any published isend path."""
        for name, row in committed["paths"].items():
            if row["op"] != "isend":
                continue
            assert row["send"]["fastpath"]["copies"] == 0, name
            assert row["send"]["copy_mode"]["copies"] == 1, name

    def test_recv_side_keeps_the_one_scatter(self, committed):
        """Landing into the user's receive buffer is the one copy MPI
        semantics require; the census sees exactly it."""
        for name, row in committed["paths"].items():
            if row["op"] != "isend":
                continue
            sites = row["recv"]["fastpath"]["copy_sites"]
            assert len(sites) == 1, name
            assert "unpack" in sites[0] and "scatter" in sites[0], name

    def test_put_paths_dropped_the_origin_copy(self, committed):
        for name, row in committed["paths"].items():
            if row["op"] != "put":
                continue
            assert row["send"]["fastpath"]["copies"] \
                < row["send"]["copy_mode"]["copies"], name

    def test_put_fastpath_copies_once_into_the_window(self, committed):
        """A put's one fast-path copy is the store into the target
        window, with no origin copy before it: CH4's RDMA store, CH3's
        AM handler scatter."""
        for name, row in committed["paths"].items():
            if row["op"] != "put":
                continue
            store = ("repro/datatypes/pack.py:unpack::copy:scatter"
                     if name.startswith("ch3_") else
                     "repro/mpi/rma.py:WindowState.rdma::copy:scatter")
            assert row["send"]["fastpath"]["copy_sites"] == [store], name

    def test_send_path_pins_a_keepalive_transfer(self, committed):
        """The view-carrying send paths own a sanctioned transfer point
        (``Message.own_data``) — the census proves the keepalive
        discipline is on the path, not just in the rulebook."""
        for name, row in committed["paths"].items():
            if row["op"] != "isend":
                continue
            assert row["send"]["fastpath"]["transfers"] >= 1, name


def _one_transfer(comm, n):
    """Rank 0 sends *n* contiguous doubles, rank 1 lands them."""
    if comm.rank == 0:
        src = np.arange(n, dtype=np.float64)
        comm.Send(src, dest=1, tag=7)
        return None
    dst = np.zeros(n, dtype=np.float64)
    comm.Recv(dst, source=0, tag=7)
    return dst.sum()


class TestRuntimeCrossCheck:
    """The static census against the live counters, per build mode."""

    N = 64          #: doubles per transfer (well under eager cutoff)
    NBYTES = N * 8

    def _measure(self, config) -> copies.CopySnapshot:
        with copies.track() as delta:
            results = run_world(2, _one_transfer, config=config,
                                args=(self.N,))
        assert results[1] == sum(range(self.N))
        return delta()

    def test_zero_copy_build_matches_census(self, committed):
        row = committed["paths"]["ch4_isend_default"]
        expected = (row["send"]["fastpath"]["copies"]
                    + row["recv"]["fastpath"]["copies"])
        moved = self._measure(BuildConfig())
        assert moved.n_copies == expected == 1
        assert moved.bytes_copied == self.NBYTES
        # The payload travelled as a view at least once.
        assert moved.n_views >= 1

    def test_copy_mode_build_matches_census(self, committed):
        row = committed["paths"]["ch4_isend_default"]
        expected = (row["send"]["copy_mode"]["copies"]
                    + row["recv"]["copy_mode"]["copies"])
        moved = self._measure(BuildConfig(fault_plan=FaultPlan()))
        assert moved.n_copies == expected == 2
        assert moved.bytes_copied == 2 * self.NBYTES
        # Owned bytes never need the ownership-transfer escape hatch.
        assert moved.n_transfers == 0

    def test_conversion_halves_runtime_copies(self):
        fast = self._measure(BuildConfig())
        legacy = self._measure(BuildConfig(fault_plan=FaultPlan()))
        assert fast.n_copies < legacy.n_copies
        assert fast.bytes_copied * 2 == legacy.bytes_copied


class TestRuntimeRMACrossCheck:
    """One-sided data movement against the live counters: a contiguous
    put or get is one copy and no view — the census's window store —
    native or charged as the AM fallback; a derived target layout packs
    at the origin and unpacks at the target."""

    N = 8           #: doubles per call

    def _measure(self, config, call, target=None, origin=None):
        """Copies and views of one warm ``Window.<call>`` of ``N``
        doubles (or of *origin*, an ``(array, count, datatype)``) into
        a one-rank window, and the window afterwards."""
        from repro.mpi.comm import Communicator
        from repro.mpi.rma import Window
        from repro.runtime import World
        comm = Communicator.world_view(World(1, config).proc(0))
        mem = np.full(2 * self.N, -1.0)
        win = Window.create(comm, mem, disp_unit=8)
        win.fence()
        if origin is None:
            origin = np.arange(1.0, self.N + 1)
        rma = getattr(win, call)
        rma(origin, 0, 0, target=target)     # compile the plans
        with copies.track() as delta:
            rma(origin, 0, 0, target=target)
        moved = delta()
        win.fence()
        return moved, mem, origin

    def _assert_moved(self, call, mem, origin):
        if call == "put":
            assert (mem[:self.N] == np.arange(1.0, self.N + 1)).all()
            assert (mem[self.N:] == -1.0).all()
        else:
            assert (mem == -1.0).all() and (origin == -1.0).all()

    @pytest.mark.parametrize("config", [
        BuildConfig(), BuildConfig(force_am_fallback=True)],
        ids=["native", "force_am_fallback"])
    @pytest.mark.parametrize("call", ["put", "get"])
    def test_contiguous_moves_once_without_a_view(self, call, config):
        """The AM fallback's charges leave the data path alone: a
        contiguous put or get is the one window store or load."""
        moved, mem, origin = self._measure(config, call)
        assert (moved.n_copies, moved.n_views) == (1, 0)
        assert moved.bytes_copied == self.N * 8
        self._assert_moved(call, mem, origin)

    @pytest.mark.parametrize("call", ["put", "get"])
    def test_origin_of_a_dtype_memoryview_cannot_export(self, call):
        """A datetime64 origin described as ``INT64`` — an array
        ``memoryview`` refuses — moves its bytes as pack would."""
        from repro.datatypes.predefined import INT64
        stamps = np.arange(1, self.N + 1).astype("datetime64[s]")
        moved, mem, _ = self._measure(BuildConfig(), call,
                                      origin=(stamps, self.N, INT64))
        assert (moved.n_copies, moved.n_views) == (1, 0)
        if call == "put":
            assert (mem[:self.N].view(np.int64)
                    == np.arange(1, self.N + 1)).all()
        else:
            assert (stamps.view(np.int64) == mem[:self.N].view(np.int64)
                    ).all()

    def test_derived_target_packs_and_scatters(self):
        from repro.datatypes.derived import vector
        from repro.datatypes.predefined import DOUBLE
        column = vector(self.N, 1, 2, DOUBLE).commit()
        moved, mem, origin = self._measure(BuildConfig(), "put",
                                           target=(1, column))
        assert (moved.n_copies, moved.n_views) == (1, 1)
        assert moved.bytes_copied == moved.bytes_viewed == self.N * 8
        assert (mem[::2] == origin).all() and (mem[1::2] == -1.0).all()
