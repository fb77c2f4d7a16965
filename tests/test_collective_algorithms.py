"""Property tests for the collective-algorithm subsystem (PR 9).

Every new allreduce/bcast variant is checked against the flat binomial
oracle across message sizes (including counts that don't divide by the
rank count), non-power-of-two rank counts, multiple reduce ops, and
``num_vcis`` 1 and 4; the topology-aware strategies are checked with
partial last nodes; multi-round schedules must drain under the
background progress engine; ``create_communicator`` overrides the
build selector per communicator; and ``sanitize=True`` exercises the
MSD203 memoryview-checksum path the staging views introduced.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import BuildConfig
from repro.errors import MPIErrArg
from repro.fabric.topology import Topology
from repro.mpi import reduceops
from repro.mpi.hier import create_communicator
from repro.runtime.world import World
from tests.conftest import run_world

ALLREDUCE_ALGOS = ("reduce_bcast", "recursive_doubling", "ring",
                   "reduce_scatter_allgather")
BCAST_ALGOS = ("binomial", "ring")
STRATEGIES = ("naive", "flat", "hierarchical", "two_dimensional")


def _run_topo(nranks, cores_per_node, fn, config=None, timeout=180.0):
    """run_world with an explicit node layout (partial last node when
    cores_per_node doesn't divide nranks)."""
    topo = Topology(nranks=nranks, cores_per_node=cores_per_node)
    world = World(nranks, config if config is not None else BuildConfig(),
                  topology=topo)
    return world.run(fn, timeout=timeout)


def _allreduce_job(algorithm, count, op):
    def job(comm):
        send = (np.arange(count, dtype=np.int64)
                * (comm.rank + 1) - comm.rank)
        recv = np.empty_like(send)
        comm.Allreduce(send, recv, op, algorithm=algorithm)
        return recv
    return job


def _oracle(nranks, count, op):
    ranks = [np.arange(count, dtype=np.int64) * (r + 1) - r
             for r in range(nranks)]
    fold = {reduceops.SUM: np.add, reduceops.MAX: np.maximum,
            reduceops.MIN: np.minimum}[op]
    out = ranks[0]
    for arr in ranks[1:]:
        out = fold(out, arr)
    return out


class TestAllreduceVariantsVsOracle:
    """Every variant must be bit-identical to the rank-ordered numpy
    fold (int64, so the comparison is exact)."""

    @pytest.mark.parametrize("algorithm", ALLREDUCE_ALGOS)
    @pytest.mark.parametrize("nranks", (2, 3, 5, 8))
    @pytest.mark.parametrize("count", (1, 7, 64, 1000))
    def test_sum_matches_oracle(self, algorithm, nranks, count):
        # count=7 on 5 ranks: chunks are ragged and smaller than the
        # rank count's power-of-two core — the boundary cases.
        out = run_world(nranks, _allreduce_job(algorithm, count,
                                               reduceops.SUM))
        expect = _oracle(nranks, count, reduceops.SUM)
        for recv in out:
            np.testing.assert_array_equal(recv, expect)

    @pytest.mark.parametrize("algorithm", ALLREDUCE_ALGOS)
    @pytest.mark.parametrize("op", (reduceops.MAX, reduceops.MIN))
    def test_other_ops_match_oracle(self, algorithm, op):
        out = run_world(3, _allreduce_job(algorithm, 33, op))
        expect = _oracle(3, 33, op)
        for recv in out:
            np.testing.assert_array_equal(recv, expect)

    @pytest.mark.parametrize("algorithm", ("ring",
                                           "reduce_scatter_allgather"))
    def test_fewer_elements_than_ranks(self, algorithm):
        # count=2 on 5 ranks: some ring chunks are empty.
        out = run_world(5, _allreduce_job(algorithm, 2, reduceops.SUM))
        expect = _oracle(5, 2, reduceops.SUM)
        for recv in out:
            np.testing.assert_array_equal(recv, expect)

    @pytest.mark.parametrize("algorithm", ALLREDUCE_ALGOS)
    def test_single_rank_degenerates(self, algorithm):
        out = run_world(1, _allreduce_job(algorithm, 16, reduceops.SUM))
        np.testing.assert_array_equal(
            out[0], _oracle(1, 16, reduceops.SUM))

    @pytest.mark.parametrize("num_vcis", (1, 4))
    @pytest.mark.parametrize("algorithm", ("ring",
                                           "reduce_scatter_allgather"))
    def test_vci_sharded_builds(self, algorithm, num_vcis):
        config = BuildConfig(num_vcis=num_vcis)
        out = run_world(4, _allreduce_job(algorithm, 257, reduceops.SUM),
                        config=config)
        expect = _oracle(4, 257, reduceops.SUM)
        for recv in out:
            np.testing.assert_array_equal(recv, expect)

    def test_unknown_algorithm_rejected(self):
        def job(comm):
            with pytest.raises(MPIErrArg):
                comm.Allreduce(np.zeros(4), np.zeros(4), reduceops.SUM,
                               algorithm="bogus")
            return "ok"
        assert run_world(1, job) == ["ok"]


class TestBcastVariants:
    @pytest.mark.parametrize("algorithm", BCAST_ALGOS)
    @pytest.mark.parametrize("nranks", (2, 3, 7))
    @pytest.mark.parametrize("count", (5, 9000, 100_000))
    def test_matches_root_payload(self, algorithm, nranks, count):
        # 100k floats crosses several ring segments; 9000 is one
        # partial segment.
        def job(comm):
            arr = (np.arange(count, dtype=np.float64)
                   if comm.rank == 2 % comm.size
                   else np.zeros(count))
            comm.Bcast(arr, root=2 % comm.size, algorithm=algorithm)
            return arr
        for arr in run_world(nranks, job):
            np.testing.assert_array_equal(
                arr, np.arange(count, dtype=np.float64))


class TestTopologyStrategies:
    """Hierarchical / two-dimensional compositions on layouts with a
    partial last node (cores_per_node not dividing nranks)."""

    GRIDS = ((7, 3), (8, 4), (5, 4), (9, 3), (6, 2))

    @pytest.mark.parametrize("strategy",
                             ("hierarchical", "two_dimensional"))
    @pytest.mark.parametrize("nranks,cpn", GRIDS)
    def test_allreduce(self, strategy, nranks, cpn):
        config = BuildConfig(communicator_name=strategy)
        out = _run_topo(nranks, cpn,
                        _allreduce_job(None, 101, reduceops.SUM),
                        config=config)
        expect = _oracle(nranks, 101, reduceops.SUM)
        for recv in out:
            np.testing.assert_array_equal(recv, expect)

    @pytest.mark.parametrize("strategy",
                             ("hierarchical", "two_dimensional"))
    @pytest.mark.parametrize("root", (0, 4, 6))
    def test_bcast_and_reduce_any_root(self, strategy, root):
        config = BuildConfig(communicator_name=strategy)

        def job(comm):
            arr = (np.arange(50, dtype=np.int64) + 3
                   if comm.rank == root else np.zeros(50, np.int64))
            comm.Bcast(arr, root=root)
            send = np.full(20, comm.rank + 1, np.int64)
            recv = np.empty(20, np.int64) if comm.rank == root else None
            comm.Reduce(send, recv, reduceops.SUM, root=root)
            return arr, recv

        out = _run_topo(7, 3, job, config=config)
        total = sum(r + 1 for r in range(7))
        for rank, (arr, recv) in enumerate(out):
            np.testing.assert_array_equal(
                arr, np.arange(50, dtype=np.int64) + 3)
            if rank == root:
                np.testing.assert_array_equal(
                    recv, np.full(20, total, np.int64))
            else:
                assert recv is None

    def test_large_payload_forces_rabenseifner_phase(self):
        # >ALLREDUCE_RECDOUBLE_MAX_BYTES: the leaders phase switches
        # to reduce-scatter+allgather; results must stay exact.
        config = BuildConfig(communicator_name="hierarchical")
        count = 40_000            # 320 KB of int64
        out = _run_topo(6, 2, _allreduce_job(None, count,
                                             reduceops.SUM),
                        config=config)
        expect = _oracle(6, count, reduceops.SUM)
        for recv in out:
            np.testing.assert_array_equal(recv, expect)

    def test_single_node_falls_back_to_flat(self):
        # All ranks on one node: hier.route is None, flat selection
        # must serve the call unchanged.
        config = BuildConfig(communicator_name="hierarchical")
        out = _run_topo(4, 8, _allreduce_job(None, 32, reduceops.SUM),
                        config=config)
        expect = _oracle(4, 32, reduceops.SUM)
        for recv in out:
            np.testing.assert_array_equal(recv, expect)


class TestCreateCommunicator:
    def test_override_beats_build_selector(self):
        # Build says naive; the dup'd communicator routes hierarchical
        # while comm-world keeps the build's behavior. Results agree.
        config = BuildConfig(communicator_name="naive")

        def job(comm):
            hier = create_communicator("hierarchical", comm)
            assert hier.collective_strategy() == "hierarchical"
            assert comm.collective_strategy() == "naive"
            send = np.arange(64, dtype=np.int64) * (comm.rank + 1)
            a, b = np.empty_like(send), np.empty_like(send)
            comm.Allreduce(send, a, reduceops.SUM)
            hier.Allreduce(send, b, reduceops.SUM)
            return a, b

        for a, b in _run_topo(6, 2, job, config=config):
            np.testing.assert_array_equal(a, b)

    def test_unknown_strategy_rejected(self):
        def job(comm):
            with pytest.raises(MPIErrArg):
                create_communicator("bogus", comm)
            return "ok"
        assert run_world(1, job) == ["ok"]


class TestProgressEngineDrains:
    """Multi-round schedules (ring, Rabenseifner, hierarchical) must
    complete under the background progress engine."""

    @pytest.mark.parametrize("algorithm", ("ring",
                                           "reduce_scatter_allgather"))
    def test_flat_variants_under_thread_progress(self, algorithm):
        config = BuildConfig(progress="thread")
        out = run_world(5, _allreduce_job(algorithm, 600,
                                          reduceops.SUM),
                        config=config)
        expect = _oracle(5, 600, reduceops.SUM)
        for recv in out:
            np.testing.assert_array_equal(recv, expect)

    def test_hierarchical_under_thread_progress(self):
        config = BuildConfig(progress="thread",
                             communicator_name="hierarchical")
        out = _run_topo(6, 2, _allreduce_job(None, 300, reduceops.SUM),
                        config=config)
        expect = _oracle(6, 300, reduceops.SUM)
        for recv in out:
            np.testing.assert_array_equal(recv, expect)


class TestSanitizerSeesViewPayloads:
    """sanitize=True must accept the staging memoryviews (MSD203 now
    checksums the view in place instead of materializing it) and still
    catch a genuinely mutated in-flight buffer."""

    @pytest.mark.parametrize("algorithm", ("ring",
                                           "reduce_scatter_allgather"))
    def test_clean_run_under_sanitizer(self, algorithm):
        config = BuildConfig(sanitize=True)
        out = run_world(4, _allreduce_job(algorithm, 128,
                                          reduceops.SUM),
                        config=config)
        expect = _oracle(4, 128, reduceops.SUM)
        for recv in out:
            np.testing.assert_array_equal(recv, expect)

    def test_hierarchical_clean_under_sanitizer(self):
        config = dataclasses.replace(
            BuildConfig(sanitize=True), communicator_name="hierarchical")
        out = _run_topo(5, 2, _allreduce_job(None, 64, reduceops.SUM),
                        config=config)
        expect = _oracle(5, 64, reduceops.SUM)
        for recv in out:
            np.testing.assert_array_equal(recv, expect)


class TestStrategiesAgree:
    """All four strategies compute the same allreduce (int64-exact
    despite the hierarchical re-association)."""

    def test_all_strategies_identical(self):
        results = {}
        for strategy in STRATEGIES:
            config = BuildConfig(communicator_name=strategy)
            out = _run_topo(7, 3,
                            _allreduce_job(None, 200, reduceops.SUM),
                            config=config)
            results[strategy] = out[0]
            for recv in out[1:]:
                np.testing.assert_array_equal(recv, out[0])
        base = results["flat"]
        for strategy, recv in results.items():
            np.testing.assert_array_equal(recv, base)
