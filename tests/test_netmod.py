"""Netmods/shmmods: capabilities, AM fallback, locality routing."""

import numpy as np
import pytest

from repro.core.config import BuildConfig
from repro.datatypes import vector
from repro.datatypes.predefined import DOUBLE
from repro.fabric.model import OFI_PSM2
from repro.fabric.topology import Topology
from repro.netmod import (InfiniteNetmod, OFINetmod, PosixShmmod,
                          UCXNetmod, XpmemShmmod, build_netmod,
                          build_shmmod)
from repro.runtime.world import World


class TestCapabilities:
    def test_ofi_profile(self):
        assert not OFINetmod.native_noncontig_send
        assert OFINetmod.native_rma_contig
        assert not OFINetmod.native_rma_noncontig

    def test_ucx_profile(self):
        assert UCXNetmod.native_noncontig_send
        assert not UCXNetmod.native_rma_noncontig

    def test_infinite_everything_native(self):
        assert InfiniteNetmod.native_noncontig_send
        assert InfiniteNetmod.native_rma_noncontig
        assert InfiniteNetmod.native_atomics

    def test_shmmods_all_native(self):
        for cls in (PosixShmmod, XpmemShmmod):
            assert cls.native_noncontig_send
            assert cls.native_rma_noncontig

    def test_registry(self):
        with pytest.raises(KeyError):
            build_netmod(None, "token-ring")
        with pytest.raises(KeyError):
            build_shmmod(None, "sysv")


def _internode_world(config):
    """2 ranks forced onto different nodes, so traffic uses the netmod."""
    return World(2, config, topology=Topology(nranks=2, cores_per_node=1))


class TestFallbackRouting:
    def test_ofi_noncontig_send_falls_back_to_am(self):
        def main(comm):
            dt = vector(3, 1, 2, DOUBLE).commit()
            buf = np.zeros(6, dtype=np.float64)
            if comm.rank == 0:
                comm.Isend((buf, 1, dt), dest=1, tag=0).wait()
                nm = comm.proc.device.netmod
                return nm.n_native, nm.n_am_fallback
            comm.Recv((np.zeros(6, dtype=np.float64), 1, dt),
                      source=0, tag=0)
            return None

        native, fallback = _internode_world(
            BuildConfig(fabric="ofi")).run(main)[0]
        assert (native, fallback) == (0, 1)

    def test_ofi_contig_send_is_native(self):
        def main(comm):
            if comm.rank == 0:
                comm.Isend(np.zeros(4, dtype=np.float64), dest=1,
                           tag=0).wait()
                nm = comm.proc.device.netmod
                return nm.n_native, nm.n_am_fallback
            comm.Recv(np.zeros(4, dtype=np.float64), source=0, tag=0)
            return None

        native, fallback = _internode_world(
            BuildConfig(fabric="ofi")).run(main)[0]
        assert (native, fallback) == (1, 0)

    def test_am_fallback_charges_more(self):
        """The fast-path-vs-AM gap is the point of CH4's design."""
        def main(comm, contig):
            if contig:
                payload = (np.zeros(3, dtype=np.float64), 3, DOUBLE)
            else:
                dt = vector(3, 1, 2, DOUBLE).commit()
                payload = (np.zeros(6, dtype=np.float64), 1, dt)
            if comm.rank == 0:
                with comm.proc.tracer.call("send"):
                    comm.Isend(payload, dest=1, tag=0).wait()
                return comm.proc.tracer.last("send").total
            buf = (np.zeros(6, dtype=np.float64), payload[1], payload[2])
            comm.Recv(buf, source=0, tag=0)
            return None

        cfg = BuildConfig(fabric="ofi")
        contig = _internode_world(cfg).run(main, args=(True,))[0]
        noncontig = _internode_world(cfg).run(main, args=(False,))[0]
        assert noncontig > contig

    def test_force_am_ablation_flag(self):
        def main(comm):
            if comm.rank == 0:
                comm.Isend(np.zeros(1, dtype=np.float64), dest=1,
                           tag=0).wait()
                nm = comm.proc.device.netmod
                return nm.n_am_fallback
            comm.Recv(np.zeros(1, dtype=np.float64), source=0, tag=0)
            return None

        cfg = BuildConfig(fabric="ofi", force_am_fallback=True)
        assert _internode_world(cfg).run(main)[0] == 1


class TestLocalityRouting:
    def test_same_node_uses_shmmod(self):
        def main(comm):
            if comm.rank == 0:
                comm.Isend(np.zeros(1, dtype=np.float64), dest=1,
                           tag=0).wait()
                dev = comm.proc.device
                return (dev.shmmod.spec.name,
                        dev.shmmod.n_native + dev.shmmod.n_am_fallback,
                        dev.netmod.n_native + dev.netmod.n_am_fallback)
            comm.Recv(np.zeros(1, dtype=np.float64), source=0, tag=0)
            return None

        # Default topology: 16 cores/node -> ranks 0 and 1 share a node.
        for shm_fabric in ("posix", "xpmem"):
            world = World(2, BuildConfig(fabric="ofi",
                                         shm_fabric=shm_fabric))
            assert world.run(main)[0] == (shm_fabric, 1, 0)

    def test_cross_node_uses_netmod(self):
        def main(comm):
            if comm.rank == 0:
                comm.Isend(np.zeros(1, dtype=np.float64), dest=1,
                           tag=0).wait()
                dev = comm.proc.device
                return (dev.shmmod.n_native + dev.shmmod.n_am_fallback,
                        dev.netmod.n_native + dev.netmod.n_am_fallback)
            comm.Recv(np.zeros(1, dtype=np.float64), source=0, tag=0)
            return None

        shm, net = _internode_world(BuildConfig(fabric="ofi")).run(main)[0]
        assert shm == 0 and net == 1

    def test_self_send_uses_shmmod(self):
        def main(comm):
            comm.Isend(np.zeros(1, dtype=np.float64), dest=0,
                       tag=0).wait()
            comm.Recv(np.zeros(1, dtype=np.float64), source=0, tag=0)
            dev = comm.proc.device
            return dev.shmmod.n_native

        world = World(1, BuildConfig(fabric="ofi"))
        assert world.run(main)[0] == 1

    def test_shm_is_faster_than_net(self):
        def main(comm):
            if comm.rank == 0:
                t0 = comm.proc.vclock.now
                comm.Isend(np.zeros(1, dtype=np.float64), dest=1,
                           tag=0).wait()
                return comm.proc.vclock.now - t0
            comm.Recv(np.zeros(1, dtype=np.float64), source=0, tag=0)
            return None

        cfg = BuildConfig(fabric="ofi")
        intra = World(2, cfg).run(main)[0]
        inter = _internode_world(cfg).run(main)[0]
        assert intra < inter


class TestIssueTiming:
    def test_issue_advances_clock_by_inject_cycles(self):
        world = World(1, BuildConfig(fabric="ofi"))
        proc = world.proc(0)
        nm = build_netmod(proc, "ofi")
        t0 = proc.vclock.now
        result = nm.issue(1, native=True)
        dt = proc.vclock.now - t0
        assert dt == pytest.approx(
            OFI_PSM2.cycles_to_seconds(OFI_PSM2.inject_cycles))
        assert result.arrive_s == pytest.approx(
            proc.vclock.now + OFI_PSM2.latency_s + 1 / OFI_PSM2.bandwidth_Bps)

    def test_round_trip_completion(self):
        world = World(1, BuildConfig(fabric="ofi"))
        proc = world.proc(0)
        nm = build_netmod(proc, "ofi")
        res = nm.issue(8, native=True, round_trip=True)
        assert res.complete_s == pytest.approx(
            res.arrive_s + OFI_PSM2.latency_s)
