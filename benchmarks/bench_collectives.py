"""Collective-algorithm crossover benchmark (emits BENCH_collectives.json).

Figure 7's Nek5000 sensitivity exists because a collective is a
schedule of device point-to-point messages: every algorithm pays its
round count in per-message software+fabric overhead and its byte
volume in serialization, so which algorithm wins depends on message
size, rank count, and how expensive the build's per-message path is.
Three measurements on the virtual clock (OFI inter-node fabric, POSIX
shm intra-node):

* **Algorithm sweep** — allreduce time vs message size for every flat
  variant (``reduce_bcast``, ``recursive_doubling``, ``ring``,
  ``reduce_scatter_allgather``) plus the topology-aware
  ``hierarchical`` and ``two_dimensional`` strategies, at multi-node
  rank counts.  Reported crossover points are *measured* sign flips
  between adjacent sweep sizes.
* **LogGP projection** — the same algorithms through
  :mod:`repro.perf.collmodel` (per-message cost from the calibrated
  221-instruction default-build send path), projecting the crossover
  and the hierarchical advantage to thousands of nodes.
* **Training workload** — the :mod:`repro.apps.training` data-parallel
  SGD mini-app's fused gradient allreduce under each communicator
  strategy (the ChainerMN scenario that motivates the selector).

Run standalone (writes ``BENCH_collectives.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_collectives.py [--quick]

or through pytest (same JSON, plus assertions)::

    pytest benchmarks/bench_collectives.py -s
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.apps.training import train
from repro.core.config import BuildConfig
from repro.fabric.topology import Topology
from repro.mpi import reduceops
from repro.mpi.collectives import ALLREDUCE_ALGORITHMS
from repro.perf.collmodel import CollectiveModel
from repro.runtime.world import World

#: Flat allreduce algorithms under study: every one the runtime has.
ALGORITHMS = tuple(ALLREDUCE_ALGORITHMS)
#: Topology-aware strategies measured alongside them.
STRATEGIES = ("hierarchical", "two_dimensional")
#: Message sizes (bytes) of the full sweep; the expected recursive-
#: doubling -> bandwidth-optimal crossover sits inside this range.
SIZES = (1024, 16384, 65536, 262144, 1048576)
#: (nranks, cores_per_node) grid points of the full sweep.
GRID = ((8, 4), (16, 4))
_OUT = Path(__file__).resolve().parent.parent / "BENCH_collectives.json"


def measure_allreduce(nranks: int, cores_per_node: int, nbytes: int,
                      algorithm: str | None = None,
                      strategy: str = "flat") -> float:
    """Virtual-clock seconds of one allreduce (max over ranks), after
    a warm-up call that builds any strategy subcommunicators."""
    topo = Topology(nranks=nranks, cores_per_node=cores_per_node)
    config = BuildConfig(fabric="ofi", communicator_name=strategy)
    world = World(nranks, config, topology=topo)

    def job(comm):
        send = np.full(nbytes // 4, float(comm.rank + 1), np.float32)
        recv = np.empty_like(send)
        comm.Allreduce(send, recv, reduceops.SUM, algorithm=algorithm)
        comm.barrier()
        t0 = comm.proc.vclock.now
        comm.Allreduce(send, recv, reduceops.SUM, algorithm=algorithm)
        return comm.proc.vclock.now - t0

    return max(world.run(job, timeout=300))


def sweep(sizes=SIZES, grid=GRID) -> list[dict]:
    """The measured (nranks, nbytes) x algorithm grid."""
    rows = []
    for nranks, cores_per_node in grid:
        for nbytes in sizes:
            times = {}
            for algo in ALGORITHMS:
                times[algo] = measure_allreduce(
                    nranks, cores_per_node, nbytes, algorithm=algo)
            for strat in STRATEGIES:
                times[strat] = measure_allreduce(
                    nranks, cores_per_node, nbytes, strategy=strat)
            rows.append({"nranks": nranks,
                         "cores_per_node": cores_per_node,
                         "nbytes": nbytes,
                         "seconds": {k: round(v, 9)
                                     for k, v in times.items()}})
    return rows


def measured_crossovers(rows: list[dict]) -> list[dict]:
    """Sign flips between adjacent sweep sizes: algorithm *b* slower
    than *a* at one size and faster at the next."""
    out = []
    by_grid: dict[tuple, list[dict]] = {}
    for row in rows:
        by_grid.setdefault(
            (row["nranks"], row["cores_per_node"]), []).append(row)
    variants = ALGORITHMS + STRATEGIES
    for (nranks, cpn), grid_rows in by_grid.items():
        grid_rows.sort(key=lambda r: r["nbytes"])
        for a in variants:
            for b in variants:
                if a >= b:
                    continue
                for lo, hi in zip(grid_rows, grid_rows[1:]):
                    lo_s, hi_s = lo["seconds"], hi["seconds"]
                    if ((lo_s[a] < lo_s[b]) and (hi_s[a] > hi_s[b])) or \
                       ((lo_s[b] < lo_s[a]) and (hi_s[b] > hi_s[a])):
                        faster_small = a if lo_s[a] < lo_s[b] else b
                        out.append({
                            "nranks": nranks,
                            "cores_per_node": cpn,
                            "pair": [a, b],
                            "faster_below": faster_small,
                            "faster_above": b if faster_small == a else a,
                            "between_bytes": [lo["nbytes"], hi["nbytes"]],
                        })
    return out


def hierarchical_vs_flat(rows: list[dict]) -> dict:
    """The acceptance comparison: hierarchical vs the flat binomial
    (reduce+bcast) allreduce at the largest multi-node sweep point."""
    best = max(rows, key=lambda r: (r["nranks"], r["nbytes"]))
    flat = best["seconds"]["reduce_bcast"]
    hier = best["seconds"]["hierarchical"]
    return {"nranks": best["nranks"],
            "cores_per_node": best["cores_per_node"],
            "nbytes": best["nbytes"],
            "flat_binomial_s": flat,
            "hierarchical_s": hier,
            "speedup": round(flat / hier, 2)}


def training_runs(nranks: int, cores_per_node: int, nparams: int,
                  steps: int) -> dict:
    """The SGD mini-app per strategy: loss trace, replica identity,
    and the virtual-clock cost of its gradient allreduces."""
    out = {}
    for strat in ("naive", "flat") + STRATEGIES:
        topo = Topology(nranks=nranks, cores_per_node=cores_per_node)
        config = BuildConfig(fabric="ofi", communicator_name=strat)
        world = World(nranks, config, topology=topo)

        def job(comm):
            t0 = comm.proc.vclock.now
            res = train(comm, nparams=nparams, steps=steps,
                        fused=(strat != "naive"))
            return res, comm.proc.vclock.now - t0

        results = world.run(job, timeout=600)
        reslist = [r for r, _ in results]
        out[strat] = {
            "nparams": nparams,
            "steps": steps,
            "fused": strat != "naive",
            "first_loss": round(reslist[0].losses[0], 6),
            "final_loss": round(reslist[0].losses[-1], 6),
            "replicas_identical":
                len({r.params_crc for r in reslist}) == 1,
            "gradient_mbytes_reduced":
                round(reslist[0].bytes_reduced / 1e6, 2),
            "vclock_s": round(max(t for _, t in results), 6),
        }
    return out


def run_benchmark(quick: bool = False) -> dict:
    """Run all three measurements; returns (and writes) the artifact."""
    sizes = (4096, 262144) if quick else SIZES
    grid = ((4, 2),) if quick else GRID
    rows = sweep(sizes, grid)
    crossovers = measured_crossovers(rows)

    model = CollectiveModel()
    modeled_crossover = model.crossover_bytes(
        "recursive_doubling", "ring", nranks=grid[-1][0])
    result = {
        "benchmark": "collectives",
        "fabric": "ofi",
        "shm_fabric": "posix",
        "algorithms": list(ALGORITHMS),
        "strategies": list(STRATEGIES),
        "sweep": rows,
        "measured_crossovers": crossovers,
        "hierarchical_vs_flat": hierarchical_vs_flat(rows),
        "model": {
            "per_message_instructions": model.sw_instructions,
            "recdouble_to_ring_crossover_bytes": modeled_crossover,
            "projection_1MiB": model.project_scaling(
                1 << 20, cores_per_node=grid[-1][1]),
        },
        "training": training_runs(
            nranks=4 if quick else 8,
            cores_per_node=2 if quick else 4,
            nparams=20_000 if quick else 2_000_000,
            steps=2 if quick else 3),
    }
    if not quick:   # the quick CI smoke must not clobber the artifact
        _OUT.write_text(json.dumps(result, indent=2) + "\n")
    return result


def test_collective_crossover(print_artifact):
    """Acceptance: the hierarchical composition beats the flat
    binomial allreduce at the largest multi-node point, at least one
    measured crossover exists, and the training replicas stay
    bit-identical under every strategy."""
    result = run_benchmark()
    print_artifact("Collectives benchmark (BENCH_collectives.json)",
                   json.dumps(result, indent=2))
    assert result["hierarchical_vs_flat"]["speedup"] > 1.0, \
        result["hierarchical_vs_flat"]
    assert result["measured_crossovers"], \
        "no algorithm crossover observed in the sweep"
    for strat, row in result["training"].items():
        assert row["replicas_identical"], (strat, row)
        assert row["final_loss"] < row["first_loss"], (strat, row)
    assert _OUT.exists()


if __name__ == "__main__":
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small grid, tiny training run")
    print(json.dumps(run_benchmark(quick=parser.parse_args().quick),
                     indent=2))
