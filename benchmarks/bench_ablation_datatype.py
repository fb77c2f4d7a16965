"""Ablation 5 (DESIGN.md §6): datatype pack strategies.

Compares the zero-copy contiguous fast path against word-granular
derived-type gathering across layouts and sizes, and verifies the
plan compiled at commit makes repeated packs of the same (type, count)
build nothing — the reuse pattern of every timestepping code.
"""

import time

import numpy as np

from repro.datatypes import contiguous, pack, subarray, unpack, vector
from repro.datatypes.predefined import DOUBLE
from repro.instrument.report import format_table

N = 64


def _layouts():
    face = subarray([N, N, N], [N, N, 1], [0, 0, N - 1], DOUBLE).commit()
    plane = subarray([N, N, N], [1, N, N], [N // 2, 0, 0],
                     DOUBLE).commit()
    strided = vector(count=N, blocklength=1, stride=N,
                     base=DOUBLE).commit()
    dense = contiguous(N * N, DOUBLE).commit()
    return {"contiguous": (dense, 1), "face (z)": (face, 1),
            "plane (x)": (plane, 1), "strided column": (strided, 1)}


def test_pack_strategies_all_correct(print_artifact):
    cube = np.arange(N ** 3, dtype=np.float64).reshape(N, N, N)
    flat = np.ascontiguousarray(cube)
    rows = []
    for name, (dt, count) in _layouts().items():
        data = pack(flat, count, dt)
        out = np.zeros_like(flat)
        unpack(data, out, count, dt)
        # Every packed byte position must round-trip.
        packed_again = pack(out, count, dt)
        assert packed_again == data, name
        # What the gather reads besides the payload, per payload byte:
        # nothing on the contiguous path, else one intp per word —
        # 8.0 through a byte index (what a misaligned buffer still
        # gets), 1.0 at the DOUBLE granule.
        if dt.contig:
            assert dt.plan is None
            granule, per_byte, per_word = "-", 0.0, 0.0
        else:
            granule = dt.plan.granule
            per_byte, per_word = (
                dt.plan.index(count, g)[0].nbytes / len(data)
                for g in (1, granule))
            assert (granule, per_byte, per_word) == (8, 8.0, 1.0)
        rows.append([name, len(data), len(dt.typemap), granule,
                     per_byte, per_word])
    print_artifact("Ablation: datatype pack strategies",
                   format_table(["Layout", "Packed bytes", "Segments",
                                 "Granule", "Index B / payload B (bytes)",
                                 "(words)"], rows))

    # The face layout matches the numpy slice it describes.
    face, _ = _layouts()["face (z)"]
    np.testing.assert_array_equal(
        np.frombuffer(pack(flat, 1, face), np.float64),
        cube[:, :, N - 1].reshape(-1))


def test_committed_plan_amortizes():
    dt = subarray([N, N, N], [N, 1, N], [0, N // 2, 0], DOUBLE)
    cube = np.zeros(N ** 3, dtype=np.float64)
    assert dt.plan is None

    t0 = time.perf_counter()
    dt.commit()
    pack(cube, 1, dt)
    cold = time.perf_counter() - t0

    # The committed handle holds the plan, and packing builds nothing
    # more: the index is the same object before and after.
    plan = dt.plan
    index, _ = plan.index(1, plan.granule)
    assert plan.granule == 8 and index.size == N * N

    t0 = time.perf_counter()
    for _ in range(20):
        pack(cube, 1, dt)
    warm = (time.perf_counter() - t0) / 20

    assert dt.plan is plan
    assert plan.index(1, plan.granule)[0] is index
    assert warm <= cold   # index building amortized away

    dt.free()
    assert dt.plan is None


def test_bench_pack_contiguous(benchmark):
    dt = contiguous(N * N, DOUBLE).commit()
    buf = np.zeros(N * N, dtype=np.float64)
    benchmark(pack, buf, 1, dt)


def test_bench_pack_strided(benchmark):
    dt = vector(count=N, blocklength=1, stride=N, base=DOUBLE).commit()
    buf = np.zeros(N * N, dtype=np.float64)
    benchmark(pack, buf, 1, dt)


def test_bench_pack_face(benchmark):
    dt = subarray([N, N, N], [N, N, 1], [0, 0, N - 1], DOUBLE).commit()
    buf = np.zeros(N ** 3, dtype=np.float64)
    benchmark(pack, buf, 1, dt)
