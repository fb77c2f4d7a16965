"""Benchmark-suite configuration.

Run with::

    pytest benchmarks/ --benchmark-only

Every ``bench_*`` module regenerates one table, figure or ablation of
the paper, or one committed ``BENCH_*.json``: it prints the rows/series
it reports (add ``-s`` to see them), asserts the reproduced shape, and
times the underlying operation with pytest-benchmark.
"""

import pytest


def emit(title: str, text: str) -> None:
    """Print a regenerated artifact (visible with ``pytest -s``)."""
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{text}")


@pytest.fixture(scope="session")
def print_artifact():
    return emit
