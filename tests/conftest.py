"""Shared test fixtures and helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BuildConfig
from repro.runtime.world import World


def run_world(nranks: int, fn, config: BuildConfig | None = None,
              args: tuple = (), timeout: float = 120.0):
    """Run *fn(comm, *args)* on a fresh world; returns per-rank results."""
    world = World(nranks, config if config is not None else BuildConfig())
    return world.run(fn, args=args, timeout=timeout)


@pytest.fixture
def two_rank_world():
    """A fresh default-build 2-rank world."""
    return World(2, BuildConfig())


@pytest.fixture
def four_rank_world():
    """A fresh default-build 4-rank world."""
    return World(4, BuildConfig())


@pytest.fixture(scope="session")
def tree():
    """The one analysis of the shipped runtime tree a test session runs
    in-process: the parsed index, and the audit's and the copy
    census's reports and snapshots (:func:`repro.check.analyze_tree`).
    Every whole-tree test reads from it instead of re-parsing."""
    from repro.check import analyze_tree
    return analyze_tree()


@pytest.fixture
def rng():
    """Seeded numpy generator for reproducible randomized tests."""
    return np.random.default_rng(20260707)
