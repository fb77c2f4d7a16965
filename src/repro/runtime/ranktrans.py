"""Rank-to-network-address translation strategies (paper Section 3.1).

Every communicator must map its integer ranks to physical network
addresses (here: world ranks).  The paper discusses two families:

* **Direct table** — an O(P)-memory array per communicator; the lookup
  is "two instructions, but at least one of those is a memory
  dereference".
* **Compressed** (Guo et al., IPDPS'17 [22]) — stride/offset pattern
  detection that collapses regular communicators to O(1) memory at
  ~11 instructions per lookup.

MPICH at scale (and hence our calibrated default) pays the compressed
cost — the 11 instructions in ``ISEND_MANDATORY.rank_translation``.
``benchmarks/bench_ablation_ranktrans.py`` reproduces the trade-off.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import MPIErrRank


class RankTranslation:
    """Interface: translate a communicator rank to a world rank."""

    #: Abstract instructions one lookup costs under this strategy.
    lookup_instructions: int = 0
    #: Bytes of translation state per communicator (model, for reports).
    memory_bytes: int = 0

    def world_rank(self, comm_rank: int) -> int:
        """Map *comm_rank* to the world rank it denotes."""
        raise NotImplementedError

    @property
    def size(self) -> int:
        """Number of ranks the communicator covers."""
        raise NotImplementedError


class DirectTableTranslation(RankTranslation):
    """O(P) array lookup: 2 instructions, one of them a dereference."""

    lookup_instructions = 2

    def __init__(self, world_ranks: Sequence[int]):
        if not world_ranks:
            raise MPIErrRank("communicator must contain at least one rank")
        self._table = tuple(world_ranks)
        self.memory_bytes = 8 * len(self._table)

    def world_rank(self, comm_rank: int) -> int:
        """O(1) array lookup."""
        if not 0 <= comm_rank < len(self._table):
            raise MPIErrRank(
                f"rank {comm_rank} out of range [0, {len(self._table)})")
        return self._table[comm_rank]

    @property
    def size(self) -> int:
        """Ranks covered."""
        return len(self._table)


class CompressedTranslation(RankTranslation):
    """Offset/stride compression: O(1) memory, ~11 instructions.

    Falls back to a direct table internally when the communicator's
    rank sequence is irregular (as the compression schemes of [22] do
    for their residual buckets), while still charging the compressed
    lookup cost — the pattern *test* runs regardless.
    """

    lookup_instructions = 11

    def __init__(self, world_ranks: Sequence[int]):
        if not world_ranks:
            raise MPIErrRank("communicator must contain at least one rank")
        self._size = len(world_ranks)
        self._offset = world_ranks[0]
        if self._size == 1:
            self._stride = 1
            self._table = None
        else:
            stride = world_ranks[1] - world_ranks[0]
            regular = all(world_ranks[i] == self._offset + i * stride
                          for i in range(self._size))
            if regular and stride != 0:
                self._stride = stride
                self._table = None
            else:
                self._stride = 0
                self._table = tuple(world_ranks)
        self.memory_bytes = 24 if self._table is None else 24 + 8 * self._size

    @property
    def is_regular(self) -> bool:
        """True when the mapping compressed to offset+stride form."""
        return self._table is None

    def world_rank(self, comm_rank: int) -> int:
        """Stride arithmetic (or residual-table fallback)."""
        if not 0 <= comm_rank < self._size:
            raise MPIErrRank(
                f"rank {comm_rank} out of range [0, {self._size})")
        if self._table is None:
            return self._offset + comm_rank * self._stride
        return self._table[comm_rank]

    @property
    def size(self) -> int:
        """Ranks covered."""
        return self._size


#: Translation classes by ``BuildConfig.rank_translation`` name.
TRANSLATIONS = {"compressed": CompressedTranslation,
                "direct": DirectTableTranslation}


def build_translation(world_ranks: Sequence[int],
                      strategy: str = "compressed") -> RankTranslation:
    """Build the configured translation for a communicator.

    Parameters
    ----------
    strategy:
        ``"compressed"`` (default, matches the calibrated cost model)
        or ``"direct"``.
    """
    cls = TRANSLATIONS.get(strategy)
    if cls is None:
        raise ValueError(
            f"unknown rank-translation strategy {strategy!r}; "
            f"expected one of {sorted(TRANSLATIONS)}")
    return cls(world_ranks)
