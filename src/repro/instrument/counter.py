"""Per-rank instruction counters.

A counter belongs to one rank's :class:`~repro.runtime.proc.Proc` and
accumulates abstract-instruction charges by :class:`Category` and, for
mandatory charges, by :class:`Subsystem`.  Every charge is a compiled
:class:`~repro.instrument.plan.ChargePlan` replayed by
:meth:`repro.runtime.proc.Proc.charge`, which adds the plan's total
and counts the replay (at 16 stepwise charges per call the accounting
was 18-21 % of a small message's self time); what ``k`` replays add
to each category and subsystem is folded in (``k × n``, exact) when
somebody reads ``cat_counts`` / ``sub_counts`` / ``by_category`` /
``by_subsystem`` / ``snapshot()``.  Reading changes nothing, so a read
racing the owning rank's charges is merely stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.instrument.categories import Category, Subsystem

@dataclass
class Snapshot:
    """Immutable-by-convention copy of a counter's state at an instant."""

    total: int
    by_category: Mapping[Category, int]
    by_subsystem: Mapping[Subsystem, int]

    def delta(self, later: "Snapshot") -> "Snapshot":
        """Counts accumulated between this snapshot and *later*."""
        return Snapshot(
            total=later.total - self.total,
            by_category={c: later.by_category.get(c, 0) - self.by_category.get(c, 0)
                         for c in Category},
            by_subsystem={s: later.by_subsystem.get(s, 0) - self.by_subsystem.get(s, 0)
                          for s in Subsystem},
        )


class InstructionCounter:
    """Accumulates abstract-instruction charges for one rank.

    Parameters
    ----------
    label:
        Free-form identification (usually ``"rank <i>"``), used in
        reports.
    """

    __slots__ = ("label", "total", "replays")

    def __init__(self, label: str = ""):
        self.label = label
        self.total = 0
        #: Replays per compiled plan since the last reset (``Proc.charge``
        #: bumps it; reads fold it).
        self.replays: dict = {}

    def _folded(self, size: int, pairs: str) -> list[int]:
        counts = [0] * size
        for plan, k in list(self.replays.items()):
            for index, n in getattr(plan, pairs):
                counts[index] += k * n
        return counts

    @property
    def cat_counts(self) -> list[int]:
        """Instructions per category at ``member.index`` (a fresh list)."""
        return self._folded(len(Category), "cats")

    @property
    def sub_counts(self) -> list[int]:
        """Instructions per subsystem at ``member.index`` (a fresh list)."""
        return self._folded(len(Subsystem), "subs")

    @property
    def by_category(self) -> dict[Category, int]:
        """Instructions per :class:`Category` (a fresh dict)."""
        return dict(zip(Category, self.cat_counts))

    @property
    def by_subsystem(self) -> dict[Subsystem, int]:
        """Instructions per mandatory :class:`Subsystem` (a fresh dict)."""
        return dict(zip(Subsystem, self.sub_counts))

    def reset(self) -> None:
        """Zero all accumulators."""
        self.total = 0
        self.replays.clear()

    def snapshot(self) -> Snapshot:
        """Copy the current state (cheap: two small dicts)."""
        return Snapshot(total=self.total, by_category=self.by_category,
                        by_subsystem=self.by_subsystem)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"InstructionCounter({self.label!r}, total={self.total})")

