"""Per-rank instruction counters.

A counter is installed per thread (one rank of the
:class:`~repro.runtime.world.World` runs per thread) and accumulates
abstract-instruction charges by :class:`Category` and, for mandatory
charges, by :class:`Subsystem`.  The hot-path entry point is
:meth:`InstructionCounter.charge`; a module-level :func:`charge`
convenience resolves the thread's installed counter first.

Stepwise charges land in two plain lists indexed by ``member.index``.
The accounting is not free on the wall clock — at 16 stepwise charges
per call it was 18-21 % of a small message's self time — so
per-message paths charge one compiled
:class:`~repro.instrument.plan.ChargePlan` per call
(:meth:`repro.runtime.proc.Proc.charge`), which adds the plan's total
and counts the replay; what ``k`` replays of a plan add to each
category and subsystem is folded in (``k × n``, exact) when somebody
reads ``cat_counts`` / ``sub_counts`` / ``by_category`` /
``by_subsystem`` / ``snapshot()``.  Reading changes nothing, so a read
racing the owning rank's charges is merely stale.  The stepwise entry
here serves tests, probes and off-path charges.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.instrument.categories import Category, Subsystem

_tls = threading.local()


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

    __slots__ = ("label", "total", "_cats", "_subs", "replays")

    def __init__(self, label: str = ""):
        self.label = label
        self.total = 0
        #: Stepwise charges per category / subsystem, at ``member.index``.
        self._cats = [0] * len(Category)
        self._subs = [0] * len(Subsystem)
        #: Replays per compiled plan since the last reset, not yet in
        #: the lists (``Proc.charge`` bumps it; reads fold it).
        self.replays: dict = {}

    def _folded(self, stepwise: list[int], pairs: str) -> list[int]:
        counts = stepwise[:]
        for plan, k in list(self.replays.items()):
            for index, n in getattr(plan, pairs):
                counts[index] += k * n
        return counts

    @property
    def cat_counts(self) -> list[int]:
        """Instructions per category at ``member.index`` (a fresh list)."""
        return self._folded(self._cats, "cats")

    @property
    def sub_counts(self) -> list[int]:
        """Instructions per subsystem at ``member.index`` (a fresh list)."""
        return self._folded(self._subs, "subs")

    @property
    def by_category(self) -> dict[Category, int]:
        """Instructions per :class:`Category` (a fresh dict)."""
        return dict(zip(Category, self.cat_counts))

    @property
    def by_subsystem(self) -> dict[Subsystem, int]:
        """Instructions per mandatory :class:`Subsystem` (a fresh dict)."""
        return dict(zip(Subsystem, self.sub_counts))

    def charge(self, category: Category, n: int,
               subsystem: Subsystem | None = None) -> None:
        """Charge *n* abstract instructions to *category* (and optionally
        attribute them to a mandatory *subsystem*)."""
        self.total += n
        self._cats[category.index] += n
        if subsystem is not None:
            self._subs[subsystem.index] += n

    def reset(self) -> None:
        """Zero all accumulators."""
        self.total = 0
        self._cats[:] = [0] * len(Category)
        self._subs[:] = [0] * len(Subsystem)
        self.replays.clear()

    def snapshot(self) -> Snapshot:
        """Copy the current state (cheap: two small dicts)."""
        return Snapshot(total=self.total, by_category=self.by_category,
                        by_subsystem=self.by_subsystem)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"InstructionCounter({self.label!r}, total={self.total})")


def install_counter(counter: InstructionCounter) -> None:
    """Make *counter* the active counter for the calling thread."""
    _tls.counter = counter


def uninstall_counter() -> None:
    """Remove the calling thread's active counter, if any."""
    _tls.counter = None


def current_counter() -> InstructionCounter | None:
    """Return the calling thread's active counter, or None."""
    return getattr(_tls, "counter", None)


def charge(category: Category, n: int,
           subsystem: Subsystem | None = None) -> None:
    """Charge against the calling thread's counter; no-op if none set.

    Runtime-internal code holds a direct counter reference instead of
    calling this — this helper exists for tests and ad-hoc probes.
    """
    counter = getattr(_tls, "counter", None)
    if counter is not None:
        counter.charge(category, n, subsystem)


@contextmanager
def scoped_counter(label: str = "scoped") -> Iterator[InstructionCounter]:
    """Install a fresh counter for the duration of a ``with`` block.

    >>> with scoped_counter() as c:
    ...     charge(Category.MANDATORY, 5)
    >>> c.total
    5
    """
    prev = current_counter()
    counter = InstructionCounter(label)
    install_counter(counter)
    try:
        yield counter
    finally:
        if prev is None:
            uninstall_counter()
        else:
            install_counter(prev)
