"""Compiled charge plans: what one layer of one call charges, resolved once.

The paper's §2.2 argument, applied to the instrument itself: which
steps a layer charges depends only on the build and on a handful of
per-call facts (extension flags, handle kind, translation class,
datatype usage class, an MPI_PROC_NULL peer), so it is decided once
per such *key*, not once per message.  A layer's charging function —
the code that calls ``proc.charge(category, n, subsystem)`` step by
step — runs against a :class:`PlanRecorder`, never a rank: the steps
become a :class:`ChargePlan` that
:meth:`repro.runtime.proc.Proc.charge` replays in one call, the only
way anything charges at run time.  A call whose charging code raises
is recorded each time (:meth:`repro.runtime.proc.Proc.recording`).

Replay is bit-identical to stepwise charging: the integer totals are
sums, and the virtual clock advances by each step's own
``dt = (n * CPI) / clock_hz`` in order (a fused ``sum(n) * CPI /
clock_hz`` rounds differently and drifts within a few calls).
"""

from __future__ import annotations

from typing import Optional

from repro.fabric.model import FabricSpec
from repro.instrument.categories import Category, Subsystem

Step = tuple[Category, Optional[Subsystem], int, float]


class ChargePlan:
    """The ordered steps ``(category, subsystem, n, dt)`` of one layer,
    plus their folded forms for replay: the instruction ``total``,
    ``(index, n)`` pairs per touched category / subsystem, and the
    per-step clock advances ``dts``."""

    __slots__ = ("steps", "total", "cats", "subs", "dts")

    def __init__(self, steps: list[Step]):
        self.steps = tuple(steps)
        self.total = sum(n for _, _, n, _ in steps)
        cats: dict[int, int] = {}
        subs: dict[int, int] = {}
        for category, subsystem, n, _ in steps:
            cats[category.index] = cats.get(category.index, 0) + n
            if subsystem is not None:
                subs[subsystem.index] = subs.get(subsystem.index, 0) + n
        self.cats = tuple(cats.items())
        self.subs = tuple(subs.items())
        self.dts = tuple(dt for _, _, _, dt in steps)


def fuse(*plans: Optional[ChargePlan]) -> ChargePlan:
    """One plan that replays *plans*' steps back to back (a None layer
    charges nothing): the counter and the clock end exactly where
    charging the plans one after the other leaves them."""
    return ChargePlan([step for plan in plans if plan is not None
                       for step in plan.steps])


class PlanRecorder:
    """Stands in for the ``Proc`` while a charging function runs once.

    It offers exactly what charging code may touch — ``charge`` and the
    build ``config`` — so a charging function that reads the clock or
    the counter fails here instead of compiling a wrong plan.
    """

    def __init__(self, config, fabric: FabricSpec):
        self.config = config
        self._fabric = fabric
        self.steps: list[Step] = []

    def charge(self, category: Category, n: int,
               subsystem: Subsystem | None = None) -> None:
        """Record one step (same signature as ``Proc.charge``)."""
        if n < 0:
            raise ValueError(f"negative cost {n} charged to {category}")
        fabric = self._fabric
        self.steps.append((category, subsystem, n,
                           fabric.cycles_to_seconds(fabric.sw_cycles(n))))
