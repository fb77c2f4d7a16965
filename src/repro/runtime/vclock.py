"""Per-rank virtual clocks.

All figure timings derive from these clocks, not wall time: a rank's
clock advances by ``instructions * CPI / clock_hz`` for software work,
by fabric costs for injection/transfer, and by explicit compute charges
from the application proxies.  Clocks merge (max) at synchronization
points — message completion, barriers, window fences.
"""

from __future__ import annotations

from repro.fabric.model import FabricSpec


class VClock:
    """A monotone virtual clock measured in seconds.

    The clock is owned by exactly one rank thread; merging with a
    remote timestamp happens in the owning thread only, so no locking
    is needed.
    """

    __slots__ = ("now", "_fabric")

    def __init__(self, fabric: FabricSpec, start: float = 0.0):
        if start < 0:
            raise ValueError(f"clock cannot start negative: {start}")
        self.now = start
        self._fabric = fabric

    @property
    def fabric(self) -> FabricSpec:
        """The fabric used for cycle/second conversions."""
        return self._fabric

    def advance_seconds(self, dt: float) -> float:
        """Advance by *dt* seconds; returns the new time."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative time: {dt}")
        self.now += dt
        return self.now

    def advance_instructions(self, instructions: float) -> float:
        """Advance by the time *instructions* abstract instructions take."""
        fabric = self._fabric
        return self.advance_seconds(
            fabric.cycles_to_seconds(fabric.sw_cycles(instructions)))

    def merge(self, remote_time: float) -> float:
        """Synchronize with a remote timestamp: ``now = max(now, t)``."""
        if remote_time > self.now:
            self.now = remote_time
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VClock({self.now:.9f}s)"
