"""Heartbeat failure detector: suspect → confirmed-dead escalation.

The ULFM machinery of :mod:`repro.ft.reliability` learns about rank
death from the fault plan itself (an explicit ``kill_rank``) or from a
sender exhausting its retransmissions.  Neither helps when a rank
simply *vanishes* — a dynamic client whose thread stops without
announcing anything, the churn case the endpoints service must
survive.  This module adds the standard distributed answer: a
φ-style heartbeat detector with two thresholds.

* Every monitored rank **beats** — implicitly on each MPI call (the
  :meth:`repro.ft.reliability.RankFaults.check_self` entry hook) and
  while blocked inside ``MPI_Wait`` (a blocked rank is alive by
  construction in this single-address-space runtime, so the wait path
  parks it instead of letting its beat go stale).
* Any rank's **tick** scans the roster: a silence longer than
  ``suspect_s`` moves a rank to *suspect* (a later beat clears it —
  this is what keeps delay-only fault plans from ever killing a live
  rank); silence past ``confirm_s`` *confirms* the death, feeding
  :meth:`repro.ft.reliability.WorldFaults.mark_dead` — exactly the
  path an explicit plan kill takes, so every pending receive against
  the vanished rank fails with ``MPI_ERR_PROC_FAILED`` and the
  existing ``MPIX_Comm_revoke``/``shrink``/``agree`` recovery applies
  unchanged.
* Ticks are driven by the progress engine's timer scan when a
  ``progress`` build is running (the PR 6 virtual-clock timer
  plumbing: the armed detector keeps thread 0 on its deadline tick)
  and opportunistically from every monitored MPI call otherwise, so
  detection works across ``progress`` off/thread builds.

Monitoring is **opt-in per rank**: only registered ranks (dynamic
session/client ranks register on init; anyone else via
``world.detector.register(rank)``) are ever suspected.  A rank that leaves
through ``Session.finalize`` *departs* and is never declared dead —
only unannounced silence escalates.

Timestamps use the wall clock (``time.monotonic``): per-rank virtual
clocks advance independently and are not comparable across ranks, so
a cross-rank silence interval must be measured in real time.

The detector is charge-observational, like :mod:`repro.tsan`: it
charges no instructions, and the runtime reaches it only through the
rank's hook seam (:mod:`repro.runtime.hooks`), so a build without a
detector — or any calibrated Figure 2 / Table 1 build — charges
byte-identically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.world import World

#: Roster states (per monitored rank).
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"          #: confirmed by the detector (terminal)
DEPARTED = "departed"  #: deregistered cleanly (terminal, never dead)


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning knobs of the heartbeat failure detector.

    Attributes
    ----------
    period_s:
        Minimum wall-clock spacing between roster scans — ticks
        arriving faster (every monitored MPI call offers one) are
        coalesced.
    suspect_s:
        Silence after which a monitored rank becomes *suspect*.  A
        beat clears the suspicion; suspicion alone triggers nothing.
    confirm_s:
        Silence after which a suspect is *confirmed dead* and handed
        to ``WorldFaults.mark_dead``.  Must exceed ``suspect_s``; keep
        it comfortably above the longest legitimate beat gap (wire
        delays never gate beats — delay-only plans cannot starve one).
    """

    period_s: float = 0.01
    suspect_s: float = 0.25
    confirm_s: float = 1.0

    def __post_init__(self):
        if not (0 < self.period_s and 0 < self.suspect_s
                < self.confirm_s):
            raise ValueError(
                "detector needs 0 < period_s and "
                f"0 < suspect_s < confirm_s, got {self}")


class _Entry:
    """One monitored rank's roster slot (guarded by the world lock)."""

    __slots__ = ("state", "last_beat", "blocked")

    def __init__(self, now: float):
        self.state = ALIVE
        self.last_beat = now
        #: Depth of MPI blocking waits the rank is parked in — a
        #: blocked rank is alive by construction, so its beat is
        #: refreshed instead of judged while this is nonzero.
        self.blocked = 0


class WorldDetector:
    """World-global heartbeat roster (one per detector build).

    Created by the world when ``BuildConfig.detector`` is set; each
    rank's hook seam (``proc.hooks``) calls it with the rank's number.
    Requires a ``fault_plan`` build (``BuildConfig`` rejects a
    detector without one): confirmation feeds the fault layer's
    ``mark_dead``, which is what turns a silent rank into
    ``MPI_ERR_PROC_FAILED`` on everyone else.
    """

    def __init__(self, world: "World", config: DetectorConfig):
        self.world = world
        self.config = config
        self._mu = threading.Lock()
        #: world rank -> roster entry (registered ranks only).
        self._roster: dict[int, _Entry] = {}
        self._next_tick = 0.0
        # Observational counters (benchmarks and property tests).
        self.n_beats = 0
        self.n_ticks = 0
        self.n_suspects = 0
        self.n_cleared = 0
        self.n_confirmed = 0

    # -- roster management -------------------------------------------------

    def register(self, world_rank: int) -> None:
        """Start monitoring *world_rank* (idempotent; a terminal state
        is never resurrected)."""
        with self._mu:
            if world_rank not in self._roster:
                self._roster[world_rank] = _Entry(time.monotonic())

    def depart(self, world_rank: int) -> None:
        """Mark *world_rank* cleanly departed: monitoring stops and the
        rank can never be confirmed dead."""
        with self._mu:
            entry = self._roster.get(world_rank)
            if entry is not None and entry.state != DEAD:
                entry.state = DEPARTED

    def beat(self, world_rank: int) -> None:
        """Record a heartbeat from *world_rank* (no-op when the rank is
        unmonitored or terminal)."""
        with self._mu:
            entry = self._roster.get(world_rank)
            if entry is None or entry.state in (DEAD, DEPARTED):
                return
            entry.last_beat = time.monotonic()
            self.n_beats += 1
            if entry.state == SUSPECT:
                entry.state = ALIVE
                self.n_cleared += 1

    def enter_blocked(self, world_rank: int) -> None:
        """Park *world_rank*: it is blocked inside an MPI wait, hence
        alive by construction — judging its silence would be a false
        positive (the delay-only property the tests pin)."""
        with self._mu:
            entry = self._roster.get(world_rank)
            if entry is not None:
                entry.blocked += 1

    def exit_blocked(self, world_rank: int) -> None:
        """Unpark *world_rank* and refresh its beat (returning from a
        wait is itself evidence of life)."""
        with self._mu:
            entry = self._roster.get(world_rank)
            if entry is None:
                return
            entry.blocked = max(0, entry.blocked - 1)
            if entry.state in (DEAD, DEPARTED):
                return
            entry.last_beat = time.monotonic()
            if entry.state == SUSPECT:
                entry.state = ALIVE
                self.n_cleared += 1

    # -- scanning ----------------------------------------------------------

    def armed(self) -> bool:
        """True while any monitored rank could still escalate — the
        progress engine keeps its deadline tick running exactly then."""
        with self._mu:
            return any(e.state in (ALIVE, SUSPECT)
                       for e in self._roster.values())

    def maybe_tick(self) -> int:
        """Rate-limited :meth:`tick` (at most one per ``period_s``)."""
        if time.monotonic() < self._next_tick:   # benign race: a lost
            return 0                             # tick retries shortly
        return self.tick()

    def tick(self) -> int:
        """Scan the roster once; escalate silences.  Returns how many
        ranks were confirmed dead by this scan."""
        now = time.monotonic()
        already_dead = set(self.world.ft.dead)
        confirmed: list[int] = []
        with self._mu:
            self._next_tick = now + self.config.period_s
            self.n_ticks += 1
            for rank, entry in self._roster.items():
                if entry.state in (DEAD, DEPARTED):
                    continue
                if rank in already_dead:
                    # The fault plan (or another detector tick) already
                    # killed this rank — adopt the verdict without
                    # counting a detector confirmation.
                    entry.state = DEAD
                    continue
                if entry.blocked:
                    entry.last_beat = now
                    continue
                silence = now - entry.last_beat
                if silence >= self.config.confirm_s:
                    entry.state = DEAD
                    self.n_confirmed += 1
                    confirmed.append(rank)
                elif silence >= self.config.suspect_s \
                        and entry.state == ALIVE:
                    entry.state = SUSPECT
                    self.n_suspects += 1
        # mark_dead outside _mu: it takes the fault layer's condition
        # variable and runs communicator error handlers.
        for rank in confirmed:
            self.world.ft.mark_dead(rank)
        return len(confirmed)

    # -- introspection -----------------------------------------------------

    def state_of(self, world_rank: int) -> Optional[str]:
        """The roster state of *world_rank* (None when unmonitored)."""
        with self._mu:
            entry = self._roster.get(world_rank)
            return entry.state if entry is not None else None

    def stats(self) -> dict:
        """Counters snapshot for benchmarks and the tests."""
        with self._mu:
            states = [e.state for e in self._roster.values()]
        return {
            "n_monitored": len(states),
            "n_beats": self.n_beats,
            "n_ticks": self.n_ticks,
            "n_suspects": self.n_suspects,
            "n_cleared": self.n_cleared,
            "n_confirmed": self.n_confirmed,
            "n_departed": states.count(DEPARTED),
        }


