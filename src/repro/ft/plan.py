"""Seeded, deterministic fault plans.

A :class:`FaultPlan` describes everything a lossy fabric may do to the
run: per-message drop / duplicate / reorder / delay / corrupt
probabilities, and an optional rank kill at a chosen virtual moment.

Determinism matters more than realism here: the thread-per-rank
runtime schedules ranks nondeterministically, so drawing faults from a
shared RNG stream would make failures unreproducible.  Every decision
is instead a pure hash of ``(seed, src, dst, seq, attempt)`` — the
same plan applied to the same message always yields the same fate, no
matter how the OS interleaved the rank threads.  That is what lets the
property tests in ``tests/test_ft_reliability.py`` replay a seed and
what makes ``BENCH_fault.json`` retransmit curves stable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def _draw(seed: int, *coords: object) -> float:
    """A uniform [0, 1) variate determined purely by ``(seed, coords)``."""
    digest = hashlib.blake2b(repr((seed,) + coords).encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


@dataclass(frozen=True)
class WireFate:
    """What the wire does to one transmission attempt of one message."""

    drop: bool           #: the packet never arrives
    corrupt: bool        #: it arrives, but the checksum rejects it
    duplicate: bool      #: the fabric delivers a second copy
    reorder: bool        #: delivery order swaps with the next packet
    delay: bool          #: the packet is late by the plan's ``delay_s``

    @property
    def lost(self) -> bool:
        """True when the receiver never accepts this attempt's payload
        (dropped outright, or discarded by the checksum) — the sender
        must retransmit."""
        return self.drop or self.corrupt


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic description of a lossy run.

    Attributes
    ----------
    seed:
        Root of every per-message hash draw.
    drop_rate, duplicate_rate, reorder_rate, delay_rate, corrupt_rate:
        Independent per-attempt probabilities in [0, 1].
    delay_s:
        Extra wire latency applied when a delay fires.
    kill_rank:
        World rank to kill, or None.  The kill fires at the rank's next
        MPI call once either threshold below is crossed.
    kill_after_sends:
        Kill once the rank has delivered this many messages.
    kill_at_s:
        Kill once the rank's virtual clock passes this time.
    max_retries:
        Retransmission attempts before the sender declares the peer
        failed (``MPI_ERR_PROC_FAILED``).  The default 8 makes the
        residual loss probability of a 10%-drop plan ~1e-9 per message.
    rto_s:
        Base retransmission timeout; attempt *k* waits
        ``rto_s * 2**k`` (exponential backoff, capped at 2**16).
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 2e-6
    corrupt_rate: float = 0.0
    kill_rank: int | None = None
    kill_after_sends: int | None = None
    kill_at_s: float | None = None
    max_retries: int = 8
    rto_s: float = 1e-6

    def fate(self, src: int, dst: int, seq: int, attempt: int) -> WireFate:
        """The wire's verdict on attempt *attempt* of message *seq*
        from *src* to *dst* — a pure function of the plan.  A zero
        rate draws nothing (a [0, 1) variate is never below it); every
        draw is keyed by its name, so the others are unchanged."""
        at = (src, dst, seq, attempt)
        return WireFate(
            drop=self.drop_rate > 0.0
            and _draw(self.seed, "drop", *at) < self.drop_rate,
            corrupt=self.corrupt_rate > 0.0
            and _draw(self.seed, "corrupt", *at) < self.corrupt_rate,
            duplicate=self.duplicate_rate > 0.0
            and _draw(self.seed, "dup", *at) < self.duplicate_rate,
            reorder=self.reorder_rate > 0.0
            and _draw(self.seed, "reorder", *at) < self.reorder_rate,
            delay=self.delay_rate > 0.0
            and _draw(self.seed, "delay", *at) < self.delay_rate,
        )

    def backoff_s(self, attempt: int) -> float:
        """Retransmission timeout before attempt *attempt* (1-based)."""
        return self.rto_s * float(2 ** min(attempt, 16))

    def kill_due(self, world_rank: int, n_sent: int, now_s: float) -> bool:
        """Should *world_rank* die now, given its delivery count and
        virtual clock?"""
        if self.kill_rank is None or world_rank != self.kill_rank:
            return False
        if self.kill_after_sends is not None \
                and n_sent >= self.kill_after_sends:
            return True
        return self.kill_at_s is not None and now_s >= self.kill_at_s

    @property
    def lossy(self) -> bool:
        """True when any wire-fault probability is nonzero."""
        return (self.drop_rate > 0 or self.duplicate_rate > 0
                or self.reorder_rate > 0 or self.delay_rate > 0
                or self.corrupt_rate > 0)
