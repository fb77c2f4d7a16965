"""Message and envelope types.

An :class:`Envelope` carries exactly the matching information MPI-3.1
prescribes — the (communicator context, source, tag) triplet the paper's
Section 3.6 analyzes — plus the ``nomatch`` flag of the proposed
``MPI_ISEND_NOMATCH`` extension, under which source and tag bits are
disabled and only communicator isolation remains.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from repro.instrument import copies

_seq = itertools.count()


class Envelope(NamedTuple):
    """Matching metadata of one message."""

    ctx: int        #: communicator context id (isolation — never disabled)
    src: int        #: sender's rank within the communicator
    tag: int        #: user tag
    nomatch: bool = False  #: sent via the no-match-bits extension


class Message:
    """One in-flight point-to-point message (or AM fallback packet).

    Attributes
    ----------
    env:
        Matching envelope.
    data:
        Packed payload: owned ``bytes``, or a zero-copy ``memoryview``
        borrowing the sender's buffer while the message is in flight
        within the sender's call (the matching engine materializes via
        :meth:`own_data` before a message can outlive the send).
    arrive_s:
        Virtual time at which the payload is available at the target
        (sender clock at issue + fabric transfer time).
    sync:
        Synchronous-send handshake (MPI_SSEND); the matching engine
        records the match time and fires the event.
    seq:
        Global deposit sequence number; preserves MPI's non-overtaking
        order for diagnostics (arrival order itself is queue order).
    am_handler:
        Non-None for active-message fallback packets: name of the CH4
        core handler to run at the target (e.g. ``"put"``).
    am_args:
        Arguments for the AM handler.
    order, removed:
        The matching engine's: a message that found no posted receive
        is itself the unexpected-queue element, stamped on the way in
        with the engine's arrival order and a lazy-deletion mark
        (unset until then; ``seq`` is the application-visible number).
    """

    __slots__ = ("env", "data", "arrive_s", "sync", "seq", "am_handler",
                 "am_args", "order", "removed")

    def __init__(self, env: Envelope, data: "bytes | memoryview",
                 arrive_s: float, sync: "object | None" = None,
                 seq: int | None = None, am_handler: str | None = None,
                 am_args: dict | None = None):
        self.env = env
        self.data = data
        self.arrive_s = arrive_s
        self.sync = sync
        self.seq = next(_seq) if seq is None else seq
        self.am_handler = am_handler
        self.am_args = am_args

    @property
    def nbytes(self) -> int:
        """Payload size in bytes."""
        return len(self.data)

    def own_data(self) -> None:
        """Take ownership of a borrowed payload, in place.

        MPI lets the application reuse its send buffer the moment the
        send completes, so a zero-copy payload view must be
        materialized before the message can sit in an unexpected queue
        (or a retransmit stash) past the sending call.  This is the
        runtime's one sanctioned ownership-transfer point; a no-op for
        payloads that are already owned ``bytes``.
        """
        if isinstance(self.data, memoryview):
            copies.note_transfer(len(self.data))
            self.data = bytes(self.data)

    def owned_data(self) -> bytes:
        """The payload as owned ``bytes`` (for bufferless receives,
        whose ``request.payload`` outlives the sender's buffer)."""
        if isinstance(self.data, memoryview):
            copies.note_copy(len(self.data))
            self.data = bytes(self.data)
        return self.data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = f"AM:{self.am_handler}" if self.am_handler else "pt2pt"
        return (f"Message({kind}, ctx={self.env.ctx}, src={self.env.src}, "
                f"tag={self.env.tag}, {self.nbytes}B, t={self.arrive_s:.3e})")
