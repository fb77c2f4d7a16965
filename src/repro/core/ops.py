"""Operation descriptors handed from the MPI layer to devices.

The CH4 design principle the paper highlights (takeaway 2 of Section 2)
is *flow-through*: "the communication semantics are never lost all the
way through the software stack".  These descriptors are that principle
made concrete — a netmod receives the full MPI-level operation,
including which call produced it and every parameter, and can choose
its native path or the AM fallback with full information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Optional

from repro.core.extensions import ExtFlags, NONE
from repro.datatypes.pack import Buffer
from repro.datatypes.usage import DatatypeRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Communicator
    from repro.mpi.rma import Window


#: The receive kind of a ``Communicator._plans`` key ``(kind, peer,
#: flags.bits, dtref.key)``; a send's kind is its ``sync`` flag.
RECV_PLAN = 2


class CallPlan:
    """What one call site fixes, resolved once.

    The paper's §2.2 argument applied to the call itself: everything
    an ``(operation, handle, peer, flags, datatype class)`` tuple
    determines on a given build is decided on first use and cached on
    the handle (``Communicator._plans`` / ``Window._plans``): the
    layers' charge plans ``entry``, ``args`` and ``path``, the
    ``lock`` of the modeled critical section, the translated
    ``peer_world``, the ``transport`` and whether it moves the
    datatype natively (``native``; ``native_atomic`` for an
    accumulate), the eager ``threshold``, an RMA target's
    exposed-memory ``state``.  The per-message path reads these slots
    instead of re-deriving them.

    ``fused`` is the three charge plans' steps in path order: the
    entry replays it in one ``Proc.charge`` when nothing observes the
    call between the layers (a rank with no hook seam).  A plan that
    only enters has ``fused = None`` and ``failing[k]``, the charge of
    the checks up to a failing check k.  ``stream``, ``(ctx, peer,
    nomatch)``, and the op's tag route the entry's lock.
    """

    __slots__ = ("entry", "args", "path", "fused", "lock", "peer_world",
                 "transport", "native", "native_atomic", "contig",
                 "threshold", "state", "stream", "failing")

    def __init__(self, path=None, peer_world=None, transport=None,
                 native=False, native_atomic=False, contig=False,
                 threshold=0):
        self.path = path
        self.peer_world = peer_world
        self.transport = transport
        self.native = native
        self.native_atomic = native_atomic
        self.contig = contig
        self.threshold = threshold
        self.entry = self.args = self.fused = self.lock = self.state = None
        self.stream = self.failing = None


@dataclass(slots=True)
class SendOp:
    """One MPI_(I)SEND-family operation."""

    buf: Buffer
    count: int
    dtref: DatatypeRef
    dest: int                  #: comm rank, or world rank under global_rank
    tag: int
    comm: "Communicator"
    flags: ExtFlags = NONE
    sync: bool = False         #: synchronous mode (MPI_SSEND)
    mpi_name: str = "MPI_Isend"   #: flow-through: originating MPI call
    #: The call site's plan, set by an entry that charged its path:
    #: the device then charges nothing (else it finds the plan itself
    #: and charges the path).
    plan: Optional[CallPlan] = None
    #: A blocking send (MPI_SEND and its kin), whose caller waits for
    #: it before returning: a send born complete hands back its
    #: completion time instead of a handle nobody else would see.
    #: The charges are the nonblocking send's either way.
    blocking: bool = False


@dataclass(slots=True)
class RecvOp:
    """One MPI_(I)RECV-family operation.

    When ``buf`` is None the payload is stashed on the request
    (generic-object receive path).
    """

    buf: Optional[Buffer]
    count: int
    dtref: DatatypeRef
    source: int
    tag: int
    comm: "Communicator"
    flags: ExtFlags = NONE
    mpi_name: str = "MPI_Irecv"
    plan: Optional[CallPlan] = None   #: see :class:`SendOp`


@dataclass(slots=True)
class PutOp:
    """One MPI_PUT-family operation."""

    origin_buf: Buffer
    origin_count: int
    origin_dtref: DatatypeRef
    target_rank: int
    target_disp: int           #: element offset, or byte virtual address
    target_count: int
    target_dtref: DatatypeRef
    win: "Window"
    flags: ExtFlags = NONE
    mpi_name: str = "MPI_Put"
    plan: Optional[CallPlan] = None   #: see :class:`SendOp`
    tag: ClassVar[int] = 0     #: an RMA entry routes as tag 0


@dataclass(slots=True)
class GetOp:
    """One MPI_GET-family operation."""

    origin_buf: Buffer
    origin_count: int
    origin_dtref: DatatypeRef
    target_rank: int
    target_disp: int
    target_count: int
    target_dtref: DatatypeRef
    win: "Window"
    flags: ExtFlags = NONE
    mpi_name: str = "MPI_Get"
    plan: Optional[CallPlan] = None   #: see :class:`SendOp`
    tag: ClassVar[int] = 0     #: see :class:`PutOp`


@dataclass(slots=True)
class AccOp:
    """One MPI_ACCUMULATE-family operation (op applied elementwise)."""

    origin_buf: Buffer
    origin_count: int
    origin_dtref: DatatypeRef
    target_rank: int
    target_disp: int
    target_count: int
    target_dtref: DatatypeRef
    win: "Window"
    op: Any                    #: a repro.mpi.ops reduction operator
    flags: ExtFlags = NONE
    fetch_buf: Optional[Buffer] = None   #: GET_ACCUMULATE result buffer
    mpi_name: str = "MPI_Accumulate"
    plan: Optional[CallPlan] = None   #: see :class:`SendOp`
    tag: ClassVar[int] = 0     #: see :class:`PutOp`


@dataclass(slots=True)
class SyncState:
    """Synchronous-send handshake state carried inside a message.

    On the match the matching engine completes ``request``, the
    send's handle, at ``match time + ack_latency_s`` — the
    acknowledgment's travel time.  Nothing but that handle waits on
    the handshake.
    """

    request: Any
    ack_latency_s: float
