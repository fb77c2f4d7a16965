"""MPI error classes.

The hierarchy follows the MPI-3.1 error *classes* (MPI_ERR_ARG,
MPI_ERR_COMM, ...).  Whether these checks run at all is a build-time
decision in this reproduction, exactly as in the paper: the Figure 2
"no-err" build compiles the checks out, which here means the validation
functions are never invoked and hence never charge instructions.

Every error can carry its originating context — the MPI operation
(``op``), the rank it was raised on or the peer it concerns (``rank``),
and the request it completed (``request``) — so error-handler callbacks
and teardown reports can name the failing operation instead of
guessing from a bare message.
"""

from __future__ import annotations

from typing import Optional


class MPIError(Exception):
    """Base class for all MPI errors raised by the runtime.

    Attributes
    ----------
    error_class:
        Symbolic name of the MPI error class (e.g. ``"MPI_ERR_RANK"``).
    rank:
        The rank this error concerns — the raising rank for argument
        errors, the failed *peer* for ``MPI_ERR_PROC_FAILED`` — or
        None when unknown.
    op:
        Name of the MPI operation that raised (e.g. ``"MPI_Isend"``),
        or None when unknown.
    request:
        The :class:`~repro.runtime.request.Request` this error
        completed, when the failure surfaced through one.
    """

    error_class = "MPI_ERR_OTHER"

    def __init__(self, message: str = "", *, rank: Optional[int] = None,
                 op: Optional[str] = None, request: object = None):
        super().__init__(message)
        self.message = message
        self.rank = rank
        self.op = op
        self.request = request

    def __str__(self) -> str:
        """``CLASS: message [in op, on rank r]`` — context appended so
        existing ``pytest.raises(match=...)`` patterns keep matching."""
        text = (f"{self.error_class}: {self.message}" if self.message
                else self.error_class)
        context = []
        if self.op is not None:
            context.append(f"in {self.op}")
        if self.rank is not None:
            context.append(f"rank {self.rank}")
        return f"{text} [{', '.join(context)}]" if context else text


class MPIErrArg(MPIError):
    """Invalid argument of some other kind (MPI_ERR_ARG)."""

    error_class = "MPI_ERR_ARG"


class MPIErrBuffer(MPIError):
    """Invalid buffer pointer (MPI_ERR_BUFFER)."""

    error_class = "MPI_ERR_BUFFER"


class MPIErrCount(MPIError):
    """Invalid count argument (MPI_ERR_COUNT)."""

    error_class = "MPI_ERR_COUNT"


class MPIErrDatatype(MPIError):
    """Invalid datatype argument, e.g. uncommitted (MPI_ERR_TYPE)."""

    error_class = "MPI_ERR_TYPE"


class MPIErrTag(MPIError):
    """Invalid tag argument (MPI_ERR_TAG)."""

    error_class = "MPI_ERR_TAG"


class MPIErrComm(MPIError):
    """Invalid communicator (MPI_ERR_COMM)."""

    error_class = "MPI_ERR_COMM"


class MPIErrRank(MPIError):
    """Invalid rank (MPI_ERR_RANK)."""

    error_class = "MPI_ERR_RANK"


class MPIErrRequest(MPIError):
    """Invalid request handle (MPI_ERR_REQUEST)."""

    error_class = "MPI_ERR_REQUEST"


class MPIErrTruncate(MPIError):
    """Message truncated on receive (MPI_ERR_TRUNCATE)."""

    error_class = "MPI_ERR_TRUNCATE"


class MPIErrWin(MPIError):
    """Invalid window argument (MPI_ERR_WIN)."""

    error_class = "MPI_ERR_WIN"


class MPIErrRMARange(MPIError):
    """Target memory is not within the exposed window (MPI_ERR_RMA_RANGE)."""

    error_class = "MPI_ERR_RMA_RANGE"


class MPIErrRMASync(MPIError):
    """Wrong synchronization of RMA calls (MPI_ERR_RMA_SYNC)."""

    error_class = "MPI_ERR_RMA_SYNC"


class MPIErrGroup(MPIError):
    """Invalid group argument (MPI_ERR_GROUP)."""

    error_class = "MPI_ERR_GROUP"


class MPIErrOp(MPIError):
    """Invalid reduction operation (MPI_ERR_OP)."""

    error_class = "MPI_ERR_OP"


class MPIErrInfo(MPIError):
    """Invalid info argument (MPI_ERR_INFO)."""

    error_class = "MPI_ERR_INFO"


class MPIErrPending(MPIError):
    """Operation still pending when completion was required."""

    error_class = "MPI_ERR_PENDING"


class MPIErrProcFailed(MPIError):
    """A peer process has failed (ULFM MPI_ERR_PROC_FAILED).

    Raised when the reliability layer exhausts its retransmissions
    against a dead peer, and used to complete pending receives posted
    against a rank the fault plan killed."""

    error_class = "MPI_ERR_PROC_FAILED"


class MPIErrRevoked(MPIError):
    """The communicator has been revoked (ULFM MPI_ERR_REVOKED).

    Every subsequent operation on a revoked communicator fails with
    this class until the application shrinks to a replacement."""

    error_class = "MPI_ERR_REVOKED"


class MPIErrInternal(MPIError):
    """Internal runtime invariant violated — a bug in this library."""

    error_class = "MPI_ERR_INTERN"
