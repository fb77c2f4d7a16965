"""Fault tolerance: lossy-fabric injection, reliability, recovery.

Three layers, mirroring how a real transport carries reliability under
the MPI device (the InfiniBand MPICH2 port layered its ack/retransmit
protocol below the ADI the same way):

* :mod:`repro.ft.plan` — a seeded, deterministic :class:`FaultPlan`
  describing what the wire does to messages (drop / duplicate /
  reorder / delay / corrupt) and when a rank dies;
* :mod:`repro.ft.injection` — :class:`FaultyNetmod`, the netmod
  wrapper that represents the lossy fabric in the netmod registry;
* :mod:`repro.ft.reliability` — the per-peer sequence/ack/retransmit
  protocol and its receiver-side dedup/reorder window, charged under
  the ``RELIABILITY`` instruction category;
* :mod:`repro.ft.recovery` — MPI error handlers and the ULFM-style
  revoke/shrink/agree machinery (surfaced as ``MPIX_Comm_*`` in
  :mod:`repro.core.extensions`).

The base runtime reaches the fault layer only through a rank's hook
seam (:mod:`repro.runtime.hooks`; the FP308 audit rule enforces
this), so a build with ``BuildConfig(fault_plan=None)`` charges
byte-identically to one without the subsystem.
"""

from repro.ft.plan import FaultPlan, WireFate
from repro.ft.recovery import (ERRORS_ARE_FATAL, ERRORS_RETURN, RankKilled,
                               dispatch_comm_error)
from repro.ft.reliability import RankFaults, WorldFaults

__all__ = [
    "FaultPlan",
    "WireFate",
    "RankFaults",
    "WorldFaults",
    "RankKilled",
    "ERRORS_ARE_FATAL",
    "ERRORS_RETURN",
    "dispatch_comm_error",
]
