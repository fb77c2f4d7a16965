"""Background progress engine — "MPI Progress For All".

The paper's central complaint is that MPI pays on the critical path
for work that should happen elsewhere; Zhou et al. ("MPI Progress For
All", PAPERS.md) sharpen this into a rule: communication progress must
not depend on the application calling into MPI.  This package is the
opt-in engine (``BuildConfig(progress="thread" | "per-vci")``) that
enforces the rule: dedicated daemon threads drain parked netmod
injection lanes, fire the ``repro.ft`` retransmit/backoff timers off
the virtual clock, and run MPIX-continuation callbacks
(:meth:`repro.runtime.request.Request.on_complete`) so rendezvous and
nonblocking-collective state machines advance while the application
computes — zero user polls between post and wait.

Seam discipline (the contract every optional subsystem follows):
``world.progress`` is ``None`` unless the build opts in, the runtime
reaches a rank's engine only through the rank's hook seam
(:mod:`repro.runtime.hooks`; audit rule FP308 enforces this
statically), and a ``progress=None`` build charges byte-identically to
the calibrated Figure 2 / Table 1 numbers — the engine exists only
when asked for, and its own work is charged to ``Category.PROGRESS``
on the engine thread, off the application's lane.
"""

from repro.progress.engine import MODES, RankProgress, WorldProgress

__all__ = ["MODES", "RankProgress", "WorldProgress"]
