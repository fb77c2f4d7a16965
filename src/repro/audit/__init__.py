"""Static self-audit of the repro's fast path.

:func:`run_audit` checks the runtime's *own source* against the
calibrated cost model, without executing it:

* **charge provenance** (FP101–FP104) — an AST call graph rooted at
  the MPI entry points (isend/irecv/put/get, the Section 3 extension
  variants, persistent starts) maps every reachable ``proc.charge``
  site to a registry entry of
  :func:`repro.instrument.costs.cost_model_entries`, proves every
  non-zero entry reachable, and flags ``@fastpath`` work that charges
  nothing;
* **fast-path purity** (FP201–FP205) — allocations, per-iteration
  lookups, locks, try blocks, and logging inside ``@fastpath`` bodies;
* **lockset discipline** (FP301–FP302) — inconsistent attribute
  locksets and lock-order cycles in ``repro/runtime``;
* **hook-seam discipline** (FP308) — no read of an optional
  subsystem's attribute outside its own package and the seam.

``python -m repro.check`` runs it on the installed runtime, and
``--json DIR`` writes ``DIR/AUDIT.json``, the machine-readable
snapshot whose per-path totals the tier-1 calibration test diffs
against Table 1 / Figure 2.  Shares diagnostics machinery (and the
per-line pragma idiom, here ``# audit: allow[FPxxx]``) with
:mod:`repro.sanitize` via :mod:`repro.analysis_common`.
"""

from repro.audit.callgraph import CodeIndex
from repro.audit.lockset import scan_lockset
from repro.audit.manifest import AuditManifest, default_manifest
from repro.audit.provenance import ProvenanceAnalyzer, run_provenance
from repro.audit.purity import scan_purity
from repro.audit.rules import FP_RULES, render_fp_catalog
from repro.audit.snapshot import build_snapshot, run_audit

__all__ = [
    "AuditManifest",
    "CodeIndex",
    "FP_RULES",
    "ProvenanceAnalyzer",
    "build_snapshot",
    "default_manifest",
    "render_fp_catalog",
    "run_audit",
    "run_provenance",
    "scan_lockset",
    "scan_purity",
]
