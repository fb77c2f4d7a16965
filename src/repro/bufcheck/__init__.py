"""Buffer-ownership & copy-census static analyzer (``BC5xx`` rules).

:func:`run_bufcheck` tracks payload buffers interprocedurally from the
MPI entry points through pack/unpack, the CH4/CH3 devices and the
matching engine, classifying every data-movement site as a *copy*, a
*borrow* (zero-copy view), or an *ownership transfer*.  It enforces
the zero-copy datapath discipline (rules BC501-BC505) and builds the
``COPYMAP.json`` census — static copies-per-path for every published
build variant — that ``python -m repro.check --json DIR`` writes and
tier-1 CI diffs alongside AUDIT.json.
"""

from repro.bufcheck.census import build_copymap, run_bufcheck
from repro.bufcheck.dataflow import Analyzer, Event, Taint, scan_tree
from repro.bufcheck.rules import MARKER, RULES, render_bc_catalog

__all__ = [
    "Analyzer", "Event", "MARKER", "RULES", "Taint", "build_copymap",
    "render_bc_catalog", "run_bufcheck", "scan_tree",
]
