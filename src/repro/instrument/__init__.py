"""Abstract-instruction accounting — the reproduction's stand-in for Intel SDE.

The paper measures the MPI critical path with the Intel Software
Development Emulator on x86 hardware.  That measurement is not
reproducible for a Python runtime (the repro gate), so this package
substitutes an *accounting* model: every step the runtime executes on
the critical path charges a documented number of abstract instructions
to a :class:`~repro.instrument.categories.Category`.  The charge
happens *inside the code that performs the step*, so disabling a
feature (a build without error checking, an extension that skips rank
translation) removes the charge because the code is genuinely skipped —
counts are produced by execution, not by table lookup.

Calibration: per-step costs in :mod:`repro.instrument.costs` are chosen
so that the executed paths reproduce the paper's published aggregates
(Table 1, Figure 2, the per-proposal savings of Section 3, and the 16
instructions of ``MPI_ISEND_ALL_OPTS`` in Section 3.7).
"""

from repro.instrument.categories import (Category, Subsystem,
                                         category_metadata,
                                         subsystem_metadata)
from repro.instrument.costs import (CostModel, COSTS, CostEntry,
                                    CH3_ISEND_STEPS, CH3_PUT_STEPS,
                                    cost_model_entries)
from repro.instrument.fastpath import fastpath, is_fastpath
from repro.instrument.counter import InstructionCounter
from repro.instrument.trace import CallRecord, CallTracer
from repro.instrument.report import (
    format_table,
    category_table,
    breakdown_lines,
)

__all__ = [
    "Category",
    "Subsystem",
    "CostModel",
    "COSTS",
    "CostEntry",
    "CH3_ISEND_STEPS",
    "CH3_PUT_STEPS",
    "category_metadata",
    "cost_model_entries",
    "fastpath",
    "is_fastpath",
    "subsystem_metadata",
    "InstructionCounter",
    "CallRecord",
    "CallTracer",
    "format_table",
    "category_table",
    "breakdown_lines",
]
