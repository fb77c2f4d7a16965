"""Rule catalog for the buffer-ownership / copy-census analyzer.

``BC5xx`` rules police how payload bytes move through the runtime:
every avoidable materialization (``bytes()``, ``tobytes()``) on a
transfer's critical path is instructions and memory bandwidth the
paper's Figure 2 accounting says the fast path cannot afford.  The
analyzer (:mod:`repro.bufcheck.dataflow`) tracks buffer *taints* from
the MPI entry points down through pack/unpack, the devices, and the
matching engine, and fires these rules at the offending sites.

Suppress per line with ``# bufcheck: ignore[BC504]`` (bare
``# bufcheck: ignore`` suppresses every rule on the line).  Every
pragma in the tree must carry a justification comment — the census
counts suppressed sites as deliberate copies, not accidents.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from repro.analysis_common import Rule, render_catalog

#: Pragma spelling (parsed by :func:`repro.analysis_common.suppressed`).
MARKER = "# bufcheck: ignore"

RULES: Mapping[str, Rule] = MappingProxyType({
    "BC501": Rule(
        rule_id="BC501",
        title="redundant copy: payload materialized a second time on "
              "one send/recv path",
        example="data = buf.tobytes(); wire = bytes(data)",
        fix="transfer the first materialization; delete the second "
            "copy (one copy per path end is the budget)",
    ),
    "BC502": Rule(
        rule_id="BC502",
        title="mutation of a borrowed send buffer without ownership "
              "transfer",
        example="payload = memoryview(sendbuf); sendbuf[0] = 99",
        fix="materialize (bytes(view)) before mutating, or move the "
            "mutation after the operation completes",
    ),
    "BC503": Rule(
        rule_id="BC503",
        title="borrowed buffer view escapes the operation without a "
              "keepalive",
        example="self.stash = memoryview(sendbuf)",
        fix="pin the view on the owning request (request._keepalive) "
            "or take ownership with bytes(view) before storing",
    ),
    "BC504": Rule(
        rule_id="BC504",
        title="needless materialization: bytes()/tobytes() of "
              "already-contiguous data where a view suffices",
        example="payload = arr.tobytes()  # arr is contiguous",
        fix="borrow instead (memoryview(arr) / arr.data / a slice); "
            "pack(..., copy=False) returns a view on the contig path",
    ),
    "BC505": Rule(
        rule_id="BC505",
        title="same object passed as both send and receive buffer "
              "(MPI aliasing rule)",
        example="comm.Sendrecv(buf, dest, recvbuf=buf)",
        fix="use distinct buffers, or the *_replace form when the API "
            "provides one",
    ),
})


def render_bc_catalog() -> str:
    """The bufcheck part of ``python -m repro.check --rules``."""
    return render_catalog(RULES)
