"""repro.tsan — hybrid race & deadlock detector for the runtime.

An opt-in (``BuildConfig(tsan=True)``) dynamic checker in the style
of Eraser + FastTrack: instrumented locks (:mod:`repro.tsan.locks`)
and annotated shared-state accesses maintain per-thread vector
clocks (:mod:`repro.tsan.vectorclock`) and per-field locksets; the
detector (:mod:`repro.tsan.detector`) reports:

* ``TS401`` — data race (no happens-before edge *and* empty lockset
  intersection);
* ``TS402`` — lock-order inversion in the observed runtime lock
  graph (potential deadlock, even if it never manifested);
* ``TS403`` — lock held across a blocking wait;
* ``TS404`` — continuation dispatched while holding an engine /
  shard / wildcard matching lock.

The detector charges nothing, and the runtime reaches it only through
a rank's hook seam (:mod:`repro.runtime.hooks`; audit rule FP308), so
calibrated Figure 2 / Table 1 charging is byte-identical either way.
"""

from __future__ import annotations

from repro.analysis_common import Rule, render_catalog
from repro.tsan.detector import (BLOCK_EXEMPT_KINDS,
                                 CONTINUATION_FLAGGED_KINDS,
                                 TsanFinding, WorldTsan)
from repro.tsan.locks import TsanLock
from repro.tsan.vectorclock import Epoch, VectorClock

#: The detector rule catalog, keyed by rule id.
TS_RULES: dict[str, Rule] = {r.rule_id: r for r in (
    Rule("TS401", "data race: two threads access an annotated shared "
         "field, at least one writing, with no happens-before edge "
         "between them and an empty lockset intersection",
         "engine thread writes request state the app thread reads "
         "bare, with no completion edge",
         "order the pair with a lock both sides hold, or publish an "
         "explicit edge (hb_publish/hb_consume) across the handoff",
         dynamic=True),
    Rule("TS402", "lock-order inversion: the observed runtime lock "
         "graph contains an acquisition cycle (a potential deadlock, "
         "even if the schedule never manifested it)",
         "thread A holds shard lock acquiring the wild lock while "
         "thread B nests them the other way around",
         "pick one global acquisition order (see the lock-ordering "
         "notes in runtime/vci.py) and restructure the odd path",
         dynamic=True),
    Rule("TS403", "lock held across a blocking wait: a thread parks "
         "on a request while holding a tracked runtime lock",
         "with engine lock held: request.wait()",
         "release the lock before blocking — only the NBC schedule "
         "lock ('sched') may deliberately span inner waits",
         dynamic=True),
    Rule("TS404", "continuation dispatched under an engine lock: the "
         "progress engine runs a callback while its thread holds an "
         "engine/shard/wildcard matching lock",
         "fn(request) inside 'with engine._lock:'",
         "dispatch continuations outside matching locks (holding the "
         "reentrant VCI cs_lock is the documented engine design and "
         "is allowed)",
         dynamic=True),
)}


def render_ts_catalog() -> str:
    """The TS401–TS404 rule listing (mirrors the CLI catalogs)."""
    return render_catalog(TS_RULES)


__all__ = [
    "BLOCK_EXEMPT_KINDS", "CONTINUATION_FLAGGED_KINDS", "Epoch",
    "TS_RULES", "TsanFinding", "TsanLock", "VectorClock",
    "WorldTsan", "render_ts_catalog",
]
