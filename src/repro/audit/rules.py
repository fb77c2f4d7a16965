"""Rule catalog for the fast-path self-audit (``FP1xx``–``FP3xx``).

Four analysis families over the repro's own source:

* ``FP10x`` — charge provenance: every ``proc.charge`` site reachable
  from an MPI entry point must attribute a documented category and a
  registered cost-model entry, and every non-zero cost-model entry
  must be reachable from the critical path.
* ``FP20x`` — fast-path purity: functions marked ``@fastpath`` must
  not hide expensive host-Python work (allocations, repeated lookups
  in loops, locks, exception setup, logging) behind the accounting.
* ``FP30x`` — lockset discipline for ``runtime/*.py``: shared
  attributes are either always or never written under their lock, and
  lock acquisition order is acyclic.
* ``FP308`` — hook-seam discipline (:mod:`repro.audit.hookseam`): the
  runtime reaches its optional subsystems only through a rank's hook
  seam, so builds without them charge byte-identical calibrated
  totals.

Suppress a finding on its line with ``# audit: allow[FPxxx]``.
"""

from __future__ import annotations

from repro.analysis_common import Rule, render_catalog

#: Pragma marker understood by every audit rule.
PRAGMA_MARKER = "# audit: allow"

#: The audit rule catalog, keyed by rule id.
FP_RULES: dict[str, Rule] = {r.rule_id: r for r in (
    Rule("FP101", "charge with an unknown category: the first argument "
         "of proc.charge does not resolve to a Category member",
         "proc.charge(some_value, 5)",
         "charge Category.<MEMBER> (or a module alias bound to one)"),
    Rule("FP102", "charge with an unresolvable cost: the amount does "
         "not trace back to a registered cost-model entry",
         "proc.charge(Category.MANDATORY, 7)",
         "charge a field of repro.instrument.costs.COSTS (or a "
         "registered auxiliary constant) so calibration stays auditable"),
    Rule("FP103", "unreachable cost-model entry: a non-zero registry "
         "entry is never charged on any path from an MPI entry point "
         "(or an expected per-path key has no reachable charge site)",
         "adding a COSTS field no code ever charges",
         "charge the entry on its code path, set it to zero, or remove "
         "it from the model"),
    Rule("FP104", "uncharged fast-path work: a @fastpath function "
         "performs observable work (request/packet/delivery calls) but "
         "neither it nor any callee charges instructions",
         "def _null_send(...): request = pool.acquire(); "
         "request.complete()",
         "charge the modeled cost of the work, or document why the "
         "path is free with '# audit: allow[FP104]'"),
    Rule("FP201", "allocation on the fast path: list/dict/set display, "
         "comprehension, or builtin container constructor in a "
         "@fastpath body",
         "pending = [r for r in reqs if not r.done]",
         "hoist the allocation out of the fast path or reuse a "
         "preallocated object (pools exist for exactly this)"),
    Rule("FP202", "repeated lookup in a fast-path loop: a multi-level "
         "attribute chain or subscript re-evaluated every iteration",
         "for req in reqs: self.proc.request_pool.release(req)",
         "hoist the lookup into a local before the loop "
         "(release = self.proc.request_pool.release)"),
    Rule("FP203", "lock acquisition on the fast path",
         "with self._lock: ...   # inside a @fastpath function",
         "restructure so the fast path stays lock-free, or document "
         "the required critical section with '# audit: allow[FP203]'"),
    Rule("FP204", "exception setup on the fast path: a try statement "
         "in a @fastpath body",
         "try: issue(op) finally: log_time()",
         "move the handler off the critical path, or document it with "
         "'# audit: allow[FP204]'"),
    Rule("FP205", "logging/printing on the fast path",
         "print(f'sending {nbytes}')",
         "remove it, or route diagnostics through the (off-path) "
         "timeline/trace machinery"),
    Rule("FP301", "inconsistent lockset: a runtime attribute is "
         "written under a lock in one place and without it in another",
         "complete() guards self.error with self._lock; _reset() "
         "writes it bare",
         "hold the same lock at every write site (reads on the owning "
         "thread may stay bare, but writes must agree)"),
    Rule("FP302", "lock-order cycle: two locks are acquired in "
         "opposite nesting orders on some pair of paths",
         "A: with x: with y   ...   B: with y: with x",
         "pick one global acquisition order and restructure the "
         "offending path"),
    Rule("FP303", "cross-VCI lock nesting: a second VCI-family lock "
         "(any <base>.lock) is acquired — or a function acquiring one "
         "is called — while one is already held",
         "with self.vcis[0].lock: with self.vcis[1].lock: ...",
         "restructure to hold at most one VCI lock at a time (the "
         "multi-VCI discipline in runtime/vci.py shows how wildcard "
         "scans stay single-lock)"),
    Rule("FP308", "subsystem read outside the hook seam: a function "
         "outside the subsystems' own packages (repro/sanitize/, "
         "repro/ft/, repro/tsan/, repro/progress/, the timeline's "
         "module), repro/runtime/hooks.py and the World / Proc "
         "constructors reads .sanitizer, .faults, .ft, .tsan, "
         ".progress or .timeline",
         "if proc.faults is not None: proc.faults.check_self()",
         "fire the event on the rank's seam ('hooks = proc.hooks; if "
         "hooks is not None: hooks.enter_call(name)'), or document the "
         "site with '# audit: allow[FP308]'"),
)}


def render_fp_catalog() -> str:
    """The audit's part of ``python -m repro.check --rules``."""
    return render_catalog(FP_RULES)
