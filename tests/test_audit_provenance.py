"""Tier-1 audit gate: tree is clean, AUDIT.json matches the paper."""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.audit import default_manifest
from repro.audit.callgraph import CodeIndex
from repro.audit.lockset import scan_lockset
from repro.consts import PROC_NULL
from repro.instrument.categories import Subsystem
from repro.instrument.costs import COSTS
from tests.conftest import run_world

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Table 1 and Figure 2 critical-path instruction counts, by audit path.
EXPECTED_TOTALS = {
    "ch4_isend_default": 221,
    "ch4_put_default": 215,
    "ch4_isend_noerr": 147,
    "ch4_put_noerr": 143,
    "ch4_isend_nothread": 141,
    "ch4_put_nothread": 129,
    "ch4_isend_ipo": 59,
    "ch4_put_ipo": 44,
    "isend_all_opts": 16,
    "put_all_opts": 14,
    "ch3_isend": 253,
    "ch3_put": 1342,
}


class TestTreeAudit:
    """The audit ``python -m repro.check`` runs is clean, structurally."""

    def test_zero_findings(self, tree):
        assert [f.render() for f in tree.audit.diagnostics] == []

    def test_path_totals_match_paper(self, tree):
        snapshot = tree.audit_snapshot
        totals = {name: p["total"] for name, p in snapshot["paths"].items()}
        assert totals == EXPECTED_TOTALS

    def test_default_isend_category_split(self, tree):
        # Table 1's removable/mandatory decomposition of the 221.
        snapshot = tree.audit_snapshot
        split = snapshot["paths"]["ch4_isend_default"]["by_category"]
        assert split == {"error_checking": 74, "thread_safety": 6,
                        "function_call": 23, "redundant_checks": 59,
                        "mandatory": 59}

    def test_default_put_category_split(self, tree):
        snapshot = tree.audit_snapshot
        split = snapshot["paths"]["ch4_put_default"]["by_category"]
        assert split == {"error_checking": 72, "thread_safety": 14,
                        "function_call": 25, "redundant_checks": 60,
                        "mandatory": 44}

    def test_every_nonzero_entry_has_provenance(self, tree):
        snapshot = tree.audit_snapshot
        registry = default_manifest().registry
        zero = set(snapshot["registry"]["zero_cost_keys"])
        for key, entry in registry.items():
            if entry.cost != 0:
                assert snapshot["provenance"].get(key), \
                    f"no reachable charge site for {key}"
        assert zero == {k for k, e in registry.items() if e.cost == 0}

    def test_committed_snapshot_up_to_date(self, tree):
        # AUDIT.json is a build artifact under version control; it must
        # be regenerated (``python -m repro.check --json .``) whenever
        # charge sites move.
        snapshot = tree.audit_snapshot
        committed = json.loads((ROOT / "AUDIT.json").read_text())
        assert committed == snapshot


class TestManifest:
    """The registry/path manifest is internally consistent."""

    def test_registry_covers_all_path_keys(self):
        manifest = default_manifest()
        for spec in manifest.paths:
            for key in spec.keys:
                assert key in manifest.registry, (spec.name, key)

    def test_path_totals_precomputed_consistently(self):
        manifest = default_manifest()
        for spec in manifest.paths:
            total = sum(manifest.registry[k].cost for k in spec.keys)
            assert total == spec.expected_total, spec.name

    def test_entry_points_exist_in_tree(self, tree):
        for cls, method in default_manifest().entry_points:
            assert tree.index.find_method(cls, method) is not None, \
                f"missing entry point {cls}.{method}"


class TestAuditDrivenFixes:
    """Regressions for the true positives the audit flagged."""

    def test_proc_null_isend_charges_request_mgmt(self):
        # FP104: _null_send acquired and completed a pooled request
        # without charging request management.
        def main(comm):
            before = dict(comm.proc.counter.by_subsystem)
            comm.Isend(np.zeros(1), dest=PROC_NULL, tag=0).wait()
            after = dict(comm.proc.counter.by_subsystem)
            return (after.get(Subsystem.REQUEST_MGMT, 0)
                    - before.get(Subsystem.REQUEST_MGMT, 0))

        delta = run_world(1, main)[0]
        assert delta == COSTS.isend_mandatory.request_mgmt

    def test_proc_null_irecv_charges_request_mgmt(self):
        def main(comm):
            before = dict(comm.proc.counter.by_subsystem)
            comm.Irecv(np.zeros(1), source=PROC_NULL, tag=0).wait()
            after = dict(comm.proc.counter.by_subsystem)
            return (after.get(Subsystem.REQUEST_MGMT, 0)
                    - before.get(Subsystem.REQUEST_MGMT, 0))

        delta = run_world(1, main)[0]
        assert delta == COSTS.isend_mandatory.request_mgmt

    def test_request_reset_holds_state_lock(self):
        # FP301: Request._reset reinitialized shared completion state
        # without the per-request lock every other transition takes.
        index = CodeIndex.build([str(SRC / "runtime" / "request.py")])
        findings = scan_lockset(index, path_filter="")
        assert [f.render() for f in findings] == []

    def test_recycled_request_state_is_reset(self):
        def main(comm):
            req = comm.Isend(np.zeros(1), dest=PROC_NULL, tag=0)
            req.wait()
            pool = comm.proc.request_pool
            pool.release(req)
            again = comm.Isend(np.zeros(1), dest=PROC_NULL, tag=0)
            fresh_before_wait = not again.cancelled and again.error is None
            again.wait()
            return fresh_before_wait

        assert run_world(1, main) == [True]
