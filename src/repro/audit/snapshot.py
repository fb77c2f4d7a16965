"""The audit's report and its ``AUDIT.json`` snapshot.

:func:`run_audit` runs every analysis family (charge provenance,
fast-path purity, runtime lockset, hook seam) over a parsed tree;
``python -m repro.check`` runs it on the installed runtime and
``--json DIR`` writes the snapshot the calibration test diffs:

* per published build/extension path: the exact registry keys its
  critical path charges, per-category subtotals, and the Table 1 /
  Figure 2 total;
* per registry key: the (stable, line-number-free) provenance of every
  reachable charge site;
* the finding counts by rule.
"""

from __future__ import annotations

from repro.analysis_common import Finding, Report
from repro.audit.callgraph import CodeIndex
from repro.audit.lockset import scan_lockset
from repro.audit.manifest import AuditManifest
from repro.audit.hookseam import scan_hookseam
from repro.audit.provenance import EntryResult, run_provenance
from repro.audit.purity import scan_purity


def run_audit(index: CodeIndex, manifest: AuditManifest,
              ) -> tuple[Report, dict]:
    """Audit the parsed tree *index*; returns (report, AUDIT.json
    snapshot dict)."""
    findings: list[Finding] = []
    prov_findings, walk = run_provenance(index, manifest)
    findings.extend(prov_findings)
    findings.extend(scan_purity(index))
    findings.extend(scan_lockset(index))
    findings.extend(scan_hookseam(index))

    report = Report(diagnostics=findings, files_checked=len(index.modules))
    snapshot = build_snapshot(manifest, walk, report)
    return report, snapshot


def build_snapshot(manifest: AuditManifest,
                   walk: EntryResult,
                   report: Report) -> dict:
    """The deterministic AUDIT.json payload."""
    paths: dict[str, dict] = {}
    for spec in manifest.paths:
        by_category: dict[str, int] = {}
        for key in spec.keys:
            entry = manifest.registry[key]
            name = entry.category.value
            by_category[name] = by_category.get(name, 0) + entry.cost
        paths[spec.name] = {
            "op": spec.op,
            "entry": f"{spec.entry[0]}.{spec.entry[1]}",
            "keys": {k: manifest.registry[k].cost for k in sorted(spec.keys)},
            "by_category": dict(sorted(by_category.items())),
            "total": sum(manifest.registry[k].cost for k in spec.keys),
        }

    provenance = {k: sorted(v)
                  for k, v in sorted(walk.reachable_keys().items())}

    return {
        "version": 1,
        "paths": dict(sorted(paths.items())),
        "registry": {
            "entries": len(manifest.registry),
            "zero_cost_keys": sorted(
                k for k, e in manifest.registry.items() if e.cost == 0),
        },
        "provenance": provenance,
        "findings": {
            "count": len(report.diagnostics),
            "by_rule": dict(sorted(report.counts_by_rule().items())),
        },
    }
