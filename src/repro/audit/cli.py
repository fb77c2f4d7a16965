"""CLI and snapshot builder: ``python -m repro.audit src/repro``.

Runs all three analysis families (charge provenance, fast-path purity,
runtime lockset) over the given tree, prints a report, and exits 1 on
any unsuppressed finding.  ``--json AUDIT.json`` additionally writes
the machine-readable snapshot the calibration test diffs:

* per published build/extension path: the exact registry keys its
  critical path charges, per-category subtotals, and the Table 1 /
  Figure 2 total;
* per registry key: the (stable, line-number-free) provenance of every
  reachable charge site;
* the finding counts by rule.
"""

from __future__ import annotations

import argparse
import json
from typing import Mapping, Optional, Sequence

from repro.analysis_common import Finding, Report, iter_python_files
from repro.audit.callgraph import CodeIndex
from repro.audit.lockset import scan_lockset
from repro.audit.manifest import AuditManifest, default_manifest
from repro.audit.hookseam import scan_hookseam
from repro.audit.provenance import EntryResult, run_provenance
from repro.audit.purity import scan_purity
from repro.audit.rules import render_fp_catalog


def run_audit(paths: Sequence[str],
              manifest: Optional[AuditManifest] = None,
              ) -> tuple[Report, dict]:
    """Audit *paths*; returns (report, AUDIT.json snapshot dict)."""
    manifest = manifest if manifest is not None else default_manifest()
    files = iter_python_files(list(paths))
    index = CodeIndex.build(files)

    findings: list[Finding] = []
    prov_findings, results = run_provenance(index, manifest)
    findings.extend(prov_findings)
    findings.extend(scan_purity(index))
    findings.extend(scan_lockset(index))
    findings.extend(scan_hookseam(index))

    report = Report(diagnostics=findings, files_checked=len(index.modules))
    snapshot = build_snapshot(manifest, results, report)
    return report, snapshot


def build_snapshot(manifest: AuditManifest,
                   results: Mapping[str, EntryResult],
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

    site_sets: dict[str, set[str]] = {}
    for result in results.values():
        for key, sites in result.reachable_keys().items():
            site_sets.setdefault(key, set()).update(sites)
    provenance = {k: sorted(v) for k, v in sorted(site_sets.items())}

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


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.audit",
        description="Static fast-path self-audit of the repro runtime "
                    "(rules FP101-FP308; suppress per line with "
                    "'# audit: allow[FPxxx]').  Exit status: 0 clean, "
                    "1 findings, 2 usage error.")
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="source files or directories to audit (typically src/repro)")
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the machine-readable AUDIT.json snapshot to FILE")
    parser.add_argument(
        "--rules", action="store_true",
        help="print the audit rule catalog and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.rules:
        print(render_fp_catalog())
        return 0
    if not args.paths:
        parser.error("no paths given (or use --rules)")
    report, snapshot = run_audit(args.paths)
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"snapshot written to {args.json}")
    return report.exit_code()
