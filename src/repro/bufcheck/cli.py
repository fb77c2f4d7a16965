"""CLI and snapshot builder: ``python -m repro.bufcheck``.

Runs the buffer-ownership dataflow over the tree (default: the
installed ``repro`` package sources), prints BC5xx findings, and exits
1 on any unsuppressed finding.  ``--json [FILE]`` writes the
machine-readable ``COPYMAP.json`` snapshot the calibration test diffs
(FILE defaults to stdout):

* per published build/extension path: distinct copy / view /
  ownership-transfer sites on the zero-copy fast path and on the
  always-copy (fault-build) path;
* the finding counts by rule.

Same exit contract as ``repro.sanitize`` / ``repro.audit``:
0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis_common import Report, iter_python_files
from repro.audit.callgraph import CodeIndex
from repro.audit.manifest import AuditManifest, default_manifest
from repro.bufcheck.census import build_collective_census, build_copymap
from repro.bufcheck.dataflow import Analyzer, scan_tree
from repro.bufcheck.rules import render_bc_catalog


def default_paths() -> list[str]:
    """The runtime's own package directory — ``python -m repro.bufcheck``
    with no arguments checks the tree it was imported from."""
    return [str(Path(__file__).resolve().parent.parent)]


def run_bufcheck(paths: Sequence[str],
                 manifest: Optional[AuditManifest] = None,
                 ) -> tuple[Report, dict]:
    """Check *paths*; returns (report, COPYMAP.json snapshot dict)."""
    manifest = manifest if manifest is not None else default_manifest()
    files = iter_python_files(list(paths))
    index = CodeIndex.build(files)
    analyzer = Analyzer(index)

    # Census first: the entry-rooted analyses seed the memo tables the
    # whole-tree scan then reuses, and report path-context findings.
    copymap = build_copymap(analyzer, manifest)
    collectives = build_collective_census(analyzer)
    findings = scan_tree(analyzer)

    report = Report(diagnostics=findings,
                    files_checked=len(index.modules))
    snapshot = {
        "version": 1,
        "paths": dict(sorted(copymap.items())),
        "collectives": dict(sorted(collectives.items())),
        "findings": {
            "count": len(report.diagnostics),
            "by_rule": dict(sorted(report.counts_by_rule().items())),
        },
    }
    return report, snapshot


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bufcheck",
        description="Buffer-ownership & copy-census analyzer of the "
                    "repro runtime (rules BC501-BC505; suppress per "
                    "line with '# bufcheck: ignore[BCxxx]').  Exit "
                    "status: 0 clean, 1 findings, 2 usage error.")
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="source files or directories to check (default: the "
             "installed repro package)")
    parser.add_argument(
        "--json", metavar="FILE", nargs="?", const="-", default=None,
        help="write the COPYMAP.json snapshot to FILE (default stdout)")
    parser.add_argument(
        "--rules", action="store_true",
        help="print the bufcheck rule catalog and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.rules:
        print(render_bc_catalog())
        return 0
    paths = list(args.paths) if args.paths else default_paths()
    report, snapshot = run_bufcheck(paths)
    print(report.render())
    if args.json is not None:
        if args.json == "-":
            json.dump(snapshot, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(snapshot, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"snapshot written to {args.json}")
    return report.exit_code()
