"""The runtime's self-check: ``python -m repro.check``.

One command runs every static analysis the runtime ships over the
runtime itself:

* the fast-path audit (:mod:`repro.audit`) and the buffer-ownership
  census (:mod:`repro.bufcheck`) over the installed ``repro`` package,
  both on one parsed :class:`~repro.audit.callgraph.CodeIndex`;
* the MPI-correctness linter (:mod:`repro.sanitize`) over the programs
  the runtime ships: ``examples/`` in a checkout, and ``repro.apps``.

``--json DIR`` writes ``DIR/AUDIT.json`` and ``DIR/COPYMAP.json``, the
two snapshots committed at the repository root.  Exit status is the
max of the component codes — the familiar 0 clean / 1 findings /
2 usage-error contract.  User programs are linted with
``python -m repro.sanitize PATHS``.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.analysis_common import Report
from repro.audit.callgraph import CodeIndex
from repro.audit.manifest import default_manifest
from repro.audit.rules import render_fp_catalog
from repro.audit.snapshot import run_audit
from repro.bufcheck.census import run_bufcheck
from repro.bufcheck.rules import render_bc_catalog
from repro.sanitize.astlint import lint_paths
from repro.sanitize.diagnostics import render_rule_catalog


def package_dir() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parent.parent


def repo_root() -> Path:
    """The checkout root (two levels above the package: ``src/repro``)."""
    return package_dir().parent.parent


@dataclass(frozen=True)
class TreeAnalysis:
    """One analysis of the runtime tree: the parsed index, and each
    analyzer's report and committed-snapshot payload."""

    index: CodeIndex
    audit: Report
    audit_snapshot: dict
    bufcheck: Report
    bufcheck_snapshot: dict


def analyze_tree() -> TreeAnalysis:
    """Parse the installed runtime once; run the audit and the copy
    census over that one index."""
    index = CodeIndex.build([package_dir()])
    manifest = default_manifest()
    audit, audit_snapshot = run_audit(index, manifest)
    bufcheck, bufcheck_snapshot = run_bufcheck(index, manifest)
    return TreeAnalysis(index, audit, audit_snapshot, bufcheck,
                        bufcheck_snapshot)


def lint_shipped_programs() -> Report:
    """The linter over the shipped example programs and mini-apps."""
    candidates = [repo_root() / "examples", package_dir() / "apps"]
    return lint_paths([p for p in candidates if p.is_dir()])


def exit_status(reports: Iterable[Report]) -> int:
    """The gate's exit status: the max of the component codes."""
    return max(report.exit_code() for report in reports)


def render_catalogs() -> str:
    """All three rule catalogs, concatenated."""
    return "\n\n".join([render_rule_catalog(), render_fp_catalog(),
                        render_bc_catalog()])


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="The runtime's self-check: repro.audit and "
                    "repro.bufcheck over the installed repro package, "
                    "repro.sanitize over its shipped programs.  Exit "
                    "status: 0 clean, 1 findings, 2 usage error.")
    parser.add_argument(
        "--json", metavar="DIR", default=None,
        help="write DIR/AUDIT.json and DIR/COPYMAP.json")
    parser.add_argument(
        "--rules", action="store_true",
        help="print every tool's rule catalog and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    if args.rules:
        print(render_catalogs())
        return 0
    tree = analyze_tree()
    reports = {"sanitize": lint_shipped_programs(), "audit": tree.audit,
               "bufcheck": tree.bufcheck}
    for name, report in reports.items():
        print(f"{name + ':':<10}{report.render()}")
    if args.json is not None:
        out = Path(args.json)
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in (("AUDIT.json", tree.audit_snapshot),
                              ("COPYMAP.json", tree.bufcheck_snapshot)):
            (out / name).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
        print(f"snapshots written to {out}")
    return exit_status(reports.values())
