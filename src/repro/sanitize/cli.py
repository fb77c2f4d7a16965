"""Command-line interface: ``python -m repro.sanitize <files-or-dirs>``.

The linter for *user programs*.  Exit-status contract (shared with
``python -m repro.check``, the runtime's self-check, so CI can gate on
either uniformly):

* **0** — every checked file is clean;
* **1** — at least one unsuppressed rule fired;
* **2** — usage error (no paths, unknown flag; argparse's own code).

``--rules`` prints the rule catalog.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.sanitize.astlint import lint_paths
from repro.sanitize.diagnostics import render_rule_catalog


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitize",
        description="Static MPI-correctness linter for programs using "
                    "repro.mpi (rules MS101-MS109; suppress per line "
                    "with '# sanitize: ignore[MSxxx]').  Exit status: "
                    "0 clean, 1 findings, 2 usage error.")
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="Python files or directories to lint (directories are "
             "searched recursively for *.py)")
    parser.add_argument(
        "--rules", action="store_true",
        help="print the full rule catalog (static and dynamic) and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.rules:
        print(render_rule_catalog())
        return 0
    if not args.paths:
        parser.error("no paths given (or use --rules)")
    report = lint_paths(args.paths)
    print(report.render())
    return report.exit_code()
