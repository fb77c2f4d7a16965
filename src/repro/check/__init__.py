"""The runtime's self-check: audit + bufcheck + the shipped programs' lint.

``python -m repro.check`` — see :mod:`repro.check.cli`.
"""

from repro.check.cli import TreeAnalysis, analyze_tree, exit_status, main

__all__ = ["TreeAnalysis", "analyze_tree", "exit_status", "main"]
