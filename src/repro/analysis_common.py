"""Shared machinery for the repo's static-analysis tools.

Three analyzers live in this tree:

* :mod:`repro.sanitize` — the MPI-correctness linter for *user
  programs* (``MS1xx``/``MSD2xx`` rules, ``# sanitize: ignore``
  pragmas), run as ``python -m repro.sanitize PATHS``;
* :mod:`repro.audit` — the fast-path self-audit of the runtime's *own*
  source (``FP1xx``/``FP2xx``/``FP3xx`` rules, ``# audit: allow``
  pragmas);
* :mod:`repro.bufcheck` — the buffer-ownership & copy census of the
  same source, on the audit's call graph (``BC5xx`` rules,
  ``# bufcheck: ignore`` pragmas).

``python -m repro.check`` runs the last two over one parsed tree, and
the linter over the shipped programs.  All three share one finding
record, one report/exit-code policy, one rule-catalog shape, and one
pragma parser (parameterized by marker so each tool keeps its
established spelling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union


@dataclass(frozen=True)
class Rule:
    """One entry of a tool's rule catalog.

    Attributes
    ----------
    rule_id:
        Stable identifier (``MS101``, ``MSD201``, ``FP104``, ...).
    title:
        One-line description of the defect class.
    example:
        A minimal trigger, as the offending code would be written.
    fix:
        The suggested remediation.
    dynamic:
        True for runtime-checker rules, False for static rules.
    """

    rule_id: str
    title: str
    example: str
    fix: str
    dynamic: bool = False


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding (a rule firing at a source line)."""

    rule_id: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        """``file:line: [RULE] message`` — the CLI output format."""
        return f"{self.path}:{self.line}: [{self.rule_id}] {self.message}"


@dataclass
class Report:
    """All findings of one analysis invocation, plus the exit policy."""

    diagnostics: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    def extend(self, diags: Sequence[Finding]) -> None:
        """Append findings from one file."""
        self.diagnostics.extend(diags)

    @property
    def clean(self) -> bool:
        """True when no rule fired."""
        return not self.diagnostics

    def exit_code(self) -> int:
        """CI gate policy: 0 when clean, 1 when any rule fired."""
        return 0 if self.clean else 1

    def counts_by_rule(self) -> dict[str, int]:
        """``rule_id -> number of findings`` (for JSON artifacts)."""
        counts: dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.rule_id] = counts.get(diag.rule_id, 0) + 1
        return counts

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [d.render() for d in sorted(
            self.diagnostics, key=lambda d: (d.path, d.line, d.rule_id))]
        lines.append(f"{len(self.diagnostics)} finding(s) in "
                     f"{self.files_checked} file(s)")
        return "\n".join(lines)


def suppressed(lines: Sequence[str], line: int, rule_id: str,
               marker: str) -> bool:
    """Is *rule_id* suppressed by an end-of-line pragma on *line*?

    *marker* is the tool's pragma spelling (``"# sanitize: ignore"`` or
    ``"# audit: allow"``).  A bare marker suppresses every rule on the
    line; ``marker[RULE1,RULE2]`` suppresses only the listed ids.
    """
    if not 1 <= line <= len(lines):
        return False
    text = lines[line - 1]
    idx = text.find(marker)
    if idx < 0:
        return False
    rest = text[idx + len(marker):]
    if rest.startswith("["):
        listed = rest[1:rest.find("]")] if "]" in rest else rest[1:]
        return rule_id in {r.strip() for r in listed.split(",")}
    return True


def iter_python_files(paths: Iterable[Union[str, Path]]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.update(p.rglob("*.py"))
        elif p.suffix == ".py":
            out.add(p)
    return sorted(out)


def render_catalog(rules: Mapping[str, Rule]) -> str:
    """The ``--rules`` listing: id, title, example, fix per rule."""
    out = []
    for rule in rules.values():
        layer = "dynamic" if rule.dynamic else "static"
        out.append(f"{rule.rule_id} ({layer}): {rule.title}\n"
                   f"    example: {rule.example}\n"
                   f"    fix:     {rule.fix}")
    return "\n".join(out)
