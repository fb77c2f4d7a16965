"""Hook-seam discipline (FP308).

The runtime reaches its optional subsystems — sanitizer, fault layer,
race detector, progress engine, timeline — only through a rank's hook
seam, ``proc.hooks`` (:mod:`repro.runtime.hooks`), which is None on a
plain build: one test there keeps every build without them
byte-identical.  The rule: no function outside a subsystem's own
package, the seam and the constructors that create the subsystems
reads one of their attributes.  Stores are exempt.
Suppress a deliberate read with ``# audit: allow[FP308]``.
"""

from __future__ import annotations

import ast

from repro.analysis_common import Finding, suppressed
from repro.audit.callgraph import CodeIndex
from repro.audit.rules import PRAGMA_MARKER

RULE_ID = "FP308"

#: The attributes that name an optional subsystem, world- or rank-level.
HOOK_ATTRS = frozenset({"sanitizer", "faults", "ft", "tsan", "progress",
                        "timeline"})

#: Where they may be read: the subsystems' own packages, the seam, the
#: timeline's module and the build configuration that enables them.
OWNERS = ("repro/sanitize/", "repro/ft/", "repro/tsan/", "repro/progress/",
          "repro/runtime/hooks.py", "repro/analysis/timeline.py",
          "repro/core/config.py")

#: ... and the constructors that create them.
CONSTRUCTORS = frozenset({"repro/runtime/world.py:World.__init__",
                          "repro/runtime/proc.py:Proc.__init__"})


def scan_hookseam(index: CodeIndex, path_filter: str = "repro/",
                  owners: tuple = OWNERS) -> list[Finding]:
    """FP308 over every function of *index* (tests pass
    ``path_filter=""`` to scan bare fixture files)."""
    findings: list[Finding] = []
    for func in index.functions.values():
        rel = func.module.rel
        if (path_filter and not rel.startswith(path_filter)
                or rel.startswith(owners) or func.qualname in CONSTRUCTORS):
            continue
        for node in index.walk_body(func):
            if (isinstance(node, ast.Attribute) and node.attr in HOOK_ATTRS
                    and isinstance(node.ctx, ast.Load)
                    and not suppressed(func.module.lines, node.lineno,
                                       RULE_ID, PRAGMA_MARKER)):
                findings.append(Finding(
                    RULE_ID, str(func.module.path), node.lineno,
                    f"{func.short} reads .{node.attr} outside the hook "
                    "seam: fire a proc.hooks event (repro.runtime.hooks) "
                    "so plain builds stay byte-identical"))
    findings.sort(key=lambda f: (f.path, f.line))
    return findings
