"""The copy census: static copies-per-path for the published variants.

For each :class:`repro.audit.manifest.PathSpec` (the same 12 rows the
audit's AUDIT.json freezes), the census roots the dataflow engine at
the spec's MPI entry point with the entry buffer tainted, collects the
event stream, and counts the *distinct data-movement sites* on two
protocol variants:

* **fastpath** — the contiguous zero-copy eager path (events carrying
  no off-path qualifier: no ``strided``, no ``copy_mode``, no optional
  subsystem);
* **copy_mode** — the always-copy path of ``pack(..., copy=True)``,
  which a fault-injected build (``BuildConfig(fault_plan=...)``) takes
  for every send; ``view_mode`` events drop out instead.

Send (isend) paths additionally carry a ``recv`` census rooted at
``Communicator.Irecv`` — a transfer's end-to-end copy count is the
send census plus the receive census.  CH4 paths exclude every site
reached through a CH3 device method and vice versa (the call-graph
resolver over-approximates across devices).

Site ids are line-number-free (``module:func::kind:what`` plus an
ordinal for repeats), so the committed ``COPYMAP.json`` only changes
when data movement actually changes — the same diff discipline as
AUDIT.json.  :func:`run_bufcheck` assembles the census and the BC5xx
findings into that snapshot; ``python -m repro.check --json DIR``
writes it as ``DIR/COPYMAP.json``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.analysis_common import Report
from repro.audit.callgraph import CodeIndex
from repro.audit.manifest import AuditManifest, PathSpec
from repro.bufcheck.dataflow import (Analyzer, Event, OFFCOPY_QUALS,
                                     OFFPATH_QUALS, Taint, scan_tree)

#: Entry parameter names carrying the user buffer, per path side.
SEND_BUF_PARAMS = frozenset({"buf", "origin", "origin_buf", "sendbuf"})
RECV_BUF_PARAMS = frozenset({"buf", "recvbuf"})

#: The canonical receive twin for send-path censuses.
RECV_TWIN = ("Communicator", "Irecv")

#: The buffer collectives: (key, method, send params, recv params).
#: Each gets its own send- and recv-side census — the per-collective
#: receive paths the plain ``Irecv`` twin cannot see (staging in
#: :mod:`repro.mpi.collectives` happens *inside* the collective call,
#: e.g. a ring round's combine or an allgather's reassembly loop).
#: ``Bcast``'s single ``array`` is both sides: the root sends it, every
#: other rank receives into it.
COLLECTIVE_ENTRIES = (
    ("bcast", "Bcast", frozenset({"array"}), frozenset({"array"})),
    ("reduce", "Reduce", frozenset({"sendbuf"}), frozenset({"recvbuf"})),
    ("allreduce", "Allreduce",
     frozenset({"sendbuf"}), frozenset({"recvbuf"})),
    ("allgather", "Allgather",
     frozenset({"sendbuf"}), frozenset({"recvbuf"})),
    ("gather", "Gather", frozenset({"sendbuf"}), frozenset({"recvbuf"})),
    ("scatter", "Scatter",
     frozenset({"sendbuf"}), frozenset({"recvbuf"})),
    ("alltoall", "Alltoall",
     frozenset({"sendbuf"}), frozenset({"recvbuf"})),
    ("reduce_scatter_block", "Reduce_scatter_block",
     frozenset({"sendbuf"}), frozenset({"recvbuf"})),
    ("scan", "Scan", frozenset({"sendbuf"}), frozenset({"recvbuf"})),
)


def _entry_seeds(index: CodeIndex, cls: str, method: str,
                 names: frozenset, taint: Taint) -> dict:
    func = index.find_method(cls, method)
    if func is None:
        return {}
    return {a.arg: taint for a in func.node.args.args
            if a.arg in names}


def _module_filter(spec_name: str) -> Callable[[Event], bool]:
    """Keep only events on the spec's device: none reached through the
    other device's tree (shared code stays — the receive landing both
    devices use lives beside ``CH4Device``)."""
    other = "ch4" if spec_name.startswith("ch3_") else "ch3"
    return lambda ev: other not in ev.quals


def _site_table(events: list[Event]) -> dict[str, dict]:
    """Group events into distinct sites.  A site's id gains a ``#n``
    ordinal (by in-function line order) only when one function holds
    several same-kind same-what sites — relative order is stable under
    unrelated edits, absolute line numbers are not."""
    by_site: dict[str, dict[int, set]] = {}
    for ev in events:
        by_site.setdefault(ev.site, {}).setdefault(
            ev.line, set()).add(ev.quals)
    table: dict[str, dict] = {}
    for site, lines in by_site.items():
        ordered = sorted(lines)
        for ordinal, line in enumerate(ordered):
            site_id = site if len(ordered) == 1 else f"{site}#{ordinal}"
            table[site_id] = {
                "kind": site.rsplit("::", 1)[1].split(":", 1)[0],
                "qualsets": lines[line],
            }
    return table


def _variant(table: dict[str, dict], off: frozenset) -> dict:
    """Count sites reachable with every off-variant qualifier absent."""
    picked = {
        site: info for site, info in table.items()
        if any(not (qs & off) for qs in info["qualsets"])
    }
    def sites_of(kind: str) -> list[str]:
        return sorted(s for s, i in picked.items() if i["kind"] == kind)
    copies = sites_of("copy")
    return {
        "copies": len(copies),
        "copy_sites": copies,
        "views": len(sites_of("borrow")),
        "transfers": len(sites_of("transfer")),
    }


def _census(analyzer: Analyzer, cls: str, method: str,
            names: frozenset, taint: Taint,
            keep: Callable[[Event], bool]) -> Optional[dict]:
    seeds = _entry_seeds(analyzer.index, cls, method, names, taint)
    if not seeds:
        return None
    events = [ev for ev in analyzer.run_entry(cls, method, seeds)
              if keep(ev)]
    table = _site_table(events)
    return {
        "fastpath": _variant(table, OFFPATH_QUALS),
        "copy_mode": _variant(table, OFFCOPY_QUALS),
    }


def census_for_path(analyzer: Analyzer, spec: PathSpec) -> dict:
    """The COPYMAP row for one published path."""
    cls, method = spec.entry
    keep = _module_filter(spec.name)
    row: dict = {"op": spec.op, "entry": f"{cls}.{method}"}
    send = _census(analyzer, cls, method, SEND_BUF_PARAMS,
                   Taint("src", borrowed=True), keep)
    row["send"] = send if send is not None else {}
    if spec.op == "isend":
        recv = _census(analyzer, RECV_TWIN[0], RECV_TWIN[1],
                       RECV_BUF_PARAMS, Taint("dest", borrowed=True),
                       keep)
        row["recv"] = recv if recv is not None else {}
    return row


def build_copymap(analyzer: Analyzer, manifest: AuditManifest) -> dict:
    """The ``paths`` payload of COPYMAP.json (all 12 specs)."""
    return {spec.name: census_for_path(analyzer, spec)
            for spec in manifest.paths}


def build_collective_census(analyzer: Analyzer) -> dict:
    """The ``collectives`` payload of COPYMAP.json: send- and
    recv-side staging censuses for every buffer collective (CH4 tree
    only — the collectives sit above the device split)."""
    keep = _module_filter("ch4_collectives")
    out: dict = {}
    for key, method, send_names, recv_names in COLLECTIVE_ENTRIES:
        row: dict = {"entry": f"Communicator.{method}"}
        # One array for both sides (Bcast) is received into where it
        # is not sent from: the send-side walk must not read the
        # landing as a store into a send buffer.
        role = "inout" if send_names == recv_names else "src"
        send = _census(analyzer, "Communicator", method, send_names,
                       Taint(role, borrowed=True), keep)
        row["send"] = send if send is not None else {}
        recv = _census(analyzer, "Communicator", method, recv_names,
                       Taint("dest", borrowed=True), keep)
        row["recv"] = recv if recv is not None else {}
        out[key] = row
    return out


def run_bufcheck(index: CodeIndex, manifest: AuditManifest,
                 ) -> tuple[Report, dict]:
    """Check the parsed tree *index*; returns (report, COPYMAP.json
    snapshot dict)."""
    analyzer = Analyzer(index)
    # Census first: the entry-rooted analyses seed the memo tables the
    # whole-tree scan then reuses, and report path-context findings.
    copymap = build_copymap(analyzer, manifest)
    collectives = build_collective_census(analyzer)
    report = Report(diagnostics=scan_tree(analyzer),
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
