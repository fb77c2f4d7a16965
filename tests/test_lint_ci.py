"""CI lint gate: every static/dynamic analysis the tree ships.

The runtime's self-check, ``python -m repro.check --json DIR``, runs
once as the CI job would: the fast-path audit and the buffer-ownership
& copy census over ``src/repro`` (their snapshots byte-identical to the
committed ``AUDIT.json`` / ``COPYMAP.json``) and the MPI linter over
every shipped program.  The user-program linter ``python -m
repro.sanitize`` is checked on its own; the race detector's quick
stress pass (``benchmarks/bench_tsan.py --quick``) and ruff (where
installed; skipped loudly when the binary is missing) run once each.
The calibration-guard classes pin the committed Figure 2 / Table 1
charging (``FIGURE2`` / ``TABLE1`` below) on the default build and on
every setting that claims to be charge-invisible.
"""

from __future__ import annotations

import ast
import filecmp
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.consts import PROC_NULL
from repro.core.config import BuildConfig
from repro.ft import FaultPlan

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


#: Committed Figure 2 bars: build label -> (isend, put).
FIGURE2 = {
    "mpich/original": (253, 1342),
    "mpich/ch4 (default)": (221, 215),
    "mpich/ch4 (no-err)": (147, 143),
    "mpich/ch4 (no-err-single)": (141, 129),
    "mpich/ch4 (no-err-single-ipo)": (59, 44),
}
#: Committed Table 1 per-category decomposition of the defaults.
TABLE1 = {
    "isend": {"ERROR_CHECKING": 74, "THREAD_SAFETY": 6,
              "FUNCTION_CALL": 23, "REDUNDANT_CHECKS": 59,
              "MANDATORY": 59},
    "put": {"ERROR_CHECKING": 72, "THREAD_SAFETY": 14,
            "FUNCTION_CALL": 25, "REDUNDANT_CHECKS": 60,
            "MANDATORY": 44},
}
#: Per-path RELIABILITY overhead of a lossless fault build.
RELIABILITY = {"isend": 43, "put": 34}


def category_trace(rec) -> dict:
    """The nonzero per-category charges of one traced call, by name."""
    return {cat.name: n for cat, n in rec.by_category.items() if n}


def assert_figure2_exact(**overrides):
    """Each of the five Figure 2 builds, rebuilt with *overrides*,
    charges exactly its committed bar — plus, when the overrides make
    it a fault build, what it attributes to ``RELIABILITY``."""
    import dataclasses
    from repro.core.config import named_builds
    from repro.instrument.categories import Category
    from repro.perf.msgrate import measure_call_record
    for label, bars in FIGURE2.items():
        config = dataclasses.replace(named_builds()[label], **overrides)
        for op, bar in zip(("isend", "put"), bars):
            rec = measure_call_record(config, op)
            if config.fault_plan is not None:
                bar += rec.category(Category.RELIABILITY)
            assert rec.total == bar, (label, op, overrides)


def assert_table1_trace(**overrides):
    """The default build with *overrides* charges the committed Table 1
    decomposition — category by category, not just in total — plus,
    when the overrides make it a fault build, exactly ``RELIABILITY``."""
    from repro.core.config import BuildConfig
    from repro.perf.msgrate import measure_call_record
    config = BuildConfig(**overrides)
    for op, committed in TABLE1.items():
        expected = dict(committed)
        if config.fault_plan is not None:
            expected["RELIABILITY"] = RELIABILITY[op]
        rec = measure_call_record(config, op)
        assert category_trace(rec) == expected, (op, overrides)
        assert rec.total == sum(expected.values()), (op, overrides)


def _rule_ids(stdout: str) -> list[str]:
    """The rule ids of the findings one analyzer run printed."""
    return re.findall(r": \[(\w+)\] ", stdout)


class TestSanitizeCLI:
    """``python -m repro.sanitize``, the linter for user programs."""

    def _lint(self, *args) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro.sanitize", *args],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=120)

    def test_tree_lints_clean(self):
        proc = self._lint("examples", "src/repro/apps")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_clean_file_passes_the_gate(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(x):\n"
                         "    return x + 1\n")
        proc = self._lint(str(clean))
        assert (proc.returncode, _rule_ids(proc.stdout)) == (0, [])

    def test_findings_fail_the_gate(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(comm, buf):\n"
                       "    comm.isend(buf, dest=1, tag=0)\n")
        proc = self._lint(str(bad))
        assert (proc.returncode, _rule_ids(proc.stdout)) == (1, ["MS101"])

    def test_rules_flag_prints_catalog(self):
        proc = self._lint("--rules")
        assert proc.returncode == 0
        assert "MS101" in proc.stdout and "MSD204" in proc.stdout
        assert "MS109" in proc.stdout


class TestRuff:
    """Ruff over every analyzer package — skipped when the binary is
    not installed."""

    def test_ruff_clean_on_analyzer_packages(self):
        try:
            proc = subprocess.run(
                ["ruff", "check", "src/repro/analysis_common.py",
                 "src/repro/sanitize", "src/repro/audit",
                 "src/repro/bufcheck", "src/repro/check",
                 "src/repro/tsan"],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
        except FileNotFoundError:
            pytest.skip("ruff not installed in this environment")
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestProgressBenchSmoke:
    """``benchmarks/bench_progress.py --quick`` as a CI smoke: runs,
    shows the overlap collapse, and retires requests with zero polls."""

    def test_quick_mode_overlaps_and_completes(self):
        import json
        proc = subprocess.run(
            [sys.executable, "benchmarks/bench_progress.py", "--quick"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout)
        for mode, row in result["overlap"]["modes"].items():
            assert row["ratio"] >= 3.0, mode
        for zp in result["zero_poll"]:
            assert all(zp["complete_before_wait"]), zp["mode"]
        assert (ROOT / "BENCH_progress.json").exists()


class TestFaultBenchSmoke:
    """``benchmarks/bench_fault.py --quick`` as a CI smoke: runs,
    reports the standing tax, and delivers intact on the lossy wire."""

    def test_quick_mode_runs_and_delivers(self):
        import json
        proc = subprocess.run(
            [sys.executable, "benchmarks/bench_fault.py", "--quick"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout)
        assert result["standing_tax"]["isend"]["reliability"] == 43
        assert result["standing_tax"]["put"]["reliability"] == 34
        sweep = result["retransmit_sweep"]
        assert all(row["delivered_intact"] for row in sweep)
        assert sweep[-1]["n_retransmits"] > 0


class TestVCIBenchSmoke:
    """``benchmarks/bench_vci.py --quick`` as a CI smoke: runs, writes
    the artifact, and shows the sharded build scaling."""

    def test_quick_mode_runs_and_scales(self):
        import json
        proc = subprocess.run(
            [sys.executable, "benchmarks/bench_vci.py", "--quick"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout)
        assert result["speedup_t4"]["ratio"] >= 2.0
        assert result["validation"]["drained"]
        assert (ROOT / "BENCH_vci.json").exists()


class TestPlansCalibrationGuard:
    """Charge-plan neutrality gate: plans change how often the ledger
    is called, never what it is told — a cold call (which compiles its
    plans) and a warm one (which replays them) both charge byte-for-
    byte what the committed Figure 2 / Table 1 numbers say."""

    def test_paper_totals(self):
        from repro.core.config import BuildConfig
        from repro.perf.msgrate import measure_instructions
        assert measure_instructions(BuildConfig(), "isend") == 221
        assert measure_instructions(BuildConfig(), "put") == 215

    def test_cold_calls_keep_figure2_exact(self):
        assert_figure2_exact()

    def test_warm_calls_keep_table1_trace(self):
        """Three traced calls in one world: the first compiles, the
        others replay; every record is the committed decomposition."""
        import numpy as np
        from repro.mpi.rma import Window
        from repro.runtime import World

        def body(comm, op):
            proc = comm.proc
            buf = np.zeros(1, dtype=np.uint8)
            win = Window.create(comm, np.zeros(8, dtype=np.uint8),
                                disp_unit=1)
            win.fence()
            for _ in range(3):
                if op == "put" and comm.rank == 0:
                    with proc.tracer.call(op):
                        win.put(buf, 1)
                elif op == "isend" and comm.rank == 0:
                    with proc.tracer.call(op):
                        req = comm.Isend(buf, 1)
                    req.wait()
                elif op == "isend":
                    comm.Recv(buf, 0)
            win.fence()
            return [r for r in proc.tracer.records if r.name == op]

        for op, committed in TABLE1.items():
            records = World(2).run(body, args=(op,), timeout=60)[0]
            assert len(records) == 3
            for rec in records:
                assert category_trace(rec) == committed, op


class TestChargeInvisibleBuilds:
    """One table of the builds that claim to be charge-invisible: each
    charges byte-for-byte the committed Figure 2 bars or Table 1
    decomposition — a fault build plus exactly what it attributes to
    ``RELIABILITY``.  A build with a subsystem switched off *is*
    ``BuildConfig()`` (its hook seam is None), whose row is
    :class:`TestPlansCalibrationGuard`; bufcheck's two send modes are
    :class:`TestBufcheckCalibrationGuard`."""

    @pytest.mark.parametrize("artifact, overrides", [
        # A lossless fault build: the reliability protocol's overhead
        # and nothing else.
        pytest.param(assert_table1_trace, {"fault_plan": FaultPlan()},
                     id="table1-fault"),
        # An observer: the race detector lives in host Python outside
        # the ledger.
        pytest.param(assert_table1_trace, {"tsan": True}, id="table1-tsan"),
        # The collective selector lives above the device send path.
        *(pytest.param(artifact, {"communicator_name": strategy},
                       id=f"{label}-{strategy}")
          for strategy in ("flat", "hierarchical")
          for label, artifact in (("figure2", assert_figure2_exact),
                                  ("table1", assert_table1_trace))),
    ])
    def test_build_keeps_calibration(self, artifact, overrides):
        artifact(**overrides)


class TestBufcheckCalibrationGuard:
    """Payload-carrying neutrality gate: whether a send borrows the
    application buffer as a view (the default build) or snapshots it
    (a fault build, the one configuration that copies) moves memory
    traffic only — outside ``RELIABILITY``, the charged Figure 2 /
    Table 1 instruction counts may not move by a single instruction.
    The mode is read off the device, so each test really covers both."""

    MODES = ((BuildConfig(), False), (BuildConfig(fault_plan=FaultPlan()),
                                      True))

    def _check_both_modes(self, artifact):
        from repro.runtime import World
        for config, copies in self.MODES:
            flags = World(2, config).run(
                lambda comm: comm.proc.device.copy_sends, timeout=60)
            assert flags == [copies, copies]
            artifact(fault_plan=config.fault_plan)

    def test_both_modes_keep_figure2_exact(self):
        self._check_both_modes(assert_figure2_exact)

    def test_both_modes_keep_table1_trace(self):
        self._check_both_modes(assert_table1_trace)


def _calls_outside_waits(body, rounds: int) -> float:
    """Python-level calls per *body*() over *rounds* runs, frames
    under ``Request._block`` excluded: how long a rank sleeps there is
    a thread hand-off, not work its call makes."""
    import sys
    from repro.runtime.request import Request
    block = Request._block.__code__
    calls = depth = 0       # depth: frames under Request._block

    def profiler(frame, event, arg):
        nonlocal calls, depth
        if event == "call":
            if depth or frame.f_code is block:
                depth += 1
            else:
                calls += 1
        elif event == "return" and depth:
            depth -= 1

    sys.setprofile(profiler)
    try:
        for _ in range(rounds):
            body()
    finally:
        sys.setprofile(None)
    return calls / rounds


class TestCallPlanGuard:
    """Call-plan regression gate — a deterministic proxy for the wall
    clock.  What a warm one-byte message costs in this runtime is,
    to first order, how many Python-level calls it makes; both counts
    below repeat exactly, so a refactor that puts per-message work
    back (a re-derived locality check, a fresh ``DatatypeRef``, an
    accounting call per layer) fails here, with no timer involved."""

    #: A warm self-send cycle — Irecv + Isend + 2 waits + 2 releases —
    #: made 150 Python-level calls before call plans, 62 with them, 58
    #: once the engine lock was entered at C level, 56 when the posted
    #: receive became its own queue element, and 42 now that a planned
    #: call runs from one helper, an eager send's request is born
    #: complete and ``wait`` finishes by itself: exactly.
    CALLS_PER_CYCLE = 42
    #: ... of which construct an object: two op dataclasses, one
    #: ``PostedRecv``, one ``Message`` — exactly.
    INITS_PER_CYCLE = 4
    #: A warm ``Window.put``: 29 entered stepwise, 24 run planned,
    #: 16 with the handler called directly, the planned prologue, the
    #: target's size and the pending time read inline and the span
    #: computed by the window's accessor from a ``Typemap.ub`` slot;
    #: 11 now that a contiguous put is one RDMA store into the window
    #: (``WindowState.rdma`` and its ``note_copy`` in place of pack,
    #: its view note, the AM handler, the window view, unpack and its
    #: copy note) and a warm call that passes the checks runs no
    #: ``_check_rma`` frame — exactly.
    CALLS_PER_PUT = 11
    #: A warm ``Window.get`` (25, then 17 before the same changes; its
    #: one RDMA load and its note replace ``packed_size``, the AM
    #: handler, the window view, pack, unpack and two notes, and the
    #: warm call runs no ``_check_rma`` frame), exactly.
    CALLS_PER_GET = 11
    #: A warm ``Window.accumulate`` (20, then 18; two of these are the
    #: type and size checks it lacked; its bytes still move through
    #: the AM handler; 17 while the type check walked a predefined
    #: origin through ``_element_dtype``), exactly.
    CALLS_PER_ACCUMULATE = 16
    #: A warm ``Window.fetch_and_op`` (20 with that walk), exactly.
    CALLS_PER_FETCH_AND_OP = 19
    #: A warm ``Window.compare_and_swap``: 28 on a path of its own
    #: (``_check_rma`` and an entry plan on every call, a per-call
    #: import, the target and transport resolved and issued by hand);
    #: an accumulate now, its operator built and run per call:
    #: exactly.
    CALLS_PER_COMPARE_AND_SWAP = 23
    #: The same warm cycle on each build with a hook seam, whose entry
    #: replays the call's plans one layer at a time.  With a hook
    #: attribute per subsystem and a probe per hook site, entering
    #: stepwise: a timeline 70, ``num_vcis=4`` 90, ``sanitize=True``
    #: 85, ``tsan=True`` 312, a lossless ``fault_plan=FaultPlan()``
    #: 159.2 (an average: its pending-receive table leaked).  With one
    #: seam, still stepwise: 68, 86, 79, 307 and 162.2.  Replaying the
    #: plans, the fault layer's table keyed by the receive's life:
    #: 55, 82, 63, 291 and 114.  The fault layer's protocol charges
    #: replaying plans and an empty fault plan drawing nothing: exactly.
    HOOKED_CALLS_PER_CYCLE = {"timeline": 55, "num_vcis=4": 82,
                              "sanitize": 63, "tsan": 291,
                              "fault_plan": 97}
    #: The same cycle with both calls given MPI_PROC_NULL: 111 when
    #: such a call was planned nowhere (recompiling its call plan and
    #: charging its path step by step); replaying its own plan on the
    #: straight line: exactly.
    CALLS_PER_PROC_NULL_CYCLE = 26
    CYCLES = 100

    def _comm(self, timeline, config=None):
        """A one-rank world's communicator; *timeline*: one is
        recording, so every MPI entry on the rank is observed."""
        from repro.analysis.timeline import enable_timeline
        from repro.mpi.comm import Communicator
        from repro.runtime import World
        world = World(1, config)
        if timeline:
            enable_timeline(world)
        return Communicator.world_view(world.proc(0))

    def _cycle(self, timeline=False, config=None, comm=None, peer=0):
        import numpy as np
        if comm is None:
            comm = self._comm(timeline, config)
        send, recv = np.full(1, 7, np.uint8), np.zeros(1, np.uint8)
        release = comm.proc.request_pool.release

        def cycle():
            rreq = comm.Irecv(recv, peer, 7)
            sreq = comm.Isend(send, peer, 7)
            sreq.wait()
            rreq.wait()
            release(sreq)
            release(rreq)

        for _ in range(5):      # compile the plans, fill the pool
            cycle()
        assert recv[0] == (0 if peer == PROC_NULL else 7)
        return cycle

    def _rma(self, timeline=False, call="put", config=None):
        """A warm one-byte ``Window.<call>`` (put, get, accumulate,
        fetch_and_op or compare_and_swap) at byte 3 of a one-rank
        window."""
        import numpy as np
        from repro.mpi.rma import Window
        comm = self._comm(timeline, config)
        target = np.zeros(8, np.uint8)
        win = Window.create(comm, target, disp_unit=1)
        win.fence()
        origin = np.full(1, 7, np.uint8)
        rma = getattr(win, call)
        # fetch_and_op's result; compare_and_swap's compare and result.
        args = {"fetch_and_op": (np.zeros(1, np.uint8),),
                "compare_and_swap": (np.zeros(1, np.uint8),
                                     np.zeros(1, np.uint8))}.get(call, ())

        def once():
            rma(origin, *args, 0, 3)

        for _ in range(5):
            once()
        # (origin, target byte) after five calls.
        assert (origin[0], target[3]) == {
            "put": (7, 7), "get": (0, 0), "accumulate": (7, 35),
            "fetch_and_op": (7, 35), "compare_and_swap": (7, 7)}[call]
        return once

    #: What a warm call re-derives when it recompiles its plans
    #: instead of replaying them — the handle's and the device's plan
    #: resolution, the device's own entry of an op no entry charged,
    #: the recording of a call no plan carries: none of these runs on
    #: a warm call.  (``Proc.plan`` is not among them: a subsystem's
    #: charge looks its plan up there on every call.)
    RECOMPILING = frozenset({"_call_plan", "pt2pt_plan", "rma_plan",
                             "call_plan", "_enter_uncharged",
                             "_rma_prologue", "recording"})
    #: What a warm one-sided call that passes its checks never runs
    #: either: the checks' own frame, an entry plan built for the call,
    #: a function-local import.
    OFF_PLAN = frozenset({"_check_rma", "_entry_plan", "entry_plan",
                          "_handle_fromlist"})

    def _profile(self, body, watched=RECOMPILING):
        """Python-level calls per *body*() (less *body* itself) — an
        exact count — the ``__init__`` frames among them and how many
        frames of a *watched* name (``RECOMPILING``) ran, over
        ``CYCLES`` runs."""
        import gc
        import sys
        calls = inits = recompiles = 0
        # An earlier test's garbage (a suspended generator, say) must
        # not be finalized — Python frames — inside the window.
        gc.collect()

        def profiler(frame, event, arg):
            nonlocal calls, inits, recompiles
            if event == "call":
                calls += 1
                name = frame.f_code.co_name
                inits += name == "__init__"
                recompiles += name in watched

        sys.setprofile(profiler)
        try:
            for _ in range(self.CYCLES):
                body()
        finally:
            sys.setprofile(None)
        per_body = calls / self.CYCLES - 1
        assert per_body == int(per_body)
        return per_body, inits, recompiles

    def test_python_calls_per_warm_message(self):
        per_cycle, inits, recompiles = self._profile(self._cycle())
        assert per_cycle == self.CALLS_PER_CYCLE
        assert inits == self.INITS_PER_CYCLE * self.CYCLES
        assert recompiles == 0

    def test_python_calls_per_warm_proc_null_cycle(self):
        """MPI_PROC_NULL is a call site like any other: its plan ends
        at the §3.4 branch, and a warm call replays it fused."""
        per_cycle, _, recompiles = self._profile(
            self._cycle(peer=PROC_NULL))
        assert per_cycle == self.CALLS_PER_PROC_NULL_CYCLE
        assert recompiles == 0

    #: A warm §3.7 stream cycle — ``isend_all_opts``, its receive, a
    #: wait, ``waitall_noreq`` and a release: 57 Python-level calls
    #: when ``irecv_all_opts`` rebuilt its flags on every call; with
    #: them a module constant, the ``irecv_nomatch`` cycle's: exactly.
    CALLS_PER_ALL_OPTS_CYCLE = 45

    def _all_opts_cycle(self, receive):
        """A warm one-rank §3.7 stream cycle whose receive is
        ``comm.<receive>``."""
        import numpy as np
        comm = self._comm(False)
        send, recv = np.full(1, 7, np.uint8), np.zeros(1, np.uint8)
        release = comm.proc.request_pool.release
        irecv = getattr(comm, receive)

        def cycle():
            rreq = irecv(recv)
            comm.isend_all_opts(send, 0, 7)
            rreq.wait()
            comm.waitall_noreq()
            release(rreq)

        for _ in range(5):      # compile the plans, fill the pool
            cycle()
        assert recv[0] == 7
        return cycle

    #: A warm one-rank synchronous cycle — Irecv, ``Ssend`` (its
    #: Issend, wait and release), the receive's wait and release: 54
    #: Python-level calls when every synchronous send built a
    #: ``threading.Event`` (and its ``Condition``) that the match set
    #: and nothing waited on; without it: exactly.
    CALLS_PER_SSEND_CYCLE = 46
    #: ... of which construct an object: the cycle's four, and the
    #: ``SyncState`` the message carries — exactly.
    INITS_PER_SSEND_CYCLE = 5

    def test_python_calls_per_warm_ssend_cycle(self):
        import numpy as np
        comm = self._comm(False)
        send, recv = np.full(1, 7, np.uint8), np.zeros(1, np.uint8)
        release = comm.proc.request_pool.release

        def cycle():
            rreq = comm.Irecv(recv, 0, 7)
            comm.Ssend(send, 0, 7)
            rreq.wait()
            release(rreq)

        for _ in range(5):      # compile the plans, fill the pool
            cycle()
        assert recv[0] == 7
        per_cycle, inits, recompiles = self._profile(cycle)
        assert per_cycle == self.CALLS_PER_SSEND_CYCLE
        assert inits == self.INITS_PER_SSEND_CYCLE * self.CYCLES
        assert recompiles == 0

    def test_python_calls_per_warm_all_opts_cycle(self):
        per_cycle, _, recompiles = self._profile(
            self._all_opts_cycle("irecv_all_opts"))
        assert per_cycle == self.CALLS_PER_ALL_OPTS_CYCLE
        assert recompiles == 0
        nomatch, _, _ = self._profile(self._all_opts_cycle("irecv_nomatch"))
        assert per_cycle == nomatch

    def test_timeline_switched_off_runs_planned_again(self):
        """A plain rank whose timeline was switched on and off again
        has no seam left: its cycle, warmed while it was recorded, is
        the default build's again, exactly."""
        from repro.analysis.timeline import disable_timeline
        comm = self._comm(True)
        cycle = self._cycle(comm=comm)
        disable_timeline(comm.proc.world)
        assert comm.proc.hooks is None
        per_cycle, inits, recompiles = self._profile(cycle)
        assert per_cycle == self.CALLS_PER_CYCLE
        assert inits == self.INITS_PER_CYCLE * self.CYCLES
        assert recompiles == 0

    def test_python_calls_per_warm_put(self):
        per_put, _, recompiles = self._profile(self._rma())
        assert per_put == self.CALLS_PER_PUT
        assert recompiles == 0

    def test_python_calls_per_warm_get_and_accumulate(self):
        per_get, _, recompiles = self._profile(self._rma(call="get"))
        assert per_get == self.CALLS_PER_GET
        assert recompiles == 0
        per_acc, _, recompiles = self._profile(self._rma(call="accumulate"))
        assert per_acc == self.CALLS_PER_ACCUMULATE
        assert recompiles == 0

    def test_python_calls_per_warm_atomic(self):
        """``fetch_and_op`` and ``compare_and_swap`` are accumulates: a
        warm one replays its plan, with no check, entry-plan or import
        frame of its own."""
        for call, pinned in (("fetch_and_op", self.CALLS_PER_FETCH_AND_OP),
                             ("compare_and_swap",
                              self.CALLS_PER_COMPARE_AND_SWAP)):
            per_call, _, stray = self._profile(
                self._rma(call=call), self.RECOMPILING | self.OFF_PLAN)
            assert per_call == pinned, call
            assert stray == 0, call

    #: A warm 2-rank ``Window.fence`` — one dissemination round of the
    #: barrier — made 51 Python-level calls per rank, frames under
    #: ``Request._block`` excluded, while ``MPI_Barrier`` built each
    #: message's op and looked its plan up; 46 on a ``CollPlan`` (a
    #: message that finds its receive not yet posted makes a call or
    #: two more or less, hence a ceiling and not a count).
    MAX_CALLS_PER_FENCE = 47

    def test_python_calls_per_warm_fence(self):
        import numpy as np
        from repro.mpi.rma import Window
        from repro.runtime import World

        def main(comm):
            win = Window.create(comm, np.zeros(8, np.uint8), disp_unit=1)
            for _ in range(20):     # compile the plans, fill the pool
                win.fence()
            calls = _calls_outside_waits(win.fence, self.CYCLES)
            win.free()
            return calls

        per_rank = World(2).run(main, timeout=60)
        assert max(per_rank) <= self.MAX_CALLS_PER_FENCE, per_rank

    #: ``HOOKED_CALLS_PER_CYCLE``'s builds: a timeline, or a config.
    HOOKED_BUILDS = {"timeline": (True, None),
                     "num_vcis=4": (False, {"num_vcis": 4}),
                     "sanitize": (False, {"sanitize": True}),
                     "tsan": (False, {"tsan": True}),
                     "fault_plan": (False, {"fault_plan": FaultPlan()})}

    @pytest.mark.parametrize("build", sorted(HOOKED_BUILDS))
    def test_hooked_warm_calls_replay_their_plans(self, build):
        """A rank with a seam enters every call through the same
        runner as a plain rank: a warm cycle and a warm put replay the
        plans their first use compiled, and recompile nothing."""
        from repro.core.config import BuildConfig
        timeline, config = self.HOOKED_BUILDS[build]
        config = BuildConfig(**(config or {}))
        for body in (self._cycle(timeline, config),
                     self._rma(timeline, config=config)):
            assert self._profile(body)[2] == 0

    @pytest.mark.parametrize("build", sorted(HOOKED_BUILDS))
    def test_python_calls_per_warm_hooked_cycle(self, build):
        """What each observer costs a warm message — the hooked
        builds' on-cost, pinned like the default build's."""
        from repro.core.config import BuildConfig
        timeline, config = self.HOOKED_BUILDS[build]
        cycle = self._cycle(timeline, BuildConfig(**(config or {})))
        per_cycle, _, _ = self._profile(cycle)
        assert per_cycle == self.HOOKED_CALLS_PER_CYCLE[build]

    def test_one_accounting_call_per_warm_entry(self, monkeypatch):
        from repro.runtime.proc import Proc
        cycle = self._cycle()
        charges = []
        original = Proc.charge

        def counting(self, *args):
            charges.append(args)
            return original(self, *args)

        monkeypatch.setattr(Proc, "charge", counting)
        cycle()
        # One fused plan for the Irecv, one for the Isend.
        assert len(charges) == 2 and all(len(a) == 1 for a in charges)
        assert [a[0].total for a in charges] == [221, 221]

    #: A warm blocking half round trip — Send on one rank, the Recv it
    #: wakes on the other — made 91 Python-level calls when a blocked
    #: wait built an Event, subscribed a lambda and registered an abort
    #: listener; 66 when it parks on a one-shot lock; 52 run planned
    #: with a born-complete send request: measured + 2.
    MAX_CALLS_PER_BLOCKING_MESSAGE = 54

    def _profiled_ranks(self, body, rounds):
        """Run ``body(comm)`` *rounds* times on 2 warm ranks under
        ``sys.setprofile``; returns the Python-level calls made and
        how many of them constructed an Event or a Condition."""
        import sys
        import threading
        from repro.runtime import World
        heavy = {threading.Event.__init__.__code__,
                 threading.Condition.__init__.__code__}
        counts = {"calls": 0, "heavy": 0}

        def profiler(frame, event, arg):
            if event == "call":
                counts["calls"] += 1
                if frame.f_code in heavy:
                    counts["heavy"] += 1

        def main(comm):
            for _ in range(20):         # compile the plans, fill the pool
                body(comm)
            comm.barrier()
            sys.setprofile(profiler)
            try:
                for _ in range(rounds):
                    body(comm)
            finally:
                sys.setprofile(None)

        World(2).run(main, timeout=60)
        return counts["calls"], counts["heavy"]

    def test_python_calls_per_warm_blocking_message(self):
        import numpy as np
        send, recv = np.zeros(1, np.uint8), np.zeros(1, np.uint8)

        def pingpong(comm):
            if comm.rank == 0:
                comm.Send(send, 1, 7)
                comm.Recv(recv, 1, 7)
            else:
                comm.Recv(recv, 0, 7)
                comm.Send(send, 0, 7)

        rounds = 200
        calls, heavy = self._profiled_ranks(pingpong, rounds)
        # Less pingpong() itself; a message that found its receive not
        # yet posted skips the park and makes fewer calls, never more.
        per_message = (calls - 2 * rounds) / (2 * rounds)
        assert per_message <= self.MAX_CALLS_PER_BLOCKING_MESSAGE
        assert heavy == 0

    def test_no_event_or_condition_on_any_warm_wait(self):
        """Sendrecv, Ssend, waitall and waitany park on the same
        one-shot lock: none of them builds a ``threading.Event`` or
        ``threading.Condition`` — a synchronous send's handshake
        included."""
        import numpy as np
        from repro.runtime.request import waitall, waitany
        bufs = [np.zeros(1, np.uint8) for _ in range(6)]

        def waits(comm):
            peer = 1 - comm.rank
            release = comm.proc.request_pool.release
            comm.Sendrecv(bufs[0], peer, bufs[1], peer, 3, 3)
            reqs = [comm.Irecv(bufs[2], peer, 4), comm.Irecv(bufs[3], peer, 5)]
            if comm.rank == 0:
                # Rank 1 sends only once it holds the token, so rank 0
                # is (nearly always) inside waitany's queue by then.
                comm.Send(bufs[0], 1, 6)
                waitany(reqs)
            else:
                comm.Recv(bufs[1], 0, 6)
            sends = [comm.Isend(bufs[4], peer, 5), comm.Isend(bufs[5], peer, 4)]
            waitall(reqs + sends)
            for req in reqs + sends:
                release(req)
            if comm.rank == 0:
                comm.Ssend(bufs[0], 1, 8)
            else:
                comm.Recv(bufs[1], 0, 8)

        _, heavy = self._profiled_ranks(waits, 50)
        assert heavy == 0

    def test_perfbench_trace_boundaries_resolve(self):
        """``--trace 1`` wraps 22 ``(owner, attr)`` layer boundaries by
        name; a refactor that renames or inlines one would silently
        drop its layer from the budget.  Read-only: nothing is
        installed."""
        import sys
        sys.path.insert(0, str(ROOT))
        try:
            from perfbench.trace import runtime_targets
        finally:
            sys.path.remove(str(ROOT))
        targets = runtime_targets()
        assert len(targets) == 22
        for owner, attr, span in targets:
            holder = next((k for k in getattr(owner, "__mro__", (owner,))
                           if attr in vars(k)), None)
            assert holder is not None, (owner, attr)
            assert callable(vars(holder)[attr]), (owner, attr, span)
        names = {(getattr(o, "__name__", o), a) for o, a, _ in targets}
        assert {("CH4Device", "isend"), ("CH4Device", "irecv"),
                ("CH4Device", "put"), ("Proc", "deliver"),
                ("Proc", "charge"), ("Request", "complete"),
                ("RequestPool", "acquire"), ("RequestPool", "release"),
                ("Netmod", "issue"), ("repro.core.ch4", "pack"),
                ("repro.core.ch4", "unpack"), ("repro.core.am", "pack"),
                ("repro.core.am", "unpack")} <= names


class TestCollPlanGuard:
    """Collective-plan regression gate, the collectives' twin of
    :class:`TestCallPlanGuard`: what a warm ``Allreduce`` costs is how
    many Python-level calls each rank makes for it, and whether any of
    them resolves again what its first call already did."""

    #: A warm 4-rank ``Allreduce`` of 8192 float64 (recursive doubling:
    #: 2 exchanges a rank) made 121-123 Python-level calls per rank,
    #: frames under ``Request._block`` excluded, when every call routed,
    #: selected, snapshotted and combined afresh and every internal
    #: message built its op and looked its plan up; 107 with a
    #: ``CollPlan`` (a message that finds its receive not yet posted
    #: makes one call more or less, hence a ceiling and not a count).
    MAX_CALLS_PER_ALLREDUCE = 110
    ROUNDS = 50

    def test_python_calls_per_warm_allreduce(self):
        import numpy as np
        from repro.fabric.topology import Topology
        from repro.runtime import World

        def main(comm):
            send, recv = np.arange(8192.0) + comm.rank, np.zeros(8192)
            for _ in range(20):     # compile the plans, fill the pool
                comm.Allreduce(send, recv)
            comm.barrier()
            calls = _calls_outside_waits(
                lambda: comm.Allreduce(send, recv), self.ROUNDS)
            assert recv[1] == 4 + 0 + 1 + 2 + 3
            return calls

        per_rank = World(4, topology=Topology(4, 2)).run(main, timeout=60)
        assert max(per_rank) <= self.MAX_CALLS_PER_ALLREDUCE, per_rank

    def test_a_call_shape_compiles_its_plan_once(self):
        import numpy as np
        from repro.mpi import reduceops
        from repro.runtime import World

        def main(comm):
            def plans_compiled_by(*args, **kwargs):
                before = len(comm._coll_plans)
                comm.Allreduce(*args, **kwargs)
                return len(comm._coll_plans) - before

            f8, i4 = np.ones(64), np.ones(64, np.int32)
            return [
                plans_compiled_by(f8, np.empty(64)),
                plans_compiled_by(f8 + 1, np.empty(64)),        # same shape
                plans_compiled_by(f8[:32], np.empty(32)),       # count
                plans_compiled_by(i4, np.empty(64, np.int32)),  # dtype
                plans_compiled_by(f8, np.empty(64), op=reduceops.MAX),
                plans_compiled_by(f8, np.empty(64), algorithm="ring"),
                plans_compiled_by(f8, np.empty(64), op=reduceops.MAX),
                plans_compiled_by(f8, np.empty(64), algorithm="ring"),
            ]

        assert World(2).run(main, timeout=60) \
            == [[1, 0, 1, 1, 1, 1, 0, 0]] * 2


class TestTrajectory:
    """``perf/trajectory.jsonl``: one well-formed line per landed
    revision, oldest first, whose exact counts are what the tree
    charges (they have not moved since the first line)."""

    METRICS = ("ops_per_s", "latency_us_p50", "payload_mb_per_s",
               "setup_s", "peak_rss_mb")

    def test_lines_parse_and_cover_every_workload(self):
        import json
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = {w["name"] for w in spec["workloads"]}
        assert {m["name"] for m in spec["end_to_end"]} == set(self.METRICS)
        lines = (ROOT / "perf" / "trajectory.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        assert [r["rev"] for r in rows[:4]] == [
            "0da9612", "ec2b648", "e7f0467", "4be5fd8"]
        assert len(rows) >= 6
        first = rows[0]["workloads"]
        for row in rows:
            assert {"rev", "date", "seeds", "source", "workloads"} <= set(row)
            assert set(row["workloads"]) == workloads
            for name, entry in row["workloads"].items():
                for metric in self.METRICS:
                    assert {"median", "q1", "q3", "n"} <= set(entry[metric])
                for count in ("charged_instr_per_op", "vtime_us_per_op"):
                    assert entry[count] == first[name][count]
        assert first["msgrate_1b"]["charged_instr_per_op"] == 224.453125
        newest = rows[-1]["workloads"]["msgrate_1b"]["ops_per_s"]
        assert newest["q1"] <= newest["median"] <= newest["q3"]

    #: What ``perfbench/run.py`` does for its two exact counts — one
    #: warm-up batch, then the counters over the first measured batch —
    #: in a process of its own: the halo workload holds 256 MiB.
    FIRST_BATCH = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[1] + "/src"]
from perfbench.workloads import WORKLOADS, Counters
out = {}
for name, cls in WORKLOADS.items():
    workload = cls(0)
    workload.run_batch()
    counters = Counters(workload)
    batch = workload.run_batch()
    delta = counters.delta()
    assert batch.failed == 0, name
    out[name] = [delta["instructions_total.0"] / batch.ops,
                 delta["vtime_s"] * 1e6 / workload.ops_per_batch]
    del workload, counters
print(json.dumps(out))
"""

    def test_newest_line_counts_are_what_the_tree_charges(self):
        """The recorded exact counts are not history: the tree charges
        them today, to the last digit, on every workload."""
        import json
        proc = subprocess.run(
            [sys.executable, "-c", self.FIRST_BATCH, str(ROOT)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        from repro.analysis.trajectory import load_trajectory
        charged = json.loads(proc.stdout.splitlines()[-1])
        newest = load_trajectory()[-1]["workloads"]
        assert set(charged) == set(newest)
        for name, (instr, vtime_us) in charged.items():
            assert instr == newest[name]["charged_instr_per_op"], name
            assert vtime_us == newest[name]["vtime_us_per_op"], name

    def test_newest_line_records_the_pinned_call_counts(self):
        """``pycalls_per_op`` (optional; PR 24 on) is the exact gate
        of the revision that wrote the line: the next PR reads its
        ceiling here."""
        from repro.analysis.trajectory import load_trajectory
        newest = load_trajectory()[-1]["pycalls_per_op"]
        guard = TestCallPlanGuard
        assert newest["self_send_cycle"] == guard.CALLS_PER_CYCLE
        assert newest["self_send_inits"] == guard.INITS_PER_CYCLE
        assert newest["window_put"] == guard.CALLS_PER_PUT
        assert newest["window_get"] == guard.CALLS_PER_GET
        assert newest["window_accumulate"] == guard.CALLS_PER_ACCUMULATE
        assert newest["window_fetch_and_op"] == guard.CALLS_PER_FETCH_AND_OP
        assert newest["window_compare_and_swap"] == \
            guard.CALLS_PER_COMPARE_AND_SWAP
        assert newest["hooked"] == guard.HOOKED_CALLS_PER_CYCLE
        assert newest["proc_null_cycle"] == guard.CALLS_PER_PROC_NULL_CYCLE
        assert newest["all_opts_cycle"] == guard.CALLS_PER_ALL_OPTS_CYCLE
        assert newest["ssend_cycle"] == guard.CALLS_PER_SSEND_CYCLE
        assert newest["blocking_message"] + 2 == \
            guard.MAX_CALLS_PER_BLOCKING_MESSAGE

    def test_cli_prints_every_line_of_every_workload(self):
        from repro.analysis.trajectory import (load_trajectory,
                                               render_trajectory)
        text = render_trajectory()
        rows = load_trajectory()
        for name in rows[-1]["workloads"]:
            assert f"{name}: measured medians" in text
        for row in rows:
            assert text.count(row["rev"]) >= len(row["workloads"])
        # Pair-aware: PR 16's own line over the parent it re-measured
        # (msgrate_1b), and no ratio on any parent line — the line
        # above one of those is another day's box.
        assert "38,852 (2.42x)" in text
        measured = [line for line in text.splitlines()
                    if line.startswith(tuple(row["rev"] for row in rows))]
        assert len(measured) == len(rows) * len(rows[-1]["workloads"])
        assert all(("x)" in line) == line.startswith("PR ")
                   for line in measured)
        assert render_trajectory(ROOT / "no-such-file").startswith(
            "no recorded trajectory")


class TestTsanBenchSmoke:
    """``benchmarks/bench_tsan.py --quick`` as a CI smoke: charged
    counts identical, threaded flood clean under the detector."""

    def test_quick_mode_runs_clean(self):
        import json
        proc = subprocess.run(
            [sys.executable, "benchmarks/bench_tsan.py", "--quick"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout)
        assert result["charged_instructions"]["identical"]
        enabled = result["threaded_flood"]["enabled"]
        assert enabled["findings"] == 0
        assert enabled["lock_events"] > 0
        assert (ROOT / "BENCH_tsan.json").exists()


class TestCollectivesBenchSmoke:
    """``benchmarks/bench_collectives.py --quick`` as a CI smoke: the
    sweep runs, the hierarchical composition wins at the largest
    point, and the training replicas stay bit-identical; the full
    collectives and fault sweeps regenerate their committed JSON."""

    def test_quick_mode_runs_and_wins(self):
        import json
        proc = subprocess.run(
            [sys.executable, "benchmarks/bench_collectives.py",
             "--quick"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout)
        assert result["hierarchical_vs_flat"]["speedup"] > 1.0
        for strat, row in result["training"].items():
            assert row["replicas_identical"], strat
            assert row["final_loss"] < row["first_loss"], strat

    @pytest.mark.parametrize("artifact", ["BENCH_collectives.json",
                                          "BENCH_fault.json"])
    def test_full_sweep_regenerates_the_committed_bytes(self, tmp_path,
                                                        monkeypatch, artifact):
        """Each sweep reads the virtual clock or seeded fault draws, so
        it is exact: the same messages, sizes, order and clock merges
        give the committed *artifact* back byte for byte."""
        import importlib.util
        name = "bench_" + artifact[len("BENCH_"):-len(".json")]
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "benchmarks" / f"{name}.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        out = tmp_path / artifact
        monkeypatch.setattr(bench, "_OUT", out)
        bench.run_benchmark()
        assert out.read_bytes() == (ROOT / artifact).read_bytes()


class TestCommittedNumbers:
    """A committed benchmark result no test reads is a number nobody
    regenerates: it drifts from the code that once produced it."""

    def test_every_bench_json_is_named_by_a_test(self):
        tests = "".join(path.read_text()
                        for path in (ROOT / "tests").rglob("*.py"))
        orphans = [path.name for path in sorted(ROOT.glob("BENCH_*.json"))
                   if path.name not in tests]
        assert orphans == []


class TestSleepCensus:
    """A test that sleeps waits for a thread it cannot name: it is
    slow when the margin is wide and flaky when it is not.  The count
    is pinned, so a change that adds or removes one says so here."""

    #: ``sleep`` call sites under ``tests/``.
    SLEEPS = 12

    def test_sleep_calls_in_tests_are_counted(self):
        found = []
        for path in sorted((ROOT / "tests").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and "sleep" in (
                        getattr(node.func, "attr", None),
                        getattr(node.func, "id", None)):
                    found.append(f"{path.name}:{node.lineno}")
        assert len(found) == self.SLEEPS, found


class TestCheckCLI:
    """``python -m repro.check``, the runtime's self-check."""

    def test_tree_checks_clean_and_regenerates_the_snapshots(self,
                                                             tmp_path):
        """The one whole-tree subprocess run, as CI runs it: every
        analysis clean, and both snapshots byte-identical to the
        committed ones."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.check", "--json", str(tmp_path)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert _rule_ids(proc.stdout) == []
        for tool in ("sanitize:", "audit:", "bufcheck:"):
            assert tool in proc.stdout
        for name in ("AUDIT.json", "COPYMAP.json"):
            assert filecmp.cmp(tmp_path / name, ROOT / name,
                               shallow=False), name

    def test_findings_propagate_to_exit_code(self, monkeypatch, capsys):
        """The exit status is the max of the component codes: one
        finding in one report fails the gate, and is printed."""
        from repro.analysis_common import Finding, Report
        from repro.check import cli
        one = Report([Finding("BC504", "bad.py", 2, "needless copy")], 1)
        monkeypatch.setattr(cli, "lint_shipped_programs", Report)
        for bufcheck, status in ((Report(), 0), (one, 1)):
            tree = cli.TreeAnalysis(None, Report(), {}, bufcheck, {})
            monkeypatch.setattr(cli, "analyze_tree", lambda: tree)
            assert cli.main([]) == status
            assert _rule_ids(capsys.readouterr().out) == [
                d.rule_id for d in bufcheck.diagnostics]

    def test_path_argument_is_a_usage_error(self):
        """The self-check analyses the runtime it ships with, nothing
        else: a path is rejected, not audited against the runtime's
        manifest."""
        from repro.check import main
        with pytest.raises(SystemExit) as exc:
            main(["examples"])
        assert exc.value.code == 2

    def test_rules_flag_prints_every_catalog(self, capsys):
        from repro.check import main
        assert main(["--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("MS101", "MSD204", "FP101", "FP104", "FP201",
                        "FP205", "FP301", "FP302", "FP303", "FP308",
                        "BC501", "BC502", "BC503", "BC504", "BC505"):
            assert rule_id in out
