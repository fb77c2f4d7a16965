"""CI lint gate: every static/dynamic analysis the tree ships.

The MPI linter runs over every shipped program (``examples/`` and the
mini-apps) exactly as the CI job would:
``python -m repro.sanitize examples src/repro/apps``; the fast-path
audit over ``src/repro``; the buffer-ownership & copy-census gate
(``python -m repro.bufcheck``, snapshot frozen in ``COPYMAP.json``);
the unified ``python -m repro.check`` driver; the race detector's
quick stress pass via ``benchmarks/bench_tsan.py --quick``; and ruff
where installed (the job skips cleanly when the binary is missing).
``TestUnifiedLintGate`` chains all of them as the single CI entry
point.  The calibration-guard classes pin the committed Figure 2 /
Table 1 charging (``FIGURE2`` / ``TABLE1`` below) on the default build
and on every setting that claims to be charge-invisible.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.config import BuildConfig
from repro.ft import FaultPlan
from repro.ft.detector import DetectorConfig

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


class TestSanitizeCLI:
    """``python -m repro.sanitize`` as CI runs it."""

    def test_tree_lints_clean(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.sanitize",
             "examples", "src/repro/apps"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_findings_fail_the_gate(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(comm, buf):\n"
                       "    comm.isend(buf, dest=1, tag=0)\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.sanitize", str(bad)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 1
        assert "MS101" in proc.stdout

    def test_rules_flag_prints_catalog(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.sanitize", "--rules"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0
        assert "MS101" in proc.stdout and "MSD204" in proc.stdout
        assert "MS109" in proc.stdout

    def test_json_snapshot_written_and_stable(self, tmp_path):
        """``--json`` emits the machine-readable contract CI consumes:
        same tree, two runs, byte-identical snapshots."""
        import json
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "repro.sanitize",
                 "src/repro/apps", "--json", str(out)],
                cwd=ROOT, env=_env(), capture_output=True, text=True,
                timeout=120)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        snapshot = json.loads(outs[0])
        assert snapshot["findings"]["count"] == 0
        assert snapshot["files_checked"] > 0


class TestRuff:
    """Ruff gate — skipped when the binary is not installed."""

    def test_ruff_clean_on_sanitize_package(self):
        try:
            proc = subprocess.run(
                ["ruff", "check", "src/repro/sanitize"],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
        except FileNotFoundError:
            pytest.skip("ruff not installed in this environment")
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestAuditCLI:
    """``python -m repro.audit`` as the CI fast-path gate runs it."""

    def test_tree_audits_clean(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.audit", "src/repro"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_purity_violation_fails_the_gate(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def fastpath(func):\n"
                       "    return func\n"
                       "\n"
                       "@fastpath\n"
                       "def hot(xs):\n"
                       "    return [x for x in xs]\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.audit", str(bad)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 1
        assert "FP201" in proc.stdout

    def test_rules_flag_prints_catalog(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.audit", "--rules"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0
        for rule_id in ("FP101", "FP104", "FP201", "FP205", "FP301",
                        "FP302", "FP303", "FP308"):
            assert rule_id in proc.stdout

    def test_json_snapshot_matches_committed(self, tmp_path):
        out = tmp_path / "AUDIT.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.audit", "src/repro",
             "--json", str(out)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        import json
        assert json.loads(out.read_text()) \
            == json.loads((ROOT / "AUDIT.json").read_text())


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
        # Observers: the race detector, and heartbeats on a fault
        # build, live in host Python outside the ledger.
        pytest.param(assert_table1_trace, {"tsan": True}, id="table1-tsan"),
        pytest.param(assert_table1_trace, {"fault_plan": FaultPlan(),
                                           "detector": DetectorConfig()},
                     id="table1-detector"),
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
    #: A warm ``Window.put``: 29 through ``mpi_entry``, 24 run planned,
    #: 16 with the handler called directly, the planned prologue, the
    #: target's size and the pending time read inline and the span
    #: computed by the window's accessor from a ``Typemap.ub`` slot —
    #: exactly.
    CALLS_PER_PUT = 16
    #: A warm ``Window.get`` (25 before the same change), exactly.
    CALLS_PER_GET = 17
    #: A warm ``Window.accumulate`` (20 before it; two of these are
    #: the type and size checks it lacked), exactly.
    CALLS_PER_ACCUMULATE = 18
    #: The same warm cycle on each hooked build, which enters every
    #: call stepwise.  With a hook attribute per subsystem and a probe
    #: per hook site: a timeline 70, ``num_vcis=4`` 90,
    #: ``sanitize=True`` 85, ``tsan=True`` 312.  With one seam whose
    #: events are bound to their one subscriber, and the modeled CS
    #: routed only where there are VCIs to route over: exactly.
    HOOKED_CALLS_PER_CYCLE = {"timeline": 68, "num_vcis=4": 86,
                              "sanitize": 79, "tsan": 307}
    #: ... and a lossless ``fault_plan=FaultPlan()`` build (159.2
    #: before the seam; the events only the sanitizer subscribes to
    #: are no-ops here): an average over the cycles, so a ceiling.
    MAX_FAULT_CALLS_PER_CYCLE = 162.2
    CYCLES = 100

    def _comm(self, armed, config=None):
        """A one-rank world's communicator; *armed*: a timeline is
        recording, so every MPI entry on the rank is observed."""
        from repro.analysis.timeline import enable_timeline
        from repro.mpi.comm import Communicator
        from repro.runtime import World
        world = World(1, config)
        if armed:
            enable_timeline(world)
        return Communicator.world_view(world.proc(0))

    def _cycle(self, armed=False, config=None):
        import numpy as np
        comm = self._comm(armed, config)
        send, recv = np.full(1, 7, np.uint8), np.zeros(1, np.uint8)
        release = comm.proc.request_pool.release

        def cycle():
            rreq = comm.Irecv(recv, 0, 7)
            sreq = comm.Isend(send, 0, 7)
            sreq.wait()
            rreq.wait()
            release(sreq)
            release(rreq)

        for _ in range(5):      # compile the plans, fill the pool
            cycle()
        assert recv[0] == 7
        return cycle

    def _rma(self, armed=False, call="put"):
        """A warm one-byte ``Window.<call>`` (put, get or accumulate)
        at byte 3 of a one-rank window."""
        import numpy as np
        from repro.mpi.rma import Window
        comm = self._comm(armed)
        target = np.zeros(8, np.uint8)
        win = Window.create(comm, target, disp_unit=1)
        win.fence()
        origin = np.full(1, 7, np.uint8)
        rma = getattr(win, call)

        def once():
            rma(origin, 0, 3)

        for _ in range(5):
            once()
        # (origin, target byte) after five calls.
        assert (origin[0], target[3]) == {
            "put": (7, 7), "get": (0, 0), "accumulate": (7, 35)}[call]
        return once

    def _profile(self, body, exact=True):
        """Python-level calls per *body*() (less *body* itself) — an
        exact count unless not *exact* — the ``__init__`` frames among
        them and how many ``mpi_entry`` objects were built, over
        ``CYCLES`` runs."""
        import gc
        import sys
        from repro.mpi.pt2pt import mpi_entry
        entry_init = mpi_entry.__init__.__code__
        calls = inits = entries = 0
        # An earlier test's garbage (a suspended generator, say) must
        # not be finalized — Python frames — inside the window.
        gc.collect()

        def profiler(frame, event, arg):
            nonlocal calls, inits, entries
            if event == "call":
                calls += 1
                inits += frame.f_code.co_name == "__init__"
                entries += frame.f_code is entry_init

        sys.setprofile(profiler)
        try:
            for _ in range(self.CYCLES):
                body()
        finally:
            sys.setprofile(None)
        per_body = calls / self.CYCLES - 1
        assert per_body == int(per_body) or not exact
        return per_body, inits, entries

    def test_python_calls_per_warm_message(self):
        per_cycle, inits, entries = self._profile(self._cycle())
        assert per_cycle == self.CALLS_PER_CYCLE
        assert inits == self.INITS_PER_CYCLE * self.CYCLES
        assert entries == 0     # Isend and Irecv both ran planned

    def test_python_calls_per_warm_put(self):
        per_put, _, entries = self._profile(self._rma())
        assert per_put == self.CALLS_PER_PUT
        assert entries == 0

    def test_python_calls_per_warm_get_and_accumulate(self):
        per_get, _, entries = self._profile(self._rma(call="get"))
        assert per_get == self.CALLS_PER_GET
        assert entries == 0
        per_acc, _, entries = self._profile(self._rma(call="accumulate"))
        assert per_acc == self.CALLS_PER_ACCUMULATE
        assert entries == 0

    def test_armed_rank_enters_stepwise(self):
        """The other regime: a rank something observes (here a
        timeline) builds one ``mpi_entry`` per call, on the same
        three call sites."""
        _, _, entries = self._profile(self._cycle(armed=True))
        assert entries == 2 * self.CYCLES
        _, _, entries = self._profile(self._rma(armed=True))
        assert entries == self.CYCLES

    #: ``HOOKED_CALLS_PER_CYCLE``'s builds: a timeline, or a config.
    HOOKED_BUILDS = {"timeline": (True, None),
                     "num_vcis=4": (False, {"num_vcis": 4}),
                     "sanitize": (False, {"sanitize": True}),
                     "tsan": (False, {"tsan": True})}

    @pytest.mark.parametrize("build", sorted(HOOKED_BUILDS))
    def test_python_calls_per_warm_hooked_cycle(self, build):
        """What each observer costs a warm message — the hooked
        builds' on-cost, pinned like the default build's."""
        from repro.core.config import BuildConfig
        armed, config = self.HOOKED_BUILDS[build]
        cycle = self._cycle(armed, BuildConfig(**(config or {})))
        per_cycle, _, entries = self._profile(cycle)
        assert per_cycle == self.HOOKED_CALLS_PER_CYCLE[build]
        assert entries == 2 * self.CYCLES

    def test_python_calls_per_warm_fault_build_cycle(self):
        from repro.core.config import BuildConfig
        cycle = self._cycle(config=BuildConfig(fault_plan=FaultPlan()))
        per_cycle, _, _ = self._profile(cycle, exact=False)
        assert per_cycle <= self.MAX_FAULT_CALLS_PER_CYCLE

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
        """Sendrecv, waitall and waitany park on the same one-shot
        lock: none of them builds a ``threading.Event`` or
        ``threading.Condition``."""
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
        import sys
        import numpy as np
        from repro.fabric.topology import Topology
        from repro.runtime import World
        from repro.runtime.request import Request
        block = Request._block.__code__

        def main(comm):
            send, recv = np.arange(8192.0) + comm.rank, np.zeros(8192)
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

            for _ in range(20):     # compile the plans, fill the pool
                comm.Allreduce(send, recv)
            comm.barrier()
            sys.setprofile(profiler)
            try:
                for _ in range(self.ROUNDS):
                    comm.Allreduce(send, recv)
            finally:
                sys.setprofile(None)
            assert recv[1] == 4 + 0 + 1 + 2 + 3
            return calls / self.ROUNDS

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
        assert newest["hooked"] == {**guard.HOOKED_CALLS_PER_CYCLE,
                                    "fault_plan":
                                        guard.MAX_FAULT_CALLS_PER_CYCLE}
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


class TestServiceBenchSmoke:
    """``benchmarks/bench_service.py --quick`` as a CI smoke: the
    measured churn run leaks nothing and the occupancy projection
    reaches a million simulated clients."""

    def test_quick_mode_serves_and_projects(self):
        import json
        proc = subprocess.run(
            [sys.executable, "benchmarks/bench_service.py", "--quick"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout)
        measured = result["measured"]
        assert measured["requests_leaked"] == 0
        assert measured["requests_completed"] > 0
        sweep = result["projection"]["sweep"]
        assert max(row["num_clients"] for row in sweep) >= 1_000_000
        assert all(row["rate_requests_per_s"] > 0 for row in sweep)
        assert (ROOT / "BENCH_service.json").exists()


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


class TestBufcheckCLI:
    """``python -m repro.bufcheck`` as the CI copy-census gate runs it."""

    def test_tree_checks_clean(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.bufcheck"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_needless_copy_fails_the_gate(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def send(sendbuf):\n"
                       "    return sendbuf.tobytes()\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.bufcheck", str(bad)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 1
        assert "BC504" in proc.stdout

    def test_rules_flag_prints_catalog(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.bufcheck", "--rules"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0
        for rule_id in ("BC501", "BC502", "BC503", "BC504", "BC505"):
            assert rule_id in proc.stdout

    def test_json_snapshot_matches_committed(self, tmp_path):
        out = tmp_path / "COPYMAP.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.bufcheck",
             "--json", str(out)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        import json
        assert json.loads(out.read_text()) \
            == json.loads((ROOT / "COPYMAP.json").read_text())


class TestCollectivesBenchSmoke:
    """``benchmarks/bench_collectives.py --quick`` as a CI smoke: the
    sweep runs, the hierarchical composition wins at the largest
    point, and the training replicas stay bit-identical."""

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

    def test_full_sweep_regenerates_the_committed_bytes(self, tmp_path,
                                                        monkeypatch):
        """The sweep reads the virtual clock, so it is exact: the same
        messages, sizes, order and clock merges give the committed
        ``BENCH_collectives.json`` back byte for byte."""
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "bench_collectives", ROOT / "benchmarks/bench_collectives.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        out = tmp_path / "BENCH_collectives.json"
        monkeypatch.setattr(bench, "_OUT", out)
        bench.run_benchmark()
        assert out.read_bytes() \
            == (ROOT / "BENCH_collectives.json").read_bytes()


class TestCheckCLI:
    """``python -m repro.check`` — the one-command analysis gate."""

    def test_tree_checks_clean_with_merged_snapshot(self, tmp_path):
        import json
        out = tmp_path / "check.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.check", "--json", str(out)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        for tool in ("sanitize:", "audit:", "bufcheck:"):
            assert tool in proc.stdout
        merged = json.loads(out.read_text())
        assert merged["exit"] == 0
        assert merged["sanitize"]["findings"]["count"] == 0
        assert merged["audit"]["findings"]["count"] == 0
        assert merged["bufcheck"]["findings"]["count"] == 0

    def test_findings_propagate_to_exit_code(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def send(sendbuf):\n"
                       "    return sendbuf.tobytes()\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.check", str(bad)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 1
        assert "BC504" in proc.stdout

    def test_rules_flag_prints_every_catalog(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.check", "--rules"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0
        for rule_id in ("MS101", "FP201", "BC504"):
            assert rule_id in proc.stdout


class TestUnifiedLintGate:
    """The single CI lint entry point: ruff (when installed), the MPI
    linter, the fast-path audit, the buffer-ownership census, and a
    quick stress pass under the race detector — one test, every
    analysis, all green or the gate fails."""

    def test_all_analyses_green(self):
        # 1. ruff over the shipped analysis packages (optional tool).
        try:
            ruff = subprocess.run(
                ["ruff", "check", "src/repro/sanitize",
                 "src/repro/audit", "src/repro/tsan",
                 "src/repro/bufcheck", "src/repro/check"],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
            assert ruff.returncode == 0, ruff.stdout + ruff.stderr
        except FileNotFoundError:
            pass   # optional tooling; the dedicated test skips loudly
        # 2. Static MPI-correctness lint over every shipped program.
        lint = subprocess.run(
            [sys.executable, "-m", "repro.sanitize",
             "examples", "src/repro/apps"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=120)
        assert lint.returncode == 0, lint.stdout + lint.stderr
        # 3. Fast-path purity / guard-discipline audit over the tree.
        audit = subprocess.run(
            [sys.executable, "-m", "repro.audit", "src/repro"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=300)
        assert audit.returncode == 0, audit.stdout + audit.stderr
        # 4. Buffer-ownership & copy-census gate over the tree.
        bufcheck = subprocess.run(
            [sys.executable, "-m", "repro.bufcheck"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=300)
        assert bufcheck.returncode == 0, \
            bufcheck.stdout + bufcheck.stderr
        # 5. Quick threaded stress pass under the race detector.
        import json
        stress = subprocess.run(
            [sys.executable, "benchmarks/bench_tsan.py", "--quick"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=300)
        assert stress.returncode == 0, stress.stdout + stress.stderr
        assert json.loads(
            stress.stdout)["threaded_flood"]["enabled"]["findings"] == 0
