"""Compiled charge plans and the call plans that fuse them: replay
equals stepwise charging, keys are complete, the calls that leave the
straight line charge the same prefix they always did, and an armed
hook sees the same call an unarmed build runs.

The stepwise reference is the same runtime with ``Proc.plan`` patched
to run the layer's charging function directly against the ``Proc`` —
sixteen ``charge(category, n, subsystem)`` calls per message, exactly
what every layer did before plans existed — at the point where the
layer (or the entry that fused it with its neighbours) would have
replayed a plan, and with every plan cache emptied as it is written,
so each call runs the charging code against its own operation, never
a plan some earlier call compiled.  Each step lands in a test-side
tally (total, per category, per subsystem) and advances the clock by
its own ``cycles_to_seconds(sw_cycles(n))``: no ``ChargePlan`` is
involved.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from repro.consts import ANY_SOURCE, ANY_TAG, PROC_NULL, TAG_UB
from repro.core import extensions as ext
from repro.core.config import Device, named_builds
from repro.datatypes import BYTE, DOUBLE, vector
from repro.datatypes.usage import UsageClass, compile_time, runtime_constant
from repro.errors import (MPIErrComm, MPIErrCount, MPIErrDatatype,
                          MPIError, MPIErrRank, MPIErrTag, MPIErrWin)
from repro.instrument.categories import Category, Subsystem
from repro.instrument.plan import ChargePlan
from repro.mpi.comm import Communicator
from repro.mpi.rma import Window
from repro.perf.msgrate import EXTENSION_CHAIN
from repro.runtime import World
from repro.runtime.proc import Proc
from repro.runtime.ranktrans import DirectTableTranslation

ROUNDS = 3          # the first call compiles, the others replay
NBYTES = 8


def _state(proc):
    """Everything a charge moves, exactly (the clock as hex): from the
    rank's counter, or from the stepwise reference's tally."""
    counter = getattr(proc, "tally", proc.counter)
    return (counter.total,
            {c.name: n for c, n in counter.by_category.items()},
            {s.name: n for s, n in counter.by_subsystem.items()},
            proc.vclock.now.hex())


# -- the six operations, ROUNDS times each ------------------------------------

def _pt2pt(comm, flags):
    """isend on rank 0, irecv on rank 1 (both states are compared)."""
    buf = np.zeros(NBYTES, dtype=np.uint8)
    for tag in range(ROUNDS):
        if comm.rank == 0:
            req = comm._buffer_send((buf, NBYTES, BYTE), 1, tag,
                                    sync=False, flags=flags)
            if req is None:
                comm.waitall_noreq()
            else:
                req.wait()
        elif flags.nomatch:
            comm._buffer_recv((buf, NBYTES, BYTE), ANY_SOURCE, ANY_TAG,
                              flags=flags.with_(noreq=False)).wait()
        else:
            comm._buffer_recv((buf, NBYTES, BYTE), 0, tag,
                              flags=flags.with_(noreq=False)).wait()
    return _state(comm.proc)


def _rma(comm, flags, op):
    arr = np.zeros(64, dtype=np.uint8)
    win = Window.create(comm, arr, disp_unit=1)
    win.fence()
    if comm.rank == 0:
        origin = np.ones(NBYTES, dtype=np.uint8)
        disp = win.remote_addr(1, 0) if flags.virtual_addr else 0
        for _ in range(ROUNDS):
            getattr(win, op)((origin, NBYTES, BYTE), target_rank=1,
                             target_disp=disp, flags=flags)
    win.fence()
    return _state(comm.proc)


def _start(comm, flags):
    buf = np.zeros(NBYTES, dtype=np.uint8)
    preq = (comm.Send_init(buf, 1, 5) if comm.rank == 0
            else comm.Recv_init(buf, 0, 5))
    for _ in range(ROUNDS):
        preq.start()
        preq.wait()
    return _state(comm.proc)


OPS = {
    "pt2pt": _pt2pt,
    "put": lambda comm, flags: _rma(comm, flags, "put"),
    "get": lambda comm, flags: _rma(comm, flags, "get"),
    "accumulate": lambda comm, flags: _rma(comm, flags, "accumulate"),
    "start": _start,
}


def _matrix():
    chain = [flags for _, flags in EXTENSION_CHAIN]
    rma_chain = chain + [ext.VIRTUAL_ADDR, ext.ALL_OPTS_RMA]
    for label, config in named_builds().items():
        for device in Device:
            build = dataclasses.replace(config, device=device)
            for op in OPS:
                flag_sets = (chain if op == "pt2pt"
                             else [ext.NONE] if op == "start" else rma_chain)
                for flags in flag_sets:
                    if device is Device.CH3 and flags.any:
                        continue     # MPICH/Original has no extensions
                    yield pytest.param(
                        build, op, flags,
                        id=f"{label}-{device.value}-{op}-{flags.bits:02x}")


class _Live(ChargePlan):
    """A plan that is not compiled: it remembers the charging calls
    and makes them, step by step against the ``Proc``, when charged."""

    def __init__(self, *thunks):
        super().__init__([])
        self.thunks = thunks


class _Tally:
    """The stepwise reference's books: a rank's counts, charged one
    step at a time."""

    def __init__(self):
        self.total = 0
        self.by_category = dict.fromkeys(Category, 0)
        self.by_subsystem = dict.fromkeys(Subsystem, 0)

    def charge(self, category, n, subsystem):
        self.total += n
        self.by_category[category] += n
        if subsystem is not None:
            self.by_subsystem[subsystem] += n


class _NoCache(dict):
    """A plan cache that forgets: every lookup misses."""

    def __setitem__(self, key, value):
        pass


def _stepwise(patch):
    """Patch the runtime into the stepwise reference (see the module
    docstring): ``Proc.plan`` hands out live plans, fusing chains
    them, ``Proc.charge`` runs them where it would have replayed — a
    step into the rank's tally — and no plan of either kind survives
    the call that built it; a recording is the rank itself."""

    def charge(self, category, n=None, subsystem=None):
        if n is None:
            for thunk in category.thunks:
                thunk(self)
            return
        assert n >= 0
        self.tally.charge(category, n, subsystem)
        fabric = self.net_fabric
        self.vclock.now += fabric.cycles_to_seconds(fabric.sw_cycles(n))

    patch.setattr(Proc, "charge", charge)
    patch.setattr(Proc, "plan", lambda self, key, charging, *args: _Live(
        lambda proc: charging(proc, *args)))
    patch.setattr("repro.mpi.pt2pt.fuse", lambda *plans: _Live(
        *[t for plan in plans if plan is not None for t in plan.thunks]))

    def recording(self):
        yield self

    patch.setattr(Proc, "recording", contextlib.contextmanager(recording))
    for cls, caches in ((Proc, ("_plans", "_call_plans")),
                        (Communicator, ("_plans",)), (Window, ("_plans",))):
        def init(self, *args, _init=cls.__init__, _caches=caches, **kwargs):
            _init(self, *args, **kwargs)
            for name in _caches:
                setattr(self, name, _NoCache())
            if isinstance(self, Proc):
                self.tally = _Tally()
        patch.setattr(cls, "__init__", init)


class TestReplayEqualsStepwise:
    @pytest.mark.parametrize("config, op, flags", list(_matrix()))
    def test_counters_and_clock_identical(self, monkeypatch, config, op,
                                          flags):
        planned = World(2, config).run(OPS[op], args=(flags,), timeout=60)
        with monkeypatch.context() as patch:
            _stepwise(patch)
            stepwise = World(2, config).run(OPS[op], args=(flags,),
                                            timeout=60)
        assert planned == stepwise
        assert planned[0][0] > 0

    def test_fused_plan_is_its_layers_in_path_order(self):
        """A call plan's fused steps are entry + argument checks +
        device path, concatenated — for every plan a pt2pt + RMA
        program compiled, on a checking and a non-checking build."""
        def body(comm):
            buf = np.zeros(NBYTES, dtype=np.uint8)
            win = Window.create(comm, np.zeros(64, np.uint8), disp_unit=1)
            win.fence()
            if comm.rank == 0:
                comm.Send(buf, 1)
                win.put(buf, 1)
                win.get(buf, 1)
            else:
                comm.Recv(buf, 0)
            win.fence()
            plans = list(comm._plans.values()) + list(win._plans.values())
            return [(p.fused.steps, p.entry.steps,
                     p.args.steps if p.args is not None else (),
                     p.path.steps, p.fused.total) for p in plans]

        for checks in (True, False):
            config = dataclasses.replace(named_builds()["mpich/ch4 (default)"],
                                         error_checking=checks)
            for rank_plans in World(2, config).run(body, timeout=60):
                assert len(rank_plans) >= 2
                for fused, entry, args, path, total in rank_plans:
                    assert fused == entry + args + path
                    assert bool(args) is checks
                    assert total == sum(n for _, _, n, _ in fused)

    def test_replay_is_one_call_per_layer(self, monkeypatch):
        """One ``Proc.charge`` call per warm Isend — the call plan's
        fused replay of entry + validation + device, three calls
        before call plans and sixteen on the stepwise path."""
        calls = []
        original = Proc.charge

        def counting(self, *args):
            calls.append(args)
            return original(self, *args)

        def body(comm):
            buf = np.zeros(1, dtype=np.uint8)
            if comm.rank == 0:
                comm.Send(buf, 1)        # warm: compiles the plans
                calls.clear()
                comm.Isend(buf, 1, tag=1).wait()
                return len(calls), all(len(a) == 1 for a in calls)
            comm.Recv(buf, 0)
            comm.Recv(buf, 0, tag=1)

        monkeypatch.setattr(Proc, "charge", counting)
        assert World(2).run(body, timeout=60)[0] == (1, True)


# -- key completeness -----------------------------------------------------------

def _isend_keys(proc):
    return {k for k in proc._plans if isinstance(k, tuple) and k[0] == "isend"}


class TestKeyCompleteness:
    """Calls whose charging code takes different branches never share a
    plan; calls with one key compile equal plans."""

    def test_variants_get_their_own_plans(self):
        def body(comm):
            proc = comm.proc
            buf = np.zeros(NBYTES, dtype=np.uint8)
            predefined = comm.dup_predefined(0)
            direct = comm.dup()
            direct.translation = DirectTableTranslation(
                direct.group.world_ranks)
            column = vector(2, 1, 2, DOUBLE).commit()
            field = np.zeros(4)
            if comm.rank == 1:
                for c in (comm, predefined, direct, comm, comm):
                    c.Recv(buf, 0)
                comm.Recv((field, 1, column), 0)
                comm.Recv(buf, ANY_SOURCE)
                return sorted({k[0] for k in proc._plans
                               if isinstance(k, tuple)
                               and k[0].startswith("irecv")})
            totals = {}
            for name, c, arg in (
                    ("world", comm, buf),
                    ("predefined", predefined, buf),
                    ("direct", direct, buf),
                    ("class2", comm, (buf, NBYTES, compile_time(BYTE))),
                    ("class3", comm, (buf, NBYTES, runtime_constant(BYTE))),
                    ("class1", comm, (field, 1, column))):
                before = set(proc._plans)
                with proc.tracer.call(name):
                    c.Isend(arg, 1).wait()
                totals[name] = (proc.tracer.last(name).total,
                                len(_isend_keys(proc) - before))
            comm.Send(buf, 1)
            return totals

        totals, recv_keys = World(2).run(body, timeout=60)
        # One new isend plan per variant — except "world", whose plan the
        # dups' own byte sends on MPI_COMM_WORLD compiled already, and
        # "class2", which is how a bare ndarray is classified.
        assert {n: new for n, (_, new) in totals.items()} == {
            "world": 0, "predefined": 1, "direct": 1, "class2": 0,
            "class3": 1, "class1": 1}
        world = totals["world"][0]
        assert world == 221
        assert totals["predefined"][0] < world       # static-index lookup
        assert totals["direct"][0] == world - 11 + 2  # 2-instr table load
        # Wildcard vs concrete source never share a plan.
        assert recv_keys == ["irecv", "irecv_any"]

    def test_every_usage_class_has_an_index(self):
        assert sorted(u.index for u in UsageClass) == [0, 1, 2]
        assert [c.index for c in Category] == list(range(len(Category)))
        assert [s.index for s in Subsystem] == list(range(len(Subsystem)))

    def test_same_key_compiles_equal_plans(self):
        def body(comm):
            buf = np.zeros(1, dtype=np.uint8)
            if comm.rank == 0:
                comm.Send(buf, 1)
            else:
                comm.Recv(buf, 0)
            return {key: plan.steps
                    for key, plan in comm.proc._plans.items()}

        first = World(2).run(body, timeout=60)
        second = World(2).run(body, timeout=60)
        assert first == second and first[0]


class TestRecorder:
    def test_negative_cost_rejected_at_compile(self):
        proc = World(1).proc(0)
        before = _state(proc)
        with pytest.raises(ValueError, match="negative cost"):
            proc.plan("neg", lambda p: p.charge(Category.MANDATORY, -1))
        assert "neg" not in proc._plans and _state(proc) == before
        with pytest.raises(ValueError):
            proc.charge(Category.MANDATORY, -1)
        assert _state(proc) == before

    def test_charging_code_cannot_read_the_clock(self):
        proc = World(1).proc(0)
        with pytest.raises(AttributeError):
            proc.plan("clock", lambda p: p.vclock.now)
        with pytest.raises(AttributeError):
            proc.plan("counter", lambda p: p.counter.total)

    def test_racing_compiles_of_one_key_agree(self):
        """The cache is shared with the progress-engine thread and takes
        no lock: same key, equal plan, whichever thread stores last."""
        import sys
        import threading
        proc = World(1).proc(0)
        plans, start = [], threading.Barrier(8)

        def charging(p):
            p.charge(Category.MANDATORY, 3, Subsystem.DESCRIPTOR)
            p.charge(Category.ERROR_CHECKING, 5)

        def racer():
            start.wait(timeout=10)
            for i in range(200):
                plans.append(proc.plan(("race", i % 4), charging))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=racer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(plans) == 1600
        assert {p.steps for p in plans} == {plans[0].steps}

    def test_plan_folds_steps_in_order(self):
        proc = World(1).proc(0)

        def charging(p):
            p.charge(Category.MANDATORY, 3, Subsystem.DESCRIPTOR)
            p.charge(Category.ERROR_CHECKING, 5)
            p.charge(Category.MANDATORY, 7, Subsystem.DESCRIPTOR)

        plan = proc.plan("demo", charging)
        assert proc.plan("demo", charging) is plan
        assert [(c, s, n) for c, s, n, _ in plan.steps] == [
            (Category.MANDATORY, Subsystem.DESCRIPTOR, 3),
            (Category.ERROR_CHECKING, None, 5),
            (Category.MANDATORY, Subsystem.DESCRIPTOR, 7)]
        assert plan.total == 15
        assert dict(plan.cats) == {Category.MANDATORY.index: 10,
                                   Category.ERROR_CHECKING.index: 5}
        assert dict(plan.subs) == {Subsystem.DESCRIPTOR.index: 10}
        now = proc.vclock.now
        proc.charge(plan)
        fabric = proc.net_fabric
        for n in (3, 5, 7):      # the steps, one at a time
            now += fabric.cycles_to_seconds(fabric.sw_cycles(n))
        assert _state(proc) == (
            15, {c.name: {Category.MANDATORY: 10,
                          Category.ERROR_CHECKING: 5}.get(c, 0)
                 for c in Category},
            {s.name: 10 if s is Subsystem.DESCRIPTOR else 0
             for s in Subsystem}, now.hex())


# -- error and PROC_NULL exits ------------------------------------------------------

def _traced(proc, name, call, error=None):
    """Run *call* traced; returns (error type name, total, nonzero
    categories) of what it charged before returning or raising."""
    with proc.tracer.call(name):
        if error is None:
            call()
        else:
            with pytest.raises(error) as info:
                call()
            assert type(info.value) is error
    rec = proc.tracer.last(name)
    return (error.__name__ if error else None, rec.total,
            {c.name: n for c, n in rec.by_category.items() if n})


def _error_exits(comm):
    proc = comm.proc
    buf = np.zeros(NBYTES, dtype=np.uint8)
    raw = vector(2, 1, 2, DOUBLE)                  # never committed
    freed = comm.dup()
    win = Window.create(comm, np.zeros(64, dtype=np.uint8), disp_unit=1)
    win.fence()
    out = {}
    if comm.rank == 0:
        freed.freed = True
        cases = {
            "send_negative_count": (
                lambda: comm.Isend((buf, -1, BYTE), 1), MPIErrCount),
            "send_tag_out_of_range": (
                lambda: comm.Isend(buf, 1, tag=TAG_UB + 1), MPIErrTag),
            "send_uncommitted": (
                lambda: comm.Isend((np.zeros(4), 1, raw), 1),
                MPIErrDatatype),
            "send_freed_comm": (lambda: freed.Isend(buf, 1), MPIErrComm),
            "send_bad_rank": (lambda: comm.Isend(buf, 7), MPIErrRank),
            "send_npn_proc_null": (
                lambda: comm.isend_npn(buf, PROC_NULL), MPIErrRank),
            "send_proc_null": (
                lambda: comm.Isend(buf, PROC_NULL).wait(), None),
            "recv_negative_count": (
                lambda: comm.Irecv((buf, -1, BYTE), 1), MPIErrCount),
            "recv_tag_out_of_range": (
                lambda: comm.Irecv(buf, 1, tag=TAG_UB + 1), MPIErrTag),
            "recv_uncommitted": (
                lambda: comm.Irecv((np.zeros(4), 1, raw), 1),
                MPIErrDatatype),
            "recv_freed_comm": (lambda: freed.Irecv(buf, 1), MPIErrComm),
            "recv_bad_rank": (lambda: comm.Irecv(buf, 7), MPIErrRank),
            "recv_npn_proc_null": (
                lambda: comm._buffer_recv(buf, PROC_NULL, 0,
                                          flags=ext.NO_PROC_NULL),
                MPIErrRank),
            "recv_proc_null": (
                lambda: comm.Irecv(buf, PROC_NULL).wait(), None),
            "put_negative_count": (
                lambda: win.put((buf, -1, BYTE), 1), MPIErrCount),
            "put_uncommitted": (
                lambda: win.put((np.zeros(4), 1, raw), 1), MPIErrDatatype),
            "put_bad_rank": (lambda: win.put(buf, 7), MPIErrRank),
            "put_npn_proc_null": (
                lambda: win.put(buf, PROC_NULL, flags=ext.NO_PROC_NULL),
                MPIErrRank),
            "put_proc_null": (lambda: win.put(buf, PROC_NULL), None),
        }
        for name, (call, error) in cases.items():
            out[name] = _traced(proc, name, call, error)
    win.fence()
    if comm.rank == 0:
        win.freed = True
        out["put_freed_win"] = _traced(
            proc, "put_freed_win", lambda: win.put(buf, 1), MPIErrWin)
        win.freed = False
    return out


_NAMES = {"err": "ERROR_CHECKING", "thread": "THREAD_SAFETY",
          "call": "FUNCTION_CALL", "red": "REDUNDANT_CHECKS",
          "mand": "MANDATORY"}


def _exit(error, total, **cats):
    return (error.__name__ if error else None, total,
            {_NAMES[k]: n for k, n in cats.items()})


#: What each exit charged on the commit before plans (PR 14, default
#: CH4 build), measured there with this file's ``_error_exits``.
PARENT_EXITS = {
    "send_negative_count": _exit(MPIErrCount, 51, err=22, thread=6, call=23),
    "send_tag_out_of_range": _exit(MPIErrTag, 51, err=22, thread=6, call=23),
    "send_uncommitted": _exit(MPIErrDatatype, 69, err=40, thread=6, call=23),
    "send_freed_comm": _exit(MPIErrComm, 85, err=56, thread=6, call=23),
    "send_bad_rank": _exit(MPIErrRank, 103, err=74, thread=6, call=23),
    "send_npn_proc_null": _exit(MPIErrRank, 171, err=74, thread=6, call=23,
                                red=59, mand=9),
    "send_proc_null": _exit(None, 187, err=74, thread=6, call=23, red=59,
                            mand=25),
    "recv_negative_count": _exit(MPIErrCount, 51, err=22, thread=6, call=23),
    "recv_tag_out_of_range": _exit(MPIErrTag, 51, err=22, thread=6, call=23),
    "recv_uncommitted": _exit(MPIErrDatatype, 69, err=40, thread=6, call=23),
    "recv_freed_comm": _exit(MPIErrComm, 85, err=56, thread=6, call=23),
    "recv_bad_rank": _exit(MPIErrRank, 103, err=74, thread=6, call=23),
    "recv_npn_proc_null": _exit(MPIErrRank, 184, err=74, thread=6, call=23,
                                red=59, mand=22),
    "recv_proc_null": _exit(None, 187, err=74, thread=6, call=23, red=59,
                            mand=25),
    "put_negative_count": _exit(MPIErrCount, 59, err=20, thread=14, call=25),
    "put_uncommitted": _exit(MPIErrDatatype, 77, err=38, thread=14, call=25),
    "put_bad_rank": _exit(MPIErrRank, 111, err=72, thread=14, call=25),
    "put_npn_proc_null": _exit(MPIErrRank, 180, err=72, thread=14, call=25,
                               red=60, mand=9),
    "put_proc_null": _exit(None, 183, err=72, thread=14, call=25, red=60,
                           mand=12),
    "put_freed_win": _exit(MPIErrWin, 93, err=54, thread=14, call=25),
}


class TestErrorExitCharges:
    """A call that fails a check, or meets MPI_PROC_NULL, charges the
    prefix of the path it actually ran — unchanged by plans — and
    raises the same typed error."""

    def test_exits_charge_what_they_did_before_plans(self):
        got = World(2).run(_error_exits, timeout=60)[0]
        assert got == PARENT_EXITS

    def test_an_error_exit_does_not_poison_the_plan(self):
        """The stepwise exit leaves the cache alone: the next good call
        on the same key still charges the calibrated 221."""
        def body(comm):
            buf = np.zeros(1, dtype=np.uint8)
            proc = comm.proc
            if comm.rank == 0:
                with pytest.raises(MPIErrRank):
                    comm.isend_npn(buf, PROC_NULL)
                comm.Isend(buf, PROC_NULL).wait()
                with proc.tracer.call("good"):
                    req = comm.Isend(buf, 1)
                req.wait()
                return proc.tracer.last("good").total
            comm.Recv(buf, 0)

        assert World(2).run(body, timeout=60)[0] == 221


# -- call plans: first-use races, armed hooks ------------------------------------------

class TestCallPlanCompile:
    def test_racing_first_use_compiles_agree(self):
        """Like the charge-plan cache, a handle's call-plan cache takes
        no lock: threads racing on one cold call site each compile,
        the last store wins, and every plan they got is the same plan
        in everything but identity."""
        import sys
        import threading
        from repro.core.ops import SendOp
        from repro.mpi.pt2pt import BYTE_REF
        world = World(2)
        comm = Communicator.world_view(world.proc(0))
        buf = np.zeros(1, dtype=np.uint8)
        plans, start = [], threading.Barrier(8)

        def racer():
            start.wait(timeout=10)
            for i in range(100):
                op = SendOp(buf, 1, BYTE_REF, 1, i % 4, comm)
                comm._plans.clear()              # keep the site cold
                plans.append(comm._call_plan(op, False, 1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=racer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(plans) == 800 and len({id(p) for p in plans}) > 1
        first = plans[0]
        assert first.fused.total == 221
        for plan in plans:
            assert plan.fused.steps == first.fused.steps
            assert (plan.entry.steps, plan.args.steps, plan.path.steps) == (
                first.entry.steps, first.args.steps, first.path.steps)
            assert (plan.lock, plan.peer_world, plan.transport, plan.native,
                    plan.threshold) == (
                first.lock, first.peer_world, first.transport, first.native,
                first.threshold)

    def test_sync_and_standard_sends_never_share_a_plan(self):
        """noreq + sync leaves the straight line, so ``sync`` is part
        of the key: a warm standard-mode plan is never handed to it."""
        from repro.errors import MPIErrArg

        def body(comm):
            buf = np.zeros(1, dtype=np.uint8)
            if comm.rank == 0:
                comm.isend_noreq(buf, 1)
                comm.waitall_noreq()
                with pytest.raises(MPIErrArg, match="noreq"):
                    comm._buffer_send(buf, 1, 0, sync=True, flags=ext.NOREQ)
                comm.Ssend(buf, 1)
                return sorted(k[0] for k in comm._plans
                              if k[1] == 1 and k[0] != 2)
            comm.Recv(buf, 0)
            comm.Recv(buf, 0)

        assert World(2).run(body, timeout=60)[0] == [False, True]


def _armed_program(comm, arm_timeline):
    """A small pt2pt + RMA program; returns every payload, status and
    charged total it produced."""
    from repro.analysis.timeline import enable_timeline
    proc, me, peer = comm.proc, comm.rank, 1 - comm.rank
    out = []
    send = np.arange(4, dtype=np.float64) + 10 * me
    recv = np.zeros(4)
    st = comm.Sendrecv(send, peer, recv, peer, 3, 3)      # the first call
    out.append((recv.tolist(), st.source, st.tag, st.count_bytes))
    comm.barrier()
    if arm_timeline and me == 0:
        enable_timeline(comm.world)     # a hook turned on mid-run
    comm.barrier()
    hops = []
    for tag in range(3):
        if me == 0:
            sreq = comm.Isend(send, 1, tag)
            sreq.on_complete(lambda req: hops.append(req.complete_s))
            sreq.wait()
            proc.request_pool.release(sreq)
        else:
            rreq = comm.Irecv(recv, 0, tag)
            rreq.wait()
            out.append((recv.tolist(), rreq.source, rreq.tag,
                        rreq.count_bytes))
            proc.request_pool.release(rreq)
    out.append(comm.sendrecv({"from": me}, peer, peer))
    exposed = np.zeros(8, dtype=np.float64)
    win = Window.create(comm, exposed, disp_unit=8)
    win.fence()
    if me == 0:
        win.put(send, 1, 0)
        win.accumulate(send, 1, 4)
    win.fence()
    got = np.zeros(4)
    if me == 0:
        win.get(got, 1, 0)
    win.fence()
    out.append((exposed.tolist(), got.tolist()))
    win.free()
    counter = proc.counter
    by_category = {c.name: n for c, n in counter.by_category.items()
                   if c.name not in ("RELIABILITY", "PROGRESS")}
    return out, by_category, len(hops)


def _pingpong_program(comm):
    """A blocking ping-pong in which every ``Recv`` of rank 1 parks:
    rank 0 sends a ping only once rank 1's pool has counted the park.
    Returns every payload and status, the charged totals, and how many
    of the rank's waits blocked."""
    import time
    proc, me = comm.proc, comm.rank
    pool = proc.request_pool
    peer_pool = comm.world.proc(1).request_pool
    out = []
    send, recv = np.zeros(3), np.zeros(3)
    for i in range(5):
        if me == 0:
            deadline = time.monotonic() + 30.0
            while peer_pool.n_parked <= i:
                assert time.monotonic() < deadline, "rank 1 never parked"
                time.sleep(0)       # a yield, not a delay
            send[:] = i
            comm.Send(send, 1, i)
            st = comm.Recv(recv, 1, i)
        else:
            st = comm.Recv(recv, 0, i)
            send[:] = recv + 0.5
            comm.Send(send, 0, i)
        out.append((recv.tolist(), st.source, st.tag, st.count_bytes))
    by_category = {c.name: n for c, n in proc.counter.by_category.items()
                   if c.name not in ("RELIABILITY", "PROGRESS")}
    # Rank 0's own waits block or not as the scheduler has it.
    return out, by_category, (pool.n_parked, pool.n_woken) if me else None


def _persistent_program(comm):
    """Nothing but three starts of one persistent send/receive pair;
    returns every payload and status and the charged totals."""
    proc, me = comm.proc, comm.rank
    out = []
    buf = np.zeros(3)
    req = (comm.Send_init(buf, 1, 9) if me == 0
           else comm.Recv_init(buf, 0, 9))
    for i in range(3):
        if me == 0:
            buf[:] = i
        active = req.start()
        req.wait()
        out.append((buf.tolist(), active.source, active.tag,
                    active.count_bytes))
    by_category = {c.name: n for c, n in proc.counter.by_category.items()
                   if c.name not in ("RELIABILITY", "PROGRESS")}
    return out, by_category


class TestArmedEqualsUnarmed:
    """The armed-hook builds run the same functions with the hook
    branches taken: same payloads, statuses and charged totals as the
    default build (net of the categories a subsystem charges for its
    own work), and each hook still fires."""

    @pytest.fixture(scope="class")
    def default(self):
        return World(2).run(_armed_program, args=(False,), timeout=60)

    def _run(self, config=None, arm_timeline=False):
        from repro.core.config import BuildConfig
        world = World(2, config or BuildConfig())
        return world, world.run(_armed_program, args=(arm_timeline,),
                                timeout=60)

    def _counted(self, monkeypatch, cls, names):
        """Count calls of *cls*'s hook methods *names*."""
        seen = dict.fromkeys(names, 0)
        for name in names:
            def counting(self, *args, _name=name,
                         _hook=getattr(cls, name), **kwargs):
                seen[_name] += 1
                return _hook(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, counting)
        return seen

    def test_sanitizer(self, default, monkeypatch):
        from repro.core.config import BuildConfig
        from repro.sanitize.runtime import RankSanitizer
        seen = self._counted(monkeypatch, RankSanitizer, (
            "note_api", "note_send", "note_recv", "note_finish"))
        _, got = self._run(BuildConfig(sanitize=True))
        assert got == default
        assert all(n > 0 for n in seen.values()), seen

    def test_tsan(self, default):
        from repro.core.config import BuildConfig
        world, got = self._run(BuildConfig(tsan=True))
        assert got == default
        assert world.tsan.n_access_events > 0
        assert world.tsan.n_lock_events > 0
        assert not world.tsan.findings

    def test_fault_plan_without_faults(self, default):
        from repro.core.config import BuildConfig
        from repro.ft.plan import FaultPlan
        world, got = self._run(BuildConfig(fault_plan=FaultPlan()))
        assert got == default
        assert all(p.hooks.faults.stats()["n_sends"] > 0
                   for p in world.procs)
        assert all(p.counter.by_category[Category.RELIABILITY] > 0
                   for p in world.procs)

    def test_progress_thread(self, default):
        from repro.core.config import BuildConfig
        world, got = self._run(BuildConfig(progress="thread"))
        assert got == default
        # Rank 0's three continuations ran on its progress thread.
        assert world.proc(0).hooks.progress.stats()["n_continuations"] >= 3

    def test_four_vcis(self, default):
        from repro.core.config import BuildConfig
        world, got = self._run(BuildConfig(num_vcis=4))
        assert got == default
        for proc in world.procs:
            assert sum(v.cs_entries for v in proc.vcis) > 0
            assert sum(v.cs_instructions for v in proc.vcis) > 0
        assert sum(v.n_injected for v in world.proc(0).vcis) > 0

    @pytest.fixture(scope="class")
    def default_pingpong(self):
        got = World(2).run(_pingpong_program, timeout=60)
        assert got[1][2] == (5, 5)      # five parks, five direct wakes
        return got

    @pytest.mark.parametrize("build", ["sanitize", "tsan", "progress",
                                       "four_vcis"])
    def test_blocking_pingpong(self, default_pingpong, monkeypatch, build):
        """The blocked-wait path under every armed build: same
        payloads, statuses, charges and park counts as the default
        build, and each hook of ``Request._block`` fires once per
        blocked wait, entries and exits balanced."""
        from repro.core.config import BuildConfig
        from repro.sanitize.runtime import RankSanitizer
        from repro.tsan.detector import WorldTsan
        config, cls, hooks = {
            "sanitize": (BuildConfig(sanitize=True), RankSanitizer,
                         ("note_block_request", "note_unblock")),
            "tsan": (BuildConfig(tsan=True), WorldTsan,
                     ("check_blocking_wait",)),
            "progress": (BuildConfig(progress="thread"), None, ()),
            "four_vcis": (BuildConfig(num_vcis=4), None, ()),
        }[build]
        seen = self._counted(monkeypatch, cls, hooks)
        world = World(2, config)
        got = world.run(_pingpong_program, timeout=60)
        assert got == default_pingpong
        blocked = sum(p.request_pool.n_parked for p in world.procs)
        assert blocked >= 5
        # Collectives of the world's own start-up may block as well.
        assert all(n >= blocked for n in seen.values()), seen
        assert len(set(seen.values())) <= 1, seen
        if build == "tsan":
            assert not world.tsan.findings

    @pytest.mark.parametrize("build", ["sanitize", "tsan", "fault_plan",
                                       "four_vcis"])
    def test_persistent_pair(self, monkeypatch, build):
        """``start()`` runs the devices' one send body and one receive
        post, so every armed build sees a persistent pair exactly as it
        sees an Isend/Irecv pair: same payloads, statuses and charges
        as the default build, one hook firing per start."""
        from repro.core.config import BuildConfig
        from repro.ft.plan import FaultPlan
        from repro.sanitize.runtime import RankSanitizer
        config = {"sanitize": BuildConfig(sanitize=True),
                  "tsan": BuildConfig(tsan=True),
                  "fault_plan": BuildConfig(fault_plan=FaultPlan()),
                  "four_vcis": BuildConfig(num_vcis=4)}[build]
        seen = self._counted(monkeypatch, RankSanitizer,
                             ("note_send", "note_recv"))
        world = World(2, config)
        got = world.run(_persistent_program, timeout=60)
        assert got == World(2).run(_persistent_program, timeout=60)
        if build == "sanitize":
            assert seen == {"note_send": 3, "note_recv": 3}
        elif build == "tsan":
            assert world.tsan.n_access_events > 0
            assert not world.tsan.findings
        elif build == "fault_plan":
            assert world.proc(0).hooks.faults.stats()["n_sends"] == 3
        else:
            assert sum(v.completion.n_send
                       for v in world.proc(0).vcis) == 3
            assert sum(v.completion.n_recv
                       for v in world.proc(1).vcis) == 3

    def test_timeline_enabled_after_the_first_call(self, default):
        world, got = self._run(arm_timeline=True)
        assert got == default
        names = [e.name for e in world.proc(0).timeline]
        assert names.count("MPI_Isend") == 3 + 1    # 3 buffer + 1 object
        assert {"MPI_Irecv", "MPI_Put", "MPI_Accumulate",
                "MPI_Get"} <= set(names)
        assert all(e.t1 >= e.t0 for e in world.proc(0).timeline)
        # A seam for the call events; the requests keep the build's.
        assert world.proc(0).hooks is not None
        assert world.proc(0).request_pool._hooks is None


# -- what the one entry keeps from the two it replaced -----------------------

def _books(proc):
    """The counter and the clock after a call, per category."""
    counter = proc.counter
    return (counter.total,
            {c.name: n for c, n in counter.by_category.items() if n},
            proc.vclock.now)


def _routed_program(comm):
    """Planned, PROC_NULL, wildcard, failing and RMA calls on one rank;
    returns each VCI's (cs_entries, cs_instructions) they added."""
    pool = comm.proc.request_pool
    buf = np.zeros(1, np.int64)
    win = Window.create(comm, np.zeros(8, np.int64), disp_unit=8)
    win.fence()
    vcis = comm.proc.vcis
    before = [(v.cs_entries, v.cs_instructions) for v in vcis]
    for tag in range(6):
        rreq = comm.Irecv(buf, 0, tag)
        sreq = comm.Isend(buf, 0, tag)
        for req in (sreq, rreq):
            req.wait()
            pool.release(req)
        for req in (comm.Isend(buf, PROC_NULL, tag),
                    comm.Irecv(buf, ANY_SOURCE, tag + 100)):
            if req.source == PROC_NULL:
                req.wait()
                pool.release(req)
            else:
                comm.Send(buf, 0, tag + 100)
                req.wait()
                pool.release(req)
    with pytest.raises(MPIError):
        comm.Isend(buf, 3, 0)
    win.put(buf, 0, 1)
    win.get(buf, 0, 2)
    win.compare_and_swap(buf, buf, np.zeros(1, np.int64), 0, 3)
    got = [(v.cs_entries - e, v.cs_instructions - i)
           for v, (e, i) in zip(vcis, before)]
    win.fence()
    win.free()
    return got


class TestOneEntryKeeps:
    """Every call enters through ``pt2pt.run_call``; the values below
    were read off the two-regime entry it replaced, and hold there
    too."""

    #: Entry and argument checks charged, no path (23 + 6 + 74).
    REFUSED_ISEND = (103, {"ERROR_CHECKING": 74, "FUNCTION_CALL": 23,
                           "THREAD_SAFETY": 6}, 4.8475150602409644e-08)
    REFUSED_IRECV = (206, {"ERROR_CHECKING": 148, "FUNCTION_CALL": 46,
                           "THREAD_SAFETY": 12}, 9.695030120481929e-08)
    #: ... and for a put (25 + 14 + 72).
    REFUSED_PUT = (111, {"ERROR_CHECKING": 72, "FUNCTION_CALL": 25,
                         "THREAD_SAFETY": 14}, 5.22402108433735e-08)

    def test_calls_on_a_revoked_communicator(self):
        """The fault layer's ``comm_check`` refuses both calls after
        their argument checks and before their device path."""
        from repro.core.config import BuildConfig
        from repro.errors import MPIErrRevoked
        from repro.ft import ERRORS_RETURN, FaultPlan

        def main(comm):
            comm.set_errhandler(ERRORS_RETURN)
            buf = np.zeros(1, np.uint8)
            ext.MPIX_Comm_revoke(comm)
            books = [_books(comm.proc)]
            with pytest.raises(MPIErrRevoked):
                comm.Isend(buf, 0, 3)
            books.append(_books(comm.proc))
            with pytest.raises(MPIErrRevoked):
                comm.Irecv(buf, 0, 3)
            books.append(_books(comm.proc))
            return books

        world = World(1, BuildConfig(fault_plan=FaultPlan()))
        assert world.run(main, timeout=60)[0] == [
            (0, {}, 0.0), self.REFUSED_ISEND, self.REFUSED_IRECV]

    def test_put_outside_an_epoch(self):
        """The sanitizer's ``rma_check`` refuses it (MSD204) at the
        same point."""
        from repro.core.config import BuildConfig
        from repro.sanitize.diagnostics import SanitizerError

        def main(comm):
            win = Window.create(comm, np.zeros(8, np.uint8), disp_unit=1)
            books = [_books(comm.proc)]
            with pytest.raises(SanitizerError, match="MSD204"):
                win.put(np.ones(1, np.uint8), 0, 3)
            books.append(_books(comm.proc))
            return books

        world = World(1, BuildConfig(sanitize=True))
        assert world.run(main, timeout=60)[0] == [(0, {}, 0.0),
                                                  self.REFUSED_PUT]

    @pytest.mark.parametrize("build", ["default", "sanitize", "tsan",
                                       "fault_plan", "four_vcis"])
    def test_timeline_spans_are_the_calls(self, build):
        """On every build with a seam, each span runs from the clock
        just before its call to the clock just after it."""
        from repro.analysis.timeline import enable_timeline
        from repro.core.config import BuildConfig
        from repro.ft import FaultPlan
        config = {"default": BuildConfig(),
                  "sanitize": BuildConfig(sanitize=True),
                  "tsan": BuildConfig(tsan=True),
                  "fault_plan": BuildConfig(fault_plan=FaultPlan()),
                  "four_vcis": BuildConfig(num_vcis=4)}[build]

        def main(comm):
            proc = comm.proc
            enable_timeline(comm.world)
            buf = np.zeros(1, np.float64)
            win = Window.create(comm, np.zeros(4), disp_unit=8)
            win.fence()
            calls = [("MPI_Irecv", lambda: comm.Irecv(buf, 0, 7)),
                     ("MPI_Isend", lambda: comm.Isend(buf, 0, 7)),
                     ("MPI_Isend", lambda: comm.Isend(buf, PROC_NULL, 7)),
                     ("MPI_Put", lambda: win.put(buf, 0, 1)),
                     ("MPI_Get", lambda: win.get(buf, 0, 2))]
            spans, requests = [], []
            for _ in range(2):              # cold, then warm
                for name, call in calls:
                    t0 = proc.vclock.now
                    requests.append(call())
                    spans.append((name, t0, proc.vclock.now))
                for req in requests:
                    if req is not None:
                        req.wait()
                requests.clear()
            win.fence()
            recorded = [tuple(e) for e in proc.timeline
                        if e.name in ("MPI_Irecv", "MPI_Isend", "MPI_Put",
                                      "MPI_Get")]
            win.free()
            return recorded == spans, len(spans)

        assert World(1, config).run(main, timeout=60) == [(True, 10)]

    #: ``(cs_entries, cs_instructions)`` per VCI after
    #: :func:`_routed_program`.  VCI 0's instructions were 2502 while
    #: ``compare_and_swap`` charged its entry only (111); it charges
    #: the device path now, as ``fetch_and_op`` does (215): +104.
    ROUTED_CS = [(14, 2606), (2, 316), (8, 1536), (9, 1626)]

    def test_routed_critical_sections(self):
        """``num_vcis=4``: each call notes its CS on the VCI its stream
        routes to, planned or off the line, with the same charged
        instructions inside."""
        from repro.core.config import BuildConfig
        assert World(1, BuildConfig(num_vcis=4)).run(
            _routed_program, timeout=60)[0] == self.ROUTED_CS

    def test_off_line_calls_name_themselves(self, monkeypatch):
        """A failing check, a PROC_NULL peer and the init calls fire
        the sanitizer's ``note_api`` as the two-regime entry did: once
        each, the init calls unnamed.  A planned call — the closing
        ``compare_and_swap``, an accumulate like any other — names
        itself once too."""
        from repro.core.config import BuildConfig
        from repro.sanitize.runtime import RankSanitizer
        names = []
        note_api = RankSanitizer.note_api

        def noting(self, name):
            names.append(name)
            return note_api(self, name)
        monkeypatch.setattr(RankSanitizer, "note_api", noting)

        def main(comm):
            pool = comm.proc.request_pool
            buf = np.zeros(1, np.uint8)
            win = Window.create(comm, np.zeros(8, np.int64), disp_unit=8)
            win.fence()
            names.clear()
            with pytest.raises(MPIError):
                comm.Isend(buf, 5, 0)       # rank out of range
            names.append("|")
            for req in (comm.Isend(buf, PROC_NULL, 0),
                        comm.Irecv(buf, PROC_NULL, 0)):
                req.wait()
                pool.release(req)
            names.append("|")
            comm.Send_init(buf, 0, 1)
            comm.Recv_init(buf, 0, 1)
            names.append("|")
            win.compare_and_swap(np.ones(1, np.int64), np.zeros(1, np.int64),
                                 np.zeros(1, np.int64), 0, 0)
            got = list(names)
            win.fence()
            win.free()
            return got

        assert World(1, BuildConfig(sanitize=True)).run(
            main, timeout=60)[0] == [
            "MPI_Isend", "|", "MPI_Isend", "MPI_Irecv", "|", None, None,
            "|", "MPI_Compare_and_swap"]


# -- the atomics enter and move their bytes through the device --------------

#: What one warm ``fetch_and_op`` — the put's path plus nothing —
#: charges on each build: CH4, CH3, and a lossless fault build (CH4
#: plus the fault layer's RMA header).
ATOMIC_CHARGES = {"ch4": 215, "ch3": 1342, "fault_plan": 249}


def _atomic_config(build, **overrides):
    """The ``BuildConfig`` of an ``ATOMIC_CHARGES`` build."""
    from repro.core.config import BuildConfig
    from repro.ft import FaultPlan
    if build == "ch3":
        overrides["device"] = Device.CH3
    elif build == "fault_plan":
        overrides["fault_plan"] = FaultPlan()
    return BuildConfig(**overrides)


def _atomics(win, peer):
    """A one-element ``fetch_and_op`` and ``compare_and_swap`` on
    *win* toward *peer*, by name."""
    one, result = np.ones(1, np.int64), np.zeros(1, np.int64)
    return {"fetch_and_op": lambda: win.fetch_and_op(one, result, peer, 0),
            "compare_and_swap": lambda: win.compare_and_swap(
                one, np.zeros(1, np.int64), result, peer, 1)}


class TestAtomicsEnterTheDevice:
    """``compare_and_swap`` is an accumulate: on every build it charges,
    routes and moves its bytes as ``fetch_and_op`` does."""

    @pytest.mark.parametrize("build", ATOMIC_CHARGES)
    def test_compare_and_swap_charges_what_fetch_and_op_charges(self,
                                                                build):
        from repro.fabric.topology import Topology

        def main(comm):
            win = Window.create(comm, np.zeros(4, np.int64), disp_unit=8)
            win.fence()
            charged = {}
            if comm.rank == 0:
                counter = comm.proc.counter
                for name, call in _atomics(win, 1).items():
                    call()                  # the first call compiles
                    before = counter.snapshot()
                    call()
                    delta = before.delta(counter.snapshot())
                    charged[name] = (delta.total, {
                        c.name: n for c, n in delta.by_category.items()
                        if n})
            win.fence()
            return charged

        charged = World(2, _atomic_config(build),
                        topology=Topology(2, 1)).run(main, timeout=60)[0]
        assert charged["compare_and_swap"] == charged["fetch_and_op"]
        assert charged["fetch_and_op"][0] == ATOMIC_CHARGES[build]

    @pytest.mark.parametrize("build", ["ch4", "ch3"])
    def test_compare_and_swap_is_tallied_on_its_vci_lane(self, build):
        """``num_vcis=4``: each atomic adds what the other adds to each
        lane's ``n_injected`` — one op on one lane on CH4, whose RMA
        issue routes.  CH3 has no VCIs, so it refuses the build."""
        if build == "ch3":
            with pytest.raises(ValueError, match="num_vcis"):
                _atomic_config(build, num_vcis=4)
            return

        def main(comm):
            win = Window.create(comm, np.zeros(4, np.int64), disp_unit=8)
            win.fence()
            vcis = comm.proc.vcis
            added = {}
            for name, call in _atomics(win, 0).items():
                before = [v.n_injected for v in vcis]
                call()
                added[name] = [v.n_injected - n
                               for v, n in zip(vcis, before)]
            win.fence()
            return added

        added = World(1, _atomic_config(build, num_vcis=4)).run(
            main, timeout=60)[0]
        assert added["compare_and_swap"] == added["fetch_and_op"]
        assert sum(added["compare_and_swap"]) == 1
