"""Counter, tracer, and report machinery."""

import pytest

from repro.instrument.categories import Category, Subsystem
from repro.instrument.counter import InstructionCounter
from repro.instrument.plan import ChargePlan
from repro.instrument.report import (breakdown_lines, category_table,
                                     format_table)
from repro.instrument.trace import CallTracer


def charge(counter, category, n, subsystem=None):
    """Replay a one-step plan into a bare *counter* — what
    ``Proc.charge`` does to its rank's counter (the clock aside)."""
    plan = ChargePlan([(category, subsystem, n, 0.0)])
    counter.total += plan.total
    counter.replays[plan] = counter.replays.get(plan, 0) + 1


class TestCounter:
    def test_charge_accumulates(self):
        c = InstructionCounter("t")
        charge(c, Category.ERROR_CHECKING, 10)
        charge(c, Category.ERROR_CHECKING, 5)
        charge(c, Category.MANDATORY, 7, Subsystem.PROC_NULL)
        assert c.total == 22
        assert c.by_category[Category.ERROR_CHECKING] == 15
        assert c.by_category[Category.MANDATORY] == 7
        assert c.by_subsystem[Subsystem.PROC_NULL] == 7

    def test_reset(self):
        c = InstructionCounter()
        charge(c, Category.MANDATORY, 3, Subsystem.MATCH_BITS)
        c.reset()
        assert c.total == 0
        assert all(v == 0 for v in c.by_category.values())
        assert all(v == 0 for v in c.by_subsystem.values())

    def test_snapshot_delta(self):
        c = InstructionCounter()
        charge(c, Category.FUNCTION_CALL, 23)
        before = c.snapshot()
        charge(c, Category.FUNCTION_CALL, 23)
        charge(c, Category.MANDATORY, 16, Subsystem.DESCRIPTOR)
        delta = before.delta(c.snapshot())
        assert delta.total == 39
        assert delta.by_category[Category.FUNCTION_CALL] == 23
        assert delta.by_subsystem[Subsystem.DESCRIPTOR] == 16

    def test_snapshot_is_independent(self):
        c = InstructionCounter()
        snap = c.snapshot()
        charge(c, Category.MANDATORY, 5)
        assert snap.total == 0


class TestTracer:
    def test_call_records_delta(self):
        c = InstructionCounter()
        tracer = CallTracer(c)
        with tracer.call("op"):
            charge(c, Category.ERROR_CHECKING, 74)
            charge(c, Category.MANDATORY, 59, Subsystem.DESCRIPTOR)
        rec = tracer.last("op")
        assert rec.total == 133
        assert rec.category(Category.ERROR_CHECKING) == 74
        assert rec.subsystem(Subsystem.DESCRIPTOR) == 59

    def test_last_filters_by_name(self):
        c = InstructionCounter()
        tracer = CallTracer(c)
        with tracer.call("a"):
            charge(c, Category.MANDATORY, 1)
        with tracer.call("b"):
            charge(c, Category.MANDATORY, 2)
        assert tracer.last("a").total == 1
        assert tracer.last().total == 2
        with pytest.raises(KeyError):
            tracer.last("missing")

    def test_mean_total(self):
        c = InstructionCounter()
        tracer = CallTracer(c)
        for n in (10, 20):
            with tracer.call("op"):
                charge(c, Category.MANDATORY, n)
        assert tracer.mean_total("op") == 15.0

    def test_records_even_on_exception(self):
        c = InstructionCounter()
        tracer = CallTracer(c)
        with pytest.raises(ValueError):
            with tracer.call("boom"):
                charge(c, Category.MANDATORY, 5)
                raise ValueError("x")
        assert tracer.last("boom").total == 5


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["Name", "Count"],
                           [["alpha", 1234], ["b", 7]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "1,234" in out
        assert "alpha" in out

    def test_category_table_has_all_rows(self):
        c = InstructionCounter()
        tracer = CallTracer(c)
        with tracer.call("X"):
            charge(c, Category.ERROR_CHECKING, 74)
        out = category_table({"X": tracer.last("X")})
        assert "Error checking" in out
        assert "MPI mandatory overheads" in out
        assert "Total" in out

    def test_breakdown_lines_skip_zero_subsystems(self):
        c = InstructionCounter()
        tracer = CallTracer(c)
        with tracer.call("Y"):
            charge(c, Category.MANDATORY, 3, Subsystem.PROC_NULL)
        lines = breakdown_lines(tracer.last("Y"))
        assert any("PROC_NULL" in ln for ln in lines)
        assert not any("Match-bit" in ln for ln in lines)
