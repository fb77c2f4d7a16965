"""Tests of the benchmark itself.  Not in the tier-1 ``testpaths``; run

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT / "src", ROOT):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from perfbench import compare, trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# -- BENCHMARK.json ----------------------------------------------------------

def test_spec_has_the_contract_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 2 <= len(WORKLOADS) <= 8 and len(PER_LAYER) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"]] \
        + [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])


def test_spec_workloads_are_the_registered_ones():
    from perfbench.workloads import WORKLOADS as registered
    assert list(registered) == WORKLOADS
    assert all(registered[w["name"]].why == w["why"]
               for w in SPEC["workloads"])


# -- the run, end to end -----------------------------------------------------

@pytest.fixture(scope="module")
def quick_doc(tmp_path_factory):
    """``python -m perfbench run --quick`` over all seven workloads."""
    out = tmp_path_factory.mktemp("perfbench") / "quick.json"
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--quick",
         "--out", str(out)], cwd=ROOT, text=True, capture_output=True,
        timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout


def test_quick_run_emits_exactly_the_declared_metrics(quick_doc):
    doc, _ = quick_doc
    assert list(doc["workloads"]) == WORKLOADS
    probes = set(doc["probes"])
    assert probes == {n for n in PER_LAYER if ".probe" in n}
    for result in doc["workloads"].values():
        assert set(result["end_to_end"]) == END_TO_END
        assert set(result["per_layer"]) | probes == PER_LAYER
        assert result["failed"] == 0 and result["attempted"] > 0
        for metric in (*result["end_to_end"].values(),
                       *result["per_layer"].values()):
            assert metric["kind"] in ("measured", "charged")
        assert all(m["value"] > 0 for m in result["end_to_end"].values())
    env = doc["env"]
    assert {"git_rev", "git_dirty", "python", "numpy", "nproc",
            "pinned_cpu", "switchinterval_s"} <= set(env)


def test_quick_run_prints_units_and_a_budget(quick_doc):
    _, stdout = quick_doc
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.search(rf"^{re.escape(m['name'])}\s+\S+ {m['unit']}\s",
                         stdout, re.M), m["name"]
    assert stdout.count("# layer budget") == len(WORKLOADS)


def test_quick_run_defining_counts(quick_doc):
    layers = {n: r["per_layer"] for n, r in quick_doc[0]["workloads"].items()}

    def read(workload, metric):
        return layers[workload][metric]["value"]

    hit = "runtime.matching.posted_hit_share"
    assert read("msgrate_1b", hit) == read("stream_4m", hit) == 1.0
    assert read("unexpected_32k", hit) == 0.0
    assert read("unexpected_32k",
                "runtime.matching.unexpected_depth_peak") == 32
    assert read("stream_4m", "core.ch4.eager_share") == 0.0
    assert read("unexpected_32k", "datatypes.copies_per_op") > 2.0
    assert all(l["netmod.native_share"]["value"] == 1.0
               for l in layers.values())
    assert all(l["instrument.charged_instr_per_op"]["kind"] == "charged"
               for l in layers.values())


def test_traced_run_wrote_an_openable_trace(quick_doc):
    events = json.loads(
        (ROOT / "perfbench/out/trace-msgrate_1b.json").read_text()
    )["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {"workload.op", "mpi.pt2pt", "core.ch4", "instrument"} \
        <= {e["name"] for e in spans}
    assert all(e["dur"] >= 0 and "op" in e["args"] for e in spans)
    assert max(e["args"]["op"] for e in spans) < 200


def test_contract_result_line():
    done = subprocess.run(
        [*SPEC["command"], "--workload", "rma_put_1b", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--quick"],
        cwd=ROOT, text=True, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name] and metric["value"] > 0


def test_refuses_to_run_without_the_runtime(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "pingpong_1b", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True, timeout=120)
    assert done.returncode != 0
    assert not done.stdout.strip()


# -- the tracer --------------------------------------------------------------

class FakeClock:
    """A clock the test moves by hand."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)

    def leaf():
        clock.advance(5)

    leaf_span = tracer.wrap("leaf", leaf)

    def middle():
        clock.advance(10)
        leaf_span()
        clock.advance(20)
        leaf_span()

    middle_span = tracer.wrap("middle", middle)

    def root():
        clock.advance(100)
        middle_span()
        clock.advance(1)
        leaf_span()

    root_span = tracer.wrap(trace.ROOT, root)
    root_span()
    root_span()
    totals = tracer.totals()
    assert totals["leaf"] == {"calls": 6, "self_ns": 30, "total_ns": 30}
    assert totals["middle"] == {"calls": 2, "self_ns": 60, "total_ns": 80}
    assert totals[trace.ROOT] == {"calls": 2, "self_ns": 202,
                                  "total_ns": 292}
    # Self times partition the root spans' wall time.
    assert sum(t["self_ns"] for t in totals.values()) == 292

    rows = {r["layer"]: r for r in trace.budget(totals, ops=2)}
    assert rows["middle"]["self_us_per_op"] == pytest.approx(0.030)
    assert rows["leaf"]["calls_per_op"] == 3
    assert sum(r["share"] for r in rows.values()) == pytest.approx(1.0)

    spans = tracer.chrome_trace()["traceEvents"]
    ops = {e["args"]["op"] for e in spans if e["ph"] == "X"}
    assert ops == {0, 1}
    parents = {(e["name"], e["args"]["parent"]) for e in spans
               if e["ph"] == "X"}
    assert parents == {("leaf", "middle"), ("leaf", trace.ROOT),
                       ("middle", trace.ROOT), (trace.ROOT, None)}


def test_nested_spans_of_one_layer_do_not_count_twice():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)

    def wait():
        clock.advance(7)

    wait_span = tracer.wrap(trace.WAIT, wait)

    def waitall():
        wait_span()
        wait_span()
        clock.advance(1)

    tracer.wrap(trace.WAIT, waitall)()
    assert tracer.totals()[trace.WAIT]["self_ns"] == 15
    rows = trace.budget(tracer.totals(), ops=1)
    assert rows[-1]["layer"] == trace.WAIT and rows[-1]["share"] is None


def test_raw_spans_stop_after_keep_ops():
    tracer = trace.Tracer(clock=FakeClock(), keep_ops=3)
    root = tracer.wrap(trace.ROOT, lambda: None)
    for _ in range(10):
        root()
    spans = [e for e in tracer.chrome_trace()["traceEvents"]
             if e["ph"] == "X"]
    assert len(spans) == 3 and tracer.totals()[trace.ROOT]["calls"] == 10


def test_uninstall_restores_every_attribute():
    from perfbench.workloads import MsgRate1B
    from repro.runtime.proc import Proc

    targets = trace.runtime_targets() + [
        (MsgRate1B, m, trace.ROOT) for m in MsgRate1B.unit_methods]
    before = [(owner, attr, getattr(owner, attr))
              for owner, attr, _ in targets]
    own_before = dict(vars(MsgRate1B))
    tracer = trace.Tracer()
    tracer.install(targets)
    assert all(getattr(owner, attr) is not original
               for owner, attr, original in before)
    charge = next(original for owner, attr, original in before
                  if owner is Proc and attr == "charge")
    assert Proc.charge.__wrapped__ is charge
    tracer.uninstall()
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, (owner, attr)
    assert not hasattr(Proc.charge, "__wrapped__")
    # Inherited unit methods were patched where they are defined.
    assert dict(vars(MsgRate1B)) == own_before


# -- compare -----------------------------------------------------------------

def _metric(value, q1=None, q3=None, n=40, samples=None):
    out = {"value": value, "n": n}
    if q1 is not None:
        out.update(q1=q1, q3=q3, samples=samples or [q1, value, q3])
    return out


def test_verdicts():
    base = _metric(100.0, 99.0, 101.0)
    assert compare.verdict(base, _metric(95.0, 94, 96), "higher", 0.07) == "ok"
    assert compare.verdict(base, _metric(92.0, 91, 93), "higher", 0.07) \
        == "worse"
    assert compare.verdict(base, _metric(108.0, 107, 109), "lower", 0.07) \
        == "worse"
    assert compare.verdict(base, _metric(108.0, 107, 109), "higher", 0.07) \
        == "ok"
    noisy = _metric(100.0, 60.0, 140.0, n=4)
    assert compare.verdict(noisy, _metric(100.0, 99, 101), "lower", 0.07) \
        == "unresolved"
    # Wider than the bound, but every sample beats every base sample.
    fast = _metric(30.0, 25.0, 35.0, n=4, samples=[25.0, 30.0, 35.0])
    assert compare.verdict(noisy, fast, "lower", 0.07) == "ok"


def _doc(ops, instr, failed_share=0.0):
    e2e = {m["name"]: _metric(ops, ops * 0.99, ops * 1.01)
           for m in SPEC["end_to_end"]}
    layers = {name: {"value": instr} for name in compare.exact_metrics(
        "msgrate_1b")}
    return {"env": {"git_rev": "x"}, "workloads": {"msgrate_1b": {
        "end_to_end": e2e, "per_layer": layers,
        "failed_share": failed_share}}}


def test_compare_exit_codes(tmp_path, capsys):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    base = write("base.json", _doc(100.0, 224.0))
    same = write("same.json", _doc(101.0, 224.0))
    assert compare.main([base, same], SPEC) == 0
    assert compare.main([base, write("c.json", _doc(100.0, 225.0))],
                        SPEC) == 1
    assert "differs" in capsys.readouterr().out
    assert compare.main([base, write("f.json", _doc(100.0, 224.0, 0.01))],
                        SPEC) == 1
    slower = _doc(100.0, 224.0)
    slower["workloads"]["msgrate_1b"]["end_to_end"]["ops_per_s"] = \
        _metric(70.0, 69.0, 71.0)
    assert compare.main([base, same, write("s.json", slower)], SPEC) == 1
    assert re.search(r"ops_per_s .* worse", capsys.readouterr().out)


def test_exact_counts_leave_out_what_the_scheduler_decides():
    hit = "runtime.matching.posted_hit_share"
    assert hit in compare.exact_metrics("msgrate_1b")
    assert hit not in compare.exact_metrics("pingpong_1b")
    assert set(compare.exact_metrics("rma_put_1b")) <= PER_LAYER
