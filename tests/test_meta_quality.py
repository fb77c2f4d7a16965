"""Meta checks: documentation coverage, packaging hygiene and the
``BuildConfig`` knob census."""

import ast
import dataclasses
import enum
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _modules():
    return sorted(SRC.rglob("*.py"))


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        missing = []
        for path in _modules():
            tree = ast.parse(path.read_text())
            if not ast.get_docstring(tree):
                missing.append(str(path.relative_to(SRC)))
        assert not missing, f"modules without docstrings: {missing}"

    def test_every_public_class_and_function_documented(self):
        missing = []
        for path in _modules():
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    if node.name.startswith("_"):
                        continue
                    if not ast.get_docstring(node):
                        missing.append(
                            f"{path.relative_to(SRC)}:{node.name}")
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)) \
                                and not sub.name.startswith("_") \
                                and not ast.get_docstring(sub):
                            missing.append(
                                f"{path.relative_to(SRC)}:"
                                f"{node.name}.{sub.name}")
        assert not missing, \
            f"{len(missing)} undocumented public items: {missing[:20]}"

    def test_no_todo_markers_left(self):
        offenders = []
        for path in _modules():
            text = path.read_text()
            for marker in ("TODO", "FIXME", "XXX"):
                if marker in text:
                    offenders.append(f"{path.relative_to(SRC)}: {marker}")
        assert not offenders, offenders


class TestProjectLayout:
    def test_required_docs_exist(self):
        root = SRC.parent.parent
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "LICENSE", "pyproject.toml"):
            assert (root / name).exists(), name

    def test_examples_present(self):
        examples = sorted(
            (SRC.parent.parent / "examples").glob("*.py"))
        assert len(examples) >= 3
        names = {p.stem for p in examples}
        assert "quickstart" in names

    def test_benchmarks_cover_every_figure(self):
        benches = {p.stem for p in
                   (SRC.parent.parent / "benchmarks").glob("bench_*.py")}
        for fig in ("table1", "fig2", "fig3", "fig4", "fig5", "fig6",
                    "fig7", "fig8", "survey", "proposals"):
            assert f"bench_{fig}" in benches, fig


class TestKnobCensus:
    """A ``BuildConfig`` field is a knob only while somebody turns it:
    an option nothing sets away from its default is a second code path
    nobody runs."""

    #: The fields each Figure 2 preset sets for its caller.
    PRESETS = {
        "default": set(),
        "original": {"device"},
        "no_errors": {"error_checking"},
        "no_thread_check": {"error_checking", "thread_safety"},
        "ipo_build": {"error_checking", "thread_safety", "ipo_scope"},
    }

    def test_fifteen_knobs_each_turned_by_some_caller(self):
        from repro.core.config import BuildConfig
        defaults = {
            f.name: (f"{type(f.default).__name__}.{f.default.name}"
                     if isinstance(f.default, enum.Enum)
                     else repr(f.default))
            for f in dataclasses.fields(BuildConfig)}
        assert len(defaults) == 15
        turned = set()
        root = SRC.parent.parent
        for top in ("tests", "benchmarks", "examples", "perfbench"):
            for path in (root / top).rglob("*.py"):
                for node in ast.walk(ast.parse(path.read_text())):
                    if not isinstance(node, ast.Call):
                        continue
                    name = getattr(node.func, "attr",
                                   getattr(node.func, "id", None))
                    if name in self.PRESETS:
                        turned |= self.PRESETS[name]
                    elif name not in ("BuildConfig", "replace"):
                        continue
                    turned |= {
                        kw.arg for kw in node.keywords
                        if kw.arg in defaults
                        and ast.unparse(kw.value) != defaults[kw.arg]}
        assert turned == set(defaults), \
            f"knobs no caller turns: {sorted(set(defaults) - turned)}"


class TestAmdahlArtifact:
    def test_fixed_cost_energy_preserved(self):
        from repro.analysis.amdahl import fixed_cost_table
        ch3, ch4_same, ch4_scaled = fixed_cost_table()
        # Same device, same P: lower overhead -> lower time & energy.
        assert ch4_same.time_us < ch3.time_us
        assert ch4_same.energy < ch3.energy
        # Fixed-cost operating point: energy matches CH3's, time beats
        # both (the §4.3 claim).
        assert ch4_scaled.energy == pytest.approx(ch3.energy, rel=1e-3)
        assert ch4_scaled.time_us < ch4_same.time_us < ch3.time_us
        assert ch4_scaled.nprocs > ch3.nprocs

    def test_render(self):
        from repro.analysis.amdahl import render_fixed_cost
        text = render_fixed_cost()
        assert "fixed-cost" in text
        assert "equal-energy speedup" in text
