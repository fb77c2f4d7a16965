"""Audit rule fixtures: purity, lockset, FP104, the hook seam
(FP308), pragmas, call graph."""

from __future__ import annotations

import textwrap

from repro.audit.callgraph import CodeIndex
from repro.audit.lockset import scan_lockset
from repro.audit.provenance import (_observable_work, _subtree_charges,
                                    _tight_callees)
from repro.audit.hookseam import HOOK_ATTRS, OWNERS, scan_hookseam
from repro.audit.purity import scan_purity
from repro.audit.rules import FP_RULES, render_fp_catalog


def _index(tmp_path, source: str, name: str = "mod.py") -> CodeIndex:
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return CodeIndex.build([str(path)])


def _purity_ids(tmp_path, source: str) -> list[str]:
    return [f.rule_id for f in scan_purity(_index(tmp_path, source))]


FASTPATH_STUB = """\
    def fastpath(func):
        return func

"""


class TestPurityFixtures:
    """FP201-FP205 each fire on a minimal @fastpath fixture."""

    def test_fp201_list_display(self, tmp_path):
        src = FASTPATH_STUB + (
            "    @fastpath\n"
            "    def f(xs):\n"
            "        out = []\n"
            "        return out\n")
        assert _purity_ids(tmp_path, src) == ["FP201"]

    def test_fp201_builtin_ctor_and_comprehension(self, tmp_path):
        src = FASTPATH_STUB + (
            "    @fastpath\n"
            "    def f(xs):\n"
            "        a = dict()\n"
            "        return [x for x in xs], a\n")
        assert _purity_ids(tmp_path, src) == ["FP201", "FP201"]

    def test_fp201_generator_expression_allowed(self, tmp_path):
        src = FASTPATH_STUB + (
            "    @fastpath\n"
            "    def f(xs):\n"
            "        return sum(x for x in xs)\n")
        assert _purity_ids(tmp_path, src) == []

    def test_fp202_chain_lookup_in_loop(self, tmp_path):
        src = FASTPATH_STUB + (
            "    @fastpath\n"
            "    def f(self, items):\n"
            "        for x in items:\n"
            "            self.table.slot.use(x)\n")
        assert _purity_ids(tmp_path, src) == ["FP202"]

    def test_fp202_hoisted_lookup_clean(self, tmp_path):
        src = FASTPATH_STUB + (
            "    @fastpath\n"
            "    def f(self, items):\n"
            "        use = self.table.use\n"
            "        for x in items:\n"
            "            use(x)\n")
        assert _purity_ids(tmp_path, src) == []

    def test_fp203_with_lock(self, tmp_path):
        src = FASTPATH_STUB + (
            "    @fastpath\n"
            "    def f(self):\n"
            "        with self._lock:\n"
            "            return self.state\n")
        assert _purity_ids(tmp_path, src) == ["FP203"]

    def test_fp204_try(self, tmp_path):
        src = FASTPATH_STUB + (
            "    @fastpath\n"
            "    def f(self):\n"
            "        try:\n"
            "            return self.state\n"
            "        finally:\n"
            "            pass\n")
        assert _purity_ids(tmp_path, src) == ["FP204"]

    def test_fp205_print_and_logger(self, tmp_path):
        src = FASTPATH_STUB + (
            "    @fastpath\n"
            "    def f(self, logger):\n"
            "        print(self.state)\n"
            "        logger.debug('x')\n")
        assert _purity_ids(tmp_path, src) == ["FP205", "FP205"]

    def test_unmarked_function_not_scanned(self, tmp_path):
        src = (
            "    def f(self):\n"
            "        with self._lock:\n"
            "            return []\n")
        assert _purity_ids(tmp_path, textwrap.dedent(src)) == []

    def test_nested_def_body_excluded(self, tmp_path):
        # Regression: a closure's try/alloc runs off the audited path —
        # walk_body must not descend into nested definitions.
        src = FASTPATH_STUB + (
            "    @fastpath\n"
            "    def f(self, request):\n"
            "        def on_match(msg):\n"
            "            try:\n"
            "                return [msg]\n"
            "            finally:\n"
            "                pass\n"
            "        return on_match\n")
        assert _purity_ids(tmp_path, src) == []

    def test_pragma_suppresses(self, tmp_path):
        src = FASTPATH_STUB + (
            "    @fastpath\n"
            "    def f(self):\n"
            "        with self._lock:  # audit: allow[FP203] - modeled CS\n"
            "            return self.state\n")
        assert _purity_ids(tmp_path, src) == []

    def test_pragma_is_rule_specific(self, tmp_path):
        src = FASTPATH_STUB + (
            "    @fastpath\n"
            "    def f(self):\n"
            "        with self._lock:  # audit: allow[FP204]\n"
            "            return self.state\n")
        assert _purity_ids(tmp_path, src) == ["FP203"]


class TestLocksetFixtures:
    """FP301/FP302 on minimal runtime-class fixtures."""

    def _lockset_ids(self, tmp_path, source: str) -> list[str]:
        index = _index(tmp_path, source)
        return [f.rule_id for f in scan_lockset(index, path_filter="")]

    def test_fp301_bare_write_flagged(self, tmp_path):
        src = """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def bump(self):
                    with self._lock:
                        self.value += 1

                def reset(self):
                    self.value = 0
        """
        assert self._lockset_ids(tmp_path, src) == ["FP301"]

    def test_fp301_clean_when_consistent(self, tmp_path):
        src = """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def bump(self):
                    with self._lock:
                        self.value += 1

                def reset(self):
                    with self._lock:
                        self.value = 0
        """
        assert self._lockset_ids(tmp_path, src) == []

    def test_fp301_single_owner_state_ignored(self, tmp_path):
        src = """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def reset(self):
                    self.value = 0
        """
        assert self._lockset_ids(tmp_path, src) == []

    def test_fp301_helper_inherits_caller_lockset(self, tmp_path):
        # _apply is only ever called with the lock held, so its write
        # counts as guarded — no finding.
        src = """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def bump(self):
                    with self._lock:
                        self._apply()

                def set(self):
                    with self._lock:
                        self.value = 9

                def _apply(self):
                    self.value += 1
        """
        assert self._lockset_ids(tmp_path, src) == []

    def test_fp302_lock_order_cycle(self, tmp_path):
        src = """\
            import threading

            class Pair:
                def __init__(self):
                    self.a = threading.Lock()
                    self.b = threading.Lock()

                def forward(self):
                    with self.a:
                        with self.b:
                            pass

                def backward(self):
                    with self.b:
                        with self.a:
                            pass
        """
        assert "FP302" in self._lockset_ids(tmp_path, src)

    def test_fp302_consistent_order_clean(self, tmp_path):
        src = """\
            import threading

            class Pair:
                def __init__(self):
                    self.a = threading.Lock()
                    self.b = threading.Lock()

                def one(self):
                    with self.a:
                        with self.b:
                            pass

                def two(self):
                    with self.a:
                        with self.b:
                            pass
        """
        assert self._lockset_ids(tmp_path, src) == []


class TestFP303VCINesting:
    """FP303: at most one VCI-family (``<base>.lock``) lock at a time."""

    def _ids(self, tmp_path, source: str) -> list[str]:
        index = _index(tmp_path, source)
        return [f.rule_id for f in scan_lockset(index, path_filter="")]

    def test_nested_different_bases_flagged(self, tmp_path):
        src = """\
            class Engine:
                def cross(self):
                    with self.vcis[0].lock:
                        with self.vcis[1].lock:
                            pass
        """
        assert self._ids(tmp_path, src) == ["FP303"]

    def test_same_base_reentrant_clean(self, tmp_path):
        src = """\
            class Engine:
                def reenter(self):
                    with self.vci.lock:
                        with self.vci.lock:
                            pass
        """
        assert self._ids(tmp_path, src) == []

    def test_non_family_inner_lock_clean(self, tmp_path):
        # The wildcard registry lock is outside the family by naming
        # convention; shard-then-registry nesting is the documented
        # discipline.
        src = """\
            class Engine:
                def discipline(self):
                    with self.vcis[0].lock:
                        with self._wild_lock:
                            pass
        """
        assert self._ids(tmp_path, src) == []

    def test_interprocedural_call_flagged(self, tmp_path):
        src = """\
            class Engine:
                def note(self):
                    with self.lock:
                        pass

                def outer(self):
                    with self.vci.lock:
                        self.note()
        """
        assert self._ids(tmp_path, src) == ["FP303"]

    def test_call_without_held_lock_clean(self, tmp_path):
        src = """\
            class Engine:
                def note(self):
                    with self.lock:
                        pass

                def outer(self):
                    self.note()
        """
        assert self._ids(tmp_path, src) == []

    def test_pragma_suppresses(self, tmp_path):
        src = """\
            class Engine:
                def cross(self):
                    with self.vcis[0].lock:
                        with self.vcis[1].lock:  # audit: allow[FP303]
                            pass
        """
        assert self._ids(tmp_path, src) == []


class TestFP104Subtree:
    """The uncharged-work check uses tight call edges."""

    def test_work_without_charge_detected(self, tmp_path):
        src = """\
            def fastpath(func):
                return func

            class Dev:
                @fastpath
                def null_send(self, op):
                    request = self.pool.acquire('send')
                    request.complete(0.0)
                    return request
        """
        index = _index(tmp_path, src)
        func = index.find_method("Dev", "null_send")
        assert _observable_work(index, func) == {"acquire", "complete"}
        assert not _subtree_charges(index, func)

    def test_direct_charge_satisfies(self, tmp_path):
        src = """\
            def fastpath(func):
                return func

            class Dev:
                @fastpath
                def null_send(self, op):
                    self.proc.charge('mand', 2)
                    request = self.pool.acquire('send')
                    request.complete(0.0)
                    return request
        """
        index = _index(tmp_path, src)
        func = index.find_method("Dev", "null_send")
        assert _subtree_charges(index, func)

    def test_family_helper_charge_satisfies(self, tmp_path):
        src = """\
            def fastpath(func):
                return func

            class Dev:
                @fastpath
                def issue(self, op):
                    self._charge_it()
                    return self.pool.acquire('send')

                def _charge_it(self):
                    self.proc.charge('mand', 2)
        """
        index = _index(tmp_path, src)
        func = index.find_method("Dev", "issue")
        assert _subtree_charges(index, func)

    def test_duck_typed_call_does_not_satisfy(self, tmp_path):
        # Some *other* class's complete() charges, but a tight walk must
        # not follow the duck-typed request.complete() edge.
        src = """\
            def fastpath(func):
                return func

            class Other:
                def complete(self):
                    self.proc.charge('mand', 1)

            class Dev:
                @fastpath
                def issue(self, request):
                    request.complete()
        """
        index = _index(tmp_path, src)
        func = index.find_method("Dev", "issue")
        assert not _subtree_charges(index, func)

    def test_tight_callees_keep_plain_names(self, tmp_path):
        import ast
        src = """\
            def helper():
                pass

            class Dev:
                def issue(self):
                    helper()
        """
        index = _index(tmp_path, src)
        func = index.find_method("Dev", "issue")
        call = next(n for n in ast.walk(func.node)
                    if isinstance(n, ast.Call))
        assert [f.name for f in _tight_callees(index, call.func, func)] \
            == ["helper"]


class TestCallGraph:
    """CodeIndex structure and resolution."""

    def test_self_call_prefers_class_family(self, tmp_path):
        import ast
        src = """\
            class Base:
                def step(self):
                    pass

            class Derived(Base):
                def run(self):
                    self.step()

            class Unrelated:
                def step(self):
                    pass
        """
        index = _index(tmp_path, src)
        run = index.find_method("Derived", "run")
        call = next(n for n in ast.walk(run.node)
                    if isinstance(n, ast.Call))
        resolved = index.resolve_call(call.func, run)
        assert [f.cls for f in resolved] == ["Base"]

    def test_class_call_resolves_to_init_and_context_pair(self, tmp_path):
        """``with Entry(proc, plan):`` runs ``__init__``, ``__enter__``
        and ``__exit__`` — the shape of the MPI entry object."""
        import ast
        src = """\
            class Entry:
                def __init__(self, proc, plan):
                    self.proc = proc

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    return False

                def other(self):
                    pass

            def Entry_like():
                pass

            def api(proc, plan):
                with Entry(proc, plan):
                    pass
        """
        index = _index(tmp_path, src)
        api = next(f for f in index.by_name["api"])
        call = next(n for n in ast.walk(api.node)
                    if isinstance(n, ast.Call))
        assert [f.short for f in index.resolve_call(call.func, api)] == [
            "Entry.__init__", "Entry.__enter__", "Entry.__exit__"]

    def test_entry_object_and_call_plans_are_on_the_audited_path(self):
        """From ``Communicator.Isend`` the walk reaches the entry
        object and every function that compiles a layer of the call
        plan, so the charges a fused plan replays are the charge sites
        FP101-FP103 audit."""
        import pathlib
        from repro.audit.manifest import default_manifest
        from repro.audit.provenance import ProvenanceAnalyzer
        root = pathlib.Path(__file__).resolve().parent.parent
        index = CodeIndex.build([str(root / "src" / "repro")])
        analyzer = ProvenanceAnalyzer(index, default_manifest())
        for cls, method, wanted in (
                ("Communicator", "Isend",
                 {"isend_function_call", "isend_thread_check",
                  "isend_error.rank_range",
                  "isend_mandatory.rank_translation"}),
                ("Window", "put",
                 {"put_function_call", "put_thread_check",
                  "put_error.rank_range", "put_mandatory.vm_addressing"})):
            result = analyzer.analyze(index.find_method(cls, method))
            reached = {q.split(":", 1)[1] for q in result.reachable}
            assert {"mpi_entry.__init__", "mpi_entry.__enter__",
                    "mpi_entry.__exit__", "entry_plan", "call_plan",
                    "_charge_entry", "charge_arg_checks"} <= reached
            assert wanted <= set(result.reachable_keys())
            assert all(site.keys and site.category_ok
                       for site in result.sites)

    def test_class_family_is_transitive(self, tmp_path):
        src = """\
            class A:
                pass

            class B(A):
                pass

            class C(B):
                pass
        """
        index = _index(tmp_path, src)
        assert index.class_family("B") == frozenset({"A", "B", "C"})

    def test_qualname_is_tree_relative(self, tmp_path):
        pkg = tmp_path / "repro" / "sub"
        pkg.mkdir(parents=True)
        (pkg / "m.py").write_text("class K:\n    def f(self):\n        pass\n")
        index = CodeIndex.build([str(tmp_path)])
        func = index.find_method("K", "f")
        assert func.qualname == "repro/sub/m.py:K.f"

    def test_syntax_error_files_skipped(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        (tmp_path / "good.py").write_text("def ok():\n    pass\n")
        index = CodeIndex.build([str(tmp_path)])
        assert len(index.modules) == 1


def _seam_ids(tmp_path, source: str) -> list[str]:
    """FP308 rule ids on a bare fixture file."""
    return [f.rule_id for f in scan_hookseam(_index(tmp_path, source),
                                             path_filter="")]


def _tree_reads(*attrs: str) -> list:
    """FP308 findings on the shipped tree that read one of *attrs*."""
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent
    index = CodeIndex.build([str(root / "src" / "repro")])
    return [f for f in scan_hookseam(index)
            if any(f"reads .{a} " in f.message for a in attrs)]


class TestFTGuardFixtures:
    """FP308 on the fault layer's attributes: outside ``repro/ft/``
    the runtime fires seam events, never reads ``.faults``/``.ft``."""

    def test_unguarded_hook_flagged(self, tmp_path):
        src = """\
            def hook(proc):
                proc.faults.check_self()
        """
        assert _seam_ids(tmp_path, src) == ["FP308"]

    def test_guarded_hook_clean(self, tmp_path):
        """The seam's guard is the one a call site writes."""
        src = """\
            def hook(proc, dest, msg):
                hooks = proc.hooks
                if hooks is not None and hooks.deliver is not None:
                    hooks.deliver(dest, msg)
        """
        assert _seam_ids(tmp_path, src) == []

    def test_alias_early_exit_clean(self, tmp_path):
        src = """\
            def hook(proc, op):
                hooks = proc.hooks
                if hooks is None or hooks.comm_check is None:
                    return issue(op)
                hooks.comm_check(op.comm)
                return issue(op)
        """
        assert _seam_ids(tmp_path, src) == []

    def test_store_only_clean(self, tmp_path):
        src = """\
            def bind(proc, view):
                proc.faults = view
        """
        assert _seam_ids(tmp_path, src) == []

    def test_pragma_suppresses(self, tmp_path):
        src = """\
            def hook(proc):
                proc.faults.drain()  # audit: allow[FP308]
        """
        assert _seam_ids(tmp_path, src) == []

    def test_repro_tree_has_no_unguarded_hooks(self):
        assert _tree_reads("faults", "ft") == []


class TestProgressGuardFixtures:
    """FP308 on the progress engine: a guarded read is still a read —
    the engine is reached through the seam's progress events."""

    def test_unguarded_hook_flagged(self, tmp_path):
        src = """\
            def hook(proc, vci, transport, request, when):
                proc.progress.park_completion(vci, transport, request, when)
        """
        assert _seam_ids(tmp_path, src) == ["FP308"]

    def test_guarded_hook_clean(self, tmp_path):
        src = """\
            def hook(proc, vci, transport, request, when):
                hooks = proc.hooks
                if hooks is not None:
                    hooks.park_rendezvous(vci, transport, request, when)
        """
        assert _seam_ids(tmp_path, src) == []

    def test_alias_early_exit_clean(self, tmp_path):
        src = """\
            def hook(request, fn):
                hooks = request._hooks
                if hooks is None:
                    return request.subscribe(fn)
                request.subscribe(hooks.on_complete(request, fn))
        """
        assert _seam_ids(tmp_path, src) == []

    def test_store_only_clean(self, tmp_path):
        src = """\
            def bind(proc, view):
                proc.progress = view
        """
        assert _seam_ids(tmp_path, src) == []

    def test_pragma_suppresses(self, tmp_path):
        src = """\
            def hook(proc):
                if proc.progress is not None:  # audit: allow[FP308]
                    pass
        """
        assert _seam_ids(tmp_path, src) == []

    def test_repro_tree_has_no_unguarded_hooks(self):
        assert _tree_reads("progress") == []


class TestTsanGuardFixtures:
    """FP308 on the race detector: locks come from the seam's factory,
    annotations test the structure's race key."""

    def test_unguarded_hook_flagged(self, tmp_path):
        src = """\
            def hook(proc, key):
                if proc.tsan is not None:
                    proc.tsan.note_access(key)
        """
        assert _seam_ids(tmp_path, src) == ["FP308", "FP308"]

    def test_guarded_hook_clean(self, tmp_path):
        src = """\
            def hook(self):
                if self._race_key is not None:
                    self._hooks.access(self._race_key, True, "state")
        """
        assert _seam_ids(tmp_path, src) == []

    def test_alias_early_exit_clean(self, tmp_path):
        src = """\
            def build(hooks, rank):
                return make_lock(hooks, "engine", f"mq{rank}")
        """
        assert _seam_ids(tmp_path, src) == []

    def test_store_only_clean(self, tmp_path):
        src = """\
            def bind(proc, view):
                proc.tsan = view
        """
        assert _seam_ids(tmp_path, src) == []

    def test_pragma_suppresses(self, tmp_path):
        src = """\
            def hook(proc):
                proc.tsan.check_continuation("x")  # audit: allow[FP308]
        """
        assert _seam_ids(tmp_path, src) == []

    def test_repro_tree_has_no_unguarded_hooks(self):
        assert _tree_reads("tsan") == []


class TestDetectorGuardFixtures:
    """FP308 on the failure detector: blocked waits announce themselves
    to the seam, which parks the rank."""

    def test_unguarded_hook_flagged(self, tmp_path):
        src = """\
            def hook(proc):
                proc.detector.beat()
        """
        assert _seam_ids(tmp_path, src) == ["FP308"]

    def test_guarded_hook_clean(self, tmp_path):
        src = """\
            def hook(proc, comm, source, tag):
                with blocked_wait(proc.hooks, "probe",
                                  probe=(comm, source, tag, None)):
                    return proc.engine.probe(comm.ctx, source, tag)
        """
        assert _seam_ids(tmp_path, src) == []

    def test_alias_early_exit_clean(self, tmp_path):
        src = """\
            def hook(proc):
                hooks = proc.hooks
                if hooks is None:
                    return
                hooks.monitor()
        """
        assert _seam_ids(tmp_path, src) == []

    def test_store_only_clean(self, tmp_path):
        src = """\
            def bind(proc, view):
                proc.detector = view
        """
        assert _seam_ids(tmp_path, src) == []

    def test_pragma_suppresses(self, tmp_path):
        src = """\
            def hook(proc):
                proc.detector.enter_wait()  # audit: allow[FP308]
        """
        assert _seam_ids(tmp_path, src) == []

    def test_repro_tree_has_no_unguarded_hooks(self):
        assert _tree_reads("detector") == []


class TestHookSeamRule:
    """The one rule that replaced the four per-subsystem guard rules."""

    def test_owners_and_constructors_are_exempt(self, tmp_path):
        """A subsystem's own package, the seam and the two
        constructors read the attributes; a sibling module may not."""
        pkg = tmp_path / "repro"
        for rel, body in {
                "ft/reliability.py": "def f(p):\n    return p.faults\n",
                "runtime/hooks.py": "def f(w):\n    return w.tsan\n",
                "runtime/world.py": ("class World:\n    def __init__(s):\n"
                                     "        s.config.detector\n"
                                     "    def run(s):\n"
                                     "        s.sanitizer\n"),
                "mpi/comm.py": "def f(p):\n    return p.timeline\n"}.items():
            path = pkg / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(body)
        index = CodeIndex.build([str(pkg)])
        got = sorted((f.path.rsplit("repro/", 1)[1], f.line)
                     for f in scan_hookseam(index))
        assert got == [("mpi/comm.py", 2), ("runtime/world.py", 5)]

    def test_one_rule_replaces_the_four_guard_rules(self):
        assert "FP308" in FP_RULES
        assert not {"FP304", "FP305", "FP306", "FP307"} & set(FP_RULES)

    def test_every_hook_attribute_is_in_the_catalog(self):
        for attr in HOOK_ATTRS:
            assert f".{attr}" in FP_RULES["FP308"].title
        for owner in OWNERS:
            if owner.endswith("/"):
                assert owner in FP_RULES["FP308"].title

    def test_whole_tree_is_clean(self):
        assert _tree_reads(*HOOK_ATTRS) == []


class TestRuleCatalog:
    """The FP rule table is complete and renderable."""

    def test_all_rule_families_present(self):
        ids = set(FP_RULES)
        assert {"FP101", "FP102", "FP103", "FP104"} <= ids
        assert {"FP201", "FP202", "FP203", "FP204", "FP205"} <= ids
        assert {"FP301", "FP302", "FP303", "FP308"} <= ids

    def test_catalog_renders_every_rule(self):
        text = render_fp_catalog()
        for rule_id in FP_RULES:
            assert rule_id in text
