"""Bufcheck rule fixtures: each BC5xx fires as a true positive on a
minimal source file, pragmas suppress, clean buffer handling passes."""

from __future__ import annotations

import textwrap

from repro.audit.callgraph import CodeIndex
from repro.bufcheck.dataflow import (Analyzer, Taint, branch_quals,
                                     name_seeds, scan_tree)
from repro.bufcheck.rules import MARKER, RULES, render_bc_catalog


def _scan(tmp_path, source: str, name: str = "mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    index = CodeIndex.build([str(path)])
    analyzer = Analyzer(index)
    return scan_tree(analyzer)


def _rule_ids(tmp_path, source: str) -> list[str]:
    return [f.rule_id for f in _scan(tmp_path, source)]


class TestBC501RedundantCopy:
    """A second materialization of a payload already copied upstream."""

    def test_double_copy_fires(self, tmp_path):
        src = """\
            def send(sendbuf):
                staged = sendbuf.T.tobytes()
                wire = bytes(staged)
                return wire
            """
        assert "BC501" in _rule_ids(tmp_path, src)

    def test_single_copy_of_strided_data_clean(self, tmp_path):
        src = """\
            def send(sendbuf):
                return sendbuf.T.tobytes()
            """
        assert "BC501" not in _rule_ids(tmp_path, src)

    def test_copy_through_helper_fires(self, tmp_path):
        """The second copy is interprocedural: staged in the caller,
        recopied inside a callee."""
        src = """\
            def frame(data):
                return bytes(data)

            def send(sendbuf):
                staged = sendbuf.T.tobytes()
                return frame(staged)
            """
        assert "BC501" in _rule_ids(tmp_path, src)


class TestDescriptorFlow:
    """Taint flows through an operation descriptor built positionally
    exactly as through one built with keywords (the per-message path
    constructs ``SendOp(buf, count, ...)``)."""

    SRC = """\
        from dataclasses import dataclass

        @dataclass
        class SendOp:
            buf: object
            count: int
            tag: int = 0

        class Message:
            def __init__(self, env, data, arrive_s=0.0):
                self.data = data

        def isend(op):
            return Message(None, op.buf.tobytes())

        def api(sendbuf, count):
            return isend(SendOp(%s))
        """

    def _events(self, tmp_path, ctor_args):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(self.SRC % ctor_args))
        analyzer = Analyzer(CodeIndex.build([str(path)]))
        events = analyzer.run_entry(
            None, "api", {"sendbuf": Taint("src", borrowed=True)})
        return [(e.site, e.kind) for e in events]

    def test_positional_equals_keyword(self, tmp_path):
        by_keyword = self._events(tmp_path, "buf=sendbuf, count=count")
        assert by_keyword == [("mod.py:isend::copy:tobytes", "copy")]
        assert self._events(tmp_path, "sendbuf, count") == by_keyword
        assert self._events(tmp_path, "sendbuf, count=count") == by_keyword

    def test_field_order_is_read_from_the_class(self, tmp_path):
        # The buffer in the count slot reaches no op.buf use.
        assert self._events(tmp_path, "count, sendbuf") == []


class TestReceiveLanding:
    """The receive side is a module-level landing handed to the
    receive descriptor: it is walked where the descriptor is built,
    the descriptor's fields in hand, its message seeded by name."""

    SRC = """\
        class PostedRecv:
            def __init__(self, ctx, request=None, buf=None, land=None):
                self.buf = buf

        def unpack(data, buf):
            buf[0:4] = data

        def land_recv(posted, msg):
            if posted.buf is None:
                posted.request.payload = msg.owned_data()
            else:
                unpack(msg.data, posted.buf)

        def post_recv(engine, recvbuf):
            engine.post(PostedRecv(0, None, recvbuf, %s))
        """

    def _events(self, tmp_path, landing):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(self.SRC % landing))
        analyzer = Analyzer(CodeIndex.build([str(path)]))
        events = analyzer.run_entry(
            None, "post_recv", {"recvbuf": Taint("dest", borrowed=True)})
        return {(e.site, tuple(sorted(e.quals))) for e in events}

    def test_landing_is_walked_through_the_descriptor(self, tmp_path):
        assert self._events(tmp_path, "land_recv") == {
            ("mod.py:unpack::copy:scatter", ("buffer_recv",)),
            ("mod.py:land_recv::transfer:owned_data", ("payload_recv",))}
        assert self._events(tmp_path, "land=land_recv") == \
            self._events(tmp_path, "land_recv")

    def test_no_landing_no_receive_side(self, tmp_path):
        assert self._events(tmp_path, "None") == set()


class TestBC502MutatedBorrow:
    """Stores into a borrowed send buffer the application still owns."""

    def test_subscript_store_fires(self, tmp_path):
        src = """\
            def scramble(sendbuf):
                sendbuf[0] = 0
            """
        assert _rule_ids(tmp_path, src) == ["BC502"]

    def test_store_into_recv_buffer_clean(self, tmp_path):
        """Receive buffers are *meant* to be written."""
        src = """\
            def land(recvbuf, payload):
                recvbuf[0:4] = payload
            """
        assert "BC502" not in _rule_ids(tmp_path, src)


class TestBC503MissingKeepalive:
    """A borrowed view escaping to storage that outlives the call."""

    def test_attribute_store_fires(self, tmp_path):
        src = """\
            class Stash:
                def hold(self, sendbuf):
                    view = memoryview(sendbuf)
                    self.held = view
            """
        assert _rule_ids(tmp_path, src) == ["BC503"]

    def test_container_append_fires(self, tmp_path):
        src = """\
            def enqueue(queue, sendbuf):
                view = memoryview(sendbuf)
                queue.append(view)
            """
        assert _rule_ids(tmp_path, src) == ["BC503"]

    def test_keepalive_attr_is_sanctioned(self, tmp_path):
        """Pinning the view on the owning request IS the fix."""
        src = """\
            class Req:
                def pin(self, sendbuf):
                    view = memoryview(sendbuf)
                    self._keepalive = view
            """
        assert _rule_ids(tmp_path, src) == []

    def test_owned_bytes_store_clean(self, tmp_path):
        src = """\
            class Stash:
                def hold(self, sendbuf):
                    self.held = sendbuf.T.tobytes()
            """
        assert "BC503" not in _rule_ids(tmp_path, src)


class TestBC504NeedlessMaterialization:
    """bytes()/tobytes() where the data is already contiguous."""

    def test_tobytes_of_contiguous_send_buffer_fires(self, tmp_path):
        src = """\
            def send(sendbuf):
                return sendbuf.tobytes()
            """
        assert _rule_ids(tmp_path, src) == ["BC504"]

    def test_bytes_of_dense_payload_fires(self, tmp_path):
        src = """\
            def forward(data):
                return bytes(data)
            """
        assert _rule_ids(tmp_path, src) == ["BC504"]

    def test_view_instead_is_clean(self, tmp_path):
        src = """\
            def send(sendbuf):
                return memoryview(sendbuf)
            """
        assert _rule_ids(tmp_path, src) == []

    def test_copy_mode_branch_exempt(self, tmp_path):
        """The legacy always-copy branch copies by design."""
        src = """\
            def pack(sendbuf, copy):
                if copy:
                    return sendbuf.tobytes()
                return memoryview(sendbuf)
            """
        assert _rule_ids(tmp_path, src) == []

    def test_strided_fallthrough_exempt(self, tmp_path):
        """Early-return contig fast path: the fall-through gather copy
        is on the strided branch, not a needless materialization."""
        src = """\
            def pack(sendbuf, datatype):
                if datatype.contig:
                    return memoryview(sendbuf)
                return sendbuf.tobytes()
            """
        assert _rule_ids(tmp_path, src) == []


class TestScheduleFlow:
    """Collectives are generator schedules run by a driver: the rules
    still see inside a schedule, and what a schedule returns reaches
    the driver's caller."""

    SCHEDULE = """\
        def ring_steps(comm, payload):
            staged = payload.tobytes()
            yield comm.isend(staged)
            return staged

        def run_schedule(comm, steps):
            try:
                req = next(steps)
                while True:
                    req = steps.send(req.wait())
            except StopIteration as stop:
                return stop.value
        """

    def test_rules_fire_inside_a_schedule_and_past_its_driver(self,
                                                              tmp_path):
        """BC504 on the needless ``tobytes()`` inside the schedule;
        BC501 on the caller's second copy of what it returned — only
        seen because ``run_schedule(x)`` returns what ``x`` returns."""
        src = self.SCHEDULE + """\

        def send(comm, sendbuf):
            out = run_schedule(comm, ring_steps(comm, sendbuf))
            return bytes(out)
        """
        assert sorted(set(_rule_ids(tmp_path, src))) == ["BC501", "BC504"]

    def test_schedule_reached_through_a_dispatch_table(self, tmp_path):
        """``TABLE[name](...)`` descends into every function the
        module-level table holds."""
        src = self.SCHEDULE + """\

        ALGORITHMS = {"ring": ring_steps, "none": None}

        def send(comm, sendbuf, algorithm):
            out = run_schedule(comm, ALGORITHMS[algorithm](comm, sendbuf))
            return bytes(out)
        """
        assert sorted(set(_rule_ids(tmp_path, src))) == ["BC501", "BC504"]


class TestBC505AliasedBuffers:
    """The same buffer in both slots of a two-buffer API."""

    def test_sendrecv_same_name_fires(self, tmp_path):
        src = """\
            def relay(comm, buf):
                comm.Sendrecv(buf, 1, 0, buf, 1, 0)
            """
        assert "BC505" in _rule_ids(tmp_path, src)

    def test_distinct_buffers_clean(self, tmp_path):
        src = """\
            def relay(comm, sendbuf, recvbuf):
                comm.Sendrecv(sendbuf, 1, 0, recvbuf, 1, 0)
            """
        assert "BC505" not in _rule_ids(tmp_path, src)


class TestPragmas:
    """``# bufcheck: ignore[BCxxx]`` suppresses exactly that line."""

    def test_pragma_suppresses(self, tmp_path):
        src = """\
            def send(sendbuf):
                return sendbuf.tobytes()  # bufcheck: ignore[BC504]
            """
        assert _rule_ids(tmp_path, src) == []

    def test_bare_pragma_suppresses_all_rules(self, tmp_path):
        src = """\
            def scramble(sendbuf):
                sendbuf[0] = 0  # bufcheck: ignore
            """
        assert _rule_ids(tmp_path, src) == []

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        src = """\
            def send(sendbuf):
                return sendbuf.tobytes()  # bufcheck: ignore[BC501]
            """
        assert _rule_ids(tmp_path, src) == ["BC504"]


class TestDataflowInternals:
    """The pieces the rules sit on."""

    def test_branch_quals_contig(self):
        import ast
        test = ast.parse("dt.contig", mode="eval").body
        body, orelse = branch_quals(test)
        assert body == frozenset() and orelse == {"strided"}

    def test_branch_quals_copy_flag(self):
        import ast
        test = ast.parse("copy", mode="eval").body
        assert branch_quals(test) == ({"copy_mode"}, {"view_mode"})

    def test_branch_quals_bufferless_receive(self):
        """``buf is None`` — a local or a descriptor field."""
        import ast
        for text in ("buf is None", "posted.buf is None"):
            test = ast.parse(text, mode="eval").body
            assert branch_quals(test) == ({"payload_recv"}, {"buffer_recv"})

    def test_branch_quals_negation_swaps(self):
        import ast
        test = ast.parse("not dt.contig", mode="eval").body
        body, orelse = branch_quals(test)
        assert body == {"strided"} and orelse == frozenset()

    def test_name_seeds_by_convention(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("def f(sendbuf, recvbuf, data, buf, n):\n"
                        "    pass\n")
        index = CodeIndex.build([str(path)])
        func = next(iter(index.functions.values()))
        seeds = name_seeds(func)
        assert seeds["sendbuf"] == Taint("src", borrowed=True)
        assert seeds["recvbuf"] == Taint("dest", borrowed=True)
        assert seeds["data"] == Taint("src", dense=True)
        assert seeds["buf"] == Taint("inout", borrowed=True)
        assert "n" not in seeds

    def test_catalog_lists_every_rule(self):
        catalog = render_bc_catalog()
        for rule_id in RULES:
            assert rule_id in catalog
        assert MARKER == "# bufcheck: ignore"
