"""Folding is exact.

``Proc.charge(plan)`` adds the plan's total and counts the replay; the
per-category and per-subsystem counts are folded in when somebody
reads.  Property: under any interleaving of plan replays (one layer's,
a fused call's, or a single step's), reads and resets, every read
equals what an eager reference — a test-side tally charged one step at
a time, advancing its own clock by each step's
``cycles_to_seconds(sw_cycles(n))`` — holds at that moment, and the
two virtual clocks are the same float.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrument.categories import Category, Subsystem
from repro.instrument.counter import InstructionCounter, Snapshot
from repro.instrument.plan import ChargePlan, fuse
from repro.runtime.world import World

CATEGORIES = list(Category)
SUBSYSTEMS = [None, *Subsystem]

steps = st.tuples(st.sampled_from(CATEGORIES), st.sampled_from(SUBSYSTEMS),
                  st.integers(0, 300))
layers = st.lists(steps, min_size=0, max_size=6)
#: A plan is one layer's steps, or up to three layers fused.
plans = st.lists(layers, min_size=1, max_size=3)
actions = st.one_of(
    st.tuples(st.just("replay"), st.integers(0, 3)),
    st.tuples(st.just("step"), steps),
    st.tuples(st.sampled_from(["snapshot", "categories", "subsystems",
                               "lists", "reset"]), st.none()))


def _compile(proc, layer_steps):
    """The ChargePlan ``Proc.plan`` would record for these steps."""
    fabric = proc.net_fabric
    layers = [ChargePlan([(cat, sub, n,
                           fabric.cycles_to_seconds(fabric.sw_cycles(n)))
                          for cat, sub, n in layer])
              for layer in layer_steps]
    return layers[0] if len(layers) == 1 else fuse(*layers)


class _Eager:
    """The reference: every step charged at once, one at a time, into
    its own books and its own clock — no plan involved."""

    def __init__(self, fabric, now):
        self.fabric, self.now = fabric, now
        self.reset()

    def charge(self, category, subsystem, n):
        self.total += n
        self.cat_counts[category.index] += n
        if subsystem is not None:
            self.sub_counts[subsystem.index] += n
        self.now += self.fabric.cycles_to_seconds(self.fabric.sw_cycles(n))

    def reset(self):
        self.total = 0
        self.cat_counts = [0] * len(Category)
        self.sub_counts = [0] * len(Subsystem)

    def snapshot(self):
        return Snapshot(total=self.total,
                        by_category=dict(zip(Category, self.cat_counts)),
                        by_subsystem=dict(zip(Subsystem, self.sub_counts)))


@settings(max_examples=150, deadline=None)
@given(st.lists(plans, min_size=4, max_size=4),
       st.lists(actions, min_size=1, max_size=60))
def test_every_read_equals_the_eager_reference(plan_specs, script):
    lazy = World(1).proc(0)
    eager = _Eager(lazy.net_fabric, lazy.vclock.now)
    compiled = [_compile(lazy, spec) for spec in plan_specs]
    for action, arg in script:
        if action == "replay":
            plan = compiled[arg]
            lazy.charge(plan)
            for spec in plan_specs[arg]:
                for cat, sub, n in spec:
                    eager.charge(cat, sub, n)
        elif action == "step":
            cat, sub, n = arg
            lazy.charge(_compile(lazy, [[arg]]))
            eager.charge(cat, sub, n)
        elif action == "reset":
            lazy.counter.reset()
            eager.reset()
        got = lazy.counter
        assert got.total == eager.total
        if action == "snapshot":
            assert got.snapshot() == eager.snapshot()
        elif action == "categories":
            assert got.by_category == eager.snapshot().by_category
        elif action == "subsystems":
            assert got.by_subsystem == eager.snapshot().by_subsystem
        elif action == "lists":
            assert got.cat_counts == eager.cat_counts
            assert got.sub_counts == eager.sub_counts
        assert lazy.vclock.now == eager.now      # the same float
    assert lazy.counter.snapshot() == eager.snapshot()
    assert sum(lazy.counter.cat_counts) == lazy.counter.total


def test_reads_do_not_consume_the_pending_replays():
    """A read is pure: two reads agree, and a charge between them is
    seen by the second (nothing was folded away or double counted)."""
    proc = World(1).proc(0)
    plan = _compile(proc, [[(Category.MANDATORY, Subsystem.DESCRIPTOR, 7),
                            (Category.ERROR_CHECKING, None, 5)]])
    proc.charge(plan)
    first = proc.counter.snapshot()
    assert proc.counter.snapshot() == first
    assert first.by_category[Category.MANDATORY] == 7
    assert first.by_subsystem[Subsystem.DESCRIPTOR] == 7
    proc.charge(plan)
    proc.charge(_compile(proc, [[(Category.MANDATORY, Subsystem.DESCRIPTOR,
                                  1)]]))
    second = proc.counter.snapshot()
    assert second.total == 25
    assert second.by_category[Category.MANDATORY] == 15
    assert second.by_category[Category.ERROR_CHECKING] == 10
    assert first.delta(second).by_subsystem[Subsystem.DESCRIPTOR] == 8


def test_reset_drops_pending_replays():
    counter = InstructionCounter()
    plan = ChargePlan([(Category.MANDATORY, None, 3, 0.0)])
    counter.total += plan.total
    counter.replays[plan] = 4
    assert counter.by_category[Category.MANDATORY] == 12
    counter.reset()
    assert counter.total == 0 and not counter.replays
    assert not any(counter.cat_counts) and not any(counter.sub_counts)


def test_pending_replays_do_not_grow_with_communicators():
    """Every ``world.run`` hands each rank a fresh communicator (and a
    ``dup`` makes more): their call sites must replay the *same* fused
    plans, cached on the rank, or the table of pending replays — which
    holds its plans until the next reset — grows without bound."""
    import numpy as np
    world = World(2)

    def main(comm):
        peer = 1 - comm.rank
        for handle in (comm, comm.dup()):
            got = np.zeros(1)
            rreq = handle.Irecv(got, peer, 3)
            handle.Send(np.ones(1), peer, 3)
            rreq.wait()
            comm.proc.request_pool.release(rreq)
        return len(comm.proc.counter.replays)

    sizes = [world.run(main, timeout=60) for _ in range(6)]
    assert sizes[1:] == sizes[:1] * 5 and 0 < sizes[0][0] <= 8


def test_raising_calls_leave_the_pending_replays_alone():
    """A call that raises in the device charges the prefix it reached,
    recorded on each call: its plan is interned by step sequence, so
    1 000 such calls over 50 communicators leave the table of pending
    replays where the first one left it."""
    import numpy as np

    from repro.consts import PROC_NULL
    from repro.core import extensions as ext
    from repro.core.config import named_builds
    from repro.errors import MPIErrArg, MPIErrRank
    from repro.mpi.comm import Communicator

    buf = np.zeros(1, np.uint8)
    calls = (
        (MPIErrRank, lambda c: c.isend_npn(buf, PROC_NULL)),
        (MPIErrArg, lambda c: c._buffer_send(buf, 0, 0, sync=True,
                                              flags=ext.NOREQ)),
        (MPIErrRank, lambda c: c._buffer_recv(buf, PROC_NULL, 0,
                                              flags=ext.NO_PROC_NULL)))
    builds = named_builds()
    # Unchecked, a peer outside the communicator raises translating it.
    for config, kinds in ((builds["mpich/ch4 (default)"], calls),
                          (builds["mpich/ch4 (no-err)"], calls[1:2] + (
                              (MPIErrRank, lambda c: c.Isend(buf, 5)),))):
        proc = World(1, config).proc(0)
        world = Communicator.world_view(proc)
        comms = [world] + [world.dup() for _ in range(49)]
        for error, call in kinds:       # the first call of each kind
            with pytest.raises(error):
                call(world)
        first = len(proc.counter.replays)
        for i in range(1000):
            error, call = kinds[i % len(kinds)]
            with pytest.raises(error):
                call(comms[i % len(comms)])
            assert len(proc.counter.replays) == first
