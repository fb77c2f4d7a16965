"""Folding is exact.

``Proc.charge(plan)`` adds the plan's total and counts the replay; the
per-category and per-subsystem counts are folded in when somebody
reads.  Property: under any interleaving of plan replays (one layer's
or a fused call's), stepwise charges, reads and resets, every read
equals what an eager reference — a second rank charged one step at a
time — holds at that moment, and the two virtual clocks are the same
float.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrument.categories import Category, Subsystem
from repro.instrument.counter import InstructionCounter
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


@settings(max_examples=150, deadline=None)
@given(st.lists(plans, min_size=4, max_size=4),
       st.lists(actions, min_size=1, max_size=60))
def test_every_read_equals_the_eager_reference(plan_specs, script):
    world = World(2)
    lazy, eager = world.proc(0), world.proc(1)
    compiled = [_compile(lazy, spec) for spec in plan_specs]
    for action, arg in script:
        if action == "replay":
            plan = compiled[arg]
            lazy.charge(plan)
            for cat, sub, n, _ in plan.steps:
                eager.charge(cat, n, sub)
        elif action == "step":
            cat, sub, n = arg
            lazy.charge(cat, n, sub)
            eager.charge(cat, n, sub)
        elif action == "reset":
            lazy.counter.reset()
            eager.counter.reset()
        got, want = lazy.counter, eager.counter
        assert not want.replays             # the reference never folds
        assert got.total == want.total
        if action == "snapshot":
            assert got.snapshot() == want.snapshot()
        elif action == "categories":
            assert got.by_category == want.by_category
        elif action == "subsystems":
            assert got.by_subsystem == want.by_subsystem
        elif action == "lists":
            assert got.cat_counts == want.cat_counts
            assert got.sub_counts == want.sub_counts
        assert lazy.vclock.now == eager.vclock.now      # the same float
    assert lazy.counter.snapshot() == eager.counter.snapshot()
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
    proc.counter.charge(Category.MANDATORY, 1, Subsystem.DESCRIPTOR)
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
