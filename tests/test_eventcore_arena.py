"""Sweep-wide free-list arena (ISSUE 7 satellite).

One fabric worker (or pool worker) runs many simulators over a sweep,
and per-core free-lists mean every point re-allocates its way up to
``POOL_LIMIT`` pooled Timeout/Event objects from scratch. With the
arena enabled, ``make_core`` moves the previous core's pools into each
new core — so a *warm* point allocates strictly fewer objects than a
*cold* one (the pinned claim), and every donated object is re-bound to
the new simulator (the events layer hard-rejects foreign-sim events).
"""

import pytest

from repro.sim import Simulator
from repro.sim import events as events_module
from repro.sim.eventcore import sweep_arena


@pytest.fixture
def heapq_core(monkeypatch):
    """Pin the pure-python core: its pool mechanics are introspectable
    and identical in shape to the compiled core's."""
    monkeypatch.setenv("REPRO_EVENTCORE", "heapq")


@pytest.fixture
def timeout_allocations(monkeypatch):
    """Counts Timeout.__init__ calls — pool reuse skips the constructor,
    so the count is exactly the number of fresh allocations."""
    counter = {"n": 0}
    original = events_module.Timeout.__init__

    def counting_init(self, *args, **kwargs):
        counter["n"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(events_module.Timeout, "__init__", counting_init)
    return counter


def _fanout_workload(sim, width=100, rounds=5):
    """``width`` concurrent processes, ``rounds`` timeouts each — keeps
    ~``width`` Timeout objects in flight so the pool actually fills."""
    def proc(sim):
        for _ in range(rounds):
            yield sim.timeout(0.001)

    for _ in range(width):
        sim.process(proc(sim))
    sim.run()


def test_arena_disabled_by_default(heapq_core):
    sweep_arena().disable()  # order-robust: some tests enable it
    first = Simulator()
    _fanout_workload(first)
    assert len(first._timeout_pool) > 0  # recycled, but core-private
    second = Simulator()
    assert second._timeout_pool == []  # nothing crossed over


def test_warm_point_allocates_less_than_cold(heapq_core,
                                             timeout_allocations):
    arena = sweep_arena()
    arena.enable()
    try:
        cold_sim = Simulator()
        _fanout_workload(cold_sim)
        cold = timeout_allocations["n"]
        assert cold >= 100  # the fan-out really was allocation-heavy

        timeout_allocations["n"] = 0
        warm_sim = Simulator()
        donated = len(warm_sim._timeout_pool)
        assert donated >= 50, "arena donated too little to matter"
        # The donor's pools were *moved*, not copied: one owner only.
        assert cold_sim._timeout_pool == []
        _fanout_workload(warm_sim)
        warm = timeout_allocations["n"]
        assert warm < cold
        assert warm <= cold - donated + 5  # reuse, not coincidence
    finally:
        arena.disable()


def test_adopted_objects_are_rebound_and_usable(heapq_core):
    arena = sweep_arena()
    arena.enable()
    try:
        donor = Simulator()
        _fanout_workload(donor, width=20, rounds=2)
        receiver = Simulator()
        assert receiver._timeout_pool, "expected donated timeouts"
        assert all(t.sim is receiver for t in receiver._timeout_pool)
        assert all(e.sim is receiver for e in receiver._event_pool)
        # A donated object must actually schedule on the new sim.
        fired = []

        def proc(sim):
            yield sim.timeout(0.5)
            fired.append(sim.now)

        receiver.process(proc(receiver))
        receiver.run()
        assert fired == [0.5]
    finally:
        arena.disable()
