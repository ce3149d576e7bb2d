"""Fig 2's kernel event stream, pinned on every available event core.

The host read path (buffer cache, block layer, I/O schedulers, the xdd
readers) is optimised under one invariant: the simulator sees exactly
the same pushes as before, in the same order. This pins three cheap
SMOKE points of Figure 2 — 16 readers under each scheduler — on their
throughput and on the kernel's total push count (``sim._core.sequence``),
so a change to the number of events or processes per read fails here on
every backend, including a toolchain-less install on the heapq core.
"""

import pytest

from repro.experiments import fig02_schedulers
from repro.experiments.base import SMOKE
from repro.sim import Simulator
from repro.sim.eventcore import available_backends

#: (scheduler, streams) -> (throughput MB/s, kernel pushes) at SMOKE.
EXPECTED = {
    ("anticipatory", 16): (50.75, 270326),
    ("cfq", 16): (45.51953125, 138567),
    ("noop", 16): (16.0, 27060),
}


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("scheduler,streams", sorted(EXPECTED))
def test_fig02_smoke_point_pushes(monkeypatch, backend, scheduler,
                                  streams):
    built = []

    def simulator():
        sim = Simulator(backend=backend)
        built.append(sim)
        return sim

    monkeypatch.setattr(fig02_schedulers, "Simulator", simulator)
    throughput = fig02_schedulers._point(
        SMOKE, {"scheduler": scheduler, "streams": streams})
    (sim,) = built
    assert sim.backend == backend
    assert (throughput, sim._core.sequence) == EXPECTED[scheduler, streams]
