"""Sweep-fabric fan-out benchmark: points/s vs worker count.

The fabric's job is dispatch overlap: keep N workers busy and hedge
stragglers. A CPU-bound point cannot demonstrate
that on a small (or single-core) CI box — N workers time-slice one
core and the speedup is ~1x by construction. So the benchmark point is
**wait-dominated**: a tiny real simulation (exercises the import +
event-core path every sweep point pays) followed by a fixed
``service_s`` sleep standing in for the device/IO time a paper-grade
point spends off-CPU. Points/s then measures what the fabric actually
controls — how well the coordinator overlaps point service times —
and the 1 -> 4 -> 8 worker curve is machine-independent: ~N× until
dispatch overhead bites.

``measure_sweep`` times ``Fabric.run_tasks`` only (worker spawn +
handshake happen in ``Fabric.start`` beforehand): the steady-state
dispatch rate is the regression-gated quantity, not process startup.
The fabric never consults the sweep cache, so every point is computed.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Tuple

__all__ = ["FANOUT_POINTS", "SERVICE_S", "WORKER_COUNTS",
           "SWEEP_TOLERANCE", "fanout_point", "fanout_tasks",
           "measure_sweep"]

#: Points per measured sweep. 16 points at 50 ms service time give a
#: 0.8 s serial floor — long enough to swamp dispatch overhead, short
#: enough for CI.
FANOUT_POINTS = 16

#: Simulated service time per point (``time.sleep``), seconds.
SERVICE_S = 0.05

#: Worker counts recorded in BENCH_engine.json.
WORKER_COUNTS = (1, 4, 8)

#: ``--check`` tolerance for the sweep tier. The rates are sleep-paced
#: and therefore stable, but the coordinator shares the CPU with the
#: workers on small boxes, so leave generous headroom.
SWEEP_TOLERANCE = 0.5


def fanout_point(scale, params: dict) -> float:
    """One wait-dominated sweep point.

    Runs a real (tiny) simulation so the point pays the same per-point
    setup a figure point does, then sleeps ``params["service_s"]`` to
    model the off-CPU service time. Deterministic in ``params`` so
    duplicate (hedged) executions are bit-identical.
    """
    from repro.sim import Simulator

    sim = Simulator()
    ticks = []

    def clock(sim, period, count):
        for _ in range(count):
            yield sim.timeout(period)
            ticks.append(sim.now)

    sim.process(clock(sim, 0.5, 8))
    sim.run()
    time.sleep(float(params["service_s"]))
    return float(params["index"]) + ticks[-1]


def fanout_tasks(count: int = FANOUT_POINTS,
                 service_s: float = SERVICE_S) -> Iterable[Tuple]:
    """The ``(point_fn, scale, params)`` task list for one sweep."""
    from repro.experiments import SMOKE
    return [(fanout_point, SMOKE, {"index": index,
                                   "service_s": service_s})
            for index in range(count)]


def measure_sweep(worker_counts: Iterable[int] = WORKER_COUNTS,
                  points: int = FANOUT_POINTS,
                  service_s: float = SERVICE_S) -> Dict[str, dict]:
    """points/s through the fabric at each worker count.

    Returns the ``sweep`` tier for BENCH_engine.json::

        {"sweep_fanout": {"points_per_run": 16,
                          "service_s": 0.05,
                          "points_per_sec": {"1": ..., "4": ..., "8": ...},
                          "speedup_4": ...,
                          "tolerance": 0.5}}
    """
    from repro.experiments.fabric import Fabric

    tasks = list(fanout_tasks(points, service_s))
    rates: Dict[str, float] = {}
    for workers in worker_counts:
        with Fabric(str(workers)) as fabric:
            fabric.start()          # spawn + handshake, not measured
            started = time.perf_counter()
            values = fabric.run_tasks(tasks)
            elapsed = time.perf_counter() - started
        expected = [fanout_point(None, task[2]) for task in tasks]
        if values != expected:
            raise RuntimeError(
                f"sweep_fanout: fabric values diverged at "
                f"{workers} worker(s)")
        rates[str(workers)] = round(len(tasks) / elapsed, 2)
    entry = {
        "points_per_run": len(tasks),
        "service_s": service_s,
        "points_per_sec": rates,
        "tolerance": SWEEP_TOLERANCE,
    }
    base = rates.get("1")
    if base and "4" in rates:
        entry["speedup_4"] = round(rates["4"] / base, 2)
    return {"sweep_fanout": entry}
