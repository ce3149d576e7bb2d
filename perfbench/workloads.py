"""The four benchmark workloads, each on the figure runner's own path.

Every workload runs its fixed simulation at SMOKE scale through
``repro.experiments.base.measure`` or the executor's ``run_sweep``, with
the figure modules' constants and point functions. The workload seed
only shifts the drives' rotational-latency seeds: seed 0 reproduces the
figures' own SMOKE points bit for bit. See WORKLOADS.md for why each
workload exists.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Callable, Dict, List

from repro.core import ServerParams
from repro.disk import DriveConfig
from repro.disk.specs import DISKSIM_GENERIC, WD800JD
from repro.experiments import base, executor
from repro.experiments import fig01_collapse as fig01
from repro.experiments import fig02_schedulers as fig02
from repro.experiments import fig13_dispatch_staging as fig13
from repro.io import IOKind
from repro.node import large_topology, medium_topology
from repro.sim.engine import Simulator
from repro.units import GiB, KiB, format_size
from repro.workload import uniform_streams

SCALE = base.SMOKE

#: Added, times the workload seed, to each figure's own topology or
#: drive seed.
SEED_STRIDE = 1000

STAGED_STREAMS_PER_DISK = 30
WRITER_EVERY = 4
RAW_STREAMS = 100
RAW_REQUEST_SIZES = (8 * KiB, 16 * KiB, 64 * KiB)
SWEEP_JOBS = 2

#: {series label: [y values]} — a workload's simulated output.
Series = Dict[str, List[float]]


class _SetupDone(Exception):
    """Raised at a workload's first simulated event by time_setup."""


def _staged(seed: int, writer_every: int) -> Series:
    params = ServerParams(read_ahead=fig13.READ_AHEAD,
                          dispatch_width=fig13.NUM_DISKS,
                          requests_per_residency=fig13.RESIDENCY,
                          memory_budget=2 * GiB)

    def specs_for(node):
        specs = uniform_streams(STAGED_STREAMS_PER_DISK, node.disk_ids,
                                node.capacity_bytes,
                                request_size=fig13.REQUEST_SIZE)
        if writer_every:
            specs = [dataclasses.replace(spec, kind=IOKind.WRITE)
                     if spec.stream_id % writer_every == writer_every - 1
                     else spec for spec in specs]
        return specs

    topology = medium_topology(
        disk_spec=WD800JD,
        seed=STAGED_STREAMS_PER_DISK + SEED_STRIDE * seed)
    report = base.measure(topology, SCALE, specs_for=specs_for,
                          wrap_device=base.server_wrapper(params))
    return {"MB/s": [report.throughput_mb]}


def staged_reads(seed: int) -> Series:
    """fig13's configuration at 30 read streams per disk."""
    return _staged(seed, writer_every=0)


def mixed_writes(seed: int) -> Series:
    """staged-reads with every fourth stream a sequential writer."""
    return _staged(seed, writer_every=WRITER_EVERY)


def raw_reads(seed: int) -> Series:
    """fig01's 60-disk node, 100 streams, three request sizes."""
    series: Series = {}
    for size in RAW_REQUEST_SIZES:
        topology = large_topology(fig01.NUM_DISKS, disk_spec=DISKSIM_GENERIC,
                                  seed=RAW_STREAMS + SEED_STRIDE * seed)
        report = base.measure(
            topology, SCALE,
            specs_for=lambda node, size=size: base.spread_streams(
                RAW_STREAMS, node.disk_ids, node.capacity_bytes,
                request_size=size))
        series[format_size(size)] = [report.throughput_mb]
    return series


def _seeded_drive_config(seed_offset: int, seed: int = 0, **kwargs):
    return DriveConfig(seed=seed + seed_offset, **kwargs)


def seed_fig02(seed: int) -> None:
    """Shift fig02's per-point drive seeds by the workload seed.

    fig02's point function names ``DriveConfig`` from its module, so the
    point runs unchanged with a shifted seed. Pool workers fork after
    this is set, and so inherit it.
    """
    fig02.DriveConfig = functools.partial(_seeded_drive_config,
                                          SEED_STRIDE * seed)


def sweep_pool(seed: int) -> Series:
    """fig02's full sweep on the executor's two-process pool."""
    seed_fig02(seed)
    result = executor.run_sweep(fig02.sweep(), SCALE, jobs=SWEEP_JOBS,
                                cache=False)
    return {series.label: [point.y for point in series.points]
            for series in result.series}


def _fig02_first_point(seed: int) -> None:
    seed_fig02(seed)
    first = fig02.sweep().points[0]
    fig02._point(SCALE, dict(first.params))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int], Series]
    #: Builds the workload's first simulation in-process; time_setup
    #: stops it at its first simulated event.
    build: Callable[[int], object]
    #: Pool workers that run the points (0: the points run in-process).
    jobs: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("staged-reads", staged_reads, staged_reads),
    Workload("raw-reads", raw_reads, raw_reads),
    Workload("mixed-writes", mixed_writes, mixed_writes),
    Workload("sweep-pool", sweep_pool, _fig02_first_point,
             jobs=SWEEP_JOBS),
)}


def time_setup(workload: Workload, seed: int) -> float:
    """Host seconds from the workload's start to its first event."""
    original = Simulator.__dict__["run"]

    def stop(self, until=None):
        raise _SetupDone

    Simulator.run = stop
    start = time.perf_counter()
    try:
        workload.build(seed)
    except _SetupDone:
        return time.perf_counter() - start
    finally:
        Simulator.run = original
    raise RuntimeError(f"{workload.name} never started its simulation")
