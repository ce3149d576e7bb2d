"""xdd-style micro-benchmark through the OS stack (Figure 2's workload).

Readers issue fixed-size (default 4 KB) synchronous sequential reads
through a :class:`~repro.host.BufferCache` backed by a scheduler-driven
block layer — the whole Linux path the paper measures with xdd on ext3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.host.buffer_cache import BufferCache
from repro.sim import Simulator
from repro.sim.stats import LatencySampler
from repro.units import KiB

__all__ = ["XddReport", "run_xdd"]


@dataclass
class XddReport:
    """Results of one xdd run."""

    elapsed: float
    total_bytes: int
    num_streams: int
    mean_latency: float

    @property
    def throughput(self) -> float:
        """Aggregate bytes per second."""
        return self.total_bytes / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def throughput_mb(self) -> float:
        """Aggregate MBytes/s."""
        return self.throughput / (1024 * 1024)


def run_xdd(sim: Simulator, cache: BufferCache, num_streams: int,
            disk_id: int = 0, block_size: int = 4 * KiB,
            per_stream_bytes: int = 1024 * KiB,
            spacing: Optional[int] = None,
            duration: Optional[float] = None,
            think_time: float = 0.0,
            settle_blocks: int = 0,
            settle_cap: float = 60.0) -> XddReport:
    """Run ``num_streams`` sequential readers through the buffer cache.

    Streams are spaced ``spacing`` bytes apart (default: device capacity
    divided by stream count, the paper's layout; Figure 5 uses fixed
    1 GByte intervals). ``think_time`` is the client-side turnaround
    between a completed read and the next issue — on a real box this is
    syscall + copy + scheduler wake-up latency, and it grows with the
    number of runnable reader processes; it is the knob that breaks
    anticipation at high stream counts (see fig02's model note).
    """
    if num_streams < 1:
        raise ValueError(f"num_streams must be >= 1: {num_streams}")
    if per_stream_bytes < block_size:
        raise ValueError("per_stream_bytes below one block")
    capacity = cache.device.capacity_bytes
    if spacing is None:
        spacing = capacity // num_streams
        spacing -= spacing % block_size
    if spacing < per_stream_bytes and duration is None:
        raise ValueError(
            f"streams would overlap: spacing {spacing} < "
            f"{per_stream_bytes} bytes per stream")
    progress: List[int] = [0] * num_streams
    latency = LatencySampler("xdd")
    read = cache.read
    observe = latency.observe

    def reader(sim, stream):
        offset = stream * spacing
        end = min(offset + per_stream_bytes, capacity)
        while offset + block_size <= end:
            started = sim.now
            yield read(stream, disk_id, offset, block_size)
            observe(sim.now - started)
            progress[stream] += block_size
            offset += block_size
            if think_time > 0:
                yield sim.timeout(think_time)

    for stream in range(num_streams):
        sim.process(reader(sim, stream), name=f"xdd{stream}")
    if settle_blocks > 0:
        # Warm up past the readahead-window ramp: measure only after
        # every stream has pulled enough blocks for its window to reach
        # steady size.
        target = settle_blocks * block_size
        deadline = sim.now + settle_cap
        while (sim.now < deadline and sim.peek() != float("inf")
               and min(progress) < target):
            sim.run(until=min(sim.now + 0.25, deadline))
    baseline = list(progress)
    start = sim.now
    if duration is not None:
        sim.run(until=start + duration)
    else:
        sim.run()
    elapsed = sim.now - start
    measured = sum(p - b for p, b in zip(progress, baseline))
    return XddReport(elapsed=elapsed, total_bytes=measured,
                     num_streams=num_streams, mean_latency=latency.mean)
