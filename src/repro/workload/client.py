"""Client emulation: synchronous stream readers and fleet orchestration.

Mirrors the paper's measurement methodology (Section 5): each client
emulates streams with a bounded number of outstanding requests, issuing
the next request as soon as a response arrives; throughput is the sum of
per-stream throughputs and response time is measured client-side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro import obs
from repro.io import BlockDevice, IORequest
from repro.sim import Simulator
from repro.sim.stats import LatencySampler
from repro.workload.generators import StreamSpec

__all__ = ["ClientFleet", "FleetReport", "StreamClient"]


class StreamClient:
    """One emulated stream against a block device.

    ``tolerate_errors`` makes the client behave like a media player
    skipping a bad block: a failed request is counted in ``errors`` and
    the stream moves on to its next offset instead of crashing the
    emulation. The default (intolerant) client re-raises, preserving the
    historical fail-loud behaviour of the non-chaos experiments.
    """

    def __init__(self, sim: Simulator, device: BlockDevice,
                 spec: StreamSpec, tolerate_errors: bool = False):
        self.sim = sim
        self.device = device
        self.spec = spec
        self.tolerate_errors = tolerate_errors
        self.errors = 0
        self.completed_bytes = 0
        self.completed_requests = 0
        self.latency = LatencySampler(f"stream{spec.stream_id}")
        self.finished_at: Optional[float] = None
        self._position = spec.start_offset
        self._issued_bytes = 0
        self._bytes_baseline = 0
        # Ambient observability, captured once (zero overhead when off:
        # the hot loop tests one pre-computed boolean).
        self._obs = obs.current()
        self._obs_on = self._obs.enabled

    def reset_stats(self) -> None:
        """Restart latency sampling and the per-stream byte baseline
        (called at the warm-up/measurement boundary)."""
        self.latency = LatencySampler(f"stream{self.spec.stream_id}")
        self._bytes_baseline = self.completed_bytes

    @property
    def measured_bytes(self) -> int:
        """Bytes completed since the last stats reset."""
        return self.completed_bytes - self._bytes_baseline

    def start(self):
        """Spawn the client processes (one per outstanding slot)."""
        processes = [
            self.sim.process(self._run(),
                             name=f"client{self.spec.stream_id}.{slot}")
            for slot in range(self.spec.outstanding)
        ]
        done = self.sim.all_of(processes)
        done.callbacks.append(self._record_finish)
        return done

    def _record_finish(self, _event) -> None:
        self.finished_at = self.sim.now

    def _run(self):
        # Loop invariants hoisted: the spec is frozen and the device's
        # capacity fixed. The position and byte count are re-read every
        # request — the client's slots share them.
        sim = self.sim
        device = self.device
        spec = self.spec
        kind = spec.kind
        disk_id = spec.disk_id
        stream_id = spec.stream_id
        size = spec.request_size
        total_bytes = spec.total_bytes
        think_time = spec.think_time
        capacity = device.capacity_bytes
        obs_on = self._obs_on
        while True:
            if total_bytes is not None and self._issued_bytes >= total_bytes:
                return
            position = self._position
            if position + size > capacity:
                return  # ran off the end of the disk
            request = IORequest(kind, disk_id, position, size, stream_id)
            self._position = position + size
            self._issued_bytes += size
            issued_at = sim.now
            span = None
            if obs_on:
                # Root a fresh trace per request; every instrumented
                # layer below hangs its phase spans off this one.
                span = self._obs.spans.begin(
                    "request", "client", issued_at,
                    args={"stream": stream_id, "offset": position,
                          "size": size})
                self._obs.link(request, span)
            try:
                yield device.submit(request)
            except Exception as exc:
                if span is not None:
                    span.set_arg("error", type(exc).__name__)
                    self._obs.spans.end(span, sim.now)
                if not self.tolerate_errors:
                    raise
                # Skip the bad block: the position already advanced, so
                # the stream stays sequential.
                self.errors += 1
                continue
            if span is not None:
                self._obs.spans.end(span, sim.now)
            self.completed_bytes += size
            self.completed_requests += 1
            # Client-side response time (what the paper measures):
            # independent of any layer's stamping.
            self.latency.observe(sim.now - issued_at)
            if think_time > 0:
                yield sim.timeout(think_time)


@dataclass
class FleetReport:
    """Aggregate results of a fleet run."""

    elapsed: float
    total_bytes: int
    num_streams: int
    mean_latency: float
    p99_latency: float
    per_stream_bytes: List[int]
    #: Client-visible failed requests (only non-zero for tolerant
    #: fleets running under fault injection).
    total_errors: int = 0

    @property
    def throughput(self) -> float:
        """Aggregate bytes per second."""
        return self.total_bytes / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def throughput_mb(self) -> float:
        """Aggregate MBytes per second (the paper's unit)."""
        return self.throughput / (1024 * 1024)

    @property
    def min_stream_bytes(self) -> int:
        """Progress of the slowest stream (fairness check)."""
        return min(self.per_stream_bytes) if self.per_stream_bytes else 0


class ClientFleet:
    """Run a set of stream specs against a device and report."""

    def __init__(self, sim: Simulator, device: BlockDevice,
                 specs: Sequence[StreamSpec], tolerate_errors: bool = False):
        if not specs:
            raise ValueError("fleet needs at least one stream")
        self.sim = sim
        self.device = device
        self.clients = [
            StreamClient(sim, device, spec, tolerate_errors=tolerate_errors)
            for spec in specs
        ]

    def run(self, duration: Optional[float] = None,
            warmup: float = 0.0, settle_requests: int = 0,
            settle_cap: float = 120.0) -> FleetReport:
        """Run the fleet; returns aggregate metrics.

        With ``duration`` the clock stops there (open-ended streams);
        without it the simulation runs until every stream finishes its
        ``total_bytes``. ``warmup`` excludes an initial window from the
        measurements. ``settle_requests`` extends the warm-up until every
        stream has completed at least that many requests (bounded by
        ``settle_cap`` simulated seconds) — that covers configuration-
        dependent cold-start transients: big-segment initial fill rounds,
        the stream server's three-request detection phase. Latency
        statistics are reset at the measurement boundary.
        """
        for client in self.clients:
            client.start()
        if warmup > 0:
            self.sim.run(until=self.sim.now + warmup)
        if settle_requests > 0:
            deadline = self.sim.now + settle_cap
            while (self.sim.now < deadline
                   and self.sim.peek() != float("inf")
                   and min(c.completed_requests
                           for c in self.clients) < settle_requests):
                self.sim.run(until=min(self.sim.now + 0.25, deadline))
        warmup_bytes = sum(c.completed_bytes for c in self.clients)
        for client in self.clients:
            client.reset_stats()
        start = self.sim.now
        if duration is not None:
            self.sim.run(until=start + duration)
            elapsed = duration
        else:
            self.sim.run()
            # Measure to the last stream's finish, not to heap drain:
            # background housekeeping (server GC countdowns) may keep the
            # clock moving long after the workload completed.
            finishes = [c.finished_at for c in self.clients
                        if c.finished_at is not None]
            end = max(finishes) if finishes else self.sim.now
            elapsed = end - start
        total = sum(c.completed_bytes for c in self.clients) - warmup_bytes
        merged = LatencySampler("fleet")
        for client in self.clients:
            for sample in client.latency._reservoir:
                merged.observe(sample)
        return FleetReport(
            elapsed=elapsed,
            total_bytes=total,
            num_streams=len(self.clients),
            mean_latency=self._mean_latency(),
            p99_latency=merged.percentile(0.99),
            per_stream_bytes=[c.measured_bytes for c in self.clients],
            total_errors=sum(c.errors for c in self.clients))

    def _mean_latency(self) -> float:
        total_samples = sum(c.latency.count for c in self.clients)
        if not total_samples:
            return 0.0
        weighted = sum(c.latency.mean * c.latency.count
                       for c in self.clients)
        return weighted / total_samples
