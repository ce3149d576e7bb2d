"""Tests for the write-coalescing extension (DESIGN.md §5)."""

import pytest

from repro.core import ServerParams, StreamServer, WriteCoalescer, \
    WriteCoalescerParams
from repro.disk import WD800JD
from repro.disk.mechanics import RotationMode
from repro.io import IOKind, IORequest
from repro.node import base_topology, build_node
from repro.sim import Simulator
from repro.units import KiB, MiB


def make_stack(sim, **param_kwargs):
    node = build_node(sim, base_topology(
        disk_spec=WD800JD, rotation_mode=RotationMode.EXPECTED))
    params = WriteCoalescerParams(**param_kwargs) if param_kwargs else None
    return WriteCoalescer(sim, node, params), node


def write(offset, size=64 * KiB, stream=1, disk=0):
    return IORequest(kind=IOKind.WRITE, disk_id=disk, offset=offset,
                     size=size, stream_id=stream)


def test_ack_is_fast_write_behind():
    sim = Simulator()
    coalescer, _node = make_stack(sim)
    event = coalescer.write(write(0))
    sim.run_until_event(event, limit=1.0)
    # Absorbed into a gather buffer: microseconds, not disk time.
    assert event.value.latency < 0.001


def test_rejects_reads():
    sim = Simulator()
    coalescer, _node = make_stack(sim)
    with pytest.raises(ValueError):
        coalescer.write(IORequest(kind=IOKind.READ, disk_id=0, offset=0,
                                  size=4 * KiB))


def test_sequential_writes_coalesce_into_large_flushes():
    sim = Simulator()
    coalescer, node = make_stack(sim, coalesce_bytes=1 * MiB)
    for index in range(32):  # 2 MiB of 64K writes
        coalescer.write(write(index * 64 * KiB))
    sim.run_until_event(coalescer.flush_all(), limit=10.0)
    drive = node.drive(0)
    flushes = coalescer.stats.counter("flushes")
    assert flushes.total_bytes == 2 * MiB
    assert flushes.count <= 3  # ~2 x 1 MiB flushes, not 32 x 64K
    assert drive.stats.counter("media_write").total_bytes == 2 * MiB


def test_non_contiguous_write_flushes_previous_run():
    sim = Simulator()
    coalescer, _node = make_stack(sim)
    coalescer.write(write(0))
    coalescer.write(write(64 * KiB))
    coalescer.write(write(500 * MiB))  # jump
    sim.run(until=0.1)
    assert coalescer.stats.counter("flushes").count >= 1
    assert coalescer.stats.counter("flushes").total_bytes >= 128 * KiB


def test_streams_gather_independently():
    sim = Simulator()
    coalescer, _node = make_stack(sim, coalesce_bytes=4 * MiB)
    coalescer.write(write(0, stream=1))
    coalescer.write(write(500 * MiB, stream=2))
    coalescer.write(write(64 * KiB, stream=1))  # continues stream 1
    sim.run(until=0.01)
    assert len(coalescer._buffers) == 2
    assert coalescer.dirty_bytes == 3 * 64 * KiB


def test_timeout_flushes_idle_buffers():
    sim = Simulator()
    coalescer, node = make_stack(sim, flush_timeout=0.2)
    coalescer.write(write(0))
    sim.run()  # flusher drains after the timeout
    assert coalescer.dirty_bytes == 0
    assert node.drive(0).stats.counter("media_write").total_bytes \
        == 64 * KiB


def test_memory_budget_forces_flush():
    sim = Simulator()
    coalescer, _node = make_stack(sim, coalesce_bytes=1 * MiB,
                                  memory_budget=1 * MiB)
    events = [coalescer.write(write(index * 64 * KiB, stream=index))
              for index in range(32)]  # 32 streams x 64K = 2 MiB dirty
    for event in events:
        sim.run_until_event(event, limit=10.0)
    assert coalescer.dirty_bytes <= 1 * MiB


def test_flush_all_barrier():
    sim = Simulator()
    coalescer, node = make_stack(sim)
    for index in range(4):
        coalescer.write(write(index * 64 * KiB))
    sim.run_until_event(coalescer.flush_all(), limit=5.0)
    assert coalescer.dirty_bytes == 0
    assert node.drive(0).stats.counter("media_write").total_bytes \
        == 4 * 64 * KiB


def test_params_validation():
    with pytest.raises(ValueError):
        WriteCoalescerParams(coalesce_bytes=100)
    with pytest.raises(ValueError):
        WriteCoalescerParams(coalesce_bytes=1 * MiB, memory_budget=512 * KiB)
    with pytest.raises(ValueError):
        WriteCoalescerParams(flush_timeout=0)


def test_server_integration_routes_writes():
    sim = Simulator()
    node = build_node(sim, base_topology(
        disk_spec=WD800JD, rotation_mode=RotationMode.EXPECTED))
    server = StreamServer(sim, node, ServerParams(coalesce_writes=True))
    events = [server.submit(write(index * 64 * KiB))
              for index in range(16)]
    for event in events:
        sim.run_until_event(event, limit=5.0)
    assert server.write_coalescer.stats.counter("absorbed").count == 16
    assert server.stats.counter("direct").count == 0


def test_server_without_flag_passes_writes_through():
    sim = Simulator()
    node = build_node(sim, base_topology(
        disk_spec=WD800JD, rotation_mode=RotationMode.EXPECTED))
    server = StreamServer(sim, node, ServerParams())
    event = server.submit(write(0))
    sim.run_until_event(event, limit=5.0)
    assert server.write_coalescer is None
    assert server.stats.counter("direct").count == 1


def test_write_throughput_improves_with_coalescing():
    """Many interleaved sequential write streams: coalescing wins."""
    def run(coalesce):
        sim = Simulator()
        node = build_node(sim, base_topology(
            disk_spec=WD800JD, rotation_mode=RotationMode.EXPECTED))
        server = StreamServer(sim, node, ServerParams(
            coalesce_writes=coalesce, write_coalesce_bytes=2 * MiB,
            write_memory_budget=256 * MiB))
        num_streams, per_stream = 30, 2 * MiB
        spacing = node.capacity_bytes // num_streams
        spacing -= spacing % (64 * KiB)

        def writer(sim, stream):
            offset = stream * spacing
            for _ in range(per_stream // (64 * KiB)):
                yield server.submit(write(offset, stream=stream))
                offset += 64 * KiB

        processes = [sim.process(writer(sim, s))
                     for s in range(num_streams)]
        done = sim.all_of(processes)
        sim.run_until_event(done, limit=300.0)
        elapsed = sim.now
        if coalesce:
            sim.run_until_event(server.write_coalescer.flush_all(),
                                limit=300.0)
            elapsed = sim.now
        return num_streams * per_stream / elapsed

    assert run(True) > 2 * run(False)


def test_in_flight_flushes_count_against_write_budget():
    """Acknowledged bytes never run ahead of the drive by more than the
    write budget: four closed-loop 64K writers on one WD800JD behind the
    server, 0.1 s of warm-up then 0.5 s measured. Dirty bytes stay
    counted until their flush completes, so the writers are paced by
    the disk instead of by the per-write ack cost."""
    sim = Simulator()
    node = build_node(sim, base_topology(
        disk_spec=WD800JD, rotation_mode=RotationMode.EXPECTED))
    params = ServerParams(coalesce_writes=True)
    server = StreamServer(sim, node, params)
    drive = node.drive(0)
    budget = params.write_memory_budget
    spacing = node.capacity_bytes // 4
    spacing -= spacing % (64 * KiB)
    acked = [0]
    worst = [0]

    def writer(sim, stream):
        offset = stream * spacing
        while True:
            yield server.submit(write(offset, stream=stream))
            offset += 64 * KiB
            acked[0] += 64 * KiB
            ahead = acked[0] - drive.stats.counter("completed").total_bytes
            worst[0] = max(worst[0], ahead)

    for stream in range(4):
        sim.process(writer(sim, stream))
    sim.run(until=0.1)
    warm_acked = acked[0]
    sim.run(until=0.6)
    assert worst[0] <= budget
    assert server.write_coalescer.dirty_bytes <= budget
    # Writers resumed once flushes freed budget...
    assert acked[0] > budget
    # ...but are paced by the disk: nowhere near the tens of GB/s the
    # unbounded version acknowledged.
    measured_mb_s = (acked[0] - warm_acked) / 0.5 / MiB
    assert measured_mb_s < 1000.0
