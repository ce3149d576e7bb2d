"""Tests for the OS buffer cache and readahead windows."""

import pytest

from repro.disk import DISKSIM_GENERIC, DiskDrive, DriveConfig
from repro.disk.mechanics import RotationMode
from repro.host import BlockLayer, BufferCache, ReadaheadParams, make_scheduler
from repro.sim import Simulator
from repro.units import KiB, MiB


def make_stack(sim, capacity=64 * MiB, readahead=None):
    drive = DiskDrive(sim, DISKSIM_GENERIC,
                      config=DriveConfig(rotation_mode=RotationMode.EXPECTED))
    layer = BlockLayer(sim, drive, make_scheduler("noop"))
    cache = BufferCache(sim, layer, capacity_bytes=capacity,
                        readahead=readahead)
    return cache, layer, drive


def test_first_read_misses_then_hits():
    sim = Simulator()
    cache, layer, _drive = make_stack(sim)
    sim.run_until_event(cache.read(1, 0, 0, 4 * KiB))
    assert cache.stats.counter("misses").count == 1
    sim.run_until_event(cache.read(1, 0, 0, 4 * KiB))
    assert cache.stats.counter("hits").count == 1


def test_readahead_window_doubles_on_sequential():
    sim = Simulator()
    params = ReadaheadParams(initial_bytes=16 * KiB, max_bytes=128 * KiB)
    cache, layer, _drive = make_stack(sim, readahead=params)
    offset = 0
    for _ in range(20):
        sim.run_until_event(cache.read(1, 0, offset, 4 * KiB))
        offset += 4 * KiB
    # The device saw a few escalating readahead requests, not 20 x 4K.
    dispatched = layer.stats.counter("dispatched")
    assert dispatched.count < 10
    assert dispatched.total_bytes >= offset
    sizes = layer.stats.counter("dispatched")
    assert cache.stats.counter("readahead_io").total_bytes >= 16 * KiB


def test_window_capped_at_max():
    sim = Simulator()
    params = ReadaheadParams(initial_bytes=16 * KiB, max_bytes=64 * KiB)
    cache, layer, _drive = make_stack(sim, readahead=params)
    offset = 0
    for _ in range(200):
        sim.run_until_event(cache.read(1, 0, offset, 4 * KiB))
        offset += 4 * KiB
    # No single device read may exceed the cap (window never above max).
    per_read = (layer.stats.counter("dispatched").total_bytes
                / layer.stats.counter("dispatched").count)
    assert per_read <= 64 * KiB


def test_random_access_resets_window():
    sim = Simulator()
    params = ReadaheadParams(initial_bytes=16 * KiB, max_bytes=128 * KiB)
    cache, layer, _drive = make_stack(sim, readahead=params)
    # Grow the window sequentially first.
    offset = 0
    for _ in range(30):
        sim.run_until_event(cache.read(1, 0, offset, 4 * KiB))
        offset += 4 * KiB
    before = layer.stats.counter("dispatched").count
    # A far random read must fetch only the small initial window.
    sim.run_until_event(cache.read(1, 0, 500 * MiB, 4 * KiB))
    state = cache._streams[1]
    assert state.window_bytes == params.initial_bytes


def test_thrash_detection_collapses_window():
    sim = Simulator()
    # Cache fits 8 pages: every stream's readahead evicts the others'.
    params = ReadaheadParams(initial_bytes=16 * KiB, max_bytes=128 * KiB)
    cache, layer, _drive = make_stack(sim, capacity=32 * KiB,
                                      readahead=params)

    def reader(sim, stream, base, count):
        offset = base
        for _ in range(count):
            yield cache.read(stream, 0, offset, 4 * KiB)
            offset += 4 * KiB

    for stream in range(4):
        sim.process(reader(sim, stream, stream * 100 * MiB, 40))
    sim.run()
    assert cache.stats.counter("thrash").count > 0


def test_eviction_keeps_capacity_bounded():
    sim = Simulator()
    cache, layer, _drive = make_stack(sim, capacity=64 * KiB)
    offset = 0
    for _ in range(100):
        sim.run_until_event(cache.read(1, 0, offset, 4 * KiB))
        offset += 4 * KiB
    assert len(cache._pages) <= cache.capacity_pages
    assert cache.stats.counter("evictions").count > 0


def test_cached_fraction():
    sim = Simulator()
    cache, layer, _drive = make_stack(sim)
    sim.run_until_event(cache.read(1, 0, 0, 16 * KiB))
    assert cache.cached_fraction(0, 0, 16 * KiB) == 1.0
    assert cache.cached_fraction(0, 500 * MiB, 16 * KiB) == 0.0
    assert cache.cached_fraction(1, 0, 16 * KiB) == 0.0  # other disk


def test_read_validation():
    sim = Simulator()
    cache, _layer, _drive = make_stack(sim)
    with pytest.raises(ValueError):
        cache.read(1, 0, 0, 0)


def test_readahead_params_validation():
    with pytest.raises(ValueError):
        ReadaheadParams(page_bytes=0)
    with pytest.raises(ValueError):
        ReadaheadParams(initial_bytes=1 * KiB, page_bytes=4 * KiB)
    with pytest.raises(ValueError):
        ReadaheadParams(initial_bytes=64 * KiB, max_bytes=16 * KiB)


def test_capacity_validation():
    sim = Simulator()
    drive = DiskDrive(sim, DISKSIM_GENERIC)
    layer = BlockLayer(sim, drive, make_scheduler("noop"))
    with pytest.raises(ValueError):
        BufferCache(sim, layer, capacity_bytes=100)


def test_streams_do_not_share_readahead_state():
    sim = Simulator()
    cache, layer, _drive = make_stack(sim)
    sim.run_until_event(cache.read(1, 0, 0, 4 * KiB))
    sim.run_until_event(cache.read(2, 0, 200 * MiB, 4 * KiB))
    assert cache._streams[1].next_expected == 4 * KiB
    assert cache._streams[2].next_expected == 200 * MiB + 4 * KiB


def test_range_off_the_device_is_rejected():
    sim = Simulator()
    cache, layer, _drive = make_stack(sim)
    end = layer.capacity_bytes
    for offset, size in ((end, 4 * KiB), (end - 2 * KiB, 4 * KiB),
                         (end + 8 * KiB, 1), (-4 * KiB, 8 * KiB)):
        for call in (cache.read, cache.write):
            with pytest.raises(ValueError, match="not on the device"):
                call(1, 0, offset, size)
    sim.run()
    assert layer.stats.counter("dispatched").count == 0
    assert not cache._pages and not cache._dirty


def test_partial_last_page_becomes_resident():
    # DISKSIM_GENERIC's capacity is not a page multiple: the last page
    # holds only the device's final bytes, and reading them must leave
    # that page resident like any other.
    sim = Simulator()
    cache, layer, _drive = make_stack(sim)
    end = layer.capacity_bytes
    tail = end % (4 * KiB)
    assert tail, "the device must end in a partial page"
    sim.run_until_event(cache.read(1, 0, end - tail, tail))
    assert cache.cached_fraction(0, end - tail, tail) == 1.0
    dispatched = layer.stats.counter("dispatched").count
    sim.run_until_event(cache.read(1, 0, end - tail, tail))
    assert layer.stats.counter("dispatched").count == dispatched
    assert cache.stats.counter("hits").count == 1
