"""Differential tests: the lean buffer-cache read path vs. the reference.

:class:`~repro.host.BufferCache`'s read path was rewritten for speed
(DESIGN.md "host read path"): pages are keyed by one packed int instead
of a ``(disk_id, index)`` tuple, one loop touches pages and notes the
first miss, per-stream state is created only on a stream's first read,
the hit and miss counters are bound once, and a miss fills its readahead
window in one pass, evicting with ``popitem`` when no page is dirty. The
anticipatory scheduler scans its elevator in place instead of copying
it.

All of that is advertised as a *pure acceleration*. This module pins the
claim: it embeds the previous implementation (``read``/``_read``/
``_insert``, the ``_write`` that called ``_insert`` and the tuple-keyed
``_writeback_oldest_run``, and the copying ``_find_anticipated``) and
drives it and the current one with identical seeded mixes of reads and
writes, comparing the LRU order, the dirty set (page keys decoded to
``(disk_id, index)``), every stream's readahead state, the counters,
the requests sent downstream and every operation's completion time.

The one intended divergence is the device end: the reference accepted
reads past ``capacity_bytes`` and never made a device's partial last
page resident. The generated operations stay clear of the last
``_DEVICE_END_MARGIN`` bytes so that neither case arises here;
``tests/test_buffer_cache.py`` pins the new behaviour at the device end.
"""

from __future__ import annotations

import random
from typing import List, Optional

import pytest

from repro.disk import DISKSIM_GENERIC, DiskDrive, DriveConfig
from repro.host import BlockLayer, BufferCache, ReadaheadParams
from repro.host.buffer_cache import _DISK_SHIFT, _StreamState
from repro.host.schedulers import AnticipatoryScheduler, make_scheduler
from repro.io import IOKind, IORequest
from repro.sim import Simulator
from repro.sim.events import Event

KiB = 1024
PAGE = 4 * KiB


# ---------------------------------------------------------------------------
# Reference implementations (before the lean read path)
# ---------------------------------------------------------------------------


class _ReferenceBufferCache(BufferCache):
    """The previous read path: f-string names per call, a list of missing
    pages, ``setdefault`` with a fresh state object, a counter lookup per
    read and a generator scan for every eviction."""

    def read(self, stream_id: int, disk_id: int, offset: int,
             size: int) -> Event:
        if size <= 0:
            raise ValueError(f"non-positive read size: {size}")
        event = self.sim.event(name=f"{self.name}.read")
        self.sim.process(self._read(stream_id, disk_id, offset, size, event),
                         name=f"{self.name}.s{stream_id}")
        return event

    def _write(self, stream_id: int, disk_id: int, offset: int,
               size: int, event: Event):
        page = self.readahead.page_bytes
        first = offset // page
        last = (offset + size - 1) // page
        for index in range(first, last + 1):
            key = (disk_id, index)
            self._insert(disk_id, index)
            self._dirty.pop(key, None)   # re-dirty moves to the tail
            self._dirty[key] = True
        self.stats.counter("dirtied").add(size)
        limit = int(self.capacity_pages * self.readahead.dirty_ratio)
        while len(self._dirty) > limit:
            yield from self._writeback_oldest_run()
        self._ensure_flusher()
        event.succeed(None)

    def _writeback_oldest_run(self):
        if not self._dirty:
            return
        (disk_id, start_index), _ = next(iter(self._dirty.items()))
        run = [start_index]
        while (disk_id, run[-1] + 1) in self._dirty:
            run.append(run[-1] + 1)
        while (disk_id, run[0] - 1) in self._dirty:
            run.insert(0, run[0] - 1)
        page = self.readahead.page_bytes
        for index in run:
            del self._dirty[(disk_id, index)]
        request = IORequest(kind=IOKind.WRITE, disk_id=disk_id,
                            offset=run[0] * page,
                            size=len(run) * page)
        self.stats.counter("writeback_io").add(request.size)
        yield self.device.submit(request)

    def _read(self, stream_id: int, disk_id: int, offset: int, size: int,
              event: Event):
        page = self.readahead.page_bytes
        first = offset // page
        last = (offset + size - 1) // page
        missing = [index for index in range(first, last + 1)
                   if not self._touch(disk_id, index)]
        state = self._streams.setdefault(stream_id, _StreamState())
        if not missing:
            self.stats.counter("hits").add(size)
            state.next_expected = offset + size
            event.succeed(None)
            return
        self.stats.counter("misses").add(size)
        sequential = offset == state.next_expected
        start = missing[0] * page
        if start < state.issued_until and sequential:
            self.stats.counter("thrash").add()
            state.window_bytes = self.readahead.initial_bytes
        elif sequential:
            state.window_bytes = min(
                max(state.window_bytes * 2, self.readahead.initial_bytes),
                self.readahead.max_bytes)
        else:
            state.window_bytes = self.readahead.initial_bytes
        demand_end = (last + 1) * page
        fetch_end = max(demand_end, start + state.window_bytes)
        fetch_end = min(fetch_end, self.device.capacity_bytes)
        fetch_bytes = fetch_end - start
        request = IORequest(kind=IOKind.READ, disk_id=disk_id, offset=start,
                            size=fetch_bytes, stream_id=stream_id)
        self.stats.counter("readahead_io").add(fetch_bytes)
        yield self.device.submit(request)
        for index in range(start // page, fetch_end // page):
            self._insert(disk_id, index)
        state.next_expected = offset + size
        state.issued_until = fetch_end
        event.succeed(None)

    def _touch(self, disk_id: int, index: int) -> bool:
        key = (disk_id, index)
        if key in self._pages:
            self._pages.move_to_end(key)
            return True
        return False

    def _insert(self, disk_id: int, index: int) -> None:
        key = (disk_id, index)
        if key in self._pages:
            self._pages.move_to_end(key)
            return
        if len(self._pages) >= self.capacity_pages:
            victim = next((k for k in self._pages
                           if k not in self._dirty), None)
            if victim is None:
                victim = next(iter(self._pages))
                self._dirty.pop(victim, None)
                self.stats.counter("dirty_evictions").add()
            del self._pages[victim]
            self.stats.counter("evictions").add()
        self._pages[key] = True

    def _fill(self, first: int, end: int) -> None:
        raise AssertionError("the reference never uses the lean fill")


class _ReferenceAnticipatory(AnticipatoryScheduler):
    """The previous anticipation scan over a copy of the elevator."""

    def _find_anticipated(self) -> Optional[IORequest]:
        snapshot = [request for _o, _i, request in self._elevator._requests]
        for request in snapshot:
            if (request.stream_id == self._antic_stream
                    and request.is_read
                    and abs(request.offset - self._antic_position)
                    <= self.near_bytes):
                return request
        return None


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

#: Generated operations end at least this far before the device end, so
#: no readahead window is clipped to it (the intended divergence).
_DEVICE_END_MARGIN = 1 << 20
#: A device whose size is *not* a page multiple, like DISKSIM_GENERIC.
_DEVICE_BYTES = 64 * (1 << 20) + 2 * KiB


class _RecordingDevice:
    """A block device that logs every request it is sent.

    With an ``inner`` device it forwards each request there; without one
    it completes the request after a deterministic offset- and
    size-dependent delay, so concurrent requests overlap.
    """

    def __init__(self, sim: Simulator, inner=None):
        self.sim = sim
        self.inner = inner
        self.capacity_bytes = (_DEVICE_BYTES if inner is None
                               else inner.capacity_bytes)
        self.log: List[tuple] = []

    def submit(self, request: IORequest):
        self.log.append((self.sim.now, request.kind, request.disk_id,
                         request.offset, request.size, request.stream_id))
        if self.inner is not None:
            return self.inner.submit(request)
        delay = (2e-4 + request.size * 1e-9
                 + (request.offset // PAGE % 7) * 3e-5)
        return self.sim.timeout(delay)


def _stream_ops(rng: random.Random, num_ops: int, span: int,
                write_share: float) -> List[tuple]:
    """One stream's operations: mostly sequential reads of mixed sizes,
    with random jumps, re-reads and buffered writes."""
    ops = []
    offset = rng.randrange(0, span // PAGE) * PAGE
    for _ in range(num_ops):
        roll = rng.random()
        if roll < 0.15:
            offset = rng.randrange(0, span - 64 * KiB)  # unaligned jump
        elif roll < 0.25:
            offset = max(0, offset - rng.choice((PAGE, 3 * PAGE, 1000)))
        size = rng.choice((PAGE, PAGE, PAGE, 512, 1000, 3 * KiB,
                           2 * PAGE, 3 * PAGE + 100, 5 * PAGE))
        disk = 0 if rng.random() < 0.8 else 1
        kind = "w" if rng.random() < write_share else "r"
        think = rng.choice((0.0, 0.0, 1e-5, 3e-4))
        ops.append((kind, disk, offset, size, think))
        offset += size
        if offset + 8 * PAGE > span:
            offset = 0
    return ops


def _drive(cache: BufferCache, sim: Simulator, plan: List[List[tuple]]):
    """Run every stream's operations closed-loop; return per-op
    completion records and LRU snapshots taken at each completion."""
    done: List[tuple] = []

    def stream(sim, stream_id, ops):
        for number, (kind, disk, offset, size, think) in enumerate(ops):
            call = cache.read if kind == "r" else cache.write
            yield call(stream_id, disk, offset, size)
            head = next(iter(cache._pages), None)
            done.append((sim.now, stream_id, number, len(cache._pages),
                         len(cache._dirty),
                         None if head is None else _page(head)))
            if think:
                yield sim.timeout(think)

    for stream_id, ops in enumerate(plan):
        sim.process(stream(sim, stream_id, ops), name=f"client{stream_id}")
    sim.run()
    sim.run_until_event(cache.sync())
    return done


def _page(key) -> tuple:
    """``(disk_id, page_index)`` of a page key of either implementation."""
    return key if isinstance(key, tuple) else divmod(key, 1 << _DISK_SHIFT)


def _observables(cache: BufferCache) -> dict:
    return {
        "pages": [_page(key) for key in cache._pages],
        "dirty": [_page(key) for key in cache._dirty],
        "streams": {sid: (s.next_expected, s.window_bytes, s.issued_until)
                    for sid, s in cache._streams.items()},
        "counters": [(name, c.count, c.total_bytes)
                     for name, c in cache.stats.counters.items()],
    }


def _run_pair(seed: int, capacity_pages: int, streams: int,
              write_share: float, dirty_ratio: float):
    rng = random.Random(seed)
    span = _DEVICE_BYTES - _DEVICE_END_MARGIN
    plan = [_stream_ops(rng, 120, span, write_share)
            for _ in range(streams)]
    params = ReadaheadParams(initial_bytes=2 * PAGE, max_bytes=8 * PAGE,
                             dirty_ratio=dirty_ratio,
                             writeback_period=2e-3)
    results = []
    for cls in (_ReferenceBufferCache, BufferCache):
        sim = Simulator()
        device = _RecordingDevice(sim)
        cache = cls(sim, device, capacity_bytes=capacity_pages * PAGE,
                    readahead=params)
        done = _drive(cache, sim, plan)
        results.append((done, device.log, _observables(cache), sim.now))
    return results


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("capacity_pages,streams,write_share,dirty_ratio", [
    (12, 3, 0.0, 0.4),     # read-only, constant eviction
    (16, 4, 0.2, 0.4),     # dirty pages sit at the LRU head
    (8, 2, 0.5, 0.9),      # writes outrun the clean pages: dirty evictions
    (512, 5, 0.1, 0.4),    # roomy cache: mostly hits and re-reads
])
def test_lean_read_path_matches_reference(seed, capacity_pages, streams,
                                          write_share, dirty_ratio):
    (ref_done, ref_log, ref_state, ref_now), \
        (new_done, new_log, new_state, new_now) = _run_pair(
            seed * 7919 + capacity_pages, capacity_pages, streams,
            write_share, dirty_ratio)
    assert new_log == ref_log
    assert new_done == ref_done
    assert new_state == ref_state
    assert new_now == ref_now


def test_mixes_reach_every_path():
    """The parameter grid above exercises what it claims to: eviction
    with and without dirty pages, dirty evictions, thrash, and hits."""
    seen = set()
    for capacity_pages, streams, write_share, dirty_ratio in (
            (12, 3, 0.0, 0.4), (16, 4, 0.2, 0.4), (8, 2, 0.5, 0.9)):
        for seed in range(8):
            _ref, (_done, _log, state, _now) = _run_pair(
                seed * 7919 + capacity_pages, capacity_pages, streams,
                write_share, dirty_ratio)
            seen.update(name for name, count, _b in state["counters"]
                        if count)
    assert {"hits", "misses", "evictions", "dirty_evictions", "thrash",
            "dirtied", "writeback_io", "readahead_io"} <= seen


@pytest.mark.parametrize("scheduler", ["anticipatory", "cfq", "noop"])
def test_real_stack_matches_reference(scheduler):
    """Through a real block layer and drive: the same dispatch order and
    completion times, including the anticipatory scan in place."""
    rng = random.Random(11)
    span = 256 * (1 << 20)
    plan = [_stream_ops(rng, 60, span, 0.0) for _ in range(6)]
    params = ReadaheadParams(initial_bytes=4 * PAGE, max_bytes=16 * PAGE)
    results = []
    for cache_cls, antic_cls in ((_ReferenceBufferCache,
                                  _ReferenceAnticipatory),
                                 (BufferCache, AnticipatoryScheduler)):
        sim = Simulator()
        drive = DiskDrive(sim, DISKSIM_GENERIC, config=DriveConfig(seed=3))
        policy = (antic_cls() if scheduler == "anticipatory"
                  else make_scheduler(scheduler))
        device = _RecordingDevice(sim, inner=drive)
        layer = BlockLayer(sim, device, policy)
        cache = cache_cls(sim, layer, capacity_bytes=48 * PAGE,
                          readahead=params)
        done = _drive(cache, sim, plan)
        stats = ((policy.anticipation_hits, policy.anticipation_timeouts,
                  policy.anticipation_skips)
                 if scheduler == "anticipatory" else ())
        results.append((done, device.log, _observables(cache), stats))
    assert results[1] == results[0]
    assert results[0][1], "no request reached the drive"
    if scheduler == "anticipatory":
        assert results[0][3][0] > 0, "the anticipation scan never matched"
