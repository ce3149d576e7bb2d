"""OS buffer (page) cache with per-stream readahead windows.

Models the Linux 2.6-era on-demand readahead: a stream's window starts
small, doubles on sequential access up to ``max_bytes`` (128 KB default in
2.6.11), and collapses back when readahead thrash is detected (pages the
window fetched were evicted before the stream read them). Reads that hit
cached pages complete without device I/O; a miss fetches one readahead
window as a single device request tagged with the stream id — which is
what the I/O schedulers below actually see.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.io import BlockDevice, IOKind, IORequest
from repro.sim import Simulator
from repro.sim.events import Event
from repro.sim.stats import Counter, StatsRegistry
from repro.units import KiB

__all__ = ["BufferCache", "ReadaheadParams"]

#: A page's key is ``(disk_id << _DISK_SHIFT) + page_index``: one int is
#: smaller than a ``(disk_id, index)`` tuple and hashes without mixing.
#: Keys are unique while page indexes lie in ``[0, 2**40)``, which the
#: range check on every read and write guarantees (2**40 pages is 4 EiB
#: at 4 KiB pages).
_DISK_SHIFT = 40


@dataclass(frozen=True)
class ReadaheadParams:
    """Readahead window tuning.

    ``initial_bytes``/``max_bytes`` bound the per-stream window
    (Linux 2.6.11: 16 KB initial, 128 KB max); ``page_bytes`` is the
    cache granule. ``dirty_ratio``/``writeback_period`` govern the write
    path: buffered writes throttle synchronously once dirty pages exceed
    the ratio, and a background flusher (pdflush-style) writes dirty
    runs back every period.
    """

    initial_bytes: int = 16 * KiB
    max_bytes: int = 128 * KiB
    page_bytes: int = 4 * KiB
    dirty_ratio: float = 0.4
    writeback_period: float = 1.0

    def __post_init__(self):
        if self.page_bytes <= 0 or self.page_bytes % 512:
            raise ValueError(f"bad page size: {self.page_bytes}")
        if self.initial_bytes < self.page_bytes:
            raise ValueError("initial window below one page")
        if self.max_bytes < self.initial_bytes:
            raise ValueError("max window below initial window")
        if not 0.0 < self.dirty_ratio < 1.0:
            raise ValueError(f"dirty_ratio must be in (0,1): "
                             f"{self.dirty_ratio}")
        if self.writeback_period <= 0:
            raise ValueError("writeback_period must be positive")


@dataclass(slots=True)
class _StreamState:
    """Per-stream readahead bookkeeping."""

    next_expected: int = -1
    window_bytes: int = 0
    issued_until: int = -1  # end offset of the last issued readahead


class BufferCache:
    """A bounded page cache over a block device.

    Parameters
    ----------
    sim:
        Owning simulator.
    device:
        Downstream device (usually a :class:`~repro.host.BlockLayer`).
    capacity_bytes:
        Total cache memory; pages evict LRU.
    readahead:
        Window parameters.
    """

    def __init__(self, sim: Simulator, device: BlockDevice,
                 capacity_bytes: int,
                 readahead: Optional[ReadaheadParams] = None,
                 name: str = "bcache"):
        self.sim = sim
        self.device = device
        self.readahead = readahead or ReadaheadParams()
        if capacity_bytes < self.readahead.page_bytes:
            raise ValueError(
                f"capacity {capacity_bytes} below one page")
        self.capacity_pages = capacity_bytes // self.readahead.page_bytes
        self.name = name
        self._device_bytes = device.capacity_bytes
        self._read_name = f"{name}.read"
        #: stream id -> its read process name, built on first use.
        self._process_names: Dict[int, str] = {}
        #: page key -> True, in LRU order (oldest first).
        self._pages: "OrderedDict[int, bool]" = OrderedDict()
        self._streams: Dict[int, _StreamState] = {}
        #: Dirty pages, in dirtying order (oldest first).
        self._dirty: "OrderedDict[int, bool]" = OrderedDict()
        self._flusher_running = False
        self.stats = StatsRegistry()
        # Bound on first use, so ``stats.counters`` only ever holds the
        # names that were counted (and in first-use order).
        self._hits: Optional[Counter] = None
        self._misses: Optional[Counter] = None

    # -- public API ----------------------------------------------------------
    def read(self, stream_id: int, disk_id: int, offset: int,
             size: int) -> Event:
        """Read ``[offset, offset+size)``; fires when data is cached.

        Synchronous semantics: the event fires once every page of the
        range is resident (fetching a readahead window on miss). The
        range must lie on the device.
        """
        if size <= 0 or offset < 0 or offset + size > self._device_bytes:
            raise self._bad_range("read", offset, size)
        sim = self.sim
        event = sim.event(name=self._read_name)
        name = self._process_names.get(stream_id)
        if name is None:
            name = self._process_names[stream_id] = \
                f"{self.name}.s{stream_id}"
        sim.process(self._read(stream_id, disk_id, offset, size, event),
                    name=name)
        return event

    def write(self, stream_id: int, disk_id: int, offset: int,
              size: int) -> Event:
        """Buffered write: dirties pages, throttles at the dirty ratio.

        Completes once the pages are dirtied (and, when over the dirty
        limit, after enough old dirty data has been written back —
        Linux's synchronous dirty throttling). The range must lie on the
        device.
        """
        if size <= 0 or offset < 0 or offset + size > self._device_bytes:
            raise self._bad_range("write", offset, size)
        event = self.sim.event(name=f"{self.name}.write")
        self.sim.process(self._write(stream_id, disk_id, offset, size,
                                     event),
                         name=f"{self.name}.w{stream_id}")
        return event

    def _bad_range(self, verb: str, offset: int, size: int) -> ValueError:
        if size <= 0:
            return ValueError(f"non-positive {verb} size: {size}")
        return ValueError(
            f"{verb} [{offset}, {offset + size}) is not on the device "
            f"({self._device_bytes} bytes)")

    def _write(self, stream_id: int, disk_id: int, offset: int,
               size: int, event: Event):
        page = self.readahead.page_bytes
        first = offset // page
        last = (offset + size - 1) // page
        base = disk_id << _DISK_SHIFT
        for index in range(first, last + 1):
            key = base + index
            self._fill(key, key + 1)
            self._dirty.pop(key, None)   # re-dirty moves to the tail
            self._dirty[key] = True
        self.stats.counter("dirtied").add(size)
        limit = int(self.capacity_pages * self.readahead.dirty_ratio)
        while len(self._dirty) > limit:
            yield from self._writeback_oldest_run()
        self._ensure_flusher()
        event.succeed(None)

    def sync(self) -> Event:
        """Barrier: fires once every dirty page has been written back."""
        done = self.sim.event(name=f"{self.name}.sync")

        def drain(sim):
            while self._dirty:
                yield from self._writeback_oldest_run()
            done.succeed(None)

        self.sim.process(drain(self.sim), name=f"{self.name}.sync")
        return done

    @property
    def dirty_pages(self) -> int:
        """Pages awaiting writeback."""
        return len(self._dirty)

    def _writeback_oldest_run(self):
        """Write back the oldest dirty page plus its contiguous run."""
        if not self._dirty:
            return
        first = last = next(iter(self._dirty))
        while last + 1 in self._dirty:
            last += 1
        while first - 1 in self._dirty:
            first -= 1
        for key in range(first, last + 1):
            del self._dirty[key]
        page = self.readahead.page_bytes
        disk_id, index = divmod(first, 1 << _DISK_SHIFT)
        request = IORequest(kind=IOKind.WRITE, disk_id=disk_id,
                            offset=index * page,
                            size=(last - first + 1) * page)
        self.stats.counter("writeback_io").add(request.size)
        yield self.device.submit(request)

    def _ensure_flusher(self) -> None:
        if self._flusher_running:
            return
        self._flusher_running = True
        self.sim.process(self._flusher(), name=f"{self.name}.flusher")

    def _flusher(self):
        """Background writeback: no page stays dirty past ~a period."""
        while self._dirty:
            yield self.sim.timeout(self.readahead.writeback_period)
            # Flush everything currently dirty (runs coalesce).
            target = len(self._dirty)
            while self._dirty and target > 0:
                before = len(self._dirty)
                yield from self._writeback_oldest_run()
                target -= before - len(self._dirty)
        self._flusher_running = False

    def cached_fraction(self, disk_id: int, offset: int, size: int) -> float:
        """Fraction of the byte range currently resident (no LRU touch)."""
        page = self.readahead.page_bytes
        first = offset // page
        last = (offset + size - 1) // page
        base = disk_id << _DISK_SHIFT
        resident = sum(base + index in self._pages
                       for index in range(first, last + 1))
        return resident / (last - first + 1)

    # -- internals -------------------------------------------------------------
    def _read(self, stream_id: int, disk_id: int, offset: int, size: int,
              event: Event):
        page = self.readahead.page_bytes
        first = offset // page
        last = (offset + size - 1) // page
        # Touch every resident page (LRU order) and note the first miss.
        touch = self._pages.move_to_end
        base = disk_id << _DISK_SHIFT
        missing = -1
        if first == last:
            try:
                touch(base + first)
            except KeyError:
                missing = first
        else:
            for index in range(first, last + 1):
                try:
                    touch(base + index)
                except KeyError:
                    if missing < 0:
                        missing = index
        state = self._streams.get(stream_id)
        if state is None:
            state = self._streams[stream_id] = _StreamState()
        if missing < 0:
            hits = self._hits
            if hits is None:
                hits = self._hits = self.stats.counter("hits")
            hits.add(size)
            state.next_expected = offset + size
            event.succeed(None)
            return
        misses = self._misses
        if misses is None:
            misses = self._misses = self.stats.counter("misses")
        misses.add(size)
        sequential = offset == state.next_expected
        start = missing * page
        if start < state.issued_until and sequential:
            # These pages were readahead-fetched and already evicted:
            # thrash — collapse the window (Linux does the same).
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
        fetch_end = min(fetch_end, self._device_bytes)
        fetch_bytes = fetch_end - start
        request = IORequest(kind=IOKind.READ, disk_id=disk_id, offset=start,
                            size=fetch_bytes, stream_id=stream_id)
        self.stats.counter("readahead_io").add(fetch_bytes)
        yield self.device.submit(request)
        # Through the ceiling page: a device whose size is not a page
        # multiple ends in a partial page, which is resident once read.
        end_page = -(-fetch_end // page)
        self._fill(base + missing, base + end_page)
        state.next_expected = offset + size
        state.issued_until = fetch_end
        event.succeed(None)

    def _fill(self, first: int, end: int) -> None:
        """Make the pages keyed ``[first, end)`` resident at the LRU
        tail, in order."""
        pages = self._pages
        dirty = self._dirty
        room = self.capacity_pages - len(pages)
        evictions = None
        for key in range(first, end):
            if key in pages:
                pages.move_to_end(key)
                continue
            if room > 0:
                room -= 1
            else:
                if not dirty:
                    pages.popitem(last=False)
                else:
                    # Evict the oldest *clean* page; dirty pages are
                    # pinned until writeback (the dirty ratio guarantees
                    # clean pages exist).
                    victim = next((k for k in pages if k not in dirty),
                                  None)
                    if victim is None:
                        victim = next(iter(pages))
                        dirty.pop(victim, None)
                        self.stats.counter("dirty_evictions").add()
                    del pages[victim]
                if evictions is None:
                    evictions = self.stats.counter("evictions")
                evictions.add()
            pages[key] = True

    def __repr__(self) -> str:
        return (f"<BufferCache {len(self._pages)}/{self.capacity_pages} "
                f"pages, {len(self._streams)} streams>")
