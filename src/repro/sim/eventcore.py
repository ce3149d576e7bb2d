"""Pluggable event-core backends for the simulator kernel.

The kernel's pending-event queue — a priority queue ordered by
``(when, seq)`` with FIFO semantics for equal timestamps — plus the
Timeout/Event free-lists and the untraced dispatch loop live behind one
small *core* API, so the data structure and the hot loop can be swapped
without touching :class:`repro.sim.engine.Simulator` or any event
semantics:

``compiled``
    :mod:`repro.sim._eventcore`, a C extension compiled at install time
    (``setup.py`` marks it *optional*: a build without a C compiler
    still installs, minus this backend). The heap is an array of C
    structs — no per-event tuple, no rich comparisons — and the drive
    loop, free-list recycling, the pooled ``timeout()`` factory and the
    process lifecycle (``process()``, first resume, normal exit) run
    in C, calling back into Python only for generator bodies and the
    cold paths.

``calendar``
    :class:`CalendarCore`, a pure-Python calendar queue. O(1) amortized
    enqueue/dequeue instead of ``heapq``'s O(log n), plus a same-instant
    batch fast path and an inlined resume fast path in its drive loop.
    The default whenever the compiled core is unavailable.

``heapq``
    :class:`HeapqCore`, the original ``heapq`` kernel kept verbatim as
    the readable reference implementation.

All three are pinned to bit-identical event streams (and to repeated
:meth:`Simulator.step` calls) by ``tests/test_sim_kernel_equivalence.py``
and ``tests/test_eventcore_fifo.py``.

Selection is automatic (compiled > calendar > heapq) and can be forced
with the ``REPRO_EVENTCORE`` environment variable or the ``backend=``
argument of :class:`~repro.sim.engine.Simulator`. Forcing an
unavailable backend raises immediately with a clear message.

Calendar-queue bucket math
--------------------------
The calendar queue (R. Brown, CACM 1988) maps a timestamp to a *day*
``day = int(when / width)`` and stores it in bucket ``day & (nbuckets-1)``
of a circular array — one *year* is ``nbuckets * width`` seconds.
Dequeueing scans forward from the current day, taking bucket heads that
belong to the day under the cursor; a full fruitless year falls back to
a direct min search over all bucket heads (the classic guard against
sparse queues). Buckets hold at most one *entry* per distinct timestamp
— ``[when, first_seq, events]`` with the events list in push (seq)
order — so equal-time FIFO needs no per-event sequence comparisons and
same-instant bursts (disk completions, bus grants) are one entry. The
queue resizes (and re-estimates ``width`` as 3x the mean gap between
adjacent distinct pending timestamps) when the entry count outgrows
``2 * nbuckets`` or shrinks below a quarter of it, keeping buckets O(1)
long on average.

On top of the textbook structure, :class:`CalendarCore` keeps the few
earliest entries *outside* the calendar in a small sorted front buffer
(``_front``), so the near-empty queues that dominate kernel workloads
(one or two processes sleeping on their next timeouts) are served
entirely from tiny-list operations — no day math, no bucket touch, no
scan. See the class docstring for the invariants.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

from repro.sim.events import Event, Process, Timeout

__all__ = [
    "BACKENDS",
    "POOL_LIMIT",
    "CalendarCore",
    "HeapqCore",
    "SweepArena",
    "available_backends",
    "backend_token",
    "compiled_available",
    "make_core",
    "resolve_backend",
    "sweep_arena",
]

try:  # CPython: exact liveness check for free-list recycling.
    from sys import getrefcount as _getrefcount
except ImportError:  # pragma: no cover - PyPy etc: never recycle
    def _getrefcount(_obj: Any) -> int:
        return -1

#: The C extension API version this module drives (``__version__`` of
#: :mod:`repro.sim._eventcore`).
COMPILED_VERSION = "2"

try:  # The optional C extension (setup.py ext_modules, optional=True).
    from repro.sim import _eventcore as _compiled
except ImportError:  # pragma: no cover - exercised by the no-compiler CI leg
    _compiled = None
if getattr(_compiled, "__version__", COMPILED_VERSION) != COMPILED_VERSION:
    # A stale in-place build from an older checkout lacks this version's
    # entry points: treat it like a missing extension until rebuilt.
    _compiled = None  # pragma: no cover

#: Upper bound on each free-list; reuse is immediate, so a small cap
#: suffices and bounds worst-case retained memory.
POOL_LIMIT = 1024

#: Recognized backend names, in automatic-selection preference order.
BACKENDS = ("compiled", "calendar", "heapq")

#: Environment variable forcing a specific backend.
ENV_VAR = "REPRO_EVENTCORE"


def compiled_available() -> bool:
    """True when the C extension imported successfully."""
    return _compiled is not None


def available_backends() -> Tuple[str, ...]:
    """The backends usable in this interpreter, preference order."""
    if _compiled is not None:
        return BACKENDS
    return ("calendar", "heapq")


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve ``name`` (or ``$REPRO_EVENTCORE``, or automatic) to a
    concrete backend name, validating availability.

    Automatic selection prefers ``compiled`` over ``calendar`` over
    ``heapq``. An explicit request for an unavailable backend raises
    ``RuntimeError`` (not a silent fallback): a forced backend is a
    correctness/benchmark pin and must never degrade quietly.
    """
    if name is None:
        name = os.environ.get(ENV_VAR) or None
    if name is None:
        return "compiled" if _compiled is not None else "calendar"
    if name not in BACKENDS:
        raise ValueError(
            f"unknown event-core backend {name!r}: pick one of "
            f"{'/'.join(BACKENDS)} (via REPRO_EVENTCORE or "
            f"Simulator(backend=...))")
    if name == "compiled" and _compiled is None:
        raise RuntimeError(
            "event-core backend 'compiled' was requested but the "
            "repro.sim._eventcore extension is not importable — build it "
            "with `pip install .` (needs a C compiler) or drop "
            "REPRO_EVENTCORE to fall back to the calendar backend")
    return name


def backend_token(name: Optional[str] = None) -> str:
    """Stable identity of the active backend for cache fingerprints.

    Includes the compiled module's version so a rebuilt extension with
    changed semantics can never be served stale sweep-cache entries
    (``repro.experiments.executor.code_fingerprint_for`` mixes this
    token into every point's cache key).
    """
    backend = resolve_backend(name)
    if backend == "compiled":
        return f"compiled/{getattr(_compiled, '__version__', '0')}"
    return backend


def make_core(sim: Any, backend: Optional[str] = None) -> Any:
    """Build the event core for ``sim``; see :func:`resolve_backend`.

    With the sweep arena active (:func:`sweep_arena`), the new core
    inherits the previously built core's free-lists, so back-to-back
    simulators in one worker process start with warm pools.
    """
    backend = resolve_backend(backend)
    if backend == "compiled":
        core = _compiled.EventCore(sim, POOL_LIMIT)
    elif backend == "calendar":
        core = CalendarCore(sim)
    else:
        core = HeapqCore(sim)
    arena = _ARENA
    if arena.active:
        arena.adopt(core, sim)
    return core


#: Environment switch for the sweep arena (``1`` enables it without a
#: code change — what the pool's worker initializer and fabric workers
#: rely on being cheap to check).
ARENA_ENV_VAR = "REPRO_SWEEP_ARENA"


class SweepArena:
    """Carries event free-lists across simulators in one process.

    The free-lists (``timeout_pool`` / ``event_pool``) are per-core, so
    every new :class:`~repro.sim.engine.Simulator` used to start cold
    and re-allocate its way up to ``POOL_LIMIT`` pooled objects. A
    sweep worker builds one simulator per point — hundreds per process
    — so that warm-up is pure waste. The arena, when enabled, moves the
    previously built core's pooled objects into each new core at
    construction time (:func:`make_core`), rebinding each object's
    ``sim`` reference (pooled factories never touch ``.sim``, and
    ``events.py`` hard-rejects events bound to a foreign simulator).

    Safety: an object enters a pool only when the drive loop proved it
    unreferenced (``getrefcount == 2``) and reset it, so the pool list
    is its sole owner and moving it between cores cannot alias live
    state. Stealing from a simulator that is still alive merely leaves
    it with cold pools. Determinism is untouched — pooling only changes
    *allocation*, never event order (the PR 6 equivalence suites run
    with and without warm pools).

    The arena is **off by default**: in-process runs (tests, traced
    figures) keep their per-simulator pools. Sweep workers — the
    fabric's and the local pool's — enable it at startup;
    ``REPRO_SWEEP_ARENA=1`` forces it anywhere.
    """

    __slots__ = ("_enabled", "_source")

    def __init__(self) -> None:
        self._enabled = False
        #: the most recently adopted core (strong ref: it holds the
        #: warm pools until the next simulator claims them; one retained
        #: core per process is the cost of the reuse).
        self._source: Any = None

    @property
    def active(self) -> bool:
        return self._enabled or os.environ.get(ARENA_ENV_VAR) == "1"

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        """Turn the arena off and drop the retained core."""
        self._enabled = False
        self._source = None

    def adopt(self, core: Any, sim: Any) -> None:
        """Move the retained core's pools into ``core`` (for ``sim``)."""
        if getattr(sim, "trace", None) is not None:
            # Traced runs take the reference path and never recycle:
            # donated objects would strand there and break the traced
            # "pools stay empty" pin. Skip the sim entirely — the warm
            # chain continues from the last untraced core.
            return
        source = self._source
        self._source = core
        if source is None or source is core:
            return
        for name in ("timeout_pool", "event_pool"):
            source_pool = getattr(source, name)
            target_pool = getattr(core, name)
            room = POOL_LIMIT - len(target_pool)
            if room <= 0 or not source_pool:
                del source_pool[:]
                continue
            moved = source_pool[:room]
            # In-place mutation throughout: the compiled core exposes
            # its pools as read-only members backed by real lists.
            del source_pool[:]
            for recycled in moved:
                recycled.sim = sim
            target_pool.extend(moved)


_ARENA = SweepArena()


def sweep_arena() -> SweepArena:
    """The process-wide sweep arena singleton."""
    return _ARENA


class HeapqCore:
    """Reference backend: the original ``heapq`` kernel, kept verbatim.

    The heap holds ``(when, seq, event)`` tuples; ``seq`` is a global
    push counter that makes equal-time ordering FIFO and deterministic.
    ``drive`` is the exact pre-backend ``Simulator.run`` hot loop
    (same-timestamp batching, direct sole-waiter resume, refcount-gated
    free-list recycling) operating on core-local state.
    """

    backend = "heapq"

    __slots__ = ("sim", "_heap", "_sequence", "timeout_pool", "event_pool")

    def __init__(self, sim: Any):
        self.sim = sim
        self._heap: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        #: free-lists of processed, provably-unreferenced events
        self.timeout_pool: List[Timeout] = []
        self.event_pool: List[Event] = []

    # -- queue primitives -------------------------------------------------
    def push(self, when: float, event: Event) -> None:
        """Insert ``event`` at ``when`` behind all earlier pushes."""
        self._sequence = sequence = self._sequence + 1
        heappush(self._heap, (when, sequence, event))

    def pop(self) -> Tuple[float, Event]:
        """Remove and return ``(when, event)`` for the earliest event."""
        when, _seq, event = heappop(self._heap)
        return when, event

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` when empty."""
        heap = self._heap
        return heap[0][0] if heap else float("inf")

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def sequence(self) -> int:
        """Total events ever pushed (the FIFO tie-break counter)."""
        return self._sequence

    # -- pooled factories -------------------------------------------------
    def timeout(self, delay: float, value: Any = None,
                name: str = "") -> Timeout:
        """Create an event that fires ``delay`` seconds from now.

        The dominant call shape (``sim.timeout(d)`` with no value and no
        name) draws from the timeout free-list when recycled instances
        are available, skipping object allocation entirely.
        """
        pool = self.timeout_pool
        if pool and value is None and not name:
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            timeout = pool.pop()
            # Recycled instances were reset on entry to the pool
            # (no callbacks, no waiter, value None, ok True, name "").
            timeout.delay = delay
            timeout._state = 1  # Event.TRIGGERED
            self._sequence = sequence = self._sequence + 1
            heappush(self._heap, (self.sim.now + delay, sequence, timeout))
            return timeout
        return Timeout(self.sim, delay, value=value, name=name)

    def event(self, name: str = "") -> Event:
        """Create a pending :class:`Event`, recycling when possible."""
        pool = self.event_pool
        if pool:
            event = pool.pop()
            # Pool entries are reset on entry (no callbacks, no waiter,
            # value None, ok True); only name and state need setting.
            event.name = name
            event._state = 0  # Event.PENDING
            return event
        return Event(self.sim, name=name)

    def process(self, generator: Any, name: str = "") -> Process:
        """Start ``generator`` as a process; returns the joinable
        :class:`Process` (bootstrapped by a :meth:`wakeup` at now)."""
        return Process(self.sim, generator, name)

    def wakeup(self, process: Process, name: str) -> Event:
        """Schedule an already-triggered event that direct-resumes
        ``process`` on the next kernel step (bootstrap / interrupt)."""
        pool = self.event_pool
        if pool:
            event = pool.pop()
            event.name = name
            event._state = 1  # Event.TRIGGERED
        else:
            event = Event(self.sim, name=name)
            event._state = 1
        event._sole_waiter = process
        self._sequence = sequence = self._sequence + 1
        heappush(self._heap, (self.sim.now, sequence, event))
        return event

    # -- hot loop ---------------------------------------------------------
    def drive(self, until: Optional[float]) -> None:
        """Dispatch events (to ``until``, inclusive); untraced runs only.

        This is the pre-backend ``Simulator.run`` loop verbatim: events
        sharing the head timestamp drain in one inner batch, the
        single-waiter case resumes directly from the loop, and processed
        ``Timeout``/``Event`` instances whose only reference is the
        loop's are recycled through the free-lists.
        """
        sim = self.sim
        heap = self._heap
        pop = heappop
        getref = _getrefcount
        tpool = self.timeout_pool
        epool = self.event_pool
        limit = POOL_LIMIT
        # sim._failures keeps its identity until _raise_orphans swaps it
        # (and _raise_orphans is only entered when it is non-empty), so a
        # local alias is safe as long as it is re-bound after each call.
        failures = sim._failures
        if until is None:
            while heap:
                when, _seq, event = pop(heap)
                sim.now = when
                while True:
                    waiter = event._sole_waiter
                    if waiter is not None and not event.callbacks:
                        # Direct resume (inlined fast path of
                        # Event._process_callbacks).
                        event._sole_waiter = None
                        event._state = 2  # Event.PROCESSED
                        waiter._resume(event)
                        # Inlined recycle: class test first so
                        # non-poolable events skip the refcount call.
                        cls = event.__class__
                        if cls is Timeout:
                            if getref(event) == 2 and len(tpool) < limit:
                                # Only the loop local + getrefcount's
                                # argument reference it: recyclable.
                                event._value = None
                                event._ok = True
                                event.name = ""
                                tpool.append(event)
                        elif cls is Event:
                            if getref(event) == 2 and len(epool) < limit:
                                event._value = None
                                event._ok = True
                                event.name = ""
                                epool.append(event)
                    else:
                        event._process_callbacks()
                    if failures:
                        # Checked per event, not per batch: a waiter
                        # must be able to absorb a failure *before*
                        # the failed process's own completion event
                        # (same instant) clears its waiter slot.
                        sim._raise_orphans()
                        failures = sim._failures
                    if heap and heap[0][0] == when:
                        event = pop(heap)[2]
                    else:
                        break
            return

        while heap and heap[0][0] <= until:
            when, _seq, event = pop(heap)
            sim.now = when
            while True:
                waiter = event._sole_waiter
                if waiter is not None and not event.callbacks:
                    event._sole_waiter = None
                    event._state = 2  # Event.PROCESSED
                    waiter._resume(event)
                    cls = event.__class__
                    if cls is Timeout:
                        if getref(event) == 2 and len(tpool) < limit:
                            event._value = None
                            event._ok = True
                            event.name = ""
                            tpool.append(event)
                    elif cls is Event:
                        if getref(event) == 2 and len(epool) < limit:
                            event._value = None
                            event._ok = True
                            event.name = ""
                            epool.append(event)
                else:
                    event._process_callbacks()
                if failures:
                    sim._raise_orphans()
                    failures = sim._failures
                if heap and heap[0][0] == when:
                    event = pop(heap)[2]
                else:
                    break

    def __repr__(self) -> str:
        return f"<HeapqCore pending={len(self._heap)} seq={self._sequence}>"


#: Smallest calendar the queue ever shrinks to.
_MIN_BUCKETS = 8
#: Entries held in the sorted front buffer before the calendar engages.
_FRONT_MAX = 4

#: "Run to drain" sentinel for the drive horizon.
_INF = float("inf")


class CalendarCore:
    """Pure-Python calendar-queue backend (the no-compiler default).

    See the module docstring for the bucket math. Three structural fast
    paths give it its edge over :class:`HeapqCore` on kernel workloads:

    * **a sorted front buffer** — the up-to-``_FRONT_MAX`` earliest
      entries live *outside* the calendar in ``_front``, a tiny
      when-ascending list (the classic front-cache variant, widened).
      The near-empty queues that dominate kernel workloads (one or two
      processes sleeping on their next timeouts) are served entirely
      from list ops on this buffer: no day math, no bucket touch, no
      scan. The calendar proper only engages beyond four distinct
      pending timestamps;
    * **one entry per distinct timestamp** — a same-instant burst is a
      single entry whose events list is already in FIFO order, so
      draining a batch is an index walk, and an event pushed at the
      instant being drained appends straight onto the live batch;
    * **an inlined resume fast path in ``drive``** — the dominant
      dispatch shape (sole waiter, successful trigger, started process,
      no pending interrupts) resumes the generator without going
      through ``Process._resume``'s frame, falling back to the exact
      reference method for every cold case.

    Front-buffer invariants: ``_front`` is empty only when the whole
    structure is empty; its entries are strictly when-ascending; and
    every calendar entry's timestamp is *strictly greater* than every
    front timestamp (equal-time pushes merge into the matching front
    entry, and new timestamps beyond the front only enter the front
    while the calendar is empty). Strictness is what makes
    :meth:`_insert_entry` — used to spill the front's last entry when
    the buffer overflows — merge-free.

    ``drive`` dispatches a *detached* entry (``_size`` still counts its
    events), so a resize triggered by a push mid-batch can never
    duplicate the live entry; an exception propagating mid-batch
    re-installs the unprocessed tail at the buffer's head.
    """

    backend = "calendar"

    __slots__ = ("sim", "_buckets", "_nbuckets", "_mask", "_width",
                 "_inv_width", "_day", "_size", "_nentries", "_sequence",
                 "_front", "_active_when", "_active_batch", "timeout_pool",
                 "event_pool")

    def __init__(self, sim: Any):
        self.sim = sim
        self._nbuckets = _MIN_BUCKETS
        self._mask = self._nbuckets - 1
        self._buckets: List[List[list]] = [[] for _ in range(self._nbuckets)]
        self._width = 1.0
        self._inv_width = 1.0
        #: unmasked bucket number the dequeue cursor is on
        self._day = 0
        #: pending events (exact: maintained per push / per dispatch)
        self._size = 0
        #: live ``[when, seq, events]`` entries across all buckets
        #: (front-buffer entries are *not* counted: they are detached)
        self._nentries = 0
        self._sequence = 0
        #: the earliest pending entries, sorted, detached from the
        #: calendar (never rebound: mutated in place)
        self._front: List[list] = []
        #: timestamp of the batch ``drive`` is draining (else None)
        self._active_when: Any = None
        self._active_batch: Optional[List[Event]] = None
        #: free-lists of processed, provably-unreferenced events
        self.timeout_pool: List[Timeout] = []
        self.event_pool: List[Event] = []

    # -- queue primitives -------------------------------------------------
    def push(self, when: float, event: Event) -> None:
        """Insert ``event`` at ``when`` behind all earlier pushes.

        The entry payload (``entry[2]``) is the bare event in the
        dominant one-event-per-timestamp case — one list allocation per
        push, same as ``heapq``'s tuple — and is promoted to a list on
        the first same-timestamp merge.
        """
        self._sequence = sequence = self._sequence + 1
        if when == self._active_when:
            # Same-instant tail: joins the batch being drained, exactly
            # where (when, seq) order would have popped it next.
            self._active_batch.append(event)
            self._size += 1
            return
        front = self._front
        if front:
            last = front[-1]
            last_when = last[0]
            if when > last_when:
                if self._nentries or len(front) >= _FRONT_MAX:
                    self._calendar_insert(when, sequence, event)
                else:
                    front.append([when, sequence, event])
            elif when == last_when:
                payload = last[2]
                if type(payload) is list:
                    payload.append(event)
                else:
                    last[2] = [payload, event]
            else:
                self._front_insert(front, when, sequence, event)
        else:
            front.append([when, sequence, event])
        self._size += 1

    def _front_insert(self, front: List[list], when: float,
                      sequence: int, event: Event) -> None:
        """Insert below the front's last entry (already ruled out),
        merging on equal timestamps and spilling the buffer's last
        entry to the calendar on overflow."""
        for index in range(len(front) - 2, -1, -1):
            entry = front[index]
            entry_when = entry[0]
            if entry_when == when:
                payload = entry[2]
                if type(payload) is list:
                    payload.append(event)
                else:
                    entry[2] = [payload, event]
                return
            if entry_when < when:
                front.insert(index + 1, [when, sequence, event])
                break
        else:
            front.insert(0, [when, sequence, event])
        if len(front) > _FRONT_MAX:
            self._insert_entry(front.pop())

    def _calendar_insert(self, when: float, sequence: int,
                         event: Event) -> None:
        """Insert behind the front buffer (``when > _front[-1][0]``)."""
        day = int(when * self._inv_width)
        bucket = self._buckets[day & self._mask]
        if bucket:
            tail = bucket[-1]
            tail_when = tail[0]
            if tail_when == when:          # merge into existing entry
                payload = tail[2]
                if type(payload) is list:
                    payload.append(event)
                else:
                    tail[2] = [payload, event]
                return
            if tail_when < when:           # monotone append (common)
                bucket.append([when, sequence, event])
            elif not self._insert_sorted(bucket, when, sequence, event):
                return
        else:
            bucket.append([when, sequence, event])
        if self._nentries == 0 or day < self._day:
            self._day = day
        self._nentries += 1
        if self._nentries > 2 * self._nbuckets:
            self._rebuild(self._nbuckets * 2)

    @staticmethod
    def _insert_sorted(bucket: List[list], when: float,
                       sequence: int, event: Event) -> bool:
        """Out-of-order insert keeping the bucket sorted by ``when``;
        merges with an equal-time entry. Returns True when a new entry
        was created. Buckets stay O(1) long, so the backwards walk
        beats bisect's per-probe key indirection. The caller already
        ruled out the last entry."""
        for index in range(len(bucket) - 2, -1, -1):
            entry = bucket[index]
            entry_when = entry[0]
            if entry_when == when:
                payload = entry[2]
                if type(payload) is list:
                    payload.append(event)
                else:
                    entry[2] = [payload, event]
                return False
            if entry_when < when:
                bucket.insert(index + 1, [when, sequence, event])
                return True
        bucket.insert(0, [when, sequence, event])
        return True

    def _find_min(self) -> Tuple[List[list], list]:
        """(bucket, head entry) of the earliest *calendar* entry.

        Caller guarantees at least one entry exists. Scans forward from
        the day cursor; a fruitless full year falls back to a direct
        min search over all bucket heads (sparse-queue guard).
        """
        buckets = self._buckets
        mask = self._mask
        inv_width = self._inv_width
        day = self._day
        scanned = 0
        nbuckets = self._nbuckets
        while True:
            bucket = buckets[day & mask]
            if bucket:
                head = bucket[0]
                if int(head[0] * inv_width) == day:
                    self._day = day
                    return bucket, head
            day += 1
            scanned += 1
            if scanned >= nbuckets:
                best_bucket = None
                best_when = None
                for bucket in buckets:
                    if bucket:
                        head_when = bucket[0][0]
                        if best_when is None or head_when < best_when:
                            best_when = head_when
                            best_bucket = bucket
                self._day = int(best_when * inv_width)
                return best_bucket, best_bucket[0]

    def _insert_entry(self, entry: list) -> None:
        """Attach a detached entry (a spilled front-buffer tail) to the
        calendar.

        Merge-free by the front-buffer invariant: every calendar
        timestamp is strictly greater than every front timestamp, so a
        spilled entry never collides.
        """
        when = entry[0]
        day = int(when * self._inv_width)
        bucket = self._buckets[day & self._mask]
        if not bucket or bucket[-1][0] < when:
            bucket.append(entry)
        else:
            index = len(bucket) - 1
            while index > 0 and bucket[index - 1][0] > when:
                index -= 1
            bucket.insert(index, entry)
        if self._nentries == 0 or day < self._day:
            self._day = day
        self._nentries += 1
        if self._nentries > 2 * self._nbuckets:
            self._rebuild(self._nbuckets * 2)

    def _rebuild(self, nbuckets: int) -> None:
        """Re-bucket every calendar entry into ``nbuckets`` buckets,
        re-estimating the bucket width as 3x the mean gap between
        adjacent distinct pending timestamps (the classic
        calendar-queue heuristic). Front-buffer entries are detached
        and unaffected."""
        entries = [entry for bucket in self._buckets for entry in bucket]
        entries.sort(key=lambda entry: entry[0])
        if len(entries) > 1:
            span = entries[-1][0] - entries[0][0]
            if span > 0.0:
                width = 3.0 * span / (len(entries) - 1)
                self._width = width
                self._inv_width = 1.0 / width
        self._nbuckets = nbuckets
        self._mask = mask = nbuckets - 1
        inv_width = self._inv_width
        self._buckets = buckets = [[] for _ in range(nbuckets)]
        for entry in entries:
            buckets[int(entry[0] * inv_width) & mask].append(entry)
        if entries:
            self._day = int(entries[0][0] * inv_width)

    def _maybe_shrink(self) -> None:
        if (self._nentries < self._nbuckets >> 2
                and self._nbuckets > _MIN_BUCKETS):
            self._rebuild(self._nbuckets >> 1)

    def pop(self) -> Tuple[float, Event]:
        """Remove and return ``(when, event)`` for the earliest event.

        The reference path used by ``step()`` and traced runs; never
        recycles, never batches.
        """
        front = self._front
        if not front:
            raise IndexError("pop from an empty event core")
        entry = front[0]
        payload = entry[2]
        self._size -= 1
        if type(payload) is list:
            event = payload.pop(0)
            if payload:
                return entry[0], event
        else:
            event = payload
            entry[2] = None
        del front[0]
        if not front and self._nentries:
            # Refill the buffer with the earliest calendar entry.
            bucket, nxt = self._find_min()
            del bucket[0]
            self._nentries -= 1
            front.append(nxt)
            self._maybe_shrink()
        return entry[0], event

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` when empty."""
        front = self._front
        return front[0][0] if front else float("inf")

    def __len__(self) -> int:
        return self._size

    @property
    def sequence(self) -> int:
        """Total events ever pushed (the FIFO tie-break counter)."""
        return self._sequence

    # -- pooled factories -------------------------------------------------
    def timeout(self, delay: float, value: Any = None,
                name: str = "") -> Timeout:
        """Create an event firing ``delay`` seconds from now (pooled).

        The pooled fast path inlines ``push``'s front-buffer branches
        (one call frame fewer on the kernel's hottest allocation site);
        the out-of-order and calendar-resident cases and the cold
        branches defer to the real methods.
        """
        pool = self.timeout_pool
        if pool and value is None and not name:
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            timeout = pool.pop()
            # Recycled instances were reset on entry to the pool
            # (no callbacks, no waiter, value None, ok True, name "").
            timeout.delay = delay
            timeout._state = 1  # Event.TRIGGERED
            self._sequence = sequence = self._sequence + 1
            when = self.sim.now + delay
            if when == self._active_when:
                self._active_batch.append(timeout)
                self._size += 1
                return timeout
            front = self._front
            if front:
                last = front[-1]
                last_when = last[0]
                if when > last_when:
                    if self._nentries or len(front) >= _FRONT_MAX:
                        self._calendar_insert(when, sequence, timeout)
                    else:
                        front.append([when, sequence, timeout])
                elif when == last_when:
                    payload = last[2]
                    if type(payload) is list:
                        payload.append(timeout)
                    else:
                        last[2] = [payload, timeout]
                else:
                    self._front_insert(front, when, sequence, timeout)
            else:
                front.append([when, sequence, timeout])
            self._size += 1
            return timeout
        return Timeout(self.sim, delay, value=value, name=name)

    def event(self, name: str = "") -> Event:
        """Create a pending :class:`Event`, recycling when possible."""
        pool = self.event_pool
        if pool:
            event = pool.pop()
            # Pool entries are reset on entry (no callbacks, no waiter,
            # value None, ok True); only name and state need setting.
            event.name = name
            event._state = 0  # Event.PENDING
            return event
        return Event(self.sim, name=name)

    def process(self, generator: Any, name: str = "") -> Process:
        """Start ``generator`` as a process (see :meth:`HeapqCore.process`)."""
        return Process(self.sim, generator, name)

    def wakeup(self, process: Process, name: str) -> Event:
        """Pooled, already-triggered direct-resume event at ``now``."""
        pool = self.event_pool
        if pool:
            event = pool.pop()
            event.name = name
            event._state = 1  # Event.TRIGGERED
        else:
            event = Event(self.sim, name=name)
            event._state = 1
        event._sole_waiter = process
        self.push(self.sim.now, event)
        return event

    # -- hot loop ---------------------------------------------------------
    def drive(self, until: Optional[float]) -> None:
        """Dispatch events (to ``until``, inclusive); untraced runs only.

        Semantically identical to :meth:`HeapqCore.drive` (pinned by the
        equivalence suite); structurally it detaches the front buffer's
        head — one timestamp's FIFO batch — per outer iteration,
        *refilling the buffer from the calendar first* when it empties,
        so pushes from resumed processes always compare against the
        true remaining minimum. The refill scan is inlined (no
        per-batch method calls), and single-event batches — the
        dominant case — skip the live-batch machinery entirely: a
        same-instant push during such a dispatch simply becomes the new
        buffer head at the same timestamp, which the next iteration
        dispatches in unchanged ``(when, seq)`` order.
        """
        sim = self.sim
        getref = _getrefcount
        tpool = self.timeout_pool
        epool = self.event_pool
        limit = POOL_LIMIT
        min_buckets = _MIN_BUCKETS
        front = self._front  # never rebound: safe to hoist
        # Locals for every name the per-event path would otherwise look
        # up as a global, and +inf as the "run to drain" sentinel so
        # the horizon is one float compare per batch.
        list_cls = list
        timeout_cls = Timeout
        event_cls = Event
        if until is None:
            until = _INF
        failures = sim._failures
        # The buffer is empty only when the whole structure is (pushes
        # land in it first and the refill below immediately replenishes
        # it), so it doubles as the drain condition.
        while front:
            entry = front[0]
            when = entry[0]
            if when > until:
                break
            del front[0]
            if not front and self._nentries:
                # Inlined calendar refill (pushes from dispatched
                # processes can rebuild the calendar, so its locals
                # are read fresh each time).
                buckets = self._buckets
                mask = self._mask
                inv_width = self._inv_width
                day = self._day
                scanned = 0
                nbuckets = self._nbuckets
                while True:
                    bucket = buckets[day & mask]
                    if bucket:
                        nxt = bucket[0]
                        if int(nxt[0] * inv_width) == day:
                            self._day = day
                            break
                    day += 1
                    scanned += 1
                    if scanned >= nbuckets:
                        bucket = None
                        best_when = None
                        for candidate in buckets:
                            if candidate:
                                head_when = candidate[0][0]
                                if best_when is None or head_when < best_when:
                                    best_when = head_when
                                    bucket = candidate
                        nxt = bucket[0]
                        self._day = int(best_when * inv_width)
                        break
                del bucket[0]
                front.append(nxt)
                self._nentries = nentries = self._nentries - 1
                if nentries < nbuckets >> 2 and nbuckets > min_buckets:
                    self._rebuild(nbuckets >> 1)
            event = entry[2]
            sim.now = when
            if type(event) is not list_cls:
                # Single-event entry (bare payload): no live-batch
                # state, no unwind protection needed (the one event is
                # consumed up front; an exception leaves nothing
                # stranded). ``event`` is the only reference left once
                # the entry slot is cleared — the recycle check needs
                # that sole custody.
                entry[2] = None
                self._size -= 1
                waiter = event._sole_waiter
                if waiter is not None and not event.callbacks:
                    event._sole_waiter = None
                    event._state = 2  # Event.PROCESSED
                    if (not waiter._interrupts and event._ok
                            and waiter._started):
                        # Inlined Process._resume fast path: an ok
                        # trigger into a started, uninterrupted
                        # process. Anything colder falls back to the
                        # reference method.
                        waiter._waiting_on = None
                        try:
                            target = waiter._send(event._value)
                        except StopIteration as stop:
                            waiter._finish(True, stop.value)
                        except BaseException as exc:  # noqa: BLE001
                            waiter._finish(False, exc)
                        else:
                            try:
                                target_state = target._state
                            except AttributeError:
                                trigger = event_cls(sim)
                                trigger._ok = False
                                trigger._value = TypeError(
                                    f"process {waiter.name!r} yielded "
                                    f"non-event {target!r}; yield "
                                    f"Event/Timeout/Process")
                                waiter._resume(trigger)
                            else:
                                if target_state == 2:
                                    # Already processed: delivering it
                                    # through _resume is exactly the
                                    # reference loop's
                                    # ``trigger = target; continue``.
                                    waiter._resume(target)
                                elif (target._sole_waiter is None
                                        and not target.callbacks):
                                    waiter._waiting_on = target
                                    target._sole_waiter = waiter
                                else:
                                    waiter._waiting_on = target
                                    target.callbacks.append(
                                        waiter._resume)
                    else:
                        waiter._resume(event)
                    cls = event.__class__
                    if cls is timeout_cls:
                        if getref(event) == 2 and len(tpool) < limit:
                            event._value = None
                            event._ok = True
                            event.name = ""
                            tpool.append(event)
                    elif cls is event_cls:
                        if getref(event) == 2 and len(epool) < limit:
                            event._value = None
                            event._ok = True
                            event.name = ""
                            epool.append(event)
                else:
                    event._process_callbacks()
                if failures:
                    # Per event, not per batch: a waiter must be able
                    # to absorb a failure *before* the failed
                    # process's own completion event (same instant)
                    # clears its waiter slot.
                    sim._raise_orphans()
                    failures = sim._failures
            else:
                batch = event
                self._active_when = when
                self._active_batch = batch
                index = 0
                try:
                    length = len(batch)
                    while index < length:
                        event = batch[index]
                        # Clear the slot so the batch holds no
                        # reference: the recycle check must see the
                        # loop local as the only remaining referent.
                        batch[index] = None
                        index += 1
                        self._size -= 1
                        waiter = event._sole_waiter
                        if waiter is not None and not event.callbacks:
                            event._sole_waiter = None
                            event._state = 2  # Event.PROCESSED
                            if (not waiter._interrupts and event._ok
                                    and waiter._started):
                                waiter._waiting_on = None
                                try:
                                    target = waiter._send(event._value)
                                except StopIteration as stop:
                                    waiter._finish(True, stop.value)
                                except BaseException as exc:  # noqa: BLE001
                                    waiter._finish(False, exc)
                                else:
                                    try:
                                        target_state = target._state
                                    except AttributeError:
                                        trigger = event_cls(sim)
                                        trigger._ok = False
                                        trigger._value = TypeError(
                                            f"process {waiter.name!r} "
                                            f"yielded non-event "
                                            f"{target!r}; yield "
                                            f"Event/Timeout/Process")
                                        waiter._resume(trigger)
                                    else:
                                        if target_state == 2:
                                            waiter._resume(target)
                                        elif (target._sole_waiter is None
                                                and not target.callbacks):
                                            waiter._waiting_on = target
                                            target._sole_waiter = waiter
                                        else:
                                            waiter._waiting_on = target
                                            target.callbacks.append(
                                                waiter._resume)
                            else:
                                waiter._resume(event)
                            cls = event.__class__
                            if cls is timeout_cls:
                                if (getref(event) == 2
                                        and len(tpool) < limit):
                                    event._value = None
                                    event._ok = True
                                    event.name = ""
                                    tpool.append(event)
                            elif cls is event_cls:
                                if (getref(event) == 2
                                        and len(epool) < limit):
                                    event._value = None
                                    event._ok = True
                                    event.name = ""
                                    epool.append(event)
                        else:
                            event._process_callbacks()
                        if failures:
                            sim._raise_orphans()
                            failures = sim._failures
                        length = len(batch)
                finally:
                    self._active_when = None
                    self._active_batch = None
                    if index != len(batch):
                        # Exception propagating mid-batch: the
                        # unprocessed tail (still the minimum) goes
                        # back to the buffer's head — exactly like
                        # the reference loop leaves same-instant
                        # events on the heap — spilling on overflow.
                        del batch[:index]
                        front.insert(0, entry)
                        if len(front) > _FRONT_MAX:
                            self._insert_entry(front.pop())

    def __repr__(self) -> str:
        return (f"<CalendarCore pending={self._size} "
                f"buckets={self._nbuckets} width={self._width:g} "
                f"seq={self._sequence}>")
