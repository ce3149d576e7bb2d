"""The anticipatory scheduler (Iyer & Druschel, SOSP'01; Linux 2.6 "as").

After completing a read for stream *S*, the disk is deliberately kept
idle for a short window: if *S* issues another nearby read (which a
synchronous sequential reader does almost immediately), it is serviced
without a seek, defeating "deceptive idleness". A per-stream batch budget
bounds how long one stream may monopolise the head.
"""

from __future__ import annotations

from typing import Optional

from repro.host.schedulers.base import (
    Dispatch,
    ElevatorQueue,
    Idle,
    IOScheduler,
)
from repro.io import IORequest
from repro.units import MiB

__all__ = ["AnticipatoryScheduler"]


class AnticipatoryScheduler(IOScheduler):
    """Elevator + anticipation window + per-stream batch budget.

    Parameters
    ----------
    antic_timeout:
        How long to keep the disk idle waiting for the last stream's next
        read (Linux ``antic_expire`` ≈ 6.7 ms).
    near_bytes:
        A waiting request counts as "the anticipated one" when it starts
        within this distance of the last completed read's end.
    batch_expire:
        Maximum continuous service time one stream may receive before the
        elevator moves on (Linux ``read_batch_expire`` = 500 ms; a lower
        value keeps many-stream fairness comparable to the paper's box).
    """

    name = "anticipatory"

    def __init__(self, antic_timeout: float = 0.0067,
                 near_bytes: int = 4 * MiB, batch_expire: float = 0.25):
        super().__init__()
        if antic_timeout < 0 or near_bytes < 0 or batch_expire <= 0:
            raise ValueError("anticipatory parameters out of range")
        self.antic_timeout = antic_timeout
        self.near_bytes = near_bytes
        self.batch_expire = batch_expire
        self._elevator = ElevatorQueue()
        self._antic_stream: Optional[int] = None
        self._antic_position = 0
        self._antic_until = 0.0
        self._batch_stream: Optional[int] = None
        self._batch_start = 0.0
        #: Per-stream think-time estimation (EWMA of completion→next-
        #: request gaps), like Linux AS's io-context ``ttime``: streams
        #: whose next request predictably arrives after the window is
        #: not worth idling for.
        self._last_completion: dict[int, float] = {}
        self._think_ewma: dict[int, float] = {}
        self.anticipation_hits = 0
        self.anticipation_timeouts = 0
        self.anticipation_skips = 0

    def add(self, request: IORequest, now: float) -> None:
        stream = request.stream_id
        if stream is not None and stream in self._last_completion:
            gap = now - self._last_completion.pop(stream)
            previous = self._think_ewma.get(stream, gap)
            self._think_ewma[stream] = 0.75 * previous + 0.25 * gap
        self._elevator.add(request)
        self.queued += 1

    def on_complete(self, request: IORequest, now: float) -> None:
        if not request.is_read or request.stream_id is None:
            self._antic_stream = None
            return
        self._last_completion[request.stream_id] = now
        if self._batch_stream != request.stream_id:
            self._batch_stream = request.stream_id
            self._batch_start = now
        if now - self._batch_start >= self.batch_expire:
            # Stream exhausted its batch: no anticipation, move on.
            self._antic_stream = None
            return
        estimated_think = self._think_ewma.get(request.stream_id, 0.0)
        if estimated_think > self.antic_timeout:
            # Slow thinker: idling for it would always time out.
            self._antic_stream = None
            self.anticipation_skips += 1
            return
        self._antic_stream = request.stream_id
        self._antic_position = request.end
        self._antic_until = now + self.antic_timeout

    def decide(self, now: float):
        if not len(self._elevator):
            # Keep anticipating on an empty queue; the block layer will
            # re-ask on arrival or at the deadline.
            if self._antic_stream is not None and now < self._antic_until:
                return Idle(self._antic_until)
            return None
        if self._antic_stream is not None:
            anticipated = self._find_anticipated()
            if anticipated is not None:
                self._elevator.remove(anticipated)
                self._elevator.position = anticipated.end
                self._antic_stream = None
                self.anticipation_hits += 1
                self.queued -= 1
                self.dispatched += 1
                return Dispatch(anticipated)
            if now < self._antic_until:
                return Idle(self._antic_until)
            self._antic_stream = None
            self.anticipation_timeouts += 1
        request = self._elevator.pick()
        self.queued -= 1
        self.dispatched += 1
        return Dispatch(request)

    def _find_anticipated(self) -> Optional[IORequest]:
        """First queued read of the anticipated stream near its last
        completion, in offset order (a scan of the elevator in place)."""
        stream = self._antic_stream
        position = self._antic_position
        near = self.near_bytes
        for offset, _id, request in self._elevator._requests:
            if (request.stream_id == stream and request.is_read
                    and abs(offset - position) <= near):
                return request
        return None
