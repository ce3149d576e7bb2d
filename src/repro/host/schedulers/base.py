"""Scheduler interface and shared elevator machinery.

A scheduler owns the set of queued requests for one device and answers
one question: *what should the device do right now?* The three possible
answers are modelled explicitly so anticipatory idling is first-class:

* :class:`Dispatch` — send this request to the device;
* :class:`Idle` — deliberately keep the device idle until a deadline
  (re-evaluated early if a new request arrives);
* ``None`` — nothing queued.
"""

from __future__ import annotations

import abc
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import List, Optional

from repro.io import IORequest

__all__ = ["Dispatch", "ElevatorQueue", "Idle", "IOScheduler"]


@dataclass(frozen=True)
class Dispatch:
    """Decision: issue ``request`` now."""

    request: IORequest


@dataclass(frozen=True)
class Idle:
    """Decision: stay idle until ``until`` (absolute simulated time)."""

    until: float


class IOScheduler(abc.ABC):
    """Queue + policy for one device.

    The block layer calls :meth:`add` on arrival, :meth:`decide` whenever
    the device is free (or an idle deadline passed, or a request arrived),
    and :meth:`on_complete` on completion.
    """

    name: str = "abstract"

    def __init__(self):
        self.queued = 0
        self.dispatched = 0

    @abc.abstractmethod
    def add(self, request: IORequest, now: float) -> None:
        """Accept a new request at time ``now``."""

    @abc.abstractmethod
    def decide(self, now: float) -> Optional[object]:
        """Return :class:`Dispatch`, :class:`Idle`, or ``None`` (empty)."""

    def on_complete(self, request: IORequest, now: float) -> None:
        """Completion callback (default: no-op)."""

    def __len__(self) -> int:
        return self.queued

    def __repr__(self) -> str:
        return f"<{type(self).__name__} queued={self.queued}>"


class ElevatorQueue:
    """Offset-sorted request list with a one-directional sweep cursor.

    The C-LOOK style ``pick``: take the first request at or past the
    current position; wrap to the lowest offset when none remain ahead.
    """

    def __init__(self):
        self._requests: List[tuple[int, int, IORequest]] = []
        self.position = 0

    def __len__(self) -> int:
        return len(self._requests)

    def add(self, request: IORequest) -> None:
        """Insert keeping offset order (request id breaks ties)."""
        insort(self._requests, (request.offset, request.request_id, request))

    def remove(self, request: IORequest) -> None:
        """Remove a specific queued request."""
        self._requests.remove(
            (request.offset, request.request_id, request))

    def pick(self) -> Optional[IORequest]:
        """Pop the next request in sweep order and advance the cursor."""
        if not self._requests:
            return None
        index = bisect_right(self._requests,
                             (self.position, -1, None))  # type: ignore[arg-type]
        if index >= len(self._requests):
            index = 0  # wrap: C-LOOK returns to the lowest offset
        _offset, _id, request = self._requests.pop(index)
        self.position = request.end
        return request
