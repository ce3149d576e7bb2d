"""I/O request model and device interface shared by every layer.

The whole stack — clients, the stream-aware server, OS scheduler baselines,
controllers and disks — exchanges :class:`IORequest` objects and talks to
lower layers through the :class:`BlockDevice` protocol, so components
compose freely (server over raw disk, server over controller, scheduler over
controller, ...).
"""

from __future__ import annotations

import enum
import itertools
import typing
from dataclasses import dataclass
from typing import Any, Optional, Protocol, runtime_checkable

from repro.units import SECTOR_BYTES

if typing.TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.events import Event

__all__ = ["IOKind", "IORequest", "BlockDevice", "request_id_source",
           "stamp_submit"]


def stamp_submit(request: "IORequest", now: float) -> None:
    """Record the request's first submission time.

    Layers call this on entry; only the *first* layer's stamp sticks, so
    ``request.latency`` is end-to-end (client-visible) even when the
    request traverses server → node → controller → drive, each of which
    would otherwise overwrite the stamp and erase upper-layer queueing.
    """
    if request.submit_time == 0.0:
        request.submit_time = now


class IOKind(enum.Enum):
    """Request direction."""

    READ = "read"
    WRITE = "write"


#: Monotonic ids shared process-wide; ids only need to be unique per run.
request_id_source = itertools.count(1)


@dataclass(slots=True, init=False)
class IORequest:
    """One block-level I/O request.

    Slotted: requests are created once per client I/O and their fields
    are read in every layer they traverse (server, node, controller,
    drive, cache), so the slot layout pays for itself immediately. The
    constructor is written by hand for the same reason: one frame, where
    the generated one also ran ``__post_init__`` and a default factory
    per request.

    Addresses are byte offsets from the start of the target device; the disk
    layer converts to sectors. Requests must be sector-aligned — the stack
    models a block device, not a file API.

    Attributes
    ----------
    kind:
        READ or WRITE.
    disk_id:
        Target disk within the storage node (0-based). Single-device layers
        ignore it.
    offset / size:
        Byte range ``[offset, offset + size)``.
    stream_id:
        Identity of the logical stream/client thread that issued the request;
        the classifier and CFQ group by it. ``None`` for anonymous requests.
    submit_time / complete_time:
        Stamped by the layer that owns the client-visible lifecycle.
    parent:
        For split/coalesced requests, the originating request.
    request_id:
        Drawn from :data:`request_id_source` unless given.
    annotations:
        Free-form per-layer scratch (cache-hit flags, queue names...). Layers
        must namespace their keys (e.g. ``"core.hit"``).
    """

    kind: IOKind
    disk_id: int
    offset: int
    size: int
    stream_id: Optional[int]
    submit_time: float
    complete_time: float
    parent: Optional["IORequest"]
    request_id: int
    annotations: dict

    def __init__(self, kind: IOKind, disk_id: int, offset: int, size: int,
                 stream_id: Optional[int] = None, submit_time: float = 0.0,
                 complete_time: float = 0.0,
                 parent: Optional["IORequest"] = None,
                 request_id: Optional[int] = None,
                 annotations: Optional[dict] = None) -> None:
        self.kind = kind
        self.disk_id = disk_id
        self.offset = offset
        self.size = size
        self.stream_id = stream_id
        self.submit_time = submit_time
        self.complete_time = complete_time
        self.parent = parent
        # Drawn before validation, as the generated constructor did: a
        # rejected request still consumes its id.
        self.request_id = (next(request_id_source) if request_id is None
                           else request_id)
        self.annotations = {} if annotations is None else annotations
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        if size <= 0:
            raise ValueError(f"non-positive size: {size}")
        if offset % SECTOR_BYTES or size % SECTOR_BYTES:
            raise ValueError(
                f"request not sector-aligned: offset={offset} "
                f"size={size}")

    # -- geometry helpers ----------------------------------------------------
    @property
    def end(self) -> int:
        """One-past-the-end byte offset."""
        return self.offset + self.size

    @property
    def is_read(self) -> bool:
        """True for READ requests."""
        return self.kind is IOKind.READ

    @property
    def latency(self) -> float:
        """Completion minus submission time (valid once completed)."""
        return self.complete_time - self.submit_time

    def overlaps(self, offset: int, size: int) -> bool:
        """True when this request intersects ``[offset, offset+size)``."""
        return self.offset < offset + size and offset < self.end

    def contains(self, offset: int, size: int) -> bool:
        """True when ``[offset, offset+size)`` lies inside this request."""
        return self.offset <= offset and offset + size <= self.end

    def adjacent_after(self, other: "IORequest") -> bool:
        """True when this request starts exactly where ``other`` ends."""
        return self.disk_id == other.disk_id and self.offset == other.end

    def derive(self, offset: int, size: int, kind: Optional[IOKind] = None,
               ) -> "IORequest":
        """Child request over a sub/super-range, linked via ``parent``."""
        return IORequest(
            kind=kind or self.kind,
            disk_id=self.disk_id,
            offset=offset,
            size=size,
            stream_id=self.stream_id,
            submit_time=self.submit_time,
            parent=self,
        )

    def __repr__(self) -> str:
        return (f"<IO#{self.request_id} {self.kind.value} d{self.disk_id} "
                f"[{self.offset}, {self.end}) s={self.stream_id}>")


@runtime_checkable
class BlockDevice(Protocol):
    """Anything that services :class:`IORequest` objects.

    ``submit`` returns an event that fires with the request when it
    completes; the device stamps ``complete_time``. ``capacity_bytes`` is
    the addressable size (per disk for multi-disk devices).
    """

    capacity_bytes: int

    def submit(self, request: IORequest) -> "Event":
        """Begin servicing ``request``; returns its completion event."""
        ...  # pragma: no cover - protocol stub
