"""Outside-in probes: instance registry, entry-point wrappers, profiler.

Everything here patches the ``repro`` classes from the outside; no file
of the program is edited. Three mechanisms, from cheapest to dearest:

* :class:`Registry` records every simulator, server, node, controller,
  drive, block layer and fleet a workload builds (one wrapped
  ``__init__`` call per object), so their public ``stats`` registries
  can be read after the run. It is on in every run.
* :class:`Tracer` wraps each layer's public entry points. Every call is
  counted, timed and recorded as a span; a span's self time is its
  duration minus the part its child spans cover. Only traced runs
  install it.
* :func:`layer_self_times` folds a ``cProfile`` table into per-layer
  self time. Work that a generator process resumes runs under the
  kernel's loop, not under the entry point that started it, so only a
  deterministic profiler can charge it to the right package.

Sweep points run in pool workers. :func:`timed_invoke` replaces the
executor's worker entry point, runs the point under the same probes and
writes one JSON record per point into the directory named by
``PERFBENCH_POINT_DIR``; the parent reads them back after the sweep.
"""

from __future__ import annotations

import cProfile
import json
import os
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

perf_counter = time.perf_counter

#: The program's layers, in the order reports list them.
LAYERS = ("sim", "stats", "workload", "core", "node", "controller",
          "disk", "host", "experiments", "obs")

#: Environment variables a sweep's parent passes to its pool workers.
POINT_DIR_ENV = "PERFBENCH_POINT_DIR"
TRACE_ENV = "PERFBENCH_TRACE"

#: Spans kept per process for the Chrome trace; later ones are counted
#: in ``dropped`` (their time still counts toward the self times).
SPAN_CAPACITY = 20000
#: Spans a pool worker keeps per point.
POINT_SPAN_CAPACITY = 1000
#: Entry points called a few times per simulation, whose spans are
#: always kept.
COARSE = frozenset({"rep", "point", "measure", "run_sweep", "run_xdd",
                    "ClientFleet.run", "Simulator.run"})

_HERE = os.path.dirname(os.path.abspath(__file__))


def layer_of_file(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None outside the program.

    ``repro.sim.stats`` is its own layer; other ``repro`` modules that
    belong to none of :data:`LAYERS` (``io``, ``units``, ``faults``,
    ``analysis``) count as ``misc``, the benchmark's files as
    ``harness``.
    """
    path = filename.replace(os.sep, "/")
    if path.startswith(_HERE.replace(os.sep, "/") + "/"):
        return "harness"
    marker = path.rfind("/repro/")
    if marker < 0:
        return None
    rest = path[marker + len("/repro/"):].split("/")
    if rest[0] == "sim" and rest[-1] == "stats.py":
        return "stats"
    if len(rest) > 1 and rest[0] in LAYERS:
        return rest[0]
    return "misc"


# -- instance registry ---------------------------------------------------------

class Registry:
    """Every object of interest a run built, by kind."""

    KINDS = ("sim", "server", "node", "controller", "drive", "block_layer",
             "fleet", "xdd_sampler")

    def __init__(self):
        self.objects: Dict[str, List[Any]] = {kind: [] for kind in self.KINDS}

    def clear(self) -> None:
        for found in self.objects.values():
            found.clear()

    def counts(self) -> Dict[str, int]:
        """Simulated counts read from the layers' public ``stats``."""
        objs = self.objects

        def total(kind, counter, field="count"):
            return sum(getattr(o.stats.counter(counter), field)
                       for o in objs[kind])

        clients = [c for fleet in objs["fleet"] for c in fleet.clients]
        return {
            "sim.events": sum(s._sequence for s in objs["sim"]),
            "workload.requests": (
                sum(c.completed_requests for c in clients)
                + sum(s.count for s in objs["xdd_sampler"])),
            "workload.errors": sum(c.errors for c in clients),
            "core.completed": total("server", "completed"),
            "core.staged_hits": total("server", "staged_hits"),
            "core.staged_hit_bytes": total("server", "staged_hits",
                                           "total_bytes"),
            "core.readahead_issued": total("server", "readahead_issued"),
            "core.readahead_bytes": total("server", "readahead_issued",
                                          "total_bytes"),
            "node.completed": total("node", "completed"),
            "controller.requests": total("controller", "completed"),
            "controller.cache_hits": total("controller", "cache_hits"),
            "disk.requests": total("drive", "completed"),
            "disk.completed_bytes": total("drive", "completed",
                                          "total_bytes"),
            "disk.media_read_bytes": total("drive", "media_read",
                                           "total_bytes"),
            "disk.seeks": total("drive", "seeks"),
            "host.dispatched": total("block_layer", "dispatched"),
            "host.idle_waits": total("block_layer", "idle_waits"),
        }

    def latency_samples(self) -> array:
        """Every measured client latency, in simulated seconds.

        Closed-loop clients keep their own samplers, reset at the
        measurement boundary; a sampler thins past its reservoir size,
        so a thinned one is refused rather than reported inexactly.
        xdd readers (sweep points) report through one unbounded sampler
        per point, which also holds the settle phase's reads; only the
        reads that missed the page cache count, because a hit completes
        in zero simulated time.
        """
        samples = array("d")
        for fleet in self.objects["fleet"]:
            for client in fleet.clients:
                sampler = client.latency
                if sampler.count != len(sampler._reservoir):
                    raise RuntimeError(
                        f"{sampler.name}: {sampler.count} samples thinned "
                        f"to {len(sampler._reservoir)}; latency not exact")
                samples.extend(sampler._reservoir)
        for sampler in self.objects["xdd_sampler"]:
            samples.extend(v for v in sampler._reservoir if v > 0)
        return samples


REGISTRY = Registry()
_INSTALLED: Dict[str, bool] = {}


def _registering_init(kind: str, init: Callable) -> Callable:
    found = REGISTRY.objects[kind]

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        found.append(self)

    __init__.__wrapped__ = init
    return __init__


def install_registry() -> None:
    """Record every object a workload builds (idempotent)."""
    if _INSTALLED.get("registry"):
        return
    from repro.controller.controller import DiskController
    from repro.core.server import StreamServer
    from repro.disk.drive import DiskDrive
    from repro.host.block_layer import BlockLayer
    from repro.node.node import StorageNode
    from repro.sim.engine import Simulator
    from repro.sim.stats import LatencySampler
    from repro.workload import client as client_module, xdd

    for kind, cls in (("sim", Simulator), ("server", StreamServer),
                      ("node", StorageNode), ("controller", DiskController),
                      ("drive", DiskDrive), ("block_layer", BlockLayer),
                      ("fleet", client_module.ClientFleet)):
        cls.__init__ = _registering_init(kind, cls.__init__)

    xdd_samplers = REGISTRY.objects["xdd_sampler"]

    def unbounded_sampler(name: str = "", reservoir: int = 0):
        # run_xdd keeps its sampler local; an unbounded reservoir keeps
        # every sample, so its percentiles are exact.
        sampler = LatencySampler(name, reservoir=1 << 62)
        xdd_samplers.append(sampler)
        return sampler

    xdd.LatencySampler = unbounded_sampler
    _INSTALLED["registry"] = True


# -- entry-point wrappers and spans ------------------------------------------

class Tracer:
    """Counts, times and spans calls into each layer's public entry points."""

    def __init__(self, capacity: int = SPAN_CAPACITY):
        self.capacity = capacity
        self._stack: List[list] = []
        self.reset()

    def reset(self) -> None:
        self._stack.clear()
        self.calls: Dict[str, int] = defaultdict(int)
        self.call_s: Dict[str, float] = defaultdict(float)
        #: span self time per layer
        self.span_self: Dict[str, float] = defaultdict(float)
        #: (name, layer, start, duration, self) of the first spans
        self.spans: List[tuple] = []
        self.dropped = 0

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        tracer = self
        always = name in COARSE

        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                tracer.calls[name] += 1
                tracer.call_s[name] += duration
                tracer.span_self[layer] += own
                if always or len(tracer.spans) < tracer.capacity:
                    tracer.spans.append((name, layer, frame[0], duration,
                                         own))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one span (the benchmark's own root spans)."""
        return self.wrap(name, layer, fn)(*args, **kwargs)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able copy of what was recorded (shipped by workers)."""
        return {"calls": dict(self.calls), "call_s": dict(self.call_s),
                "span_self": dict(self.span_self),
                "spans": [list(span) for span in self.spans],
                "dropped": self.dropped}


TRACER = Tracer()


def _entry_points():
    """(name, layer, class or module, attribute) for every wrapped entry."""
    from repro.controller.controller import DiskController
    from repro.core.server import StreamServer
    from repro.disk.drive import DiskDrive
    from repro.experiments import base, executor, fig02_schedulers
    from repro.host.block_layer import BlockLayer
    from repro.host.buffer_cache import BufferCache
    from repro.node.node import StorageNode
    from repro.sim.engine import Simulator
    from repro.sim.stats import LatencySampler
    from repro.workload.client import ClientFleet

    return (
        ("Simulator.run", "sim", Simulator, "run"),
        ("Simulator.step", "sim", Simulator, "step"),
        ("Simulator.run_until_event", "sim", Simulator, "run_until_event"),
        ("LatencySampler.observe", "stats", LatencySampler, "observe"),
        ("ClientFleet.run", "workload", ClientFleet, "run"),
        ("run_xdd", "workload", fig02_schedulers, "run_xdd"),
        ("StreamServer.submit", "core", StreamServer, "submit"),
        ("StorageNode.submit", "node", StorageNode, "submit"),
        ("DiskController.submit", "controller", DiskController, "submit"),
        ("DiskDrive.submit", "disk", DiskDrive, "submit"),
        ("BlockLayer.submit", "host", BlockLayer, "submit"),
        ("BufferCache.read", "host", BufferCache, "read"),
        ("measure", "experiments", base, "measure"),
        ("run_sweep", "experiments", executor, "run_sweep"),
    )


_ORIGINALS: List[tuple] = []


def install_tracer() -> None:
    """Wrap every entry point (idempotent; undone by remove_tracer)."""
    if _ORIGINALS:
        return
    for name, layer, owner, attribute in _entry_points():
        original = owner.__dict__[attribute]
        _ORIGINALS.append((owner, attribute, original))
        setattr(owner, attribute, TRACER.wrap(name, layer, original))


def remove_tracer() -> None:
    """Restore the unwrapped entry points."""
    while _ORIGINALS:
        owner, attribute, original = _ORIGINALS.pop()
        setattr(owner, attribute, original)


# -- profiler -----------------------------------------------------------------

def _direct_layer(func: tuple) -> Optional[str]:
    filename, _, name = func
    if filename == "~":
        return "sim" if "_eventcore" in name else None
    return layer_of_file(filename)


def layer_self_times(raw: Dict[tuple, tuple]) -> Dict[str, float]:
    """Per-layer self seconds from a ``cProfile`` stats table.

    Functions of the program, and of the compiled event core, count
    toward their own layer. A library or builtin function is charged to
    the layers of its direct callers, in proportion to the time each
    spent in it; time no layer called directly (a pool's parent waiting
    on a lock, say) is ``other``.
    """
    out: Dict[str, float] = defaultdict(float)
    for func, (_, _, spent, _, callers) in raw.items():
        layer = _direct_layer(func)
        if layer is not None:
            out[layer] += spent
            continue
        charged = 0.0
        for caller, edge in callers.items():
            owner = _direct_layer(caller)
            if owner is not None:
                out[owner] += edge[2]
                charged += edge[2]
        out["other"] += spent - charged
    return dict(out)


def profiled(fn: Callable, *args, **kwargs):
    """Run ``fn`` under cProfile: (result, layer self times, wall)."""
    profile = cProfile.Profile()
    start = perf_counter()
    profile.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profile.disable()
    wall = perf_counter() - start
    profile.create_stats()
    return result, layer_self_times(profile.stats), wall


# -- pool worker entry point ------------------------------------------------

_INVOKE: List[Callable] = []


def install_point_probe() -> None:
    """Route the executor's pool (and serial) points through timed_invoke."""
    from repro.experiments import executor
    if not _INVOKE:
        _INVOKE.append(executor._invoke)
        executor._invoke = timed_invoke


def timed_invoke(task):
    """The executor's worker entry point, timed and probed.

    Writes the point's host interval, simulated counts and latency
    samples (and, traced, its profile and spans) to the directory named
    by ``PERFBENCH_POINT_DIR``, then returns the point's value unchanged.
    """
    from repro.experiments import executor
    invoke = _INVOKE[0] if _INVOKE else executor._invoke
    traced = os.environ.get(TRACE_ENV) == "1"
    install_registry()
    REGISTRY.clear()
    if traced:
        install_tracer()
        TRACER.reset()
        TRACER.capacity = POINT_SPAN_CAPACITY
    start = perf_counter()
    record: Dict[str, Any] = {"pid": os.getpid()}
    if traced:
        value, layers, wall = profiled(
            TRACER.span, "point", "experiments", invoke, task)
        record.update(layer_self=layers, profiled_s=wall,
                      tracer=TRACER.snapshot())
    else:
        value = invoke(task)
    record.update(start=start, end=perf_counter(), counts=REGISTRY.counts())
    directory = os.environ[POINT_DIR_ENV]
    stem = os.path.join(directory, f"{os.getpid()}-{start!r}")
    with open(stem + ".lat", "wb") as handle:
        REGISTRY.latency_samples().tofile(handle)
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle)
    REGISTRY.clear()
    return value


def read_points(directory: str) -> List[Dict[str, Any]]:
    """Records timed_invoke wrote, oldest first, with their samples."""
    records = []
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json"):
            continue
        path = os.path.join(directory, entry)
        with open(path) as handle:
            record = json.load(handle)
        samples = array("d")
        lat_path = path[:-len(".json")] + ".lat"
        with open(lat_path, "rb") as handle:
            samples.frombytes(handle.read())
        record["samples"] = samples
        records.append(record)
        os.remove(path)
        os.remove(lat_path)
    records.sort(key=lambda r: r["start"])
    return records
