"""The repository benchmark: four closed-loop workloads, timed end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload staged-reads --seed 0 \\
        --seconds 40 --trace 0

``--trace 0`` repeats the workload's fixed simulation for ``--seconds``
host seconds and reports the end-to-end metrics (medians over the
repetitions). ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics from the traced ones: entry-point
call counts and spans, per-layer self time from ``cProfile``, and the
simulated counts of each layer's ``stats``. Both check the simulated
outputs: against ``expected.json`` for the default seed, against
invariants for any other seed. The last line of standard output is one
JSON object; the exit code is 0 only when every check passed.

The C event core is built in place first when a compiler is present
(the first run in a checkout); otherwise the fallback core runs. The
backend is printed with every result. WORKLOADS.md describes the
workloads; ``compare.py`` compares two saved result sets.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BUILD = os.path.join(ROOT, ".bench_build")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOAD_NAMES = ("staged-reads", "raw-reads", "mixed-writes", "sweep-pool")

DEFAULT_SEED = 0
#: Fresh interpreters timed importing the workloads, per run.
IMPORT_PROBES = 3
#: In-process builds timed up to the first simulated event, per run.
BUILD_PROBES = 5
#: Largest share of the profiled time the per-layer self times may
#: leave unaccounted (cProfile's own bookkeeping between events).
RESIDUE_LIMIT = 0.25

perf_counter = time.perf_counter

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = [{src!r}, {here!r}]\n"
    "start = time.perf_counter()\n"
    "import workloads\n"
    "print(time.perf_counter() - start)\n")


def ensure_compiled_core() -> None:
    """Build the C event core in place when it is missing and a compiler
    is present (``setup.py`` warns and exits 0 when the build fails, and
    the program then runs on its fallback core)."""
    if os.environ.get("REPRO_EVENTCORE"):
        return  # a forced backend is the caller's choice
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    sim_dir = os.path.join(SRC, "repro", "sim")
    if any(name.startswith("_eventcore") and name.endswith(suffix)
           for name in os.listdir(sim_dir)):
        return
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        print(f"no C compiler ({compiler}); running on the fallback core",
              file=sys.stderr)
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace",
         "--build-temp", os.path.join(BUILD, "temp"),
         "--build-lib", os.path.join(BUILD, "lib")],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"event-core build failed; running on the fallback core:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)


def import_seconds() -> float:
    """Median host seconds a fresh interpreter takes to import the
    workloads (the program's modules; interpreter start excluded)."""
    code = IMPORT_PROBE.format(src=SRC, here=HERE)
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank q-quantile of a sorted list."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Rep:
    """One repetition of a workload's fixed simulation."""

    series: Dict[str, List[float]]
    wall: float
    counts: Dict[str, int]
    samples: Any
    #: records of pool points (empty for in-process workloads)
    points: List[Dict[str, Any]]
    traced: bool
    #: {"layers": {layer: self seconds}, "profiled_s": s} (traced reps)
    profile: Optional[Dict[str, Any]] = None
    #: merged entry-point calls, call time and spans (traced reps)
    tracer: Optional[Dict[str, Any]] = None

    def outputs(self) -> Dict[str, Any]:
        """The simulated outputs the check compares."""
        ordered = sorted(self.samples)
        values = [y for ys in self.series.values() for y in ys]
        out = {
            "series": self.series,
            "sim": {
                "sim_mb_s": sum(values) / len(values),
                "sim_p50_ms": percentile(ordered, 0.50) * 1e3,
                "sim_p99_ms": percentile(ordered, 0.99) * 1e3,
                "latency_samples": len(ordered),
            },
            "counts": dict(self.counts, **{"executor.points":
                                           len(self.points)}),
        }
        if self.traced:
            out["calls"] = dict(sorted(self.tracer["calls"].items()))
        return out


def run_rep(workload, seed: int, point_dir: str, traced: bool) -> Rep:
    """Run the workload's fixed simulation once."""
    import probes

    probes.REGISTRY.clear()
    gc.collect()
    if traced:
        probes.install_tracer()
        probes.TRACER.reset()
        os.environ[probes.TRACE_ENV] = "1"
        try:
            series, layers, wall = probes.profiled(
                probes.TRACER.span, "rep", "harness", workload.run, seed)
        finally:
            os.environ[probes.TRACE_ENV] = "0"
            probes.remove_tracer()
    else:
        start = perf_counter()
        series = workload.run(seed)
        wall = perf_counter() - start
    points = probes.read_points(point_dir)
    counts = probes.REGISTRY.counts()
    samples = probes.REGISTRY.latency_samples()
    probes.REGISTRY.clear()
    for record in points:
        for key, value in record["counts"].items():
            counts[key] += value
        samples.extend(record["samples"])
    profile = tracer = None
    if traced:
        profile = {"layers": dict(layers), "profiled_s": wall}
        tracer = probes.TRACER.snapshot()
        tracer["spans"] = [[os.getpid()] + span for span in tracer["spans"]]
        for record in points:
            for layer, spent in record["layer_self"].items():
                profile["layers"][layer] = (
                    profile["layers"].get(layer, 0.0) + spent)
            profile["profiled_s"] += record["profiled_s"]
            shipped = record["tracer"]
            for section in ("calls", "call_s", "span_self"):
                for key, value in shipped[section].items():
                    tracer[section][key] = tracer[section].get(key, 0) + value
            tracer["spans"].extend([record["pid"]] + span
                                   for span in shipped["spans"])
            tracer["dropped"] += shipped["dropped"]
    return Rep(series, wall, counts, samples, points, traced, profile,
               tracer)


# -- output checks --------------------------------------------------------------

def check_recorded(observed: Dict[str, Any],
                   recorded: Dict[str, Any]) -> List[str]:
    """Every observed output must equal the recorded one exactly."""
    problems = []
    for section, values in observed.items():
        want = recorded.get(section)
        if want is None:
            problems.append(f"{section}: nothing recorded")
            continue
        for key in sorted(set(values) | set(want)):
            if values.get(key) != want.get(key):
                problems.append(f"{section}.{key}: got {values.get(key)!r},"
                                f" recorded {want.get(key)!r}")
    return problems


def check_invariants(observed: Dict[str, Any]) -> List[str]:
    """Checks for seeds without recorded outputs."""
    problems = []
    for label, ys in observed["series"].items():
        if not all(math.isfinite(y) and y > 0 for y in ys):
            problems.append(f"series {label!r}: {ys}")
    sim = observed["sim"]
    if not all(math.isfinite(v) for v in sim.values()):
        problems.append(f"sim outputs not finite: {sim}")
    if not sim["sim_mb_s"] > 0:
        problems.append(f"sim_mb_s not positive: {sim['sim_mb_s']}")
    if not sim["latency_samples"] > 0:
        problems.append("no latency samples")
    if observed["counts"]["workload.errors"]:
        problems.append(
            f"{observed['counts']['workload.errors']} client errors")
    return problems


# -- metrics --------------------------------------------------------------------

def end_to_end(reps: List[Rep], setup_s: float, jobs: int
               ) -> Dict[str, float]:
    first = reps[0].outputs()["sim"]
    walls = [rep.wall for rep in reps]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs:
        peak = max(peak, resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "wall_s": statistics.median(walls),
        "requests_per_s": statistics.median(
            rep.counts["workload.requests"] / rep.wall for rep in reps),
        "setup_s": setup_s,
        "peak_rss_mb": peak / 1024,
        "sim_p99_ms": first["sim_p99_ms"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def executor_metrics(reps: List[Rep], jobs: int) -> Dict[str, float]:
    """The pool's per-point host intervals, medians over ``reps``."""
    busy, critical, idle = [], [], []
    for rep in reps:
        spans = [p["end"] - p["start"] for p in rep.points]
        busy.append(sum(spans))
        critical.append(max(spans, default=0.0))
        idle.append(1.0 - sum(spans) / (jobs * rep.wall) if jobs else 0.0)
    return {"executor.points": len(reps[0].points),
            "executor.busy_s": statistics.median(busy),
            "executor.critical_point_s": statistics.median(critical),
            "executor.idle_frac": statistics.median(idle)}


def per_layer(traced: List[Rep], untraced: List[Rep], jobs: int
              ) -> Dict[str, float]:
    import probes

    rep = traced[0]
    counts, calls = rep.counts, rep.tracer["calls"]
    untraced_wall = statistics.median(r.wall for r in untraced)
    traced_wall = statistics.median(r.wall for r in traced)
    selfs = {layer: statistics.median(r.profile["layers"].get(layer, 0.0)
                                      for r in traced)
             for layer in probes.LAYERS}
    layered = sum(selfs.values())
    metrics = {
        "sim.events": counts["sim.events"],
        "sim.events_per_s": counts["sim.events"] / untraced_wall,
        "stats.observes": calls.get("LatencySampler.observe", 0),
        "workload.requests": counts["workload.requests"],
        "workload.errors": counts["workload.errors"],
        "core.submits": calls.get("StreamServer.submit", 0),
        "core.staged_hit_ratio": _ratio(counts["core.staged_hits"],
                                        counts["core.completed"]),
        "core.readahead_issued": counts["core.readahead_issued"],
        "core.readahead_used_ratio": _ratio(counts["core.staged_hit_bytes"],
                                            counts["core.readahead_bytes"]),
        "node.submits": calls.get("StorageNode.submit", 0),
        "controller.requests": counts["controller.requests"],
        "controller.cache_hit_ratio": _ratio(counts["controller.cache_hits"],
                                             counts["controller.requests"]),
        "disk.requests": counts["disk.requests"],
        "disk.seeks": counts["disk.seeks"],
        "disk.media_read_ratio": _ratio(counts["disk.media_read_bytes"],
                                        counts["disk.completed_bytes"]),
        "host.dispatched": counts["host.dispatched"],
        "host.idle_waits": counts["host.idle_waits"],
        "trace_overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    metrics.update(executor_metrics(untraced, jobs))
    for layer in probes.LAYERS:
        metrics[f"{layer}.self_s"] = selfs[layer]
    for layer in ("sim", "core", "disk"):
        metrics[f"{layer}.share"] = _ratio(selfs[layer], layered)
    return metrics


# -- trace output -----------------------------------------------------------------

def write_chrome_trace(rep: Rep, path: str) -> List[str]:
    """Write the rep's spans as a Chrome trace; returns schema problems."""
    from repro.obs.export import validate_chrome_trace

    spans = rep.tracer["spans"]
    origin = min((span[3] for span in spans), default=0.0)
    events = [{"name": name, "cat": layer, "ph": "X",
               "ts": (start - origin) * 1e6, "dur": duration * 1e6,
               "pid": pid, "tid": 0, "args": {"self_us": own * 1e6}}
              for pid, name, layer, start, duration, own in spans]
    payload = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": {"dropped_spans": rep.tracer["dropped"]}}
    problems = validate_chrome_trace(payload)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return problems


def layer_report(rep: Rep) -> List[str]:
    """Printed per-layer table and the self-time residue check."""
    layers = rep.profile["layers"]
    profiled = rep.profile["profiled_s"]
    accounted = sum(layers.values())
    residue = profiled - accounted
    lines = ["  layer        profiled self s   span self s   share"]
    for layer in sorted(layers, key=layers.get, reverse=True):
        lines.append(f"  {layer:<12} {layers[layer]:>15.4f}   "
                     f"{rep.tracer['span_self'].get(layer, 0.0):>11.4f}   "
                     f"{layers[layer] / accounted:6.1%}")
    lines.append(f"  profiled {profiled:.4f} s = layers {accounted:.4f} s "
                 f"+ residue {residue:.4f} s ({residue / profiled:.1%})")
    return lines, residue / profiled


# -- main -------------------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=EXPECTED,
                        help="recorded outputs for the default seed")
    parser.add_argument("--record", action="store_true",
                        help="write this run's outputs to --expected "
                             "(default seed only)")
    parser.add_argument("--save", help="append the result, with its "
                                       "backend, to this JSON-lines file")
    return parser.parse_args(argv)


def repeat(workload, args, point_dir: str, problems: List[str]
           ) -> List[Rep]:
    """Repetitions until ``--seconds`` have passed (traced runs alternate
    untraced and traced ones, and make at least one of each)."""
    reps: List[Rep] = []
    start = perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep = run_rep(workload, args.seed, point_dir, traced)
            reps.append(rep)
            print(f"  rep {len(reps)}{' traced' if traced else ''}: "
                  f"{rep.wall:.4f} s, "
                  f"{rep.counts['workload.requests']} requests")
            enough = len(reps) >= (2 if args.trace else 1)
            if enough and perf_counter() - start >= args.seconds:
                return reps
    except Exception:
        traceback.print_exc()
        problems.append("a repetition raised")
        return []


def outputs_of(reps: List[Rep], problems: List[str]) -> Dict[str, Any]:
    """The run's simulated outputs; every rep must agree with the first."""
    observed: Dict[str, Any] = {}
    for rep in reps:
        outputs = rep.outputs()
        calls = outputs.pop("calls", None)
        if calls is not None \
                and observed.setdefault("calls", calls) != calls:
            problems.append("traced reps made different calls")
        if "series" not in observed:
            observed.update(outputs)
        elif outputs != {k: observed[k] for k in outputs}:
            problems.append("rep outputs differ from the first rep's")
    return observed


def check_outputs(args, observed: Dict[str, Any]) -> List[str]:
    """Recorded outputs for the default seed, invariants for others."""
    if args.record:
        with open(args.expected) as handle:
            recorded = json.load(handle)
        recorded[args.workload] = dict(recorded.get(args.workload, {}),
                                       **observed, seed=DEFAULT_SEED)
        with open(args.expected, "w") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.seed != DEFAULT_SEED:
        return check_invariants(observed)
    with open(args.expected) as handle:
        return check_recorded(observed,
                              json.load(handle).get(args.workload, {}))


def traced_checks(args, observed: Dict[str, Any], rep: Rep) -> List[str]:
    """Production-path guard, self-time residue and the Chrome trace."""
    problems = []
    steps = (observed["calls"].get("Simulator.step", 0)
             + observed["calls"].get("Simulator.run_until_event", 0))
    if steps:
        problems.append(f"{steps} calls to Simulator.step/run_until_event:"
                        " not the loop the figures run")
    lines, residue = layer_report(rep)
    print("\n".join(lines))
    if abs(residue) > RESIDUE_LIMIT:
        problems.append(f"self-time residue {residue:.1%} beyond "
                        f"{RESIDUE_LIMIT:.0%} of the profiled time")
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    problems.extend(f"chrome trace: {p}"
                    for p in write_chrome_trace(rep, path))
    print(f"  chrome trace: {path} ({len(rep.tracer['spans'])} spans, "
          f"{rep.tracer['dropped']} dropped)")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        print("perfbench: --record needs the default seed", file=sys.stderr)
        return 2
    for name in ("REPRO_MP_START", "REPRO_FABRIC", "REPRO_POINT_TIMEOUT"):
        # The workloads run the executor's default path.
        os.environ.pop(name, None)
    ensure_compiled_core()
    sys.path[:0] = [SRC, HERE]

    import probes
    import workloads
    from repro.sim.eventcore import resolve_backend

    backend = resolve_backend(None)
    workload = workloads.WORKLOADS[args.workload]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"backend={backend}")
    os.makedirs(OUT, exist_ok=True)
    point_dir = tempfile.mkdtemp(prefix="points-", dir=OUT)
    os.environ[probes.POINT_DIR_ENV] = point_dir
    probes.install_registry()
    probes.install_point_probe()

    setup_s = 0.0
    if not args.trace:
        imports = import_seconds()
        build = statistics.median(
            workloads.time_setup(workload, args.seed)
            for _ in range(BUILD_PROBES))
        probes.REGISTRY.clear()
        setup_s = imports + build
        print(f"  setup: imports {imports:.4f} s + build {build:.4f} s "
              "(medians)")

    problems: List[str] = []
    try:
        reps = repeat(workload, args, point_dir, problems)
    finally:
        shutil.rmtree(point_dir, ignore_errors=True)
    observed = outputs_of(reps, problems)
    attempted = failed = len(problems)
    for rep in reps:
        attempted += (rep.counts["workload.requests"]
                      + rep.counts["workload.errors"])
        failed += rep.counts["workload.errors"]
    metrics: Dict[str, float] = {}
    if reps:
        mismatches = check_outputs(args, observed)
        attempted += sum(len(section) for section in observed.values())
        failed += len(mismatches)
        problems.extend(mismatches)
        sim = observed["sim"]
        print(f"  sim_mb_s {sim['sim_mb_s']!r}; latency over "
              f"{sim['latency_samples']} measured requests: "
              f"p50 {sim['sim_p50_ms']:.4f} ms, p99 {sim['sim_p99_ms']:.4f} ms")
        untraced = [rep for rep in reps if not rep.traced]
        if args.trace:
            traced = [rep for rep in reps if rep.traced]
            metrics = per_layer(traced, untraced, workload.jobs)
            problems.extend(traced_checks(args, observed, traced[0]))
        else:
            metrics = end_to_end(untraced, setup_s, workload.jobs)
    print(f"  failed_frac {failed}/{attempted}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    units = {entry["name"]: entry["unit"]
             for entry in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]} [{backend}]")
    correct = not problems and failed == 0
    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    if args.save:
        with open(args.save, "a") as handle:
            handle.write(json.dumps(dict(
                result, workload=args.workload, seed=args.seed,
                trace=args.trace, backend=backend)) + "\n")
    print(f"backend: {backend}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
