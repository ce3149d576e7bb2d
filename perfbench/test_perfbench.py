"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The end-to-end cases run the cheapest workload once (about ten seconds).
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE]

import probes  # noqa: E402
import run  # noqa: E402


def recorded(workload: str) -> dict:
    with open(run.EXPECTED) as handle:
        entry = json.load(handle)[workload]
    return {k: v for k, v in entry.items() if k != "seed"}


def test_recorded_outputs_match_themselves():
    entry = recorded("staged-reads")
    assert run.check_recorded(copy.deepcopy(entry), entry) == []


def test_perturbed_recorded_value_fails():
    entry = recorded("staged-reads")
    observed = copy.deepcopy(entry)
    observed["sim"]["sim_mb_s"] += 0.5
    observed["counts"]["disk.seeks"] += 1
    problems = run.check_recorded(observed, entry)
    assert len(problems) == 2
    assert any("sim.sim_mb_s" in p for p in problems)
    assert any("counts.disk.seeks" in p for p in problems)


def test_invariants_flag_client_errors_and_bad_values():
    observed = copy.deepcopy(recorded("raw-reads"))
    assert run.check_invariants(observed) == []
    observed["counts"]["workload.errors"] = 3
    observed["series"]["8K"] = [float("nan")]
    assert len(run.check_invariants(observed)) == 2


def test_layer_of_file():
    assert probes.layer_of_file("/x/src/repro/sim/stats.py") == "stats"
    assert probes.layer_of_file("/x/src/repro/sim/eventcore.py") == "sim"
    assert probes.layer_of_file("/x/src/repro/core/server.py") == "core"
    assert probes.layer_of_file("/x/src/repro/io.py") == "misc"
    assert probes.layer_of_file(os.path.join(HERE, "run.py")) == "harness"
    assert probes.layer_of_file("/usr/lib/python3/heapq.py") is None


def test_library_time_is_charged_to_direct_callers():
    server = ("/x/src/repro/core/server.py", 1, "submit")
    drive = ("/x/src/repro/disk/drive.py", 1, "submit")
    builtin = ("~", 0, "<built-in method _heapq.heappush>")
    lock = ("~", 0, "<method 'acquire' of '_thread.lock' objects>")
    wait = ("/usr/lib/python3/threading.py", 1, "wait")
    raw = {
        server: (1, 1, 2.0, 5.0, {}),
        drive: (1, 1, 1.0, 2.0, {}),
        builtin: (3, 3, 0.4, 0.4, {server: (2, 2, 0.3, 0.3),
                                   drive: (1, 1, 0.1, 0.1)}),
        wait: (1, 1, 0.05, 1.05, {}),
        lock: (1, 1, 1.0, 1.0, {wait: (1, 1, 1.0, 1.0)}),
    }
    layers = probes.layer_self_times(raw)
    assert abs(layers["core"] - 2.3) < 1e-12
    assert abs(layers["disk"] - 1.1) < 1e-12
    assert abs(layers["other"] - 1.05) < 1e-12
    assert abs(sum(layers.values()) - 4.45) < 1e-12


def test_tracer_self_time_excludes_children():
    tracer = probes.Tracer()
    inner = tracer.wrap("inner", "disk", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", "core", lambda: [inner() for _ in range(3)])
    outer()
    spans = {name: (duration, own) for name, _, _, duration, own
             in tracer.spans if name == "outer"}
    duration, own = spans["outer"]
    assert tracer.calls == {"inner": 3, "outer": 1}
    assert abs(own - (duration - tracer.call_s["inner"])) < 1e-9
    assert abs(sum(tracer.span_self.values()) - duration) < 1e-9


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_fails_on_a_perturbed_expected_value(tmp_path):
    with open(run.EXPECTED) as handle:
        expected = json.load(handle)
    expected["raw-reads"]["sim"]["sim_p99_ms"] *= 1.01
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    proc = _run(ROOT, "--workload", "raw-reads", "--seconds", "0",
                "--expected", str(path))
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "sim.sim_p99_ms" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "--workload", "staged-reads", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
