"""Summarise or compare saved benchmark result sets.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds the lines ``run.py --save`` appended. With one file,
prints each end-to-end metric's median and quartile spread (the distance
between the first and third quartile as a share of the median) per
workload, and flags a spread wider than the metric's bound. With two,
prints each metric's median on both sides and flags a change worse than
the bound. Refuses, with exit code 2, to compare results taken on
different event-core backends: their host times are not comparable.
Exits 1 when anything is flagged, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> Tuple[set, Dict[Tuple[str, str], List[float]]]:
    """(backends seen, {(workload, metric): values}) of untraced runs."""
    backends = set()
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"]:
                continue
            backends.add(record["backend"])
            for name, metric in record["metrics"].items():
                values[record["workload"], name].append(metric["value"])
    return backends, values


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    sets = [load(path) for path in argv]
    backends = set().union(*(b for b, _ in sets))
    if len(backends) != 1:
        print(f"refusing: results span event-core backends "
              f"{sorted(backends)}", file=sys.stderr)
        return 2
    print(f"backend: {backends.pop()}")
    flagged = 0
    base = sets[0][1]
    for key in sorted(base):
        workload, name = key
        bound = spec[name]["bound"]
        if len(sets) == 1:
            width = spread(base[key]) if len(base[key]) > 1 else 0.0
            flag = width > bound and name != "setup_s"
            print(f"{workload:<13} {name:<15} median "
                  f"{statistics.median(base[key]):.6g}  spread {width:6.1%}"
                  f"  bound {bound:.0%}{'  WIDE' if flag else ''}")
        else:
            other = sets[1][1].get(key)
            if not other:
                print(f"{workload:<13} {name:<15} missing in the change")
                flagged += 1
                continue
            before = statistics.median(base[key])
            after = statistics.median(other)
            change = (after - before) / before
            worse = -change if spec[name]["better"] == "higher" else change
            flag = worse > bound
            print(f"{workload:<13} {name:<15} {before:.6g} -> {after:.6g}"
                  f"  ({change:+.1%}, bound {bound:.0%})"
                  f"{'  WORSE' if flag else ''}")
        flagged += flag
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
