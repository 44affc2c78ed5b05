#!/usr/bin/env python3
"""Compare benchmark results of two commits.

Usage: python3 perfbench/compare.py BASE_RESULTS NEW_RESULTS

Each argument is a ``.perfbench/results`` directory written by run.py in a
checkout of one commit. Runs are paired by (workload, seed, trace). For
every workload and metric the script prints each side's median and
quartiles, the change of the medians, how many pairs the new side won, and
a verdict against the bound in BENCHMARK.json:

- ``worse``: the new median is worse than the base median by more than the bound;
- ``gain``: the new side won at least 9 of 10 pairs and the medians differ by
  more than the base's own quartile spread;
- ``unresolved``: the base's quartile spread is wider than the bound;
- ``same`` otherwise.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{(workload, trace): {metric: {seed: value}}} from one results directory."""
    out = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith("-spans.json"):
            continue
        run = json.loads(path.read_text())
        info = run["manifest"]
        cell = out.setdefault((info["workload"], info["trace"]), {})
        for name, m in run["metrics"].items():
            cell.setdefault(name, {})[info["seed"]] = m["value"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(Path(argv[1])), load(Path(argv[2]))
    print("%-16s %-34s %12s %12s %8s %6s  %s"
          % ("workload", "metric", "base p50", "new p50", "change", "wins", "verdict"))
    for key in sorted(set(base) & set(new)):
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = base[key][name], new[key][name]
            bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
            lower = meta[name]["better"] == "lower"
            sign = -1.0 if lower else 1.0
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            seeds = sorted(set(b) & set(n))
            wins = sum(sign * (n[s] - b[s]) > 0 for s in seeds)
            bound = meta[name].get("bound")
            verdict = "same"
            if bound is not None and sign * change < -bound:
                verdict = "worse"
            elif (seeds and wins >= 0.9 * len(seeds)
                  and abs(nq[1] - bq[1]) > bq[2] - bq[0]):
                verdict = "gain"
            elif bound is not None and bq[1] and (bq[2] - bq[0]) / bq[1] > bound:
                verdict = "unresolved"
            print("%-16s %-34s %12.5g %12.5g %+7.1f%% %2d/%-3d  %s"
                  % (key[0], name, bq[1], nq[1], 100.0 * change, wins, len(seeds), verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
