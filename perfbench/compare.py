"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as ``run.py`` appends them. For every workload
and metric the report gives each side's median and quartiles and a label:

* ``better``: the new runs win at least nine tenths of the seed-paired runs
  and the medians differ by more than the base runs' interquartile range;
* ``worse``: the new median is worse than the base median by more than the
  metric's bound in BENCHMARK.json, and either the base spread is within
  the bound or every new run is worse than every base run;
* ``unresolved``: the base spread is wider than the bound, so a change
  within it cannot be told from noise (per-module metrics, which have no
  bound, get this label whenever they are neither better nor worse);
* ``unchanged``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path) -> dict:
    """{(workload, trace): {metric: {seed: value}}}"""
    runs: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            for name, metric in rec["result"]["metrics"].items():
                runs.setdefault(key, {}).setdefault(name, {})[rec["seed"]] = metric["value"]
    return runs


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def label(base: dict, new: dict, better: str, bound: float | None) -> str:
    sign = 1 if better == "lower" else -1      # sign * (new - base) > 0 means worse
    b, n = list(base.values()), list(new.values())
    bq1, bmed, bq3 = quartiles(b)
    nmed = quartiles(n)[1]
    if bmed == nmed:
        return "unchanged"
    seeds = sorted(set(base) & set(new))
    pairs = [(base[s], new[s]) for s in seeds] or list(zip(b, n))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    losses = sum(sign * (y - x) > 0 for x, y in pairs)
    beyond_spread = abs(nmed - bmed) > bq3 - bq1
    if beyond_spread and wins >= 0.9 * len(pairs) and sign * (nmed - bmed) < 0:
        return "better"
    if bound is None:
        if beyond_spread and losses >= 0.9 * len(pairs):
            return "worse"
        return "unresolved"
    spread = (bq3 - bq1) / abs(bmed) if bmed else float("inf")
    worse_by = sign * (nmed - bmed) / abs(bmed) if bmed else float("inf")
    all_worse = all(sign * (y - x) > 0 for x in b for y in n)
    all_better = all(sign * (y - x) < 0 for x in b for y in n)
    if worse_by > bound and (spread <= bound or all_worse):
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--bench", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads(args.bench.read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load_runs(args.base), load_runs(args.new)
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload}  ({'traced' if trace else 'untraced'} runs: "
              f"base {len(next(iter(base[key].values())))}, new {len(next(iter(new[key].values())))})")
        for name in sorted(set(base[key]) & set(new[key])):
            if name not in spec:
                continue
            m = spec[name]
            b, n = base[key][name], new[key][name]
            bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            verdict = label(b, n, m["better"], m.get("bound"))
            print(f"  {name:46s} {bq[1]:12.5g} [{bq[0]:.5g}, {bq[2]:.5g}]  ->  "
                  f"{nq[1]:12.5g} [{nq[0]:.5g}, {nq[2]:.5g}] {m['unit']:5s} "
                  f"{change:+8.2%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
