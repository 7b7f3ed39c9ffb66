#!/usr/bin/env python3
"""Compare two sets of benchmark results: a parent and a change.

Usage:

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a file or a directory of files holding the
standard output of perfbench/run.py runs (any other lines are
skipped). Runs are paired by workload and seed.

Prints one row per workload and end-to-end metric (from the --trace 0
runs): each side's median and quartiles, the change's win share over
the pairs, and a verdict by the rule of the choosing-metrics guide,
section 8, against the bounds in BENCHMARK.json:

  improved    over at least ten pairs, the change wins at least 9 of
              10 and the medians differ, in its favour, by more than
              the parent's own quartile spread;
  worse       the change's median is worse than the parent's by more
              than the bound;
  unresolved  the parent's quartile spread is wider than the bound, and
              not every change run beats every parent run;
  no worse    otherwise.

Then it lists every exact counter (simulated counts, events and
allocations per request, model.digest) that differs between paired
runs, with zero tolerance.

Exits 2, printing no rows, when paired runs were made under different
conditions (build type, audits, compiler, nproc, run length or the
VANS_* environment).
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(path):
    files = []
    if os.path.isdir(path):
        for dirpath, _, names in os.walk(path):
            files += [os.path.join(dirpath, n) for n in sorted(names)]
    else:
        files = [path]
    recs = []
    for f in files:
        with open(f, errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if line.startswith('{"perfbench"'):
                    recs.append(json.loads(line))
    return recs


def key(r):
    return (r["workload"], r["seed"], r["trace"])


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[1], q[2]


def better(a, b, lower_is_better):
    """True when value a beats value b."""
    return a < b if lower_is_better else a > b


def verdict(parent, change, lower, bound, wins, pairs):
    p_lo, p_med, p_hi = quartiles(parent)
    c_med = statistics.median(change)
    spread = p_hi - p_lo
    worse_by = (c_med - p_med) if lower else (p_med - c_med)
    if pairs >= 10 and wins >= 0.9 * pairs and -worse_by > spread:
        return "improved"
    if worse_by > bound * abs(p_med):
        return "worse"
    all_better = all(better(c, p, lower) for c in change for p in parent)
    if spread > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "no worse"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(1)
    parent = {key(r): r for r in load_records(sys.argv[1])}
    change = {key(r): r for r in load_records(sys.argv[2])}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    pairs = sorted(set(parent) & set(change))
    for k in pairs:
        if parent[k]["conditions"] != change[k]["conditions"]:
            print(f"refusing to compare {k}: conditions differ\n"
                  f"  parent {parent[k]['conditions']}\n"
                  f"  change {change[k]['conditions']}", file=sys.stderr)
            sys.exit(2)

    workloads = [w["name"] for w in spec["workloads"]]
    hdr = (f"{'workload':14} {'metric':14} {'parent q1/med/q3':>34} "
           f"{'change q1/med/q3':>34} {'wins':>7}  verdict")
    print(hdr)
    print("-" * len(hdr))
    for wl in workloads:
        ps = {k[1]: r for k, r in parent.items() if k[0] == wl and k[2] == 0}
        cs = {k[1]: r for k, r in change.items() if k[0] == wl and k[2] == 0}
        if not ps or not cs:
            print(f"{wl:14} (no --trace 0 runs on both sides)")
            continue
        seeds = sorted(set(ps) & set(cs))
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            pv = [r["end_to_end"][name]["value"] for r in ps.values()]
            cv = [r["end_to_end"][name]["value"] for r in cs.values()]
            wins = sum(better(cs[s]["end_to_end"][name]["value"],
                              ps[s]["end_to_end"][name]["value"], lower)
                       for s in seeds)
            v = verdict(pv, cv, lower, m["bound"], wins, len(seeds))
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{wl:14} {name:14} {fmt.format(*quartiles(pv)):>34} "
                  f"{fmt.format(*quartiles(cv)):>34} "
                  f"{wins:>3}/{len(seeds):<3}  {v}")

    print("\nexact counters (zero tolerance):")
    ndiff = 0
    for k in pairs:
        pe, ce = parent[k]["exact"], change[k]["exact"]
        for name in sorted(set(pe) | set(ce)):
            a = pe.get(name, {}).get("value")
            b = ce.get(name, {}).get("value")
            if a != b:
                ndiff += 1
                print(f"  {k[0]} seed {k[1]} trace {k[2]}: {name} "
                      f"{a} -> {b}")
    if not ndiff:
        print(f"  identical over {len(pairs)} paired runs")


if __name__ == "__main__":
    main()
