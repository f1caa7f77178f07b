#!/usr/bin/env python3
"""Compares two result sets of bench/e2e/run.py --repeat N.

  python3 bench/e2e/compare.py A.json B.json
  python3 bench/e2e/compare.py A/ B/

A is the baseline (the parent commit), B the candidate. Each side is one
results file, or a directory whose *.json results files are pooled so that
the two sides can be run interleaved, one suite at a time. For every
workload and every end-to-end metric in BENCHMARK.json it prints both
medians and quartiles and a verdict against that metric's bound:

  better / worse   B's median beats / trails A's by more than the bound
  same             the medians differ by no more than the bound
  unresolved       either side's spread (quartile distance / median)
                   exceeds the bound, and not every B run beats every A run
                   (never for setup_s, which is judged on its median)

Exit status 1 when any pairing of a workload listed in BENCHMARK.json is
worse or unresolved, so an A/A check of one commit against itself passes
only if the benchmark resolves its bounds. Suite-only workloads are
printed with their verdict marked "(not gated)".
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def untraced_values(path):
    """workload -> metric -> values, over the untraced runs in a results
    file or in every results file of a directory."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        for run in json.loads(f.read_text())["runs"]:
            if run["traced"]:
                continue
            per = out.setdefault(run["workload"], {})
            for name, value in run["e2e"].items():
                per.setdefault(name, []).append(value)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, better, bound, by_median_only=False):
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    if spread > bound and not by_median_only:
        all_better = min(sign * v for v in b) > max(sign * v for v in a)
        return ("better" if all_better else "unresolved"), gain, spread
    if gain < -bound:
        return "worse", gain, spread
    if gain > bound:
        return "better", gain, spread
    return "same", gain, spread


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    gated = {w["name"] for w in spec["workloads"]}
    a, b = untraced_values(sys.argv[1]), untraced_values(sys.argv[2])
    failing = 0
    print(f"{'workload':<13} {'metric':<21} {'A q1/med/q3':>28} {'B q1/med/q3':>28} "
          f"{'gain':>7} {'spread':>7} {'bound':>6}  verdict")
    for workload in a:
        # Suite-only workloads get a verdict but cannot fail the comparison.
        counts = workload in gated
        for m in spec["end_to_end"]:
            name = m["name"]
            va, vb = a[workload].get(name), b.get(workload, {}).get(name)
            if not va or not vb:
                print(f"{workload:<13} {name:<21} missing on one side")
                failing += counts
                continue
            # Each run's setup_s is already a median of several set-ups;
            # it is judged on its median alone, whatever its spread.
            v, gain, spread = verdict(va, vb, m["better"], m["bound"],
                                      by_median_only=name == "setup_s")
            failing += counts and v in ("worse", "unresolved")
            if not counts:
                v += " (not gated)"
            qa, qb = quartiles(va), quartiles(vb)
            print(f"{workload:<13} {name:<21} "
                  f"{'/'.join(f'{x:.4g}' for x in qa):>28} "
                  f"{'/'.join(f'{x:.4g}' for x in qb):>28} "
                  f"{gain:>+7.3f} {spread:>7.3f} {m['bound']:>6.2f}  {v}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
