#!/usr/bin/env python3
"""Steadiness check: repeat a workload and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/steady.py --workload scan --runs 10 [--seed 1]
        [--same-seed] [--trace 0|1] [--seconds S] [--save out.json]
        [--baseline earlier.json]

Runs ``perfbench/run.py`` once per repeat, one after another, with seeds
seed, seed+1, ... (or the same seed every time with ``--same-seed``).  For
each metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
and marks the end-to-end metrics whose spread exceeds their bound in
BENCHMARK.json.  With
``--baseline`` it also marks every end-to-end metric whose median is
worse than the baseline's by more than its bound.

Exact work counts must repeat for one seed: runs that share a seed and
report different counts are marked NONDETERMINISTIC.  Counts that differ
between seeds are only listed.  The exit code is 1 when anything is
marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid", "scan", "kernels", "certify")


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    counts = next(json.loads(l[len("counts "):]) for l in lines if l.startswith("counts "))
    if any(l.startswith("COUNT DRIFT") for l in lines):
        result["drift"] = True
    result["counts"] = counts
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def report(workload, runs, spec, trace, baseline):
    marked = False
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    print(f"== {workload}: {len(runs)} runs, seeds {sorted({r['seed'] for r in runs})}")
    bad = [r["seed"] for r in runs if not r["correct"]]
    failed = sorted({(r["failed"], r["attempted"]) for r in runs})
    print(f"   correct in {len(runs) - len(bad)}/{len(runs)} runs; failed/attempted {failed}")
    marked |= bool(bad)
    medians = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        median, q1, q3, s = spread(values)
        medians[m["name"]] = median
        flag = ""
        bound = m.get("bound")
        if bound is not None:
            if s > bound:
                flag = f"  OVER BOUND {bound}"
                marked = True
            elif s > bound / 3:
                flag = f"  above a third of bound {bound}"
            if baseline and m["name"] in baseline:
                base = baseline[m["name"]]
                worse = (median - base) / base if m["better"] == "lower" else (base - median) / base
                if worse > bound:
                    flag += f"  WORSE THAN BASELINE by {worse:.1%}"
                    marked = True
        print(f"   {m['name']:<45} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {s:.2%} {m['unit']}{flag}")
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], []).append(r["counts"])
    for seed, counts in sorted(by_seed.items()):
        if any(c != counts[0] for c in counts[1:]):
            print(f"   NONDETERMINISTIC: counts differ between runs of seed {seed}")
            marked = True
    if any(r.get("drift") for r in runs):
        print("   NONDETERMINISTIC: a run reported count drift between its passes")
        marked = True
    keys = sorted({k for r in runs for k in r["counts"]})
    varying = [k for k in keys if len({json.dumps(r["counts"].get(k)) for r in runs}) > 1]
    print(f"   exact counts: {len(keys) - len(varying)} identical in every run"
          + (f", varying with the seed: {', '.join(varying)}" if varying else ""))
    return marked, medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--save", type=Path, help="write the medians here as JSON")
    parser.add_argument("--baseline", type=Path, help="medians saved by --save")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads(args.baseline.read_text()) if args.baseline else {}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    marked = False
    saved = {}
    for workload in names:
        runs = []
        for i in range(args.runs):
            seed = args.seed if args.same_seed else args.seed + i
            result = one_run(workload, seed, args.seconds, args.trace)
            result["seed"] = seed
            runs.append(result)
        flagged, medians = report(workload, runs, spec, args.trace,
                                  baseline.get(workload, {}))
        marked |= flagged
        saved[workload] = medians
    if args.save:
        args.save.write_text(json.dumps(saved, indent=2) + "\n")
    return 1 if marked else 0


if __name__ == "__main__":
    sys.exit(main())
