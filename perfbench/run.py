#!/usr/bin/env python3
"""Benchmark of the matroidal library and CLI, end to end or layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload grid|scan|kernels|certify|all \
        --seed N --seconds S --trace 0|1

The library is imported from ``src/`` of the checkout.  A run builds the
workload's inputs from the seed, then repeats whole timed passes until
the next one would end after ``--seconds`` (at least one pass), and
checks every output against reference values.  Set-up time is measured in
fresh interpreters, several times, and reported as the median.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` adds one traced pass (after the untraced ones) with every
public library function wrapped in a span, and reports the per-layer
metrics instead; the spans are written to ``.perfbench_run/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit, failures by operation, and exact work
counts.  With ``--workload all`` the four workloads run one after another,
each in a child process of its own so that its ``peak_rss_mb`` is its own,
and the metrics are keyed ``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_run"
SETUP_PROBES = 11

sys.path.insert(0, str(HERE))

from spans import COUNTER_NAMES, LAYERS, Tracer  # noqa: E402
from speed import SpeedClock, cpu_ns, probe_factor  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_library():
    """Import matroidal from this checkout's src/, and only from there."""
    package = SRC / "matroidal"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no library sources at {package}")
    sys.path.insert(0, str(SRC))
    import matroidal

    if Path(matroidal.__file__).resolve().parent != package.resolve():
        raise BenchError(f"matroidal was imported from {matroidal.__file__}")
    return matroidal


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def setup_probe(workload: str, seed: int) -> None:
    """Child-process mode: import plus input building in a fresh interpreter.

    Prints the CPU seconds of both, the wall seconds, and the speed
    factors read just before and just after.
    """
    before = probe_factor()
    wall = time.perf_counter()
    start = time.thread_time()
    M = load_library()
    imported = time.thread_time()
    WORKLOADS[workload][0](M, seed)
    done = time.thread_time()
    wall = time.perf_counter() - wall
    print(json.dumps({
        "import_cpu_s": imported - start,
        "setup_cpu_s": done - start,
        "raw_setup_s": wall,
        "factors": [before, probe_factor()],
    }))


def setup_seconds(probes: list[dict], key: str) -> float:
    """Median CPU seconds of ``key`` over the probes, at the reference speed.

    The speed factor is the median of every reading of the set-up phase,
    not each probe's own: one reading in six or so came out about 1.5
    times faster, while the import itself sped up by much less.
    """
    factor = statistics.median(f for p in probes for f in p["factors"])
    return statistics.median(p[key] for p in probes) * factor


def run_probes(workload: str, seed: int) -> list[dict]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights, integrated numerically over each rank's interval.  Item times
    are multi-modal (a few ideal shapes), so the single middle order
    statistic jumps across gaps between modes from run to run; this
    estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a = p * (n + 1) - 1
    b = (1 - p) * (n + 1) - 1
    sub = max(8, 2000 // n)
    logw = [
        a * math.log(x) + b * math.log1p(-x)
        for x in ((i + (k + 0.5) / sub) / n for i in range(n) for k in range(sub))
    ]
    top = max(logw)
    weights = [0.0] * n
    for j, lw in enumerate(logw):
        if lw > top - 50:
            weights[j // sub] += math.exp(lw - top)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def layer_metrics(names, summary, tracer, rec, probes, untraced_wall_s, traced_wall_s):
    counts = tracer.counts

    def field(span, key):
        return summary.get(span, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    self_s = {layer: 0.0 for layer in LAYERS}
    for span, entry in summary.items():
        self_s[span.split(".", 1)[0]] += entry["self_s"]
    cli_ms = {k: statistics.median(v) for k, v in rec.cli_ms.items()}
    special = {
        "svrank.nodes_per_found": ratio(
            counts["svrank.search_cert.nodes"], counts["svrank.search_cert.found"]
        ),
        "quotients.colon_accept_ratio": ratio(
            field("quotients.colon_step_vars", "calls")
            - counts["quotients.colon_step_vars.rejects"],
            field("quotients.colon_step_vars", "calls"),
        ),
        "enumeration.enumerate_matroidal.ideals": counts["enumeration.enumerate_matroidal.ideals"]
        + counts["enumeration.enumerate_matroidal.sym_ideals"],
        "enumeration.sym_keep_ratio": ratio(
            counts["enumeration.enumerate_matroidal.sym_ideals"],
            field("enumeration.canonical_form", "calls"),
        ),
        "cli.cert.cold_ms": cli_ms.get("cert", 0.0),
        "cli.verify_cert.cold_ms": cli_ms.get("verify_cert", 0.0),
        "cli.import_ms": 1000 * setup_seconds(probes, "import_cpu_s"),
        "trace.wall_s": traced_wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.spans": len(tracer.span_start),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name in COUNTER_NAMES:
            out[name] = counts[name]
        elif name.endswith(".self_s"):
            out[name] = self_s[name[: -len(".self_s")]]
        elif name.endswith(".calls"):
            out[name] = field(name[: -len(".calls")], "calls")
        elif name.endswith(".max_ms"):
            out[name] = field(name[: -len(".max_ms")], "max_ms")
        elif name.endswith(".s"):
            out[name] = field(name[: -len(".s")], "s")
        else:
            raise BenchError(f"no rule computes per-layer metric {name}")
    return out


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def run_workload(M, spec, workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result dict, lines to print)."""
    setup, run_pass = WORKLOADS[workload]
    probes = run_probes(workload, seed)
    inputs = setup(M, seed)
    WORKDIR.mkdir(exist_ok=True)
    ctx = {"workdir": WORKDIR, "src": SRC}
    clock = SpeedClock()
    rec = Recorder(clock)
    walls: list[float] = []
    raw_walls: list[float] = []
    pass_counts: list[dict] = []
    firsts: list[int] = []  # index of each pass's first item
    begin = time.perf_counter()
    with clock:
        while True:
            firsts.append(len(rec.item_start))
            wall = time.perf_counter()
            start = cpu_ns()
            pass_counts.append(run_pass(M, inputs, rec, ctx))
            walls.append(clock.seconds(start, cpu_ns()))
            raw_walls.append(time.perf_counter() - wall)
            rec.settle()
            elapsed = time.perf_counter() - begin
            if elapsed + statistics.median(raw_walls) > seconds:
                break
    rss_mb = peak_rss_mb()
    wall_s = statistics.median(walls)
    item_ms = [1000 * clock.seconds(a, b) for a, b in zip(rec.item_start, rec.item_end)]
    # Percentiles per pass, then the median over passes: every estimate
    # then rests on the same items, however many passes fit in the run.
    per_pass = [item_ms[a:b] for a, b in zip(firsts, firsts[1:] + [len(item_ms)])]
    end_to_end = {
        "setup_s": setup_seconds(probes, "setup_cpu_s"),
        "wall_s": wall_s,
        "item_p50_ms": statistics.median(hd_quantile(v, 0.50) for v in per_pass),
        "item_p99_ms": statistics.median(hd_quantile(v, 0.99) for v in per_pass),
        "peak_rss_mb": rss_mb,
    }
    recorders = [rec]
    lines = [f"workload {workload} seed {seed}: {len(walls)} passes, "
             f"{len(item_ms)} items ({len(item_ms) // len(walls)} per pass); "
             f"raw wall {statistics.median(raw_walls):.6g} s, raw set-up "
             f"{statistics.median(p['raw_setup_s'] for p in probes):.6g} s; pass walls "
             + " ".join(f"{w:.4g}" for w in walls)]
    drift = [c for c in pass_counts[1:] if c != pass_counts[0]]
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_clock = SpeedClock()
            trec = Recorder(traced_clock, tracer)
            traced_inputs = setup(M, seed)
            with traced_clock:
                start = cpu_ns()
                traced_counts = run_pass(M, traced_inputs, trec, ctx)
                traced_wall_s = traced_clock.seconds(start, cpu_ns())
        finally:
            tracer.uninstall()
        trec.settle()
        recorders.append(trec)
        if traced_counts != pass_counts[0]:
            drift.append(traced_counts)
        tracer.dump(WORKDIR / f"spans-{workload}.tsv")
        names = [m["name"] for m in spec["per_layer"]]
        summary = tracer.summary()
        values = layer_metrics(names, summary, tracer, trec, probes, wall_s, traced_wall_s)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = end_to_end
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    unexpected = [key for r in recorders for key in r.unexpected()]
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in end_to_end.items():
        lines.append(f"  {name} = {_fmt(value)} {e2e_units[name]}")
    lines.append(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for r in recorders:
        for (op, why), k in sorted(r.failures.items()):
            known = "" if (op, why) in unexpected else " (known failure)"
            lines.append(f"  failed: {op}: {why} x{k}{known}")
    if trace:
        for name in names:
            lines.append(f"  {name} = {_fmt(values[name])} {units[name]}")
    exact = dict(pass_counts[0])
    if trace:
        # Wrapped-call counts of the traced pass and its set-up.
        exact.update({f"calls.{k}": v["calls"] for k, v in summary.items()})
        exact.update(tracer.counts)
    lines.append("counts " + json.dumps(exact, sort_keys=True))
    if drift:
        lines.append("COUNT DRIFT: a pass of the same seed did different work: "
                     + json.dumps(drift[0], sort_keys=True))
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    return result, lines


def run_child(workload: str, args) -> dict:
    """Run one workload in a child process; print its lines, return its result."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(args.seed), "--trace", str(args.trace)]
        + ([] if args.seconds is None else ["--seconds", str(args.seconds)]),
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.setup_probe, args.seed)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        spec = load_spec()
        if args.workload == "all":
            results = {name: run_child(name, args) for name in WORKLOADS}
        else:
            M = load_library()
            seconds = spec["run_seconds"] if args.seconds is None else args.seconds
            final, lines = run_workload(
                M, spec, args.workload, args.seed, seconds, bool(args.trace)
            )
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
