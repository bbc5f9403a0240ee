"""The four benchmark workloads: inputs from a seed, one timed pass each.

Every workload has ``setup(M, seed)``, which builds the inputs from the
seed with the library module ``M``, and ``run_pass(M, inputs, rec, ctx)``,
which makes the timed library calls through the ``Recorder`` and returns
the pass's exact work counts, read from public return values.

The seed fixes a variable relabeling (one permutation per cell, so an
exhaustive cell maps onto itself and its expected counts do not change)
and the processing order.  Relabeled ideals are canonicalised through
``minimal_generators``.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
import time
from array import array
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import reference as ref
from speed import cpu_ns


# The failures the library shows at the time the benchmark was written,
# as (operation, exception): q_index on V(13,6) hits the recursion limit,
# because find_ordering recurses once per generator (1716 here).  Any other
# failure makes a run's result incorrect.
KNOWN_FAILURES = frozenset({("q_index", "RecursionError")})


class Recorder:
    """Counts operations and failures; defers output checks past the pass.

    An operation fails when it raises, or when its check finds the output
    differs from the reference, which includes an inconclusive search
    where a certificate is expected.
    """

    def __init__(self, clock, tracer=None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()  # (operation, exception or problem)
        self.item_start = array("q")
        self.item_end = array("q")
        self.cli_ms: dict[str, list[float]] = {}
        self._pending: list[tuple[str, object, object]] = []

    def run(self, op: str, check, fn, *args, **kwargs):
        """Call ``fn``; a raise is a failed operation and returns None."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted, none aborts the run
            self.failed += 1
            self.failures[(op, type(exc).__name__)] += 1
            if self.tracer is not None:
                self.tracer.reset_stack()
            return None
        if check is not None:
            self._pending.append((op, check, result))
        return result

    def observe(self, op: str, check, result) -> None:
        """Count an operation made inside a library call and check it later.

        Its exception, if any, escapes through the enclosing ``run``.
        """
        self.attempted += 1
        self._pending.append((op, check, result))

    def unexpected(self) -> list[tuple[str, str]]:
        """Failures other than the ``KNOWN_FAILURES``."""
        return [key for key in self.failures if key not in KNOWN_FAILURES]

    def begin_item(self) -> int:
        self.clock.tick()
        return cpu_ns()

    def end_item(self, start_ns: int) -> None:
        self.item_start.append(start_ns)
        self.item_end.append(cpu_ns())

    def settle(self) -> None:
        """Apply the deferred checks of the pass just finished."""
        for op, check, result in self._pending:
            problem = check(result)
            if problem is not None:
                self.failed += 1
                self.failures[(op, problem)] += 1
        self._pending.clear()

    def cli(self, kind: str, start_ns: int, end_ns: int) -> None:
        self.cli_ms.setdefault(kind, []).append((end_ns - start_ns) / 1e6)
        if self.tracer is not None:
            self.tracer.record(f"cli.{kind}", start_ns, end_ns)


# -- helpers ---------------------------------------------------------------


def _permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def _relabel_gens(gens, perm) -> list[int]:
    out = []
    for g in gens:
        m = 0
        while g:
            low = g & -g
            g ^= low
            m |= 1 << (perm[low.bit_length() - 1] - 1)
        out.append(m)
    return out


def _relabel(M, mi, perm):
    """The seeded relabeling of a matroidal ideal, canonicalised."""
    ideal = M.minimal_generators(_relabel_gens(mi.ideal.gens, perm), mi.ideal.n)
    return M.MatroidalIdeal(ideal, mi.d)


def _blocks(perm, sizes) -> list[frozenset[int]]:
    out, at = [], 0
    for size in sizes:
        out.append(frozenset(perm[at : at + size]))
        at += size
    return out


def _cell_check(n, d, expected, sym):
    def check(ideals):
        if len(ideals) != expected:
            return f"count {len(ideals)} != {expected}"
        full = (1 << n) - 1
        seen = set()
        for mi in ideals:
            gens = mi.ideal.gens
            if mi.d != d or any(g.bit_count() != d for g in gens):
                return "wrong degree"
            union = 0
            for g in gens:
                union |= g
            if union != full:
                return "support is not full"
            if gens in seen:
                return "duplicate ideal"
            seen.add(gens)
            if not sym and ref.exchange_problem(gens):
                return "not matroidal"
        return None

    return check


def _battery_check(n, d):
    def check(result):
        if result.q != n - d:
            return "q != n-d"
        if "fail" in result.verdicts.values():
            return "theorem verdict fail"
        return None

    return check


def _partition_check(mi, size):
    def check(partition):
        if len(partition.layers) != size:
            return "certificate size != n-d+1"
        layers = [tuple(layer) for layer in partition.layers]
        return ref.layering_problem(mi.ideal.gens, layers)

    return check


def _search_check(mi, size):
    partition_check = _partition_check(mi, size)

    def check(result):
        if result.partition is None:
            return "inconclusive"
        return partition_check(result.partition)

    return check


def _truthy(what):
    return lambda result: None if result else what


def _oracle_check(result):
    return None if result.verified else "oracle not verified"


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# -- grid ------------------------------------------------------------------


def grid_setup(M, seed):
    rng = random.Random(seed)
    return {
        cell: (_permutation(rng, cell[0]), rng.getrandbits(64))
        for cell in ref.GRID_CELLS
    }


def grid_pass(M, inputs, rec, ctx):
    counts = {}
    for (n, d), (perm, order_seed) in inputs.items():
        cell = f"{n},{d}"
        ideals = rec.run(
            "enumerate_matroidal",
            _cell_check(n, d, ref.FULL_COUNTS[(n, d)], False),
            lambda: list(M.enumerate_matroidal(n, d)),
        )
        if ideals is not None:
            counts[f"ideals.{cell}"] = len(ideals)
            check = _battery_check(n, d)
            for mi in _shuffled(random.Random(order_seed), ideals):
                start = rec.begin_item()
                relabeled = rec.run("minimal_generators", None, _relabel, M, mi, perm)
                if relabeled is not None:
                    rec.run("theorem_battery", check, M.theorem_battery, relabeled)
                rec.end_item(start)
        reps = rec.run(
            "enumerate_matroidal_sym",
            _cell_check(n, d, ref.SYMMETRY_COUNTS[(n, d)], True),
            lambda: list(M.enumerate_matroidal(n, d, up_to_symmetry=True)),
        )
        if reps is not None:
            counts[f"orbits.{cell}"] = len(reps)
    return counts


# -- scan ------------------------------------------------------------------


def scan_setup(M, seed):
    rng = random.Random(seed)
    n, _ = ref.SCAN_CELL
    return {"perm": _permutation(rng, n), "order_seed": rng.getrandbits(64)}


def _scan_report_check(report):
    n, d = ref.SCAN_CELL
    total = ref.FULL_COUNTS[(n, d)]
    if report.total_ideals != total:
        return f"scanned {report.total_ideals} ideals != {total}"
    if report.certified != total or report.inconclusive != 0:
        return f"{report.inconclusive} inconclusive"
    if not report.all_certificates_reverified:
        return "certificate not re-verified"
    for tally in report.theorem_counts.values():
        if tally["fail"] or sum(tally.values()) != total:
            return "theorem verdict fail"
    return None


def scan_pass(M, inputs, rec, ctx):
    """One ``conjecture_scan`` call, observed through two patched names.

    For the call, ``matroidal.enumeration.enumerate_matroidal`` is replaced
    by a generator that yields the cell's ideals relabeled and in the seeded
    order; an item runs from one yield to the scan loop's next request.
    ``matroidal.enumeration.search_cert`` is wrapped to read each
    ``SearchResult``.  The per-ideal work is the scan's own code.
    """
    module = importlib.import_module("matroidal.enumeration")
    enumerate_cell, search = module.enumerate_matroidal, module.search_cert
    n, d = ref.SCAN_CELL
    target = n - d + 1
    counts = Counter(ideals=0, searches=0, search_nodes=0, search_found=0)

    def seeded(*args, **kwargs):
        ideals = list(enumerate_cell(*args, **kwargs))
        rec.observe(
            "enumerate_matroidal", _cell_check(n, d, ref.FULL_COUNTS[(n, d)], False), ideals
        )
        counts["ideals"] = len(ideals)
        for mi in _shuffled(random.Random(inputs["order_seed"]), ideals):
            start = rec.begin_item()
            try:
                yield _relabel(M, mi, inputs["perm"])
            finally:
                rec.end_item(start)

    def observed_search(mi, size, *args, **kwargs):
        result = search(mi, size, *args, **kwargs)
        counts["searches"] += 1
        counts["search_nodes"] += result.nodes
        counts["search_found"] += result.partition is not None
        rec.observe("search_cert", _search_check(mi, target), result)
        return result

    module.enumerate_matroidal, module.search_cert = seeded, observed_search
    try:
        report = rec.run(
            "conjecture_scan",
            _scan_report_check,
            M.conjecture_scan,
            n,
            d,
            budget=ref.SCAN_BUDGET,
            up_to_symmetry=False,
        )
    finally:
        module.enumerate_matroidal, module.search_cert = enumerate_cell, search
    counts_dict = dict(counts)
    if report is not None:
        counts_dict["certified"] = report.certified
    if counts["searches"] != ref.SCAN_SEARCHES or counts["search_nodes"] != ref.SCAN_NODES:
        counts_dict["differs_from_reference"] = True
    return counts_dict


# -- kernels ---------------------------------------------------------------

# 4x4 blocks are left out: their transversal DFS took 71.6 s alone.
KERNEL_BLOCKS = {"blocks_3x5": (5, 5, 5), "blocks_4x3": (3, 3, 3, 3)}


def kernels_setup(M, seed):
    rng = random.Random(seed)
    blocks = {}
    for name, sizes in KERNEL_BLOCKS.items():
        blocks[name] = _blocks(_permutation(rng, sum(sizes)), sizes)
    gens = [M.mono(c) for c in combinations(range(1, 14), 6)]
    v13 = M.MatroidalIdeal(M.minimal_generators(gens, 13), 6)
    items = ["veronese_12_6", *blocks, "q_index_13_6"]
    return {"blocks": blocks, "v13": v13, "order": _shuffled(rng, items)}


def _kernel_veronese(M, rec, counts):
    n, d = 12, 6
    v = rec.run(
        "veronese",
        lambda mi: None
        if len(mi.ideal.gens) == comb(n, d)
        else "generator count",
        M.veronese,
        n,
        d,
    )
    if v is None:
        return
    counts["veronese_12_6.gens"] = len(v.ideal.gens)
    gens = set(v.ideal.gens)

    def ordering_check(o):
        if o.q != n - d:
            return "q != n-d"
        return None if set(o.order) == gens and len(o.order) == len(gens) else "order"

    rec.run("find_ordering", ordering_check, M.find_ordering, v)
    expected = ref.veronese_primes(n, d)

    def primes_check(p):
        if set(p.primes) != expected or len(p.primes) != len(expected):
            return "primes != C(n, n-d+1) subsets"
        return None if p.height == n - d + 1 and p.unmixed else "height"

    primes = rec.run("minimal_primes", primes_check, M.minimal_primes, v.ideal)
    if primes is not None:
        counts["veronese_12_6.primes"] = len(primes.primes)

    def cert_check(partition):
        # The full pair condition is re-checked by verify_sv below; here
        # the shape: n-d+1 layers partitioning G(I), singleton first.
        layers = partition.layers
        if len(layers) != n - d + 1 or len(layers[0]) != 1:
            return "certificate shape"
        covered = [g for layer in layers for g in layer]
        return None if len(covered) == len(gens) and set(covered) == gens else "cover"

    cert = rec.run("veronese_cert", cert_check, M.veronese_cert, n, d)
    if cert is not None:
        rec.run("verify_sv", _truthy("verify_sv rejects"), M.verify_sv, cert)


def _kernel_blocks(M, rec, counts, name, blocks):
    n = sum(len(b) for b in blocks)
    d = len(blocks)
    expected_gens = 1
    for b in blocks:
        expected_gens *= len(b)
    mi = rec.run(
        "var_block_product",
        lambda r: None if len(r.ideal.gens) == expected_gens else "generator count",
        M.var_block_product,
        blocks,
        n,
    )
    if mi is None:
        return
    rec.run(
        "find_ordering",
        lambda o: None if o.q == n - d else "q != n-d",
        M.find_ordering,
        mi,
    )
    expected = set(blocks)
    primes = rec.run(
        "minimal_primes",
        lambda p: None if set(p.primes) == expected and len(p.primes) == d else "primes != blocks",
        M.minimal_primes,
        mi.ideal,
    )
    if primes is not None:
        counts[f"{name}.primes"] = len(primes.primes)


def kernels_pass(M, inputs, rec, ctx):
    counts = {}
    for item in inputs["order"]:
        start = rec.begin_item()
        if item == "veronese_12_6":
            _kernel_veronese(M, rec, counts)
        elif item == "q_index_13_6":
            # One of the KNOWN_FAILURES: raises RecursionError.
            rec.run(
                "q_index", lambda q: None if q == 13 - 6 else "q != n-d",
                M.q_index, inputs["v13"],
            )
        else:
            _kernel_blocks(M, rec, counts, item, inputs["blocks"][item])
        rec.end_item(start)
    return counts


# -- certify ---------------------------------------------------------------

# (6,3) search certificates are left out: one alone took 74 s in the oracle.
CERTIFY_VERONESE = ((6, 3), (7, 3), (7, 4))
# Both products take about 0.1 s in the oracle; 3+3+2 blocks took 138 s
# and 2+3+2 blocks 2 s, with a relabeling-dependent share of that.
CERTIFY_PRODUCTS = ((2, 2, 2), (3, 3))
CLI_BLOCKS = (3, 3)


def _partition_from_setup(M, mi, size, make):
    """Build a certificate in setup; a wrong one stops the benchmark."""
    partition = make()
    if partition is None:
        raise RuntimeError("setup found no certificate")
    problem = _partition_check(mi, size)(partition)
    if problem is not None:
        raise RuntimeError(f"setup certificate is wrong: {problem}")
    return partition


def certify_setup(M, seed):
    rng = random.Random(seed)
    partitions = []
    perm = _permutation(rng, 5)
    for mi in M.enumerate_matroidal(5, 3):
        mi = _relabel(M, mi, perm)
        ideal = mi.ideal
        if M.recognize_veronese(ideal) or M.recognize_var_block_product(ideal):
            continue
        partitions.append(
            ("search_5_3", _partition_from_setup(
                M, mi, 3,
                lambda: M.search_cert(mi, 3, budget=ref.SCAN_BUDGET).partition,
            ))
        )
    if len(partitions) != ref.CERTIFY_SEARCH_IDEALS:
        raise RuntimeError(f"{len(partitions)} (5,3) search ideals, expected 80")
    for n, d in CERTIFY_VERONESE:
        mi = M.veronese(n, d)
        partitions.append(
            (f"veronese_{n}_{d}", _partition_from_setup(
                M, mi, n - d + 1, lambda: M.veronese_cert(n, d)))
        )
    for mi in M.enumerate_matroidal(6, 2, up_to_symmetry=True):
        mi = _relabel(M, mi, _permutation(rng, 6))
        partitions.append(
            ("degree2_6_2", _partition_from_setup(M, mi, 5, lambda: M.degree2_cert(mi)))
        )
    products = []
    for sizes in CERTIFY_PRODUCTS:
        n = sum(sizes)
        blocks = _blocks(_permutation(rng, n), sizes)
        cert = M.product_cert([M.variable_cert(b, n) for b in blocks])
        if len(cert.polys) != n - len(sizes) + 1:
            raise RuntimeError("setup product certificate has the wrong size")
        products.append(("product_" + "x".join(map(str, sizes)), cert))
    cli_ideals = []
    for name, mi in (
        ("veronese_7_3", M.veronese(7, 3)),
        ("blocks_3x3", M.var_block_product(_blocks(_permutation(rng, 6), CLI_BLOCKS), 6)),
    ):
        text = M.format_ideal(mi.ideal)
        if M.parse_ideal(text) != mi.ideal:
            raise RuntimeError("ideal file does not parse back to the ideal")
        cli_ideals.append((name, text, mi.ideal.n - mi.d + 1))
    items = (
        [("partition", p) for p in partitions]
        + [("product", p) for p in products]
        + [("cli", c) for c in cli_ideals]
    )
    return {"items": _shuffled(rng, items)}


def _cli_round_trip(rec, name, text, size, workdir: Path, src: Path):
    """``matroidal cert`` then ``matroidal verify-cert --oracle``, cold."""
    ideal_path = workdir / f"{name}.txt"
    cert_path = workdir / f"{name}.cert.json"
    ideal_path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(src))
    base = [sys.executable, "-m", "matroidal.cli"]

    def call(kind, args):
        """The exit code and the JSON document the command printed."""
        start = time.perf_counter_ns()
        proc = subprocess.run(
            base + args, capture_output=True, text=True, env=env, timeout=120
        )
        rec.cli(kind, start, time.perf_counter_ns())
        return proc.returncode, json.loads(proc.stdout)

    def cert_check(outcome):
        code, doc = outcome
        if code != 0:
            return f"cert exit {code}"
        if len(doc.get("sums", ())) != size:
            return "certificate size != n-d+1"
        return None if doc.get("construction") in ("veronese", "product") else "construction"

    def verify_check(outcome):
        code, doc = outcome
        if doc.get("oracle", {}).get("verified") is not True:
            return "oracle not verified"
        return None if code == 0 else f"verify-cert exit {code}"

    outcome = rec.run(
        "cli_cert", cert_check, call, "cert", ["cert", str(ideal_path), "--json"]
    )
    if outcome is None or outcome[0] != 0:
        return
    cert_path.write_text(json.dumps(outcome[1]))
    rec.run(
        "cli_verify_cert",
        verify_check,
        call,
        "verify_cert",
        ["verify-cert", str(ideal_path), str(cert_path), "--oracle", "--json"],
    )


def certify_pass(M, inputs, rec, ctx):
    counts = Counter()
    for kind, payload in inputs["items"]:
        if kind == "cli":
            # Counted in wall_s and the cli.* metrics but not as an item: the
            # child runs on whichever core is free, at a speed the probes of
            # this process do not see, and its time varied by 17%.
            name, text, size = payload
            _cli_round_trip(rec, name, text, size, ctx["workdir"], ctx["src"])
            counts["cli_round_trips"] += 1
            continue
        start = rec.begin_item()
        name, cert = payload
        if kind == "partition":
            cert = rec.run("sv_sums", None, M.sv_sums, cert)
        if cert is not None:
            result = rec.run(
                "verify_radical_cert", _oracle_check, M.verify_radical_cert, cert
            )
            if result is not None:
                counts[f"oracle_powers.{name}"] += sum(result.powers.values())
                counts["oracle_verified"] += result.verified
        rec.end_item(start)
    return dict(counts)


WORKLOADS = {
    "grid": (grid_setup, grid_pass),
    "scan": (scan_setup, scan_pass),
    "kernels": (kernels_setup, kernels_pass),
    "certify": (certify_setup, certify_pass),
}
