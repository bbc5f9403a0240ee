"""Acceptance battery: one test per criterion, printing a PASS line each.

Everything here is exact integer/set equality; the only tolerances are the
stated wall-clock budgets, which are asserted where the criterion states
them.  Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import time

from matroidal import (
    conjecture_scan,
    degree2_cert,
    degree2_partition,
    find_ordering,
    is_unmixed,
    minimal_primes,
    multipartite_signature,
    product_cert,
    recognize_var_block_product,
    recognize_veronese,
    search_cert,
    sv_sums,
    variable_cert,
    verify_radical_cert,
    verify_sv,
    veronese_cert,
)
from matroidal.svrank import ara_bounds

from helpers import (
    contiguous_blocks,
    partition_shapes,
    reference_construct_certificate,
    reference_find_ordering,
)

GRID = [(2, 1), (3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3)]


def test_criterion_1_q_equals_n_minus_d(enum_cache):
    start = time.perf_counter()
    checked = 0
    for n, d in GRID:
        for mi in enum_cache(n, d):
            assert find_ordering(mi).q == n - d, (n, d, mi.ideal.gens)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"ACCEPTANCE 1 PASS: q = n - d on {checked} ideals ({elapsed:.1f}s)")


def test_criterion_2_q_is_ordering_independent(enum_cache):
    checked = 0
    for n, d in GRID:
        for mi in enum_cache(n, d):
            s = len(mi.ideal.gens)
            want = 1 if s == 1 else (2 if s == 2 else 3)
            orders = []
            qs = set()
            candidates = [("lex", 0), ("revlex", 0)] + [
                ("random", seed) for seed in range(1, 9)
            ]
            for strategy, seed in candidates:
                ordering = reference_find_ordering(mi, strategy, seed)
                qs.add(ordering.q)
                if ordering.order not in orders:
                    orders.append(ordering.order)
                if len(orders) == want:
                    break
            assert len(orders) == want, (n, d, mi.ideal.gens)
            assert qs == {n - d}
            checked += 1
    print(f"ACCEPTANCE 2 PASS: ordering-independent q on {checked} ideals")


def test_criterion_3_degree2_structure(enum_cache):
    checked = 0
    for n, d in GRID:
        if d != 2:
            continue
        everything = frozenset(range(1, n + 1))
        for mi in enum_cache(n, d):
            partition = degree2_partition(mi)  # verifies (i)-(iv) internally
            complements = {everything - part for part in partition.parts}
            assert complements == set(minimal_primes(mi.ideal).primes)
            checked += 1
    print(f"ACCEPTANCE 3 PASS: degree-2 structure on {checked} ideals")


def test_criterion_4_unmixed_degree2_signatures_at_n6(enum_cache):
    signatures = {
        multipartite_signature(mi)
        for mi in enum_cache(6, 2)
        if is_unmixed(mi.ideal)
    }
    assert signatures == {(1, 1, 1, 1, 1, 1), (3, 3), (2, 2, 2)}
    print("ACCEPTANCE 4 PASS: n=6 unmixed signatures are K_6, K_{3,3}, K_{2,2,2}")


def test_criterion_5_unmixed_bounds_and_tightness(enum_cache):
    from matroidal import unmixed_bounds_report

    checked = 0
    for n, d in GRID:
        if n < 2:
            continue
        for mi in enum_cache(n, d):
            decomposition = minimal_primes(mi.ideal)
            if not decomposition.unmixed:
                continue
            report = unmixed_bounds_report(mi)  # asserts bounds + tightness
            h = report["h"]
            assert h + d - 1 <= n <= h * d
            assert report["lower_tight"] == recognize_veronese(mi.ideal)
            checked += 1
    print(f"ACCEPTANCE 5 PASS: unmixed bounds with tightness on {checked} ideals")


def test_criterion_6_cm_iff_veronese(enum_cache):
    from matroidal import height

    checked = 0
    for n, d in GRID:
        for mi in enum_cache(n, d):
            q = find_ordering(mi).q
            cm = height(mi.ideal) == q + 1
            assert cm == recognize_veronese(mi.ideal), (n, d, mi.ideal.gens)
            checked += 1
    print(f"ACCEPTANCE 6 PASS: CM iff Veronese on {checked} ideals")


def test_criterion_7_constructions(enum_cache):
    for n in range(1, 9):
        for d in range(1, n + 1):
            partition = veronese_cert(n, d)
            assert len(partition.layers) == n - d + 1
            assert verify_sv(partition)
    degree2_count = 0
    for n, d in GRID:
        if d != 2:
            continue
        for mi in enum_cache(n, d):
            partition = degree2_cert(mi)
            assert len(partition.layers) == n - d + 1
            assert verify_sv(partition)
            degree2_count += 1
    shape_count = 0
    for total in range(1, 9):
        for shape in partition_shapes(total):
            blocks = contiguous_blocks(shape)
            cert = product_cert([variable_cert(b, total) for b in blocks])
            assert len(cert.polys) == total - len(shape) + 1
            shape_count += 1
    print(
        "ACCEPTANCE 7 PASS: Veronese certs n<=8, "
        f"{degree2_count} degree-2 certs, {shape_count} block shapes"
    )


def test_criterion_8_oracle_soundness(enum_cache):
    budget_per_ideal = 120.0
    worst = 0.0
    checked = 0

    def oracle_check(cert):
        nonlocal worst, checked
        start = time.perf_counter()
        result = verify_radical_cert(cert, cap=8)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert elapsed < budget_per_ideal
        assert result.verified, cert.target
        assert all(power <= 8 for power in result.powers.values())
        checked += 1
        return result

    for n in range(1, 7):
        for d in range(1, n + 1):
            oracle_check(sv_sums(veronese_cert(n, d)))
    for n in (3, 4, 5):
        for mi in enum_cache(n, 2):
            oracle_check(sv_sums(degree2_cert(mi)))
    for mi in enum_cache(6, 2, True):
        oracle_check(sv_sums(degree2_cert(mi)))
    for total in range(2, 7):
        for shape in partition_shapes(total):
            blocks = contiguous_blocks(shape)
            oracle_check(product_cert([variable_cert(b, total) for b in blocks]))
    for mi in enum_cache(5, 3, True):
        if recognize_veronese(mi.ideal) or recognize_var_block_product(mi.ideal):
            continue
        result = search_cert(mi, 3, budget=100000)
        if result.partition is not None:
            oracle_check(sv_sums(result.partition))
    # The (6,3) orbits that no construction covers: all 21 have a size-4
    # search layering, and the oracle must confirm each one.
    searched = 0
    for mi in enum_cache(6, 3, True):
        if reference_construct_certificate(mi) is not None:
            continue
        result = search_cert(mi, 4, budget=20000)
        assert result.partition is not None, mi.ideal.gens
        assert oracle_check(sv_sums(result.partition)).method == "layered"
        searched += 1
    assert searched == 21
    # Past the reach of one Groebner basis of all the sums (the 3+3+2 block
    # product took minutes that way), each layer is confirmed on its own.
    blocks = contiguous_blocks((3, 3, 2))
    large = [product_cert([variable_cert(b, 8) for b in blocks])]
    large += [sv_sums(veronese_cert(n, 4)) for n in (8, 9)]
    for cert in large:
        assert oracle_check(cert).method == "layered"
    print(
        f"ACCEPTANCE 8 PASS: oracle confirmed {checked} certificates "
        f"(worst {worst:.2f}s per ideal)"
    )


def test_criterion_9_cm_iff_set_theoretic_complete_intersection(enum_cache):
    from matroidal import height

    checked = 0
    for n, d in GRID:
        for mi in enum_cache(n, d):
            bounds = ara_bounds(mi, search=False)
            if bounds.upper is None or not bounds.exact:
                continue
            cm = height(mi.ideal) == bounds.lower  # ht = q + 1
            stci = height(mi.ideal) == bounds.upper  # ht = ara
            assert cm == stci
            checked += 1
    assert checked > 0
    print(f"ACCEPTANCE 9 PASS: CM iff STCI on {checked} ideals with exact ara")


def test_criterion_10_conjecture_scan():
    lines = []
    for n, d in [(5, 3), (6, 3)]:
        report = conjecture_scan(n, d, budget=20000)
        assert report.total_ideals == report.certified + report.inconclusive
        assert report.all_certificates_reverified
        for counts in report.theorem_counts.values():
            assert (
                counts["pass"] + counts["fail"] + counts["skip"]
                == report.total_ideals
            )
            assert counts["fail"] == 0
        lines.append(
            f"({n},{d}): certified {report.certified}/{report.total_ideals}, "
            f"inconclusive {report.inconclusive}, {report.elapsed_seconds:.1f}s"
        )
    print("ACCEPTANCE 10 PASS: scans completed; " + "; ".join(lines))
