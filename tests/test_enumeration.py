import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import pytest

import matroidal.cli
import matroidal.decomposition
import matroidal.enumeration
import matroidal.matroids
import matroidal.quotients
import matroidal.svrank
from matroidal import (
    Ideal,
    InvariantViolation,
    MatroidalIdeal,
    SVCheck,
    as_matroidal,
    canonical_form,
    check_matroidal,
    conjecture_scan,
    construct_certificate,
    degree2_cert,
    degree2_partition,
    enumerate_matroidal,
    height,
    is_unmixed,
    minimal_generators,
    minimal_primes,
    recognize_var_block_product,
    relabel_ideal,
    theorem_battery,
    var_block_product,
    verify_sv,
    veronese,
    veronese_cert,
)
from matroidal.cli import main
from matroidal.enumeration import MAX_IDEALS

from helpers import brute_force_matroidal, ideal_of, reference_construct_certificate

# Labeled counts of matroidal ideals with full support.  The d=1 column is
# always 1, d=2 equals the number of set partitions of n into >= 2 parts,
# and d=n-1 equals 2^n - n - 1 (families of >= 2 coatoms); the remaining
# n <= 6 cells are regression values from runs cross-validated against the
# brute-force filter, and (7,5) one from the inclusion-only DFS
# (``helpers.reference_enumerate_matroidal``).
FULL_COUNTS = {
    (2, 1): 1,
    (3, 2): 4,
    (4, 2): 14,
    (4, 3): 11,
    (5, 2): 51,
    (5, 3): 106,
    (5, 4): 26,
    (5, 5): 1,
    (6, 2): 202,
    (6, 3): 1232,
    (6, 4): 642,
    (6, 5): 57,
    (6, 6): 1,
    (7, 2): 876,
    (7, 5): 3592,
    (8, 2): 4139,
}

# One representative per relabeling orbit.  Cells with d = 1 or d = n hold
# one ideal, and (n, n-1) one orbit per number of coatoms, 2 to n.
SYMMETRY_COUNTS = {
    **{(n, 1): 1 for n in range(1, 7)},
    **{(n, n): 1 for n in range(2, 7)},
    **{(n, n - 1): n - 1 for n in (5, 6)},
    (3, 2): 2,
    (4, 2): 4,
    (5, 2): 6,
    (6, 2): 10,
    (4, 3): 3,
    (5, 3): 9,
    (6, 3): 25,
    (6, 4): 18,
    (7, 2): 14,
    (7, 5): 31,
}

# The orbit representatives, in yield order, as sorted generator masks.
REPRESENTATIVES = {
    (6, 3): [
        (7, 11, 13, 14, 19, 21, 22, 25, 26, 28, 35, 37, 38, 41, 42, 44, 49, 50, 52, 56),
        (7, 11, 13, 14, 19, 21, 22, 25, 26, 28, 35, 37, 38, 41, 42, 44, 49, 50, 52),
        (7, 11, 13, 14, 19, 21, 22, 25, 26, 35, 37, 38, 41, 42, 49, 50),
        (7, 11, 13, 14, 19, 21, 22, 25, 26, 28, 35, 37, 38, 41, 42, 49, 52, 56),
        (7, 11, 13, 19, 21, 25, 35, 37, 41, 49),
        (7, 11, 13, 14, 19, 21, 22, 25, 26, 28, 35, 37, 38, 41, 42, 44),
        (7, 11, 13, 14, 19, 21, 22, 25, 26, 35, 37, 38, 41, 42),
        (7, 11, 13, 14, 19, 21, 22, 25, 26, 35, 37, 38, 41, 44, 50, 52, 56),
        (7, 11, 13, 19, 21, 25, 35, 37, 41),
        (7, 11, 13, 14, 19, 21, 22, 35, 37, 38),
        (7, 11, 13, 14, 19, 21, 22, 35, 37, 42, 44, 50, 52),
        (7, 11, 13, 14, 19, 21, 26, 28, 35, 37, 42, 44),
        (7, 11, 13, 19, 21, 35, 37),
        (7, 11, 13, 14, 19, 21, 22, 35, 41, 42, 49, 50),
        (7, 11, 13, 14, 19, 21, 26, 28, 35, 38, 41, 44, 49, 50, 52, 56),
        (7, 11, 13, 19, 21, 35, 41, 49),
        (7, 11, 19, 35),
        (7, 11, 13, 14, 19, 21, 22, 25, 26, 37, 38, 41, 42, 44, 49, 50, 52, 56),
        (7, 11, 13, 14, 19, 21, 22, 25, 26, 37, 38, 41, 42, 49, 50),
        (7, 11, 13, 14, 19, 21, 22, 25, 26, 37, 41, 44, 49, 52, 56),
        (7, 11, 13, 19, 21, 25, 38, 42, 44, 50, 52, 56),
        (7, 11, 13, 19, 21, 38, 42, 44, 50, 52),
        (7, 11, 19, 37, 41, 49),
        (7, 11, 13, 22, 26, 28, 38, 42, 44),
        (7, 11, 21, 25, 38, 42, 52, 56),
    ],
    (6, 4): [
        (15, 23, 27, 29, 30, 39, 43, 45, 46, 51, 53, 54, 57, 58, 60),
        (15, 23, 27, 29, 30, 39, 43, 45, 46, 51, 53, 54, 57, 58),
        (15, 23, 27, 29, 39, 43, 45, 51, 53, 57),
        (15, 23, 27, 29, 30, 39, 43, 45, 46, 51, 53, 54),
        (15, 23, 27, 29, 30, 39, 43, 45, 46, 51, 53, 58, 60),
        (15, 23, 27, 29, 39, 43, 45, 51, 53),
        (15, 23, 27, 39, 43, 51),
        (15, 23, 27, 29, 30, 39, 43, 45, 46),
        (15, 23, 27, 29, 30, 39, 43, 45, 54, 58, 60),
        (15, 23, 27, 29, 39, 43, 45),
        (15, 23, 27, 29, 39, 43, 46, 53, 54, 57, 58, 60),
        (15, 23, 27, 29, 39, 43, 53, 57),
        (15, 23, 27, 39, 43),
        (15, 23, 39),
        (15, 23, 27, 29, 46, 54, 58, 60),
        (15, 23, 27, 45, 46, 53, 54, 57, 58),
        (15, 23, 27, 45, 53, 57),
        (15, 23, 43, 51),
    ],
}


def test_full_counts(enum_cache):
    for (n, d), expected in FULL_COUNTS.items():
        assert len(enum_cache(n, d)) == expected, (n, d)


def test_symmetry_counts(enum_cache):
    for (n, d), expected in SYMMETRY_COUNTS.items():
        assert len(enum_cache(n, d, True)) == expected, (n, d)


def test_symmetry_reduction_closes_orbits_without_the_walk(monkeypatch):
    # Not through enum_cache: the lists must be built with the walk refused.
    def refuse(ideal):
        raise AssertionError("the enumeration ran the canonicity walk")

    monkeypatch.setattr(matroidal.enumeration, "_smaller_relabeling", refuse)
    for n in range(1, 7):
        for d in range(1, n + 1):
            orbits = enumerate_matroidal(n, d, up_to_symmetry=True)
            assert sum(1 for _ in orbits) == SYMMETRY_COUNTS[(n, d)], (n, d)


def test_symmetry_representatives(enum_cache):
    for (n, d), expected in REPRESENTATIVES.items():
        got = [tuple(sorted(mi.ideal.gens)) for mi in enum_cache(n, d, True)]
        assert got == expected, (n, d)


def test_imports_and_enumerates_without_numpy():
    # A fresh interpreter with numpy blocked: the package must not need it.
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from matroidal import enumerate_matroidal\n"
        "assert len(list(enumerate_matroidal(5, 3, up_to_symmetry=True))) == 9\n"
    )
    src = str(Path(matroidal.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_matches_brute_force_filter(enum_cache):
    # Independent oracle: filter every subset family through the checker.
    for n in range(2, 6):
        for d in range(1, n + 1):
            expected = brute_force_matroidal(n, d)
            got = {tuple(sorted(mi.ideal.gens)) for mi in enum_cache(n, d)}
            assert got == expected, (n, d)


def test_every_yield_passes_the_exchange_check(enum_cache):
    # Leaves are yielded unchecked: every exchange slot is decided above them.
    for n in range(1, 7):
        for d in range(1, n + 1):
            for mi in enum_cache(n, d):
                assert check_matroidal(mi.ideal), (n, d, mi.ideal.gens)


def test_yields_and_their_relabelings_are_canonical(enum_cache):
    # Both build Ideal(...) without canonicalising; each must be the ideal
    # that minimal_generators builds from the same generators.
    rng = random.Random(5)
    for n in range(1, 7):
        for d in range(1, n + 1):
            for sym in (False, True):
                for mi in enum_cache(n, d, sym):
                    perm = tuple(rng.sample(range(1, n + 1), n))
                    for ideal in (mi.ideal, relabel_ideal(mi.ideal, perm)):
                        assert ideal == minimal_generators(ideal.gens, n), (n, d)


def test_matches_brute_force_filter_64(enum_cache):
    expected = brute_force_matroidal(6, 4)
    got = {tuple(sorted(mi.ideal.gens)) for mi in enum_cache(6, 4)}
    assert got == expected


def test_enumeration_is_deterministic():
    first = [mi.ideal.gens for mi in enumerate_matroidal(4, 2)]
    second = [mi.ideal.gens for mi in enumerate_matroidal(4, 2)]
    assert first == second


def test_enumeration_caps():
    with pytest.raises(ValueError):
        list(enumerate_matroidal(10, 5))  # C(10,5) = 252 subsets
    with pytest.raises(ValueError):
        list(enumerate_matroidal(3, 4))
    with pytest.raises(ValueError):
        list(enumerate_matroidal(8, 1, up_to_symmetry=True))


def test_coatom_cells_are_capped_by_their_count():
    # (n, n-1) passes the subset cap up to n = 35 but has 2^n - n - 1
    # ideals; past MAX_IDEALS it is refused before any work is done.
    assert 2**16 - 16 - 1 <= MAX_IDEALS < 2**17 - 17 - 1
    for n in (17, 24, 35):
        with pytest.raises(ValueError, match=f"2\\^{n} - {n} - 1 = {2**n - n - 1}"):
            next(enumerate_matroidal(n, n - 1))
    assert main(["enumerate", "--n", "24", "--d", "23"]) == 3
    # Still admitted: the largest capped cell, and one ideal cells up to n = 35.
    assert len(next(enumerate_matroidal(16, 15)).ideal.gens) == 16
    for n in (24, 35):
        assert len(next(enumerate_matroidal(n, 1)).ideal.gens) == n
        assert next(enumerate_matroidal(n, n)).ideal.gens == ((1 << n) - 1,)


def test_cap_admits_every_n7_cell():
    # The DFS includes before it excludes, so the first yield of a cell is
    # the Veronese ideal of all its d-subsets.
    for d in range(1, 8):
        first = next(enumerate_matroidal(7, d))
        assert len(first.ideal.gens) == comb(7, d), d


def test_orbit_expansion_recovers_full_enumeration(enum_cache):
    for (n, d) in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        full = {tuple(sorted(mi.ideal.gens)) for mi in enum_cache(n, d)}
        expanded = set()
        for mi in enum_cache(n, d, True):
            for perm in permutations(range(1, n + 1)):
                expanded.add(tuple(sorted(relabel_ideal(mi.ideal, perm).gens)))
        assert expanded == full, (n, d)


def test_canonical_form_is_orbit_invariant():
    ideals = [
        var_block_product([{1, 3}, {2, 4}]).ideal,
        ideal_of(5, (1, 2), (2, 3, 4), (3, 5), (1, 4, 5)),  # mixed degrees
        Ideal(6, REPRESENTATIVES[(6, 3)][-1]),
    ]
    for ideal in ideals:
        base = canonical_form(ideal)
        for perm in permutations(range(1, ideal.n + 1)):
            assert canonical_form(relabel_ideal(ideal, perm)) == base


def test_battery_veronese42():
    result = theorem_battery(veronese(4, 2))
    assert result.cohen_macaulay
    assert result.ara_upper == 3 and result.ara_exact
    assert set(result.verdicts.values()) <= {"pass", "skip"}
    assert result.verdicts["unmixed_bounds"] == "pass"


def test_battery_blocks():
    result = theorem_battery(var_block_product([{1, 2}, {3, 4}]))
    assert not result.cohen_macaulay
    assert result.ara_upper == 3 and result.ara_exact
    assert result.verdicts["cm_iff_stci"] == "pass"  # not CM, ara 3 > ht 2


def test_battery_mixed_skips_unmixed_checks():
    result = theorem_battery(var_block_product([{1, 2}, {3}]))
    assert not result.unmixed
    assert result.verdicts["unmixed_bounds"] == "skip"
    assert result.verdicts["linear_quotient_index"] == "pass"
    assert result.verdicts["height_bound"] == "pass"


def test_battery_carries_its_certificate():
    result = theorem_battery(var_block_product([{1, 2}, {3, 4}]))
    assert verify_sv(result.certificate)
    assert len(result.certificate.layers) == result.ara_upper == 3


def test_battery_runs_the_colon_pass_once(monkeypatch):
    # One completion walk per validated ideal gives the map, q and the
    # Veronese and block-product layers, with no natural-order exchange
    # read; a degree-2 ideal that reaches its rung adds one read in the
    # part order, unless that order is the natural one and the instance's
    # colon masks serve.  find_ordering never runs.
    reads, orderings = [], []
    external_masks = matroidal.matroids._external_masks
    find = matroidal.quotients.find_ordering

    def counted(mi, order):
        order = list(order)
        reads.append((mi, order == list(range(1, mi.ideal.n + 1))))
        return external_masks(mi, order)

    def counted_find(*args, **kwargs):
        orderings.append(args[0])
        return find(*args, **kwargs)

    for module in (matroidal.matroids, matroidal.svrank):
        monkeypatch.setattr(module, "_external_masks", counted)
    monkeypatch.setattr(matroidal.quotients, "find_ordering", counted_find)
    monkeypatch.setattr(matroidal, "find_ordering", counted_find)
    walks = _count_completion_maps(monkeypatch)

    def fresh():
        # Each ideal is built after the logs were last cleared.
        yield veronese(4, 2)
        yield var_block_product([{1, 2}, {3}])
        yield from enumerate_matroidal(4, 2)
        yield from enumerate_matroidal(5, 3)

    rungs = []
    for mi in fresh():
        theorem_battery(mi)
        assert walks == [mi.ideal.gens], mi
        rung = (reference_construct_certificate(mi) or [None])[0]
        if rung == "degree2":
            by_size = sorted(degree2_partition(mi).parts, key=lambda p: (-len(p), sorted(p)))
            order = [v for part in by_size for v in sorted(part)]
            if order == list(range(1, mi.ideal.n + 1)):
                rung = "degree2 in the natural order"
        rungs.append(rung)
        assert reads == ([(mi, False)] if rung == "degree2" else []), mi
        assert orderings == [], mi
        reads.clear()
        orderings.clear()
        walks.clear()
    assert len(rungs) == 2 + 14 + 106
    assert {"veronese", "product", "degree2", "degree2 in the natural order", None} <= set(rungs)


@pytest.mark.parametrize(
    "gens",
    [
        ((1, 2, 3), (1, 2, 4)),  # primes {x1}, {x2}, {x3, x4}: mixed
        ((1, 2), (1, 3), (2, 3)),  # primes of height 2: unmixed
    ],
)
def test_battery_requires_full_support_first(monkeypatch, gens):
    # x5 is in no generator.  The check comes before q: none of the
    # battery's verdicts, such as a false linear_quotient_index failure
    # (q = 1 against n - d = 2 for the first ideal), is computed.
    def refuse(mi):
        raise AssertionError("computed q without full support")

    mi = as_matroidal(ideal_of(5, *gens))
    monkeypatch.setattr(matroidal.enumeration, "_lex_q", refuse)
    with pytest.raises(ValueError, match=r"^support must be all of x1\.\.xn$"):
        theorem_battery(mi)


def test_battery_skips_the_bounds_when_q_misses(monkeypatch):
    lex_q = matroidal.enumeration._lex_q
    monkeypatch.setattr(matroidal.enumeration, "_lex_q", lambda mi: lex_q(mi) + 1)
    result = theorem_battery(veronese(4, 2))
    assert result.verdicts["linear_quotient_index"] == "fail"
    assert result.verdicts["sv_certificate"] == "skip"
    assert result.verdicts["cm_iff_stci"] == "skip"
    assert (result.q, result.ara_lower) == (3, 4)
    assert (result.ara_upper, result.ara_exact, result.certificate) == (None,) * 3


def test_battery_skips_the_bounds_when_a_construction_raises(monkeypatch):
    def broken(mi, method="auto"):
        raise InvariantViolation("broken construction")

    monkeypatch.setattr(matroidal.enumeration, "construct_certificate", broken)
    result = theorem_battery(veronese(4, 2))
    assert result.verdicts["sv_certificate"] == "skip"
    assert result.verdicts["cm_iff_stci"] == "skip"
    assert (result.q, result.ara_lower) == (2, 3)
    assert (result.ara_upper, result.ara_exact, result.certificate) == (None,) * 3


def test_battery_reads_one_cocircuit_set(monkeypatch):
    # The primes, the Veronese and block-product facts come from the
    # instance's cocircuits: the battery calls no exchange check and reads
    # no recorded one (``_record``, which also counts the ideals built
    # before the counters), the generic paths are never entered, the
    # unmixed bounds are the report's (which reads the instance), and the
    # one degree-2 partition of a d = 2 battery is the degree2_structure
    # verdict's: the ladder reads only the instance.
    homes = {
        "_cocircuits_meet_every_generator": matroidal.matroids,
        "_matroid": matroidal.matroids,
        "_record": matroidal.matroids,
        "degree2_partition": matroidal.decomposition,
        "minimal_primes": matroidal.decomposition,
        "recognize_var_block_product": matroidal.decomposition,
        "recognize_veronese": matroidal.decomposition,
        "unmixed_bounds_report": matroidal.decomposition,
    }
    calls = {name: [] for name in homes}
    modules = (
        matroidal,
        matroidal.decomposition,
        matroidal.enumeration,
        matroidal.matroids,
        matroidal.quotients,
        matroidal.svrank,
    )
    ideals = [veronese(4, 2), var_block_product([{1, 2}, {3, 4}])]
    ideals += [var_block_product([{1, 2}, {3}])]
    ideals += enumerate_matroidal(5, 2)
    ideals += enumerate_matroidal(5, 3)
    for name, log in calls.items():
        original = getattr(homes[name], name)

        def counted(*args, _original=original, _log=log, **kwargs):
            _log.append(args[0])
            return _original(*args, **kwargs)

        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    for mi in ideals:
        unmixed = len({c.bit_count() for c in mi._cocircuits}) == 1
        for log in calls.values():
            log.clear()
        theorem_battery(mi)
        assert {name: len(log) for name, log in calls.items()} == {
            "_cocircuits_meet_every_generator": 0,
            "_matroid": 0,
            "_record": 0,
            "degree2_partition": int(mi.d == 2),
            "minimal_primes": 0,
            "recognize_var_block_product": 0,
            "recognize_veronese": 0,
            "unmixed_bounds_report": int(unmixed),
        }, mi


def _count_completion_maps(monkeypatch) -> list:
    """Log the generator tuple of every completion map built outside ``verify_sv``."""
    builds, verifying = [], []
    completions = matroidal.matroids._completions
    verify = matroidal.svrank.verify_sv

    def counted(gens, *rest):
        if not verifying:
            builds.append(tuple(gens))
        return completions(gens, *rest)

    def flagged(partition):
        verifying.append(partition)
        try:
            return verify(partition)
        finally:
            verifying.pop()

    for module in (matroidal.matroids, matroidal.svrank):
        monkeypatch.setattr(module, "_completions", counted)
    monkeypatch.setattr(matroidal.svrank, "verify_sv", flagged)
    return builds


def _read_everything(mi):
    theorem_battery(mi)
    for method in ("auto", "veronese", "product", "degree2"):
        try:
            construct_certificate(mi, method)
        except ValueError:
            pass
    if mi.d == 2:
        degree2_cert(mi)


def test_battery_builds_one_completion_map(monkeypatch):
    # One map of the whole generator set per validated ideal, counted
    # across the constructor, the battery, construct_certificate,
    # veronese_cert and degree2_cert; verify_sv's per-layer maps are not
    # counted.  An instance the enumeration yields has built none until it
    # is first read, and then its map or its colon masks, whichever is
    # read first, records both on its Ideal: the constructor,
    # check_matroidal and minimal_primes on that Ideal build no second map.
    builds = _count_completion_maps(monkeypatch)
    makers = [
        lambda: veronese(4, 2),
        lambda: var_block_product([{1, 2}, {3, 4}]),
        lambda: var_block_product([{1, 2}, {3}]),
        lambda: MatroidalIdeal(ideal_of(4, (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)), 2),
    ]
    for make in makers:
        builds.clear()
        mi = make()
        _read_everything(mi)
        assert builds == [mi.ideal.gens], mi
    v52 = veronese(5, 2).ideal.gens
    builds.clear()
    veronese_cert(5, 2)
    assert builds == [v52]
    builds.clear()
    leaves = 0
    for d in (2, 3, 4):
        for mi in enumerate_matroidal(5, d):
            leaves += 1
            assert builds == [], mi
            reads = ["_colon_masks", "_completion_map"]
            if leaves % 2:
                reads.reverse()
            for name in reads:
                getattr(mi, name)
            assert builds == [mi.ideal.gens], mi
            assert MatroidalIdeal(mi.ideal, d) == mi
            assert check_matroidal(mi.ideal).matroidal == mi
            minimal_primes(mi.ideal)
            _read_everything(mi)
            assert builds == [mi.ideal.gens], mi
            builds.clear()
    assert leaves == 51 + 106 + 26


def test_bare_ideal_primes_build_at_most_one_completion_map(monkeypatch):
    # The generic path of minimal_primes: one walk for equal-degree input,
    # matroidal or not (x1x4, x2x3 and x = x4 has no exchange), and none
    # for mixed degrees, whose primes come from the transversal DFS alone.
    # A validated instance's ideal carries its check, so it builds none,
    # while a bare Ideal equal to it builds one.  No input reads the
    # exchange masks.
    builds, reads = _count_completion_maps(monkeypatch), []
    external_masks = matroidal.matroids._external_masks
    for module in (matroidal.matroids, matroidal.svrank):
        monkeypatch.setattr(
            module, "_external_masks", lambda mi, order: reads.append(mi) or external_masks(mi, order)
        )
    equal = ideal_of(4, (1, 4), (2, 3), (3, 4))
    mixed = ideal_of(4, (1,), (2, 3), (2, 4), (3, 4))
    validated = veronese(4, 2).ideal
    bare = ideal_of(4, *combinations(range(1, 5), 2))
    assert bare == validated and bare is not validated
    for ideal, expected in ((bare, 1), (validated, 0), (equal, 1), (mixed, 0)):
        builds.clear()
        minimal_primes(ideal)
        assert builds == [ideal.gens] * expected, ideal
        assert reads == [], ideal


def test_every_reader_of_an_ideal_shares_its_one_check(monkeypatch):
    # The exchange check is recorded on the Ideal it was made on.  Every
    # reader of a validated instance's ideal builds no completion map; a
    # bare Ideal equal to it builds one, on its first read, and then every
    # reader gives the same answer on both.  A non-matroidal ideal records
    # its failure the same way.
    builds = _count_completion_maps(monkeypatch)
    readers = [
        minimal_primes,
        height,
        is_unmixed,
        check_matroidal,
        recognize_var_block_product,
        lambda ideal: MatroidalIdeal(ideal, 2),
    ]
    for make in (lambda: veronese(4, 2), lambda: var_block_product([{1, 2}, {3, 4}])):
        mi = make()
        bare = Ideal(mi.ideal.n, mi.ideal.gens)
        builds.clear()
        validated = [read(mi.ideal) for read in readers]
        assert builds == [], mi
        assert [read(bare) for read in readers] == validated
        assert builds == [bare.gens], mi
        assert as_matroidal(bare) == as_matroidal(mi.ideal) == mi
        assert builds == [bare.gens], mi
    exchange = ideal_of(4, (1, 4), (2, 3), (3, 4))
    builds.clear()
    for _ in range(2):
        assert not check_matroidal(exchange)
        assert recognize_var_block_product(exchange) is None
        assert minimal_primes(exchange).height == 2
    assert builds == [exchange.gens]


def test_scan_counts_only_certificates_it_reverified(monkeypatch):
    # Every counted certificate goes through the scan's own verify_sv; a
    # check that rejects everything leaves nothing certified.
    monkeypatch.setattr(
        matroidal.enumeration, "verify_sv", lambda partition: SVCheck(False, "no")
    )
    report = conjecture_scan(4, 2, up_to_symmetry=False)
    assert report.total_ideals == 14
    assert (report.certified, report.inconclusive) == (0, 14)
    assert not report.all_certificates_reverified


def test_scan_searches_only_where_no_construction_applies(monkeypatch):
    # The battery's certificate is reused: of the 106 labeled (5,3) ideals,
    # only the 80 that are neither Veronese nor a block product are searched.
    calls = []
    search = matroidal.enumeration.search_cert

    def counted(*args, **kwargs):
        calls.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(matroidal.enumeration, "search_cert", counted)
    report = conjecture_scan(5, 3, up_to_symmetry=False)
    assert (report.certified, report.inconclusive) == (106, 0)
    assert len(calls) == 80


def test_scan_rejects_a_negative_budget_before_enumerating(monkeypatch):
    # (4,2) never searches: only the up-front check can reject its budget.
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated with a negative budget")

    monkeypatch.setattr(matroidal.enumeration, "enumerate_matroidal", refuse)
    for n, d in ((4, 2), (5, 3)):
        with pytest.raises(ValueError, match="must be nonnegative, got -1"):
            conjecture_scan(n, d, budget=-1)


def test_run_scan_reports_a_negative_budget_as_a_usage_error():
    root = Path(__file__).resolve().parents[1]
    src = str(Path(matroidal.__file__).resolve().parents[1])
    for n, d in (("4", "2"), ("5", "3")):
        result = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_scan.py"),
             "--n", n, "--d", d, "--budget", "-1"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 3, (n, d, result.stdout)
        assert result.stdout == ""
        assert "usage error: " in result.stderr
        assert "search budget must be nonnegative, got -1" in result.stderr
        assert "Traceback" not in result.stderr


def test_run_scan_gives_the_report_of_matroidal_scan(capsys):
    root = Path(__file__).resolve().parents[1]
    src = str(Path(matroidal.__file__).resolve().parents[1])
    argv = ["--n", "4", "--d", "2", "--budget", "500", "--no-sym", "--json"]
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_scan.py"), *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert main(["scan", *argv]) == 0
    reports = [json.loads(result.stdout), json.loads(capsys.readouterr().out)]
    for report in reports:
        del report["elapsed_seconds"]
    assert reports[0] == reports[1]
    assert reports[0]["total_ideals"] == 14


@pytest.mark.parametrize(
    "cell, message",
    [
        ("9,3", "C(9,3)=84 exceeds the enumeration cap 35"),
        ("3,5", "need 1 <= d <= n, got d=5, n=3"),
        ("4", "a cell is two integers n,d, got '4'"),
        ("a,b", "a cell is two integers n,d, got 'a,b'"),
    ],
)
def test_run_grid_reports_a_bad_cell_as_a_usage_error(cell, message):
    root = Path(__file__).resolve().parents[1]
    src = str(Path(matroidal.__file__).resolve().parents[1])
    # The good cell comes first: nothing may be printed before the check.
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_grid.py"),
         "--cells", "3,2", cell],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("usage error: ")
    assert message in result.stderr
    assert "Traceback" not in result.stderr


def _without_times(table: str) -> list[str]:
    return [re.sub(r"\d+\.\ds", "<time>", line) for line in table.splitlines()]


def test_run_grid_prints_the_table_of_matroidal_grid(capsys):
    root = Path(__file__).resolve().parents[1]
    src = str(Path(matroidal.__file__).resolve().parents[1])
    argv = ["--cells", "3,2", "4,2", "5,3"]
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_grid.py"), *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert main(["grid", *argv]) == 0
    table = _without_times(result.stdout)
    assert table == _without_times(capsys.readouterr().out)
    assert [row.split()[:2] for row in table[2:]] == [
        ["(3,2)", "4"], ["(4,2)", "14"], ["(5,3)", "106"]
    ]
    assert all(row.endswith("<time>  -") for row in table[2:])


def test_grid_exits_1_and_names_a_failed_theorem(monkeypatch, capsys):
    battery = matroidal.cli.theorem_battery

    def failing(mi):
        result = battery(mi)
        return dataclasses.replace(
            result, verdicts={**result.verdicts, "height_bound": "fail"}
        )

    monkeypatch.setattr(matroidal.cli, "theorem_battery", failing)
    assert main(["grid", "--cells", "3,2", "4,2"]) == 1
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[-1] for row in rows] == ["height_bound=4", "height_bound=14"]


def test_grid_reports_an_invariant_violation_without_a_traceback(monkeypatch, capsys):
    def violated(mi):
        raise InvariantViolation("planted in the battery")

    monkeypatch.setattr(matroidal.cli, "theorem_battery", violated)
    assert main(["grid", "--cells", "3,2"]) == 1
    err = capsys.readouterr().err
    assert err == "internal invariant violated: planted in the battery\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "matroidal.cli", "enumerate", "--n", "10000000", "--d", "5000000"],
        ["-m", "matroidal.cli", "scan", "--n", "100000", "--d", "50000"],
        ["scripts/run_grid.py", "--cells", "100000,50000"],
    ],
    ids=["enumerate", "scan", "run_grid"],
)
def test_a_huge_cell_is_refused_at_once(argv):
    # C(n, d) here has millions of digits: the variable count goes first.
    root = Path(__file__).resolve().parents[1]
    src = str(Path(matroidal.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, *argv],
        cwd=root,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert "usage error: ambient variable count must be in 1..64" in result.stderr
    assert "set_int_max_str_digits" not in result.stderr


def test_a_one_ideal_cell_past_64_variables_is_refused(capsys):
    assert main(["enumerate", "--n", "100", "--d", "100"]) == 3
    assert capsys.readouterr().err == (
        "usage error: ambient variable count must be in 1..64, got 100\n"
    )
    with pytest.raises(ValueError, match="must be in 1..64, got 65"):
        next(enumerate_matroidal(65, 1))


def test_scan_degree2_fully_certified():
    report = conjecture_scan(4, 2, budget=1000, up_to_symmetry=False)
    assert report.total_ideals == 14
    assert report.certified == 14
    assert report.inconclusive == 0
    assert report.all_certificates_reverified
    for counts in report.theorem_counts.values():
        assert counts["pass"] + counts["fail"] + counts["skip"] == 14
        assert counts["fail"] == 0
