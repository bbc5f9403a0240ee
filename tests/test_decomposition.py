import random
from itertools import combinations

import pytest

from matroidal import (
    Ideal,
    construct_certificate,
    contains,
    contraction,
    degree2_cert,
    degree2_partition,
    height,
    is_unmixed,
    minimal_generators,
    minimal_primes,
    mono,
    multipartite_signature,
    recognize_var_block_product,
    recognize_veronese,
    relabel_ideal,
    support,
    theorem_battery,
    unmixed_bounds_report,
    var_block_product,
    veronese,
)
from matroidal.ideals import InvariantViolation
from matroidal.matroids import MatroidalIdeal, NotMatroidalError, _unchecked, as_matroidal

from helpers import ideal_of, matroidal_of, multipartite_ideal


def test_minimal_primes_examples():
    assert minimal_primes(ideal_of(2, (1, 2))).primes == (
        frozenset({1}),
        frozenset({2}),
    )
    blocks = var_block_product([{1, 2}, {3, 4}])
    assert set(minimal_primes(blocks.ideal).primes) == {
        frozenset({1, 2}),
        frozenset({3, 4}),
    }
    v = veronese(4, 2)
    assert set(minimal_primes(v.ideal).primes) == {
        frozenset(s) for s in [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]
    }


def test_minimal_primes_rejects_degenerate_input():
    with pytest.raises(ValueError):
        minimal_primes(Ideal(3, ()))
    with pytest.raises(ValueError):
        minimal_primes(minimal_generators({0}, 3))


def test_height_and_unmixed_examples():
    assert height(veronese(4, 2).ideal) == 3
    assert is_unmixed(veronese(4, 2).ideal)
    mixed = var_block_product([{1, 2}, {3}])
    decomposition = minimal_primes(mixed.ideal)
    assert set(decomposition.primes) == {frozenset({1, 2}), frozenset({3})}
    assert not decomposition.unmixed
    principal = ideal_of(1, (1,))
    assert height(principal) == 1 and is_unmixed(principal)


def test_primes_intersection_equals_ideal(enum_cache):
    # Membership agreement over every square-free monomial.
    for n in range(2, 7):
        for d in range(1, n + 1):
            for mi in enum_cache(n, d):
                primes = minimal_primes(mi.ideal).primes
                masks = [sum(1 << (v - 1) for v in p) for p in primes]
                for m in range(1 << n):
                    in_all = all(m & pm for pm in masks)
                    assert in_all == contains(mi.ideal, m)


def test_primes_are_minimal_transversals_up_to_n8():
    # Constructed families reach n = 7, 8 without enumerating: the (8,3)
    # and (8,4) cells are past the enumeration cap, and (7,3) takes
    # seconds to enumerate.
    cases = [
        veronese(7, 3).ideal,
        veronese(8, 4).ideal,
        var_block_product([{1, 2, 3}, {4, 5}, {6, 7, 8}]).ideal,
        multipartite_ideal([{1, 2, 3}, {4, 5}, {6, 7}]).ideal,
    ]
    for ideal in cases:
        n = ideal.n
        primes = minimal_primes(ideal).primes
        masks = [sum(1 << (v - 1) for v in p) for p in primes]
        for pm, p in zip(masks, primes):
            assert all(g & pm for g in ideal.gens)  # transversal
            for v in p:  # minimal: dropping any variable misses a generator
                rest = pm ^ (1 << (v - 1))
                assert any(not g & rest for g in ideal.gens)
        for m in range(1 << n):
            in_all = all(m & pm for pm in masks)
            assert in_all == contains(ideal, m)


def test_minimal_primes_of_four_blocks_of_four():
    # The transversal DFS needs over a minute here; the cocircuits are
    # the blocks themselves.
    blocks = [set(range(4 * i + 1, 4 * i + 5)) for i in range(4)]
    primes = minimal_primes(var_block_product(blocks).ideal)
    assert primes.primes == tuple(frozenset(b) for b in blocks)
    assert primes.height == 4 and primes.unmixed


def test_degree2_partition_examples():
    blocks = var_block_product([{1, 2}, {3, 4}])
    assert degree2_partition(blocks).parts == (
        frozenset({1, 2}),
        frozenset({3, 4}),
    )
    assert degree2_partition(veronese(3, 2)).parts == (
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    )
    path = matroidal_of(3, (1, 2), (2, 3))
    assert degree2_partition(path).parts == (frozenset({1, 3}), frozenset({2}))


def test_degree2_partition_preconditions():
    with pytest.raises(ValueError):
        degree2_partition(veronese(3, 3))
    with pytest.raises(ValueError):
        degree2_partition(matroidal_of(4, (1, 2), (2, 3)))  # support misses x4


def test_degree2_readers_name_a_generator_of_another_degree():
    # A d = 2 instance with a generator of degree 3 never reaches the
    # degree-2 readers: building the argument raises, naming the pair of
    # generators of different degrees, the one of degree 3 last.
    reads = [
        degree2_partition,
        multipartite_signature,
        degree2_cert,
        lambda mi: construct_certificate(mi, "auto"),
        lambda mi: construct_certificate(mi, "degree2"),
        theorem_battery,
    ]
    cases = [
        (ideal_of(5, (1, 2, 5), (3, 4)), "x3*x4, x1*x2*x5"),
        (ideal_of(4, (1, 2), (1, 3, 4)), "x1*x2, x1*x3*x4"),
    ]
    for ideal, pair in cases:
        message = f"not a matroidal ideal (mixed_degrees): {pair}"
        for read in reads:
            with pytest.raises(NotMatroidalError) as caught:
                read(MatroidalIdeal(ideal, 2))
            assert str(caught.value) == message
            assert caught.value.check.failure == "mixed_degrees"


def test_multipartite_signatures():
    assert multipartite_signature(veronese(6, 2)) == (1, 1, 1, 1, 1, 1)
    assert multipartite_signature(multipartite_ideal([{1, 2, 3}, {4, 5, 6}])) == (3, 3)
    assert multipartite_signature(
        multipartite_ideal([{1, 2}, {3, 4}, {5, 6}])
    ) == (2, 2, 2)


def test_degree2_partition_is_relabeling_equivariant(enum_cache):
    rng = random.Random(7)
    for mi in enum_cache(5, 2):
        parts = degree2_partition(mi).parts
        perm = list(range(1, 6))
        rng.shuffle(perm)
        relabeled = as_matroidal(relabel_ideal(mi.ideal, tuple(perm)))
        relabeled_parts = degree2_partition(relabeled).parts
        mapped = {frozenset(perm[v - 1] for v in p) for p in parts}
        assert mapped == set(relabeled_parts)


def test_unmixed_degree2_parts_have_size_n_minus_height(enum_cache):
    for n in range(2, 7):
        for mi in enum_cache(n, 2):
            decomposition = minimal_primes(mi.ideal)
            if not decomposition.unmixed:
                continue
            h = decomposition.height
            parts = degree2_partition(mi).parts
            assert all(len(p) == n - h for p in parts)
            assert n / 2 <= h <= n - 1


def test_contraction_examples():
    assert contraction(veronese(4, 2), 1).ideal == ideal_of(4, (2,), (3,), (4,))
    blocks = var_block_product([{1, 2}, {3, 4}])
    assert contraction(blocks, 1).ideal == ideal_of(4, (3,), (4,))
    quotients = contraction(veronese(4, 3), 1).ideal
    assert quotients == ideal_of(4, (2, 3), (2, 4), (3, 4))
    with pytest.raises(ValueError):
        contraction(blocks, 5)


def test_contraction_passes_on_the_written_witness():
    # Not matroidal, so the contraction at x1, {x2, x3*x4}, is not either;
    # built past the constructor's check, through the private path.
    unchecked = _unchecked(ideal_of(4, (1, 2), (1, 3, 4)), 2)
    with pytest.raises(InvariantViolation) as info:
        contraction(unchecked, 1)
    assert str(info.value) == (
        "contraction at x1 lost the exchange condition: "
        "not a matroidal ideal (mixed_degrees): x2, x3*x4"
    )


def test_contraction_preserves_structure(enum_cache):
    for n in range(2, 6):
        for d in range(2, n + 1):
            for mi in enum_cache(n, d):
                decomposition = minimal_primes(mi.ideal)
                rebuilt = set()
                for x in sorted(support(mi.ideal)):
                    contracted = contraction(mi, x)
                    assert contracted.d == d - 1
                    if decomposition.unmixed:
                        sub = minimal_primes(contracted.ideal)
                        assert sub.unmixed
                        assert sub.height == decomposition.height
                    xbit = mono((x,))
                    rebuilt.update(g | xbit for g in contracted.ideal.gens)
                # I = sum of x_i * I_i, as generator sets after minimalizing.
                assert minimal_generators(rebuilt, n) == mi.ideal


def test_unmixed_bounds_examples():
    report = unmixed_bounds_report(veronese(5, 3))
    assert report == {"h": 3, "d": 3, "n": 5, "lower_tight": True, "upper_tight": False}
    report = unmixed_bounds_report(var_block_product([{1, 2, 3}, {4, 5, 6}]))
    assert report == {"h": 3, "d": 2, "n": 6, "lower_tight": False, "upper_tight": True}
    octahedron = multipartite_ideal([{1, 2}, {3, 4}, {5, 6}])
    report = unmixed_bounds_report(octahedron)
    assert report["h"] == 4
    assert not report["lower_tight"] and not report["upper_tight"]


def test_unmixed_bounds_rejects_mixed_input():
    with pytest.raises(ValueError):
        unmixed_bounds_report(var_block_product([{1, 2}, {3}]))


def test_recognizers():
    assert recognize_veronese(veronese(4, 2).ideal)
    assert recognize_var_block_product(veronese(4, 2).ideal) is None
    blocks = var_block_product([{1, 2}, {3, 4}])
    assert not recognize_veronese(blocks.ideal)
    assert recognize_var_block_product(blocks.ideal) == (
        frozenset({1, 2}),
        frozenset({3, 4}),
    )
    # The path x1x2, x2x3 is the transversal family of {x1, x3} and {x2}.
    path = ideal_of(3, (1, 2), (2, 3))
    assert not recognize_veronese(path)
    assert recognize_var_block_product(path) == (frozenset({1, 3}), frozenset({2}))
    # A genuine negative: adding an edge inside a would-be block.
    not_product = ideal_of(4, (1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
    assert recognize_var_block_product(not_product) is None


def test_recognize_veronese_needs_full_support():
    assert not recognize_veronese(ideal_of(4, (2, 3), (2, 4), (3, 4)))


def test_recognize_veronese_matches_all_d_subsets():
    # Every generating family on n <= 3 variables: among them the zero
    # ideal, the unit ideal and mixed degrees.
    for n in range(1, 4):
        variables = range(1, n + 1)
        subsets = [mono(c) for k in range(n + 1) for c in combinations(variables, k)]
        for bits in range(1 << len(subsets)):
            family = {m for k, m in enumerate(subsets) if bits >> k & 1}
            ideal = minimal_generators(family, n)
            expected = any(
                set(ideal.gens) == {mono(c) for c in combinations(variables, d)}
                for d in variables
            )
            assert recognize_veronese(ideal) == expected, (n, ideal.gens)
    for ideal in (ideal_of(3), ideal_of(3, ()), ideal_of(3, (1,), (2, 3))):
        assert not recognize_veronese(ideal)


def test_recognizers_agree_with_reconstruction(enum_cache):
    for n in range(2, 6):
        for d in range(1, n + 1):
            for mi in enum_cache(n, d):
                blocks = recognize_var_block_product(mi.ideal)
                if blocks is None:
                    continue
                assert var_block_product([set(b) for b in blocks], n).ideal == mi.ideal


def test_degree2_partition_complements_are_the_minimal_primes(enum_cache):
    for n in range(2, 7):
        for mi in enum_cache(n, 2):
            everything = frozenset(range(1, n + 1))
            complements = {everything - p for p in degree2_partition(mi).parts}
            assert complements == set(minimal_primes(mi.ideal).primes)
