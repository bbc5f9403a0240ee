import random
import sys
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matroidal.svrank
from matroidal import (
    InvariantViolation,
    Poly,
    SVCheck,
    SVPartition,
    ara_bounds,
    as_matroidal,
    check_matroidal,
    construct_certificate,
    degree2_cert,
    minimal_generators,
    minimal_primes,
    mono,
    mono_vars,
    poly_str,
    product_cert,
    q_index,
    recognize_var_block_product,
    recognize_veronese,
    relabel_ideal,
    search_cert,
    sv_sums,
    var_block_product,
    variable_cert,
    verify_sv,
    veronese,
    veronese_cert,
)

from matroidal.svrank import _exchange_layering

from helpers import (
    _joined,
    betti_k_polynomial,
    contiguous_blocks,
    faces_k_polynomial,
    graphic_matroids,
    ideal_of,
    matroidal_of,
    moved_generator,
    partition_shapes,
    reference_construct_certificate,
    reference_degree2_cert,
    reference_minimal_primes,
    reference_search_cert,
    reference_verify_sv,
    reference_walk_search_cert,
    spanning_tree_ideal,
    transversal_matroids,
    tutte_at_x_1,
)

SEARCH_BUDGETS = (0, 7, 300, 20000)


def test_verify_sv_canonical_veronese42():
    ideal = veronese(4, 2).ideal
    partition = SVPartition(
        ideal,
        (
            frozenset({mono((1, 2))}),
            frozenset({mono((1, 3)), mono((2, 3))}),
            frozenset({mono((1, 4)), mono((2, 4)), mono((3, 4))}),
        ),
    )
    assert verify_sv(partition)


def test_verify_sv_failure_witnesses():
    ideal = ideal_of(3, (1, 2), (2, 3))
    doubled = SVPartition(ideal, (frozenset(ideal.gens),))
    check = verify_sv(doubled)
    assert not check and check.failure == "layer0_size"
    missing = SVPartition(ideal, (frozenset({mono((1, 2))}),))
    check = verify_sv(missing)
    assert not check and check.failure == "union_mismatch"
    # A two-element later layer with no earlier divisor of the pair product.
    disjointish = ideal_of(4, (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    bad_pair = SVPartition(
        disjointish,
        (
            frozenset({mono((1, 2))}),
            frozenset({mono((3, 4)), mono((1, 3))}),
            frozenset({mono((1, 4)), mono((2, 3)), mono((2, 4))}),
        ),
    )
    check = verify_sv(bad_pair)
    assert not check and check.failure == "pair"
    i, a, b = check.witness
    assert i == 1 and {a, b} == {mono((3, 4)), mono((1, 3))}


class _NoScan(Exception):
    pass


class _RaisingDividers:
    def __init__(self, columns, count):
        raise _NoScan


def test_the_single_exchange_pass_settles_the_constructions(enum_cache, monkeypatch):
    # With the exact pair scan made to raise, only the single-exchange pass
    # can accept, so a silent fallback to the scan would fail here.
    labeled = [
        c[1]
        for n in range(1, 7)
        for d in range(1, n + 1)
        for c in map(construct_certificate, enum_cache(n, d))
        if c is not None
    ]
    assert len(labeled) == 499
    certificates = [
        veronese_cert(12, 6),
        *(
            construct_certificate(var_block_product(contiguous_blocks(shape)))[1]
            for shape in ((3, 3, 3, 3), (5, 5, 5))
        ),
        *labeled,
    ]
    monkeypatch.setattr(matroidal.svrank, "_Dividers", _RaisingDividers)
    assert all(verify_sv(p) for p in certificates)
    # A pair the pass cannot settle goes to the scan.
    tampered = moved_generator(certificates[0], 6, 1)
    with pytest.raises(_NoScan):
        verify_sv(tampered)


def test_verify_sv_at_scale():
    # V(15,7): 6,435 generators over 9 layers.
    partition = veronese_cert(15, 7)
    assert [len(layer) for layer in partition.layers] == [
        comb(k + 6, 6) for k in range(9)
    ]
    assert verify_sv(partition)
    tampered = moved_generator(partition, 8, 1)
    check = verify_sv(tampered)
    assert check == reference_verify_sv(tampered)
    assert check.failure == "pair" and check.witness[0] == 1


def test_sv_sums_examples():
    cert = sv_sums(veronese_cert(4, 2))
    assert [poly_str(p) for p in cert.polys] == [
        "x1*x2",
        "x1*x3+x2*x3",
        "x1*x4+x2*x4+x3*x4",
    ]
    assert cert.provenance == "sv_partition"
    principal = SVPartition(ideal_of(3, (1, 2, 3)), (frozenset({mono((1, 2, 3))}),))
    assert [poly_str(p) for p in sv_sums(principal).polys] == ["x1*x2*x3"]
    k22 = degree2_cert(var_block_product([{1, 2}, {3, 4}]))
    assert len(sv_sums(k22).polys) == 3


def test_sv_sums_are_the_sums_of_their_layers(enum_cache):
    # Each layer sum, built in one pass, equals the term-by-term sum, term
    # order included.
    partitions = [veronese_cert(n, d) for n in range(1, 9) for d in range(1, n + 1)]
    for n, d in ((5, 3), (6, 2), (6, 3)):
        for mi in enum_cache(n, d):
            found = construct_certificate(mi)
            if found is not None:
                partitions.append(found[1])
    for partition in partitions:
        n = partition.ideal.n
        for poly, layer in zip(sv_sums(partition).polys, partition.layers, strict=True):
            expected = Poly.zero(n)
            for m in sorted(layer, key=mono_vars):
                expected = expected + Poly.from_monomial(m, n)
            assert poly == expected
            assert list(poly.terms) == list(expected.terms)


def test_sv_sums_rejects_unverified():
    ideal = ideal_of(3, (1, 2), (2, 3))
    with pytest.raises(ValueError, match=r"^unverified partition \(layer0_size\): 2$"):
        sv_sums(SVPartition(ideal, (frozenset(ideal.gens),)))
    v42 = veronese(4, 2).ideal
    layers = (
        frozenset({mono((1, 2))}),
        frozenset({mono((1, 3)), mono((3, 4))}),
        frozenset({mono((1, 4)), mono((2, 3)), mono((2, 4))}),
    )
    with pytest.raises(ValueError) as info:
        sv_sums(SVPartition(v42, layers))
    assert str(info.value) == "unverified partition (pair): layer 1, x1*x3, x3*x4"


def test_veronese_cert_layer_sizes():
    assert [len(l) for l in veronese_cert(4, 2).layers] == [1, 2, 3]
    assert [len(l) for l in veronese_cert(5, 3).layers] == [1, 3, 6]
    assert [len(l) for l in veronese_cert(4, 4).layers] == [1]
    for n in range(1, 9):
        for d in range(1, n + 1):
            partition = veronese_cert(n, d)
            assert len(partition.layers) == n - d + 1
            assert verify_sv(partition)
            sizes = [len(l) for l in partition.layers]
            assert sizes == [1] + [comb(d + i - 1, d - 1) for i in range(1, n - d + 1)]


def _assert_exchange_layers_count_tutte(mi):
    # The claim behind the linear-quotient rung: in the natural order the
    # exchange layering is an SV certificate with n - d + 1 layers, and
    # its sizes, read backwards, are the coefficients of T_M(1, y).
    n, d = mi.ideal.n, mi.d
    partition = _exchange_layering(mi, mi._colon_masks, "natural-order")
    assert verify_sv(partition), mi.ideal.gens
    assert len(partition.layers) == n - d + 1, mi.ideal.gens
    sizes = [len(layer) for layer in partition.layers]
    assert sizes[::-1] == tutte_at_x_1(mi.ideal, d), mi.ideal.gens
    return sizes


def test_exchange_layers_count_the_tutte_polynomial_on_every_small_ideal(enum_cache):
    ideals = 0
    for n in range(1, 7):
        for d in range(1, n + 1):
            for mi in enum_cache(n, d):
                _assert_exchange_layers_count_tutte(mi)
                ideals += 1
    assert ideals == 2356


@pytest.mark.slow
@pytest.mark.parametrize("n,d", [(7, 3), (7, 4)])
def test_exchange_layers_count_the_tutte_polynomial_on_n7_orbits(enum_cache, n, d):
    for mi in enum_cache(n, d, True):
        _assert_exchange_layers_count_tutte(mi)


def test_exchange_layers_of_the_k5_spanning_trees():
    # Edge i of K_5 is x_{i+1}; the bases are the 125 spanning trees.
    edges = list(combinations(range(5), 2))
    trees = [
        tuple(i + 1 for i in subset)
        for subset in combinations(range(10), 4)
        if _joined([edges[i] for i in subset], 5) == 4
    ]
    mi = matroidal_of(10, *trees)
    assert len(mi.ideal.gens) == 125
    assert _assert_exchange_layers_count_tutte(mi) == [1, 4, 10, 20, 30, 36, 24]
    assert tutte_at_x_1(mi.ideal, mi.d) == [24, 36, 30, 20, 10, 4, 1]


@pytest.mark.slow
def test_exchange_layers_of_the_k7_spanning_trees():
    # 16,807 spanning trees over 21 edge variables, built by brute force:
    # the packed holder columns and the canonical sort at scale.
    ideal = spanning_tree_ideal(7)
    assert len(ideal.gens) == 7**5
    assert minimal_generators(ideal.gens, ideal.n) == ideal
    mi = as_matroidal(ideal)
    partition = _exchange_layering(mi, mi._colon_masks, "natural-order")
    assert verify_sv(partition)
    assert [len(layer) for layer in partition.layers] == [
        1, 6, 21, 56, 126, 252, 455, 750, 1140, 1610, 2100, 2520, 2730, 2520, 1800, 720
    ]


@given(transversal_matroids())
@settings(max_examples=60, deadline=None)
def test_transversal_matroids_past_the_enumeration(matroid):
    # Bases by bipartite matching, up to n = 10: each check below holds a
    # fast path to a relation read from the generators alone.
    n, sets, bases = matroid
    check = check_matroidal(ideal_of(n, *bases))
    assert check, sets
    mi = check.matroidal
    assert minimal_primes(mi.ideal) == reference_minimal_primes(mi.ideal)
    assert q_index(mi) == n - mi.d
    _assert_exchange_layers_count_tutte(mi)
    sizes = [m.bit_count() for m in mi._colon_masks]
    assert betti_k_polynomial(n, mi.d, sizes) == faces_k_polynomial(mi.ideal)


def test_product_cert_sizes():
    two_blocks = product_cert(
        [variable_cert({1, 2, 3}, 6), variable_cert({4, 5, 6}, 6)]
    )
    assert len(two_blocks.polys) == 5  # u + v - 1
    assert two_blocks.provenance == "product_composition"
    single = variable_cert({1, 2}, 2)
    assert product_cert([single]) is single
    for total in range(1, 9):
        for shape in partition_shapes(total):
            blocks = contiguous_blocks(shape)
            cert = product_cert([variable_cert(b, total) for b in blocks])
            assert len(cert.polys) == total - len(shape) + 1
            assert cert.target == var_block_product(blocks, total).ideal


def test_product_layering_matches_the_folded_product():
    rng = random.Random(11)
    shapes = 0
    for total in range(1, 9):
        for shape in partition_shapes(total):
            shapes += 1
            perm = rng.sample(range(1, total + 1), total)
            blocks = [{perm[v - 1] for v in b} for b in contiguous_blocks(shape)]
            method, partition = construct_certificate(
                var_block_product(blocks, total), "product"
            )
            assert method == "product"
            assert verify_sv(partition)
            assert len(partition.layers) == total - len(shape) + 1
            folded = product_cert([variable_cert(b, total) for b in blocks])
            sums = sv_sums(partition).polys
            assert sums == folded.polys
            assert list(map(poly_str, sums)) == list(map(poly_str, folded.polys))
    assert shapes == 66


def test_construct_certificate_ladder():
    k22 = var_block_product([{1, 2}, {3, 4}])
    assert construct_certificate(veronese(4, 2))[0] == "veronese"
    assert construct_certificate(k22)[0] == "product"
    assert construct_certificate(k22, "degree2")[0] == "degree2"
    cone = matroidal_of(4, (1, 2, 3), (1, 2, 4), (1, 3, 4))  # x1 * V(3,2)
    assert construct_certificate(cone) is None
    with pytest.raises(ValueError, match="not a square-free Veronese ideal"):
        construct_certificate(k22, "veronese")
    with pytest.raises(ValueError, match="degree is not 2"):
        construct_certificate(cone, "degree2")
    with pytest.raises(ValueError, match="unknown construction 'search'"):
        construct_certificate(k22, "search")


def test_degree2_cert_examples():
    k22 = degree2_cert(var_block_product([{1, 2}, {3, 4}]))
    assert [set(l) for l in k22.layers] == [
        {mono((1, 3))},
        {mono((1, 4)), mono((2, 3))},
        {mono((2, 4))},
    ]
    assert len(degree2_cert(veronese(3, 2)).layers) == 2
    k21 = degree2_cert(matroidal_of(3, (1, 3), (2, 3)))
    assert [set(l) for l in k21.layers] == [{mono((1, 3))}, {mono((2, 3))}]


def test_degree2_cert_verifies_across_enumeration(enum_cache):
    for n in range(2, 7):
        for mi in enum_cache(n, 2):
            partition = degree2_cert(mi)
            assert len(partition.layers) == n - 1
            assert verify_sv(partition)


def _forbid_degree2_partition(monkeypatch):
    """Make every module binding of ``degree2_partition`` raise."""

    def forbidden(mi):
        raise AssertionError("degree2_partition called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "matroidal" and hasattr(module, "degree2_partition"):
            monkeypatch.setattr(module, "degree2_partition", forbidden)


def test_degree2_layers_come_from_the_cocircuits(enum_cache, monkeypatch):
    # The reference layering derives the parts by ``degree2_partition``;
    # the ladder and ``degree2_cert`` read them off the instance's
    # cocircuits, so they give the same layers with it forbidden.
    ideals = [mi for n in range(2, 8) for mi in enum_cache(n, 2)]
    references = [reference_degree2_cert(mi).layers for mi in ideals]
    _forbid_degree2_partition(monkeypatch)
    picked = 0
    for mi, layers in zip(ideals, references):
        assert degree2_cert(mi).layers == layers, mi
        assert construct_certificate(mi, "degree2")[1].layers == layers, mi
        method, partition = construct_certificate(mi)
        if method == "degree2":
            picked += 1
            assert partition.layers == layers, mi
    # Set partitions of x1..xn into at least two parts, Bell(n) - 1, less
    # the 2^(n-1) - 1 two-part products and the five Veronese V(n,2), n >= 3.
    assert (len(ideals), picked) == (1148, 1148 - 120 - 5)


def test_degree2_cert_refuses_by_itself(monkeypatch):
    _forbid_degree2_partition(monkeypatch)
    needs_degree_2 = r"^degree-2 partition needs a degree-2 ideal$"
    with pytest.raises(ValueError, match=needs_degree_2):
        degree2_cert(veronese(4, 3))
    triangle = matroidal_of(4, (1, 2), (1, 3), (2, 3))  # x4 is in no generator
    with pytest.raises(ValueError, match=r"^support must be all of x1\.\.xn$"):
        degree2_cert(triangle)
    with pytest.raises(ValueError, match=r"^support must be all of x1\.\.xn$"):
        construct_certificate(triangle)


def test_search_cert_examples():
    v = veronese(4, 2)
    result = search_cert(v, 3)
    assert result.partition is not None
    assert verify_sv(result.partition)
    assert len(result.partition.layers) == 3

    nothing = search_cert(v, 2)
    assert nothing.partition is None
    assert nothing.exhausted  # complete exploration, no certificate of size 2

    principal = matroidal_of(3, (1, 2, 3))
    trivial = search_cert(principal, 1)
    assert trivial.partition is not None
    assert len(trivial.partition.layers) == 1


def test_every_layering_passes_one_gate(monkeypatch):
    # The constructions and the search hand their layerings to the same
    # check, so a rejection reads the same way from each.
    def rejected(partition):
        return SVCheck(False, "pair")

    monkeypatch.setattr(matroidal.svrank, "verify_sv", rejected)
    k22 = var_block_product([{1, 2}, {3, 4}])
    for build, what in (
        (lambda: construct_certificate(veronese(4, 2)), "Veronese"),
        (lambda: construct_certificate(k22), "block product"),
        (lambda: degree2_cert(k22), "degree-2"),
        (lambda: search_cert(veronese(4, 2), 3), "search"),
    ):
        with pytest.raises(InvariantViolation, match=f"^{what} layering failed: pair$"):
            build()


def test_search_cert_budget_is_reported():
    v = veronese(4, 2)
    result = search_cert(v, 3, budget=1)
    assert result.partition is None
    assert not result.exhausted


def test_search_cert_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        search_cert(veronese(4, 2), 3, budget=-1)


@pytest.mark.parametrize("n,d", [(10, 5), (12, 6)])
def test_search_cert_large_ideal_runs_out_of_budget(n, d):
    # 252 and 924 generators: deeper than the interpreter's recursion limit
    # for a search that recursed once per generator.
    result = search_cert(veronese(n, d), n - d + 1, budget=2000)
    assert result.partition is None
    assert not result.exhausted
    assert result.nodes == 2001


def test_veronese_13_6_end_to_end():
    # The Veronese pipeline at 1716 generators: build, linear quotients,
    # minimal primes and the Schmitt-Vogel layering with its full check.
    v = veronese(13, 6)
    assert len(v.ideal.gens) == comb(13, 6) == 1716
    assert q_index(v) == 7
    assert len(minimal_primes(v.ideal).primes) == comb(13, 8) == 1287
    cert = veronese_cert(13, 6)
    assert len(cert.layers) == 8
    assert verify_sv(cert)


def _outcome(result):
    layers = None if result.partition is None else result.partition.layers
    return layers, result.exhausted, result.nodes


def _assert_search_matches_reference(mi, sizes, budgets=SEARCH_BUDGETS):
    for size in sizes:
        for budget in budgets:
            fast = _outcome(search_cert(mi, size, budget=budget))
            slow = _outcome(reference_search_cert(mi, size, budget=budget))
            assert fast == slow, (mi.ideal.gens, size, budget)


@pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (5, 3), (5, 4), (6, 4)])
def test_search_cert_matches_reference(enum_cache, n, d):
    for mi in enum_cache(n, d):
        _assert_search_matches_reference(mi, range(1, n - d + 3))


def test_search_cert_matches_reference_on_63_sample(enum_cache):
    # All 1232 labeled (6,3) ideals take about 30 s through both searches;
    # every orbit representative plus every 40th labeled ideal take ~1 s.
    sample = enum_cache(6, 3, True) + enum_cache(6, 3)[::40]
    for mi in sample:
        _assert_search_matches_reference(mi, range(1, 6))


_RELABEL_CELLS = ((5, 3), (6, 3), (6, 4))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_search_cert_matches_reference_under_relabeling(enum_cache, data):
    n, d = data.draw(st.sampled_from(_RELABEL_CELLS))
    mi = data.draw(st.sampled_from(enum_cache(n, d, True)))
    perm = tuple(data.draw(st.permutations(range(1, n + 1))))
    relabeled = as_matroidal(relabel_ideal(mi.ideal, perm))
    size = data.draw(st.integers(1, n - d + 2))
    budget = data.draw(st.sampled_from(SEARCH_BUDGETS))
    _assert_search_matches_reference(relabeled, [size], [budget])


@pytest.mark.parametrize(
    "n,d,searches,nodes", [(5, 3, 80, 1495), (6, 4, 576, 17299)]
)
def test_search_counters_are_pinned(enum_cache, n, d, searches, nodes):
    # Measured on the list-based search; a refactor that claims to leave the
    # algorithm alone must reproduce these counts exactly.
    hard = [
        mi
        for mi in enum_cache(n, d)
        if not recognize_veronese(mi.ideal)
        and not recognize_var_block_product(mi.ideal)
    ]
    results = [search_cert(mi, n - d + 1, budget=20000) for mi in hard]
    assert len(results) == searches
    assert sum(r.nodes for r in results) == nodes
    assert all(r.partition is not None for r in results)



def _unconstructed(ideals):
    """The ideals that no closed form covers, picked without the library's ladder."""
    return [mi for mi in ideals if reference_construct_certificate(mi) is None]


def _assert_search_matches_walk(mi, size, budgets):
    for budget in budgets:
        fast = _outcome(search_cert(mi, size, budget=budget))
        walk = _outcome(reference_walk_search_cert(mi, size, budget=budget))
        assert fast == walk, (mi.ideal.gens, size, budget)


def test_search_cert_matches_the_walk_on_every_63_search(enum_cache):
    # The 1,141 labeled (6,3) searches of the scan, where the layer before
    # the last is solved and its dead subtrees counted rather than walked.
    hard = _unconstructed(enum_cache(6, 3))
    assert len(hard) == 1141
    for mi in hard:
        _assert_search_matches_walk(mi, 4, [20000])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_search_cert_runs_out_inside_a_counted_subtree(enum_cache, data):
    # Just below the node count of a successful search, most budgets run
    # out inside a subtree that is counted instead of walked; the search
    # must still stop at budget + 1 nodes with no partition.
    n, d = data.draw(st.sampled_from(((5, 3), (6, 3), (6, 4))))
    mi = data.draw(st.sampled_from(_unconstructed(enum_cache(n, d, True))))
    size = n - d + 1
    full = reference_walk_search_cert(mi, size, budget=20000)
    assert full.partition is not None
    budget = full.nodes - data.draw(st.integers(1, min(full.nodes, 64)))
    result = search_cert(mi, size, budget=budget)
    assert _outcome(result) == (None, False, budget + 1)
    _assert_search_matches_walk(mi, size, [budget])


def test_search_cert_matches_the_walk_over_several_walked_layers(enum_cache):
    # Sizes n - d + 2 to n - d + 4 put one to four walked layers above the
    # layer before the last: 624 (ideal, size, budget) cases.
    for n, d in ((5, 3), (6, 3), (6, 4)):
        for mi in enum_cache(n, d, True):
            for size in range(n - d + 2, n - d + 5):
                _assert_search_matches_walk(mi, size, SEARCH_BUDGETS)


@given(graphic_matroids())
@settings(max_examples=60, deadline=None)
def test_search_cert_matches_the_walk_on_graphic_matroids(graph):
    # Spanning-tree ideals with 8-9 edges are search inputs past n = 7.
    v, edges, trees = graph
    mi = as_matroidal(ideal_of(len(edges), *trees))
    for size in (3, len(edges) - v + 2):
        _assert_search_matches_walk(mi, size, (300, 5000))


def test_search_cert_keeps_deep_layer_stacks_off_the_python_stack():
    # 924 singleton layers: a search that recursed once per layer would
    # raise RecursionError under the default limit.
    v = veronese(12, 6)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        result = search_cert(v, 924, budget=500000)
    finally:
        sys.setrecursionlimit(limit)
    assert result.nodes == 428270
    assert not result.exhausted
    assert len(result.partition.layers) == 924
    assert all(len(layer) == 1 for layer in result.partition.layers)
    assert verify_sv(result.partition)


def test_search_cert_counts_failing_layers_on_63_orbits(enum_cache):
    # No certificate has 3 layers, so every layer before the last fails the
    # cover test and has its nodes counted instead of walked.
    hard = _unconstructed(enum_cache(6, 3, True))
    assert len(hard) == 21
    results = [search_cert(mi, 3, budget=20000) for mi in hard]
    assert all(r.exhausted for r in results)
    assert sum(r.nodes for r in results) == 91004
    for mi, result in zip(hard, results):
        walk = reference_walk_search_cert(mi, 3, budget=20000)
        assert _outcome(result) == _outcome(walk), mi.ideal.gens


def test_search_cert_counters_are_pinned_where_every_layer_fails(enum_cache):
    hard = _unconstructed(enum_cache(6, 3))
    results = [search_cert(mi, 3, budget=20000) for mi in hard]
    assert len(results) == 1141
    assert all(r.exhausted for r in results)
    assert sum(r.nodes for r in results) == 4696293


def _independent_sets(cands, conflict):
    """Every nonempty subset of ``cands`` with no conflicting pair."""
    sub = cands
    while sub:
        members = [c for c in range(len(conflict)) if sub >> c & 1]
        if not any(conflict[c] & sub for c in members):
            yield sub
        sub = (sub - 1) & cands


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_cover_test_and_dead_layer_count_match_brute_force(data):
    masks = st.integers(0, (1 << 12) - 1)
    cands = data.draw(masks.filter(lambda m: m.bit_count() <= 10))
    conflict = [0] * 12
    pairs = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)))
    for a, b in data.draw(pairs):
        if a != b:
            conflict[a] |= 1 << b
            conflict[b] |= 1 << a
    covers = data.draw(st.lists(masks, max_size=8))
    allowance = data.draw(st.sampled_from((0, 1, 2, 5, 1 << 20)))
    sets = list(_independent_sets(cands, conflict))
    exists = any(all(cover & s for cover in covers) for s in sets)
    verdict = matroidal.svrank._hits_every_cover(covers, cands, conflict, allowance)
    assert verdict is (None if verdict is None else exists)
    if allowance == 1 << 20:
        assert verdict is exists
    # Each set costs its highest member's pick, the descent below it and
    # its leaf: size - position + 1.
    size = cands.bit_count()
    below = [(cands & ((1 << s.bit_length() - 1) - 1)).bit_count() for s in sets]
    nodes = sum(size - position + 1 for position in below)
    assert matroidal.svrank._dead_layer_nodes(cands, conflict, 1 << 20) == nodes


def test_cover_test_answers_unknown_when_its_allowance_runs_out():
    # Three candidates, 0 and 1 in conflict: {0, 2} meets both covers.
    conflict = [0b010, 0b001, 0]
    covers = [0b011, 0b101]
    hits = matroidal.svrank._hits_every_cover
    assert hits(covers, 0b111, conflict, 0) is None
    assert hits(covers, 0b111, conflict, 2) is True
    assert hits([0b001, 0b010], 0b111, conflict, 5) is False


@pytest.mark.slow
@pytest.mark.parametrize("n,d", [(7, 3), (7, 4)])
def test_search_cert_matches_the_walk_on_n7_orbits(enum_cache, n, d):
    hard = _unconstructed(enum_cache(n, d, True))
    assert len(hard) == {(7, 3): 65, (7, 4): 81}[n, d]
    for mi in hard:
        _assert_search_matches_walk(mi, n - d + 1, SEARCH_BUDGETS)


@pytest.mark.slow
@pytest.mark.parametrize(
    "n,d,size,searches,nodes,found,budget_outs",
    [(7, 3, 5, 65, 1172520, 7, 58), (7, 4, 4, 81, 1222204, 29, 52)],
)
def test_deep_search_counters_are_pinned(
    enum_cache, n, d, size, searches, nodes, found, budget_outs
):
    # Measured on the walk at budget 20,000.  At size 5 two walked layers
    # sit above the one that is solved.
    hard = _unconstructed(enum_cache(n, d, True))
    results = [search_cert(mi, size, budget=20000) for mi in hard]
    assert len(results) == searches
    assert sum(r.nodes for r in results) == nodes
    assert sum(r.partition is not None for r in results) == found
    assert sum(r.nodes == 20001 for r in results) == budget_outs
    assert not any(r.exhausted for r in results)

def test_ara_bounds_examples():
    bounds = ara_bounds(veronese(4, 2))
    assert (bounds.lower, bounds.upper, bounds.exact) == (3, 3, True)
    assert bounds.method == "veronese"
    blocks = ara_bounds(var_block_product([{1, 2}, {3, 4}]))
    assert (blocks.lower, blocks.upper, blocks.exact) == (3, 3, True)
    assert blocks.method == "product"
    assert verify_sv(blocks.certificate)


def test_ara_bounds_search_path(enum_cache):
    # A degree-3 ideal that is neither Veronese nor a block product.
    for mi in enum_cache(5, 3, True):
        if recognize_veronese(mi.ideal) or recognize_var_block_product(mi.ideal):
            continue
        bounds = ara_bounds(mi)
        assert bounds.lower == 5 - 3 + 1
        assert bounds.method == "search"
        assert bounds.upper == bounds.lower
        break
    else:
        pytest.fail("no search-path ideal found")


def test_ara_lower_never_exceeds_upper(enum_cache):
    for n in range(2, 6):
        for d in range(1, n + 1):
            for mi in enum_cache(n, d):
                bounds = ara_bounds(mi)
                if bounds.upper is not None:
                    assert bounds.lower <= bounds.upper
