import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matroidal.svrank
from matroidal import (
    SVPartition,
    ara_bounds,
    as_matroidal,
    certificate_document,
    construct_certificate,
    degree2_cert,
    minimal_primes,
    mono,
    partition_from_document,
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

from helpers import (
    contiguous_blocks,
    ideal_of,
    matroidal_of,
    partition_shapes,
    reference_search_cert,
    reference_walk_search_cert,
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


def test_sv_sums_rejects_unverified():
    ideal = ideal_of(3, (1, 2), (2, 3))
    with pytest.raises(ValueError):
        sv_sums(SVPartition(ideal, (frozenset(ideal.gens),)))


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
    return [mi for mi in ideals if construct_certificate(mi) is None]


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


@pytest.mark.slow
@pytest.mark.parametrize("n,d", [(7, 3), (7, 4)])
def test_search_cert_matches_the_walk_on_n7_orbits(enum_cache, n, d):
    for mi in _unconstructed(enum_cache(n, d, True)):
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


def test_certificate_document_roundtrip():
    partition = veronese_cert(4, 2)
    doc = certificate_document(partition)
    assert doc["verified_sv"] is True
    assert doc["layers"] == [
        ["x1*x2"],
        ["x1*x3", "x2*x3"],
        ["x1*x4", "x2*x4", "x3*x4"],
    ]
    assert doc["sums"] == ["x1*x2", "x1*x3+x2*x3", "x1*x4+x2*x4+x3*x4"]
    rebuilt = partition_from_document(doc)
    assert rebuilt == partition

    folded = product_cert([variable_cert({1}, 3), variable_cert({2, 3}, 3)])
    doc = certificate_document(folded)
    assert doc["layers"] is None
    assert doc["verified_sv"] is False
    assert len(doc["sums"]) == 2


def test_certificate_document_verifies_once(monkeypatch):
    partition = veronese_cert(5, 2)
    expected = certificate_document(partition)
    calls = []

    def counted(p):
        calls.append(p)
        return verify_sv(p)

    monkeypatch.setattr(matroidal.svrank, "verify_sv", counted)
    assert certificate_document(partition) == expected
    assert calls == [partition]
    bad = SVPartition(partition.ideal, (frozenset(partition.ideal.gens),))
    doc = certificate_document(bad)
    assert (doc["verified_sv"], doc["sums"]) == (False, [])
