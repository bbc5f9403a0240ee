import pytest
from hypothesis import given, settings

from matroidal import (
    ExchangeWitness,
    NotMatroidalError,
    as_matroidal,
    check_matroidal,
    colon_step_vars,
    find_ordering,
    minimal_generators,
    minimal_primes,
    mono,
    mono_vars,
    pivot,
    q_index,
    support,
    transfer_fibers_equal,
    var_block_product,
    veronese,
)
from matroidal.ideals import SupportOverlapError, UNIT, Ideal

from helpers import (
    betti_k_polynomial,
    brute_force_bonds,
    contiguous_blocks,
    faces_k_polynomial,
    graphic_matroids,
    ideal_of,
    matroidal_of,
    partition_shapes,
    tutte_at_x_1,
)


def test_veronese_is_matroidal():
    check = check_matroidal(veronese(4, 2).ideal)
    assert check and check.matroidal.d == 2


def test_disjoint_pair_witness():
    check = check_matroidal(ideal_of(4, (1, 2), (3, 4)))
    assert not check
    assert check.failure == "exchange"
    assert check.witness == ExchangeWitness(mono((1, 2)), mono((3, 4)), 1)


def test_shared_variable_pair_is_matroidal():
    assert check_matroidal(ideal_of(3, (1, 2), (2, 3)))


def test_mixed_degrees_is_a_distinct_failure():
    check = check_matroidal(ideal_of(3, (1,), (2, 3)))
    assert not check
    assert check.failure == "mixed_degrees"
    with pytest.raises(NotMatroidalError):
        as_matroidal(ideal_of(3, (1,), (2, 3)))


def test_not_matroidal_message_writes_the_witness_as_monomials():
    with pytest.raises(NotMatroidalError) as info:
        as_matroidal(Ideal(3, (1, 6)))
    assert str(info.value) == "not a matroidal ideal (mixed_degrees): x1, x2*x3"
    # The check itself keeps the bitmasks.
    assert info.value.check.witness == (1, 6)
    with pytest.raises(NotMatroidalError) as info:
        as_matroidal(ideal_of(4, (1, 2), (3, 4)))
    assert str(info.value) == (
        "not a matroidal ideal (exchange): B1=x1*x2, B2=x3*x4, x=x1: "
        "no y in B2-B1 repairs the exchange"
    )


def test_check_rejects_zero_and_unit():
    with pytest.raises(ValueError):
        check_matroidal(Ideal(3, ()))
    with pytest.raises(ValueError):
        check_matroidal(minimal_generators({UNIT}, 3))


def test_veronese_counts():
    assert len(veronese(4, 2).ideal.gens) == 6
    assert veronese(3, 3).ideal == ideal_of(3, (1, 2, 3))
    assert veronese(2, 1).ideal == ideal_of(2, (1,), (2,))
    with pytest.raises(ValueError):
        veronese(3, 4)
    with pytest.raises(ValueError):
        veronese(3, 0)


def test_var_block_product_examples():
    mi = var_block_product([{1, 2}, {3, 4}])
    assert mi.ideal == ideal_of(4, (1, 3), (1, 4), (2, 3), (2, 4))
    assert check_matroidal(mi.ideal)
    principal = var_block_product([{1}])
    assert principal.ideal == ideal_of(1, (1,))
    with pytest.raises(SupportOverlapError):
        var_block_product([{1, 2}, {2, 3}])


def test_constructors_always_pass_the_checker():
    for n in range(1, 9):
        for d in range(1, n + 1):
            assert check_matroidal(veronese(n, d).ideal)
    for total in range(1, 9):
        for shape in partition_shapes(total):
            blocks = contiguous_blocks(shape)
            assert check_matroidal(var_block_product(blocks, total).ideal)


def test_validated_ideals_have_equal_degrees(enum_cache):
    for mi in enum_cache(4, 2):
        degrees = {len(mono_vars(g)) for g in mi.ideal.gens}
        assert degrees == {2}


def test_pivot_examples():
    assert pivot(veronese(4, 2), mono((1, 2)), 3) == 1
    blocks = var_block_product([{1, 2}, {3, 4}])
    assert pivot(blocks, mono((1, 3)), 2) == 1
    degree_one = matroidal_of(2, (1,), (2,))
    assert pivot(degree_one, mono((1,)), 2) == 1


def test_pivot_preconditions():
    v = veronese(4, 2)
    with pytest.raises(ValueError):
        pivot(v, mono((1, 2, 3)), 4)  # not a generator
    with pytest.raises(ValueError):
        pivot(v, mono((1, 2)), 2)  # y divides f


def test_pivot_never_fails_exhaustively(enum_cache):
    # The replacement lemma, witnessed on every (I, f, y) with n <= 6.
    for n in range(2, 7):
        for d in range(1, n + 1):
            for mi in enum_cache(n, d):
                sup = support(mi.ideal)
                for f in mi.ideal.gens:
                    for y in sup - set(mono_vars(f)):
                        assert 1 <= pivot(mi, f, y) <= d


def test_transfer_examples():
    blocks = var_block_product([{1, 2}, {3, 4}])
    assert transfer_fibers_equal(blocks, 1, 2)
    k21 = matroidal_of(3, (1, 2), (2, 3))
    assert transfer_fibers_equal(k21, 1, 3)
    with pytest.raises(ValueError):
        transfer_fibers_equal(veronese(4, 2), 1, 2)  # x1x2 generates
    with pytest.raises(ValueError):
        transfer_fibers_equal(blocks, 1, 1)


def test_transfer_holds_exhaustively(enum_cache):
    for n in range(2, 7):
        for d in range(1, n + 1):
            for mi in enum_cache(n, d):
                for x in range(1, n + 1):
                    for y in range(x + 1, n + 1):
                        both = mono((x, y))
                        if any(g & both == both for g in mi.ideal.gens):
                            continue
                        assert transfer_fibers_equal(mi, x, y)


@given(graphic_matroids())
@settings(max_examples=60, deadline=None)
def test_spanning_tree_ideals_are_matroidal_with_the_bonds_as_primes(graph):
    # Past the enumeration: graphs with 8-9 edges give n = 8, 9.
    # The colon steps and the exchange layers come from one read of the
    # external masks; each must match colon_step_vars, the slow path, give
    # the K-polynomial of the faces and, read by layer, T_M(1, y).
    v, edges, trees = graph
    n = len(edges)
    check = check_matroidal(ideal_of(n, *trees))
    assert check and check.matroidal.d == v - 1
    mi = check.matroidal
    assert q_index(mi) == n - (v - 1)
    bonds = brute_force_bonds(edges, v)
    assert set(minimal_primes(mi.ideal).primes) == bonds
    gens = mi.ideal.gens
    steps = [colon_step_vars(list(gens[:j]), gens[j]) for j in range(1, len(gens))]
    assert find_ordering(mi).colon_steps == tuple(steps)
    sizes = [0, *map(len, steps)]
    assert [m.bit_count() for m in mi._colon_masks] == sizes
    assert betti_k_polynomial(n, mi.d, sizes) == faces_k_polynomial(mi.ideal)
    layers = [sizes.count(k) for k in range(n - mi.d + 1)]
    assert layers[::-1] == tutte_at_x_1(mi.ideal, mi.d)
