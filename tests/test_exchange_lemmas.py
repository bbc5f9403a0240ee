"""Exchange lemmas of matroid bases, checked by brute force.

C(a, y) is the fundamental circuit of y outside a generator a: y together
with every x in a such that a - x + y is a generator.  ext(a) is the set
of y outside a that are not the largest element of C(a, y).  The pair
lemma says that for distinct generators a and b, b meets ext(a) or a
meets ext(b).  Sketch: if b misses ext(a), every y in b - a is the
largest element of C(a, y), so by the optimality criterion for bases
(Oxley, *Matroid Theory*, section 1.8) a is the basis of M|(a + b) of
least index sum, which is unique; if a also missed ext(b), b would be
that basis too.

The descent lemma says that for y in ext(a), with x the largest element
of C(a, y) (so x > y and x in a), ext(a - x + y) is a subset of
ext(a) - {y}.  It is checked here, not proven.  Together with the pair
lemma it places a - x + y in a lower layer of the exchange layering for
any a, b of one layer with y in b ∩ ext(a), and a - x + y divides ab.

The circuits come from ``helpers`` and the generator sets alone: nothing
here reads the library's colon masks, exchange layering or layering
check.  Every labeled ideal with n <= 6 runs in Tier-1, for the pair
lemma also the graphic, transversal and sparse paving strategies; the
(7,3) and (7,4) orbits run under slow.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings

from helpers import (
    externally_active,
    fundamental_circuit,
    graphic_matroids,
    ideal_of,
    sparse_paving_matroids,
    transversal_matroids,
)


def _assert_pair_lemma(ideal):
    genset = set(ideal.gens)
    ext = {a: externally_active(genset, a, ideal.n) for a in ideal.gens}
    for a, b in combinations(ideal.gens, 2):
        assert b & ext[a] or a & ext[b], (ideal, a, b)


def test_pair_lemma_on_every_small_ideal(enum_cache):
    pairs = 0
    for n in range(1, 7):
        for d in range(1, n + 1):
            for mi in enum_cache(n, d):
                _assert_pair_lemma(mi.ideal)
                pairs += len(mi.ideal.gens) * (len(mi.ideal.gens) - 1) // 2
    assert pairs == 133310


@settings(max_examples=100, deadline=None)
@given(graphic_matroids())
def test_pair_lemma_on_graphic_matroids(graph):
    v, edges, trees = graph
    _assert_pair_lemma(ideal_of(len(edges), *trees))


@settings(max_examples=100, deadline=None)
@given(transversal_matroids())
def test_pair_lemma_on_transversal_matroids(matroid):
    n, _, bases = matroid
    _assert_pair_lemma(ideal_of(n, *bases))


@settings(max_examples=50, deadline=None)
@given(sparse_paving_matroids())
def test_pair_lemma_on_sparse_paving_matroids(matroid):
    n, _, bases = matroid
    _assert_pair_lemma(ideal_of(n, *bases))


@pytest.mark.slow
@pytest.mark.parametrize("n,d", [(7, 3), (7, 4)])
def test_pair_lemma_on_n7_orbits(enum_cache, n, d):
    for mi in enum_cache(n, d, True):
        _assert_pair_lemma(mi.ideal)


def _assert_descent_lemma(ideal) -> int:
    """Check the descent lemma on every (a, y) with y in ext(a); count them."""
    genset = set(ideal.gens)
    ext = {a: externally_active(genset, a, ideal.n) for a in ideal.gens}
    cases = 0
    for a in ideal.gens:
        rest = ext[a]
        while rest:
            ybit = rest & -rest
            rest ^= ybit
            y = ybit.bit_length()
            x = fundamental_circuit(genset, a, y).bit_length()
            lower = a ^ (1 << (x - 1)) | ybit
            assert x > y and lower in genset, (ideal, a, y)
            assert not ext[lower] & ~(ext[a] ^ ybit), (ideal, a, y)
            cases += 1
    return cases


def test_descent_lemma_on_every_small_ideal(enum_cache):
    cases = 0
    for n in range(1, 7):
        for d in range(1, n + 1):
            for mi in enum_cache(n, d):
                cases += _assert_descent_lemma(mi.ideal)
    assert cases == 44292


@pytest.mark.slow
@pytest.mark.parametrize("n,d,expected", [(7, 3, 4243), (7, 4, 3872)])
def test_descent_lemma_on_n7_orbits(enum_cache, n, d, expected):
    cases = sum(_assert_descent_lemma(mi.ideal) for mi in enum_cache(n, d, True))
    assert cases == expected


def test_descent_lemma_fails_off_matroids():
    # On the path x1x2, x1x3, x3x4 (no exchange from x1x2 to x3x4):
    # ext(x3x4) = {x1}, whose circuit {x1, x4} descends to x1x3, but
    # ext(x1x3) = {x2} is not inside ext(x3x4) - {x1}.  So the check can
    # fail, and the passes above are not vacuous.
    path = ideal_of(4, (1, 2), (1, 3), (3, 4))
    genset = set(path.gens)
    assert [externally_active(genset, a, 4) for a in path.gens] == [0, 0b0010, 0b0001]
    with pytest.raises(AssertionError):
        _assert_descent_lemma(path)


def test_pair_lemma_fails_off_matroids():
    # x1x2 and x3x4 have no exchange, so both ext sets are empty: the
    # check can fail, and the passes above are not vacuous.
    with pytest.raises(AssertionError):
        _assert_pair_lemma(ideal_of(4, (1, 2), (3, 4)))
    genset = {0b0011, 0b0101, 0b0110}
    assert [externally_active(genset, a, 3) for a in sorted(genset)] == [0, 0b010, 0b001]
