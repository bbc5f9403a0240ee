"""Fast kernels against their slow oracles in ``helpers``.

``check_matroidal`` decides through fundamental cocircuits, ``minimal_primes``
reads matroidal primes off those cocircuits, and ``find_ordering`` walks an
explicit stack.  Each must agree exactly with the pairwise exchange scan, the
transversal DFS and the recursive ordering search: on every ideal with
n <= 6, on each of them with a generator dropped (mostly not matroidal), and
on random antichains.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidal import (
    Ideal,
    InvariantViolation,
    check_matroidal,
    find_ordering,
    minimal_generators,
    minimal_primes,
    mono,
)
from matroidal.matroids import MatroidalIdeal

from helpers import (
    ideal_of,
    reference_check_matroidal,
    reference_find_ordering,
    reference_minimal_primes,
)

CELLS = [(n, d) for n in range(1, 7) for d in range(1, n + 1)]
STRATEGIES = (("lex", 0), ("revlex", 0), ("random", 3))


def _ordering_outcome(search, mi, strategy, seed):
    try:
        return search(mi, strategy, seed)
    except InvariantViolation:
        return InvariantViolation


def _assert_check_and_primes_agree(ideal):
    assert check_matroidal(ideal) == reference_check_matroidal(ideal)
    assert minimal_primes(ideal) == reference_minimal_primes(ideal)


def test_kernels_match_oracles_on_every_small_ideal(enum_cache):
    dropped_failures = set()
    for n, d in CELLS:
        for mi in enum_cache(n, d):
            ideal = mi.ideal
            _assert_check_and_primes_agree(ideal)
            if len(ideal.gens) > 1:
                dropped = Ideal(n, ideal.gens[1:])
                _assert_check_and_primes_agree(dropped)
                dropped_failures.add(check_matroidal(dropped).failure)
    # The sweep reaches both verdicts, so the witness comparison is not vacuous.
    assert dropped_failures == {None, "exchange"}


def test_orderings_match_the_recursive_search(enum_cache):
    for n, d in CELLS:
        for mi in enum_cache(n, d):
            for strategy, seed in STRATEGIES:
                assert find_ordering(mi, strategy, seed) == reference_find_ordering(
                    mi, strategy, seed
                )


@st.composite
def antichains(draw, equal_degree: bool, max_gens: int = 12):
    n = draw(st.integers(1, 7))
    if equal_degree:
        d = draw(st.integers(1, n))
        pool = [mono(c) for c in combinations(range(1, n + 1), d)]
    else:
        pool = list(range(1, 1 << n))
    gens = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=max_gens, unique=True)
    )
    return minimal_generators(gens, n)


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(lambda eq: antichains(eq)))
def test_random_antichains_match_oracles(ideal):
    _assert_check_and_primes_agree(ideal)


# Unchecked mixed-degree input where lex order backtracks before it
# succeeds (the last one pops twelve times).  Random equal-degree input did
# not do so once in a sample of 20,000: it either walks straight through or
# exhausts.
BACKTRACKING = [
    (3, [(1, 3), (2,)]),
    (6, [(1, 3, 4, 6), (1, 3, 5, 6), (2,)]),
    (6, [(1, 2, 3, 5), (1, 5, 6), (3, 5, 6), (4,)]),
]


def _unchecked(ideal):
    # find_ordering reads only the generators, never the degree.
    return MatroidalIdeal(ideal, ideal.gens[0].bit_count())


@pytest.mark.parametrize("n, gens", BACKTRACKING)
def test_orderings_match_after_backtracking(n, gens):
    mi = _unchecked(ideal_of(n, *gens))
    ordering = find_ordering(mi)
    assert ordering.order != mi.ideal.gens
    assert ordering == reference_find_ordering(mi)


@settings(max_examples=300, deadline=None)
@given(
    st.booleans().flatmap(lambda eq: antichains(eq, max_gens=6)),
    st.sampled_from(STRATEGIES),
)
def test_orderings_match_on_unchecked_input(ideal, strategy_seed):
    # Input that skipped the checker can backtrack and even exhaust; the
    # stack walk must retrace the recursion exactly.
    mi = _unchecked(ideal)
    strategy, seed = strategy_seed
    assert _ordering_outcome(find_ordering, mi, strategy, seed) == _ordering_outcome(
        reference_find_ordering, mi, strategy, seed
    )
