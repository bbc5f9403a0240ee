from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidal import (
    MAX_VARS,
    UNIT,
    Ideal,
    NonSquareFreeProductError,
    SupportOverlapError,
    colon_by_var,
    contains,
    format_ideal,
    is_unit_ideal,
    minimal_generators,
    mono,
    mono_degree,
    mono_str,
    mono_vars,
    parse_ideal,
    parse_mono,
    product,
    star_product,
    support,
)
from helpers import ideal_of


def test_mono_roundtrip():
    m = mono((3, 1))
    assert mono_vars(m) == (1, 3)
    assert mono_degree(m) == 2
    assert mono_str(m) == "x1*x3"
    assert parse_mono("x1*x3") == m
    assert parse_mono("1") == UNIT
    assert mono_str(UNIT) == "1"


def test_mono_rejects_bad_variables():
    with pytest.raises(ValueError):
        mono((0,))
    with pytest.raises(ValueError):
        mono((MAX_VARS + 1,))


def test_minimal_generators_absorbs_multiples():
    assert ideal_of(3, (1, 2), (1, 2, 3)).gens == (mono((1, 2)),)


def test_minimal_generators_keeps_antichain():
    assert ideal_of(2, (1,), (2,)).gens == (mono((1,)), mono((2,)))


def test_minimal_generators_equal_degrees_unchanged():
    gens = [c for c in combinations(range(1, 5), 2)]
    assert len(ideal_of(4, *gens).gens) == 6


def test_minimal_generators_range_check():
    with pytest.raises(ValueError):
        minimal_generators({mono((5,))}, 4)
    with pytest.raises(ValueError):
        minimal_generators(set(), 0)


def test_unit_ideal_absorbs_everything():
    ideal = minimal_generators({UNIT, mono((1,))}, 2)
    assert is_unit_ideal(ideal)


monomial_sets = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.sets(st.integers(1, n), max_size=n).map(mono), max_size=6
        ),
    )
)


@given(monomial_sets)
def test_minimal_generators_idempotent_and_order_free(case):
    n, ms = case
    ideal = minimal_generators(ms, n)
    again = minimal_generators(ideal.gens, n)
    assert again == ideal
    reversed_input = minimal_generators(list(reversed(ms)), n)
    assert reversed_input == ideal


@given(monomial_sets)
def test_generators_form_an_antichain(case):
    n, ms = case
    gens = minimal_generators(ms, n).gens
    for a in gens:
        for b in gens:
            if a != b:
                assert not a & b == a  # no divisibility between generators


def test_support_examples():
    assert support(ideal_of(2, (1, 2))) == {1, 2}
    from matroidal import veronese

    assert support(veronese(4, 2).ideal) == {1, 2, 3, 4}
    assert support(Ideal(3, ())) == frozenset()


def test_contains_examples():
    from matroidal import veronese

    v = veronese(4, 2).ideal
    assert contains(v, mono((1, 2, 3)))
    assert not contains(v, mono((1,)))
    blocks = ideal_of(4, (1, 3), (1, 4), (2, 3), (2, 4))
    assert not contains(blocks, mono((1, 2)))


@given(monomial_sets, st.integers(1, 8))
def test_contains_is_upward_closed(case, x):
    n, ms = case
    ideal = minimal_generators(ms, n)
    x = (x - 1) % n + 1
    for g in ideal.gens:
        assert contains(ideal, g)
        assert contains(ideal, g | mono((x,)))


def test_product_disjoint_supports():
    left = ideal_of(4, (1,), (2,))
    right = ideal_of(4, (3,), (4,))
    assert product(left, right) == ideal_of(4, (1, 3), (1, 4), (2, 3), (2, 4))


def test_product_rejects_square():
    principal = ideal_of(1, (1,))
    with pytest.raises(NonSquareFreeProductError):
        product(principal, principal)


def test_product_rejects_overlap_with_nonsquarefree_minimal_generator():
    with pytest.raises(NonSquareFreeProductError) as err:
        product(ideal_of(3, (1,), (2,)), ideal_of(3, (2,), (3,)))
    assert "non-square-free result in square-free context" in str(err.value)


def test_star_product_examples():
    got = star_product([ideal_of(4, (1,), (2,)), ideal_of(4, (3,), (4,))])
    assert got.gens == ideal_of(4, (1, 3), (1, 4), (2, 3), (2, 4)).gens
    assert all(mono_degree(g) == 2 for g in got.gens)
    single = ideal_of(3, (1, 2))
    assert star_product([single]) == single
    with pytest.raises(SupportOverlapError):
        star_product([ideal_of(3, (1,), (2,)), ideal_of(3, (2,), (3,))])


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_star_product_generator_count_multiplies(a, b, c):
    sizes = [a, b, c]
    start = 1
    factors = []
    for s in sizes:
        factors.append(
            minimal_generators({mono((v,)) for v in range(start, start + s)}, 9)
        )
        start += s
    got = star_product(factors)
    assert len(got.gens) == a * b * c


def test_colon_by_var_examples():
    blocks = ideal_of(4, (1, 3), (1, 4), (2, 3), (2, 4))
    assert colon_by_var(blocks, 1) == ideal_of(4, (3,), (4,))
    principal = ideal_of(3, (1, 2))
    assert colon_by_var(principal, 3) == principal
    assert is_unit_ideal(colon_by_var(ideal_of(1, (1,)), 1))


@given(monomial_sets, st.integers(1, 8))
@settings(max_examples=60)
def test_colon_by_var_matches_brute_membership(case, x):
    n, ms = case
    ideal = minimal_generators(ms, n)
    x = (x - 1) % n + 1
    colon = colon_by_var(ideal, x)
    xbit = mono((x,))
    for m in range(1 << n):
        # m is in I : <x> exactly when x*m is in I; x*m has support m | xbit.
        assert contains(colon, m) == contains(ideal, m | xbit)


def test_colon_of_star_product_divides_out_block():
    left = ideal_of(6, (1,), (2,))
    right = ideal_of(6, (3,), (4,), (5,))
    star = star_product([left, right])
    assert colon_by_var(star, 1) == right
    assert colon_by_var(star, 5) == left


def test_text_format_roundtrip_and_comments():
    text = "# a comment\nn=4\n\nx1 x3\nx1 x4\n# more\nx2 x3\nx2 x4\n"
    ideal = parse_ideal(text)
    assert ideal == ideal_of(4, (1, 3), (1, 4), (2, 3), (2, 4))
    assert parse_ideal(format_ideal(ideal)) == ideal


def test_text_format_minimalizes():
    assert parse_ideal("n=3\nx1 x2\nx1 x2 x3\n") == ideal_of(3, (1, 2))


def test_text_format_rejects_garbage():
    with pytest.raises(ValueError):
        parse_ideal("m=3\nx1\n")
    with pytest.raises(ValueError):
        parse_ideal("n=3\ny1\n")
    with pytest.raises(ValueError):
        parse_ideal("x1 x2\n")



def test_repeated_variable_is_not_square_free():
    # x1 x1 is the square x1^2, not the generator x1.
    with pytest.raises(ValueError, match="repeated variable x1"):
        parse_ideal("n=2\nx1 x1\n")
    with pytest.raises(ValueError, match="repeated variable x3"):
        parse_ideal("n=3\nx1 x2\nx3 x2 x3\n")
    with pytest.raises(ValueError, match="repeated variable x1"):
        parse_mono("x1*x1")
    assert parse_mono("x2*x1") == parse_mono("x1*x2")

def test_whole_ring_not_representable():
    with pytest.raises(ValueError):
        format_ideal(minimal_generators({UNIT}, 2))


@given(monomial_sets)
def test_text_format_roundtrip_random(case):
    n, ms = case
    ideal = minimal_generators(ms, n)
    if is_unit_ideal(ideal):
        return
    assert parse_ideal(format_ideal(ideal)) == ideal
