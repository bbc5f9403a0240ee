"""Every documented input check, one call each.

A case is ``(call, exception, expected)``: the call raises ``exception``
with exactly the message ``expected``, or, where ``exception`` is None,
returns ``expected``.
"""

import pytest

from matroidal import (
    UNIT,
    Ideal,
    MatroidalIdeal,
    NonSquareFreeProductError,
    NotMatroidalError,
    Poly,
    RadicalCertificate,
    SVCheck,
    SVPartition,
    analyze,
    ara_bounds,
    as_matroidal,
    buchberger,
    canonical_form,
    check_matroidal,
    colon_by_var,
    contraction,
    find_ordering,
    mono,
    parse_ideal,
    parse_poly,
    pivot,
    product,
    product_cert,
    q_index,
    recognize_var_block_product,
    relabel_ideal,
    search_cert,
    star_product,
    transfer_fibers_equal,
    var_block_product,
    variable_cert,
    verify_radical_cert,
    verify_sv,
    veronese,
)

from helpers import ideal_of

V42 = veronese(4, 2)
REVERSED_V42 = Ideal(4, V42.ideal.gens[::-1])
# V(3,2) in four variables: x4 is in range but not in the support.
V32_IN_4 = MatroidalIdeal(ideal_of(4, (1, 2), (1, 3), (2, 3)), 2)
VARIABLES5 = ideal_of(5, (1,), (2,), (3,), (4,), (5,))
# x1*x70 and x2*x70, past MAX_VARS.
WIDE = Ideal(70, (1 | 1 << 69, 2 | 1 << 69))


def _cert(poly):
    return lambda: RadicalCertificate((poly,), V42.ideal, "manual")


CASES = {
    "product_ambients": (
        lambda: product(ideal_of(2, (1,)), ideal_of(3, (1,))),
        ValueError,
        "ambient variable counts differ",
    ),
    "product_zero_side": (
        lambda: product(ideal_of(2, (1,)), Ideal(2, ())),
        None,
        Ideal(2, ()),
    ),
    "star_product_empty": (
        lambda: star_product([]),
        ValueError,
        "star product needs at least one factor",
    ),
    "star_product_ambients": (
        lambda: star_product([ideal_of(2, (1,)), ideal_of(3, (2,))]),
        ValueError,
        "ambient variable counts differ",
    ),
    "colon_by_var_range": (
        lambda: colon_by_var(ideal_of(2, (1,)), 3),
        ValueError,
        "variable x3 out of range for n=2",
    ),
    "parse_ideal_header": (
        lambda: parse_ideal("# no header\n"),
        ValueError,
        "missing 'n=<int>' header",
    ),
    "non_square_free_product_suffix": (
        lambda: product(VARIABLES5, VARIABLES5),
        NonSquareFreeProductError,
        "non-square-free result in square-free context: x5^2, x4^2, x3^2, x2^2, ...",
    ),
    "var_block_product_empty": (
        lambda: var_block_product([]),
        ValueError,
        "need at least one block",
    ),
    "var_block_product_empty_block": (
        lambda: var_block_product([{1}, set()]),
        ValueError,
        "blocks must be nonempty",
    ),
    "pivot_support": (
        lambda: pivot(V32_IN_4, mono((1, 2)), 4),
        ValueError,
        "x4 is not in the support",
    ),
    "pivot_range_low": (
        lambda: pivot(V42, mono((1, 2)), 0),
        ValueError,
        "variable x0 out of range for n=4",
    ),
    "pivot_range_high": (
        lambda: pivot(veronese(3, 2), mono((1, 2)), 4),
        ValueError,
        "variable x4 out of range for n=3",
    ),
    "transfer_fibers_range_low": (
        lambda: transfer_fibers_equal(V42, 0, 1),
        ValueError,
        "variable x0 out of range for n=4",
    ),
    "transfer_fibers_range_high": (
        lambda: transfer_fibers_equal(V42, 9, 10),
        ValueError,
        "variable x9 out of range for n=4",
    ),
    "contraction_range_low": (
        lambda: contraction(V42, 0),
        ValueError,
        "variable x0 out of range for n=4",
    ),
    "contraction_range_high": (
        lambda: contraction(V42, 5),
        ValueError,
        "variable x5 out of range for n=4",
    ),
    "relabel_ideal_repeated": (
        lambda: relabel_ideal(V42.ideal, (1, 1, 3, 4)),
        ValueError,
        "not a permutation of 1..4: (1, 1, 3, 4)",
    ),
    "relabel_ideal_range": (
        lambda: relabel_ideal(V42.ideal, (5, 1, 2, 3)),
        ValueError,
        "not a permutation of 1..4: (5, 1, 2, 3)",
    ),
    "relabel_ideal_short": (
        lambda: relabel_ideal(V42.ideal, (2, 1)),
        ValueError,
        "not a permutation of 1..4: (2, 1)",
    ),
    "matroidal_ideal_mixed_degrees": (
        lambda: MatroidalIdeal(ideal_of(5, (1, 2, 5), (3, 4)), 2),
        NotMatroidalError,
        "not a matroidal ideal (mixed_degrees): x3*x4, x1*x2*x5",
    ),
    "matroidal_ideal_exchange": (
        lambda: MatroidalIdeal(ideal_of(4, (1, 4), (2, 3), (3, 4)), 2),
        NotMatroidalError,
        "not a matroidal ideal (exchange): "
        "B1=x1*x4, B2=x2*x3, x=x4: no y in B2-B1 repairs the exchange",
    ),
    "matroidal_ideal_degree": (
        lambda: MatroidalIdeal(V42.ideal, 3),
        ValueError,
        "d=3 differs from the generators' degree 2",
    ),
    "matroidal_ideal_order": (
        lambda: MatroidalIdeal(REVERSED_V42, 2),
        ValueError,
        "generators out of canonical order: x3*x4 before x2*x4",
    ),
    "check_matroidal_order": (
        lambda: check_matroidal(REVERSED_V42),
        ValueError,
        "generators out of canonical order: x3*x4 before x2*x4",
    ),
    "as_matroidal_order": (
        lambda: as_matroidal(REVERSED_V42),
        ValueError,
        "generators out of canonical order: x3*x4 before x2*x4",
    ),
    "matroidal_ideal_zero": (
        lambda: MatroidalIdeal(Ideal(1, ()), 2),
        ValueError,
        "the zero ideal has no matroid structure",
    ),
    "matroidal_ideal_unit": (
        lambda: MatroidalIdeal(Ideal(3, (UNIT,)), 0),
        ValueError,
        "the whole ring has no matroid structure",
    ),
    "contraction_degree": (
        lambda: contraction(veronese(3, 1), 1),
        ValueError,
        "contraction needs degree at least 2",
    ),
    "recognize_var_block_product_zero": (
        lambda: recognize_var_block_product(Ideal(3, ())),
        None,
        None,
    ),
    "recognize_var_block_product_unit": (
        lambda: recognize_var_block_product(Ideal(3, (UNIT,))),
        None,
        None,
    ),
    "canonical_form_n8": (
        lambda: canonical_form(veronese(8, 2).ideal),
        ValueError,
        "canonical forms supported up to n=7",
    ),
    "poly_exponent_length": (
        lambda: Poly(2, {(1,): 1}),
        ValueError,
        "exponent vector length must equal n",
    ),
    "from_monomial_range": (
        lambda: Poly.from_monomial(mono((3,)), 2),
        ValueError,
        "variable x3 out of range for n=2",
    ),
    "poly_negative_power": (
        lambda: parse_poly("x1", 1) ** -1,
        ValueError,
        "negative power",
    ),
    "zero_poly_leading": (
        lambda: Poly.zero(2).leading(),
        ValueError,
        "zero polynomial has no leading term",
    ),
    "parse_poly_empty_term": (
        lambda: parse_poly("x1++x2", 2),
        ValueError,
        "empty term",
    ),
    "parse_poly_zero_denominator": (
        lambda: parse_poly("1/0*x1", 1),
        ValueError,
        "malformed factor '1/0'",
    ),
    "buchberger_empty": (
        lambda: buchberger([]),
        ValueError,
        "need at least one nonzero generator",
    ),
    # The strategy option is gone: the ordering is always the canonical one.
    "find_ordering_strategy": (
        lambda: find_ordering(V42, "revlex"),
        TypeError,
        "find_ordering() takes 1 positional argument but 2 were given",
    ),
    "verify_sv_empty": (
        lambda: verify_sv(SVPartition(V42.ideal, ())),
        None,
        SVCheck(False, "empty_partition"),
    ),
    "certificate_zero_poly": (
        _cert(Poly.zero(4)),
        ValueError,
        "certificate contains the zero polynomial",
    ),
    "certificate_wrong_ring": (
        _cert(parse_poly("x1*x2", 3)),
        ValueError,
        "certificate polynomial in the wrong ring",
    ),
    # A sums-only document with "sums": [] reaches this check.
    "certificate_empty": (
        lambda: RadicalCertificate((), V42.ideal, "manual"),
        ValueError,
        "certificate needs at least one polynomial",
    ),
    "certificate_not_a_poly": (
        _cert("x1*x2"),
        TypeError,
        "certificate polynomial is not a Poly: 'x1*x2'",
    ),
    "verify_radical_cert_type": (
        lambda: verify_radical_cert(object()),
        TypeError,
        "expected a RadicalCertificate, got object",
    ),
    "variable_cert_empty": (
        lambda: variable_cert([], 3),
        ValueError,
        "need at least one variable",
    ),
    "product_cert_empty": (
        lambda: product_cert([]),
        ValueError,
        "need at least one certificate",
    ),
    "search_cert_size": (
        lambda: search_cert(V42, 0),
        ValueError,
        "target size must be at least one layer",
    ),
    # V(4,2) never searches: only the up-front check refuses the budget.
    "ara_bounds_budget": (
        lambda: ara_bounds(V42, search_budget=-1),
        ValueError,
        "search budget must be nonnegative, got -1",
    ),
    # One full-support rule, worded once, behind every reader of q.
    "q_index_support": (
        lambda: q_index(V32_IN_4),
        ValueError,
        "support must be all of x1..xn",
    ),
    "analyze_support": (
        lambda: analyze(V32_IN_4),
        ValueError,
        "support must be all of x1..xn",
    ),
    "ara_bounds_support": (
        lambda: ara_bounds(V32_IN_4),
        ValueError,
        "support must be all of x1..xn",
    ),
    # An Ideal built directly past 64 variables reaches the packed 64-bit
    # kernels, which refuse it in the MAX_VARS wording, not with an
    # OverflowError; as_matroidal used to accept this one.
    "as_matroidal_past_64_variables": (
        lambda: as_matroidal(WIDE),
        ValueError,
        "variable index must be in 1..64",
    ),
    "verify_sv_past_64_variables": (
        lambda: verify_sv(
            SVPartition(WIDE, tuple(frozenset({g}) for g in WIDE.gens))
        ),
        ValueError,
        "variable index must be in 1..64",
    ),
}


@pytest.mark.parametrize("call,exception,expected", CASES.values(), ids=CASES.keys())
def test_input_check(call, exception, expected):
    if exception is None:
        assert call() == expected
        return
    with pytest.raises(exception) as caught:
        call()
    assert type(caught.value) is exception
    assert str(caught.value) == expected
