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
    Poly,
    RadicalCertificate,
    SVCheck,
    SVPartition,
    buchberger,
    canonical_form,
    colon_by_var,
    contraction,
    degree2_partition,
    find_ordering,
    mono,
    parse_ideal,
    parse_poly,
    pivot,
    product,
    product_cert,
    recognize_var_block_product,
    search_cert,
    star_product,
    var_block_product,
    variable_cert,
    verify_radical_cert,
    verify_sv,
    veronese,
)

from helpers import ideal_of

V42 = veronese(4, 2)
VARIABLES5 = ideal_of(5, (1,), (2,), (3,), (4,), (5,))


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
        lambda: pivot(veronese(3, 2), mono((1, 2)), 4),
        ValueError,
        "x4 is not in the support",
    ),
    "degree2_partition_n": (
        lambda: degree2_partition(MatroidalIdeal(Ideal(1, ()), 2)),
        ValueError,
        "need n >= 2",
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
    "buchberger_empty": (
        lambda: buchberger([]),
        ValueError,
        "need at least one nonzero generator",
    ),
    "find_ordering_strategy": (
        lambda: find_ordering(V42, "bogus"),
        ValueError,
        "unknown ordering strategy 'bogus'",
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
