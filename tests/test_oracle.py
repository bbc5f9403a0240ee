import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidal import (
    Poly,
    RadicalCertificate,
    buchberger,
    mono,
    mono_vars,
    parse_poly,
    poly_str,
    reduce,
    s_polynomial,
    verify_radical_cert,
    veronese,
)
from matroidal import oracle
from matroidal.ideals import InvariantViolation
from matroidal.oracle import BudgetExceededError
from matroidal.svrank import product_cert, sv_sums, variable_cert, veronese_cert

from helpers import (
    groebner_radical_check,
    ideal_of,
    reference_buchberger,
    reference_radical_check,
    reference_reduce,
    without_witnesses,
)


def P(text, n):
    return parse_poly(text, n)


def test_poly_arithmetic_is_exact():
    f = P("1/3*x1", 2) * 3 - P("x1", 2)
    assert f.is_zero()
    g = P("x1+x2", 2) * P("x1+x2", 2)
    assert g == P("x1^2+2*x1*x2+x2^2", 2)
    assert (P("x1+1", 1) ** 3) == P("x1^3+3*x1^2+3*x1+1", 1)
    assert P("x1", 1).terms[(1,)] == Fraction(1)


def test_poly_str_grammar():
    f = P("x2 + 3/2*x1^2*x3 + -x4", 4)
    assert poly_str(f) == "3/2*x1^2*x3+x2+-x4"
    assert parse_poly(poly_str(f), 4) == f
    assert poly_str(Poly.zero(2)) == "0"


def test_parse_poly_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("x0", 2)
    with pytest.raises(ValueError):
        parse_poly("x3", 2)
    with pytest.raises(ValueError):
        parse_poly("x1**2", 2)


def test_parse_poly_names_a_field_too_long_to_read():
    huge = "1" * 5000
    for text, what in [
        (f"x2^{huge}", "exponent of x2"),
        (f"{huge}*x1", "coefficient"),
        (f"1/{huge}*x1", "denominator"),
    ]:
        with pytest.raises(ValueError) as caught:
            parse_poly(text, 2)
        assert str(caught.value) == f"{what} has 5000 digits, too many to read"
    for e in (40000, 70000):
        assert parse_poly(f"x1^{e}", 1).terms == {(e,): 1}


def test_buchberger_monomials_are_their_own_basis():
    basis = buchberger([P("x1", 2), P("x2", 2)])
    assert set(basis) == {P("x1", 2), P("x2", 2)}


def test_buchberger_output_is_groebner():
    # The defining property is asserted internally on every call; exercise
    # it once over a non-trivial input.
    gens = [P("x1*x2+-x3^2", 3), P("x2^2+-1*x3*x1", 3)]
    basis = buchberger(gens)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert reduce(s_polynomial(basis[i], basis[j]), basis).is_zero()


def test_the_term_order_is_not_an_option():
    # degrevlex is the only term order; naming one is a TypeError.
    f = P("x1+x2", 2)
    calls = [
        lambda: reduce(f, [f], "grevlex"),
        lambda: reduce(f, [f], order="degrevlex"),
        lambda: buchberger([f], order="degrevlex"),
        lambda: s_polynomial(f, f, "degrevlex"),
        lambda: f.leading("degrevlex"),
        lambda: f.monic("lex"),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_membership_examples():
    base = buchberger([P("x1", 2)])
    assert reduce(P("x1*x2", 2), base).is_zero()
    mixed = buchberger([P("x1+x2", 2), P("x2", 2)])
    assert reduce(P("x1", 2), mixed).is_zero()
    assert not reduce(P("x1", 2), buchberger([P("x1+x2", 2)])).is_zero()


def test_reduce_member_of_basis_is_zero():
    gens = [P("x1*x2+-x3^2", 3), P("x2^2+x3", 3)]
    basis = buchberger(gens)
    for g in gens:
        assert reduce(g, basis).is_zero()


def test_membership_agrees_with_cofactor_search():
    # <x1x2, x1x3 + x2x3>: compare Groebner answers against brute-force
    # cofactor expansion for every monomial of degree <= 4.
    n = 3
    gens = [P("x1*x2", n), P("x1*x3+x2*x3", n)]
    basis = buchberger(gens)
    monos = []
    for a in range(5):
        for b in range(5 - a):
            for c in range(5 - a - b):
                monos.append((a, b, c))

    def brute_member(target):
        # target = f1*c1 + f2*c2 with polynomial cofactors: solve the
        # linear system over the bounded monomial basis exactly.
        deg = sum(target)
        lead = {target: Fraction(1)}
        cof_monos = [m for m in monos if sum(m) <= deg]
        cols = []
        for gi, g in enumerate(gens):
            for cm in cof_monos:
                col = {}
                for e, c in g.terms.items():
                    key = tuple(x + y for x, y in zip(e, cm))
                    col[key] = col.get(key, Fraction(0)) + c
                cols.append(col)
        rows = sorted({k for col in cols for k in col} | set(lead))
        # Gaussian elimination on the sparse system cols * x = lead.
        matrix = [[col.get(r, Fraction(0)) for col in cols] + [lead.get(r, Fraction(0))] for r in rows]
        nrows, ncols = len(matrix), len(cols)
        pivot_row = 0
        for col in range(ncols):
            sel = next((r for r in range(pivot_row, nrows) if matrix[r][col]), None)
            if sel is None:
                continue
            matrix[pivot_row], matrix[sel] = matrix[sel], matrix[pivot_row]
            pv = matrix[pivot_row][col]
            matrix[pivot_row] = [v / pv for v in matrix[pivot_row]]
            for r in range(nrows):
                if r != pivot_row and matrix[r][col]:
                    f = matrix[r][col]
                    matrix[r] = [a - f * b for a, b in zip(matrix[r], matrix[pivot_row])]
            pivot_row += 1
        # Consistent iff no row reduces to (0 ... 0 | nonzero).
        for row in matrix:
            if all(v == 0 for v in row[:-1]) and row[-1] != 0:
                return False
        return True

    for m in monos:
        if sum(m) == 0:
            continue
        f = Poly(n, {m: Fraction(1)})
        assert reduce(f, basis).is_zero() == brute_member(m), m


def test_member_stable_under_input_permutation():
    rng = random.Random(3)
    gens = [P("x1*x2+-x3^2", 3), P("x2^2+x3", 3), P("x1*x3+-x2", 3)]
    reference = buchberger(gens)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        again = buchberger(shuffled)
        assert set(again) == set(reference)  # reduced bases are unique


def test_budget_cap():
    with pytest.raises(BudgetExceededError):
        buchberger([P("x1*x2+-x3^2", 3), P("x2^2+x3", 3)], max_pairs=0)
    with pytest.raises(ValueError, match="pair budget must be nonnegative"):
        buchberger([P("x1", 2)], max_pairs=-1)


def test_check_reduces_every_pair_of_the_output(monkeypatch):
    # The final check divides the S-polynomial of each pair of the returned
    # basis, coprime leading terms and chains included.
    calls = []
    divide = oracle._normal_form

    def counting(*args):
        calls.append(1)
        return divide(*args)

    monkeypatch.setattr(oracle, "_normal_form", counting)
    gens = [P("x1*x2+-x3^2", 3), P("x2^2+-1*x3*x1", 3), P("x1^2+x2", 3)]
    oracle._groebner(gens, _layout(3), 20000)
    unchecked = len(calls)
    calls.clear()
    basis = buchberger(gens)
    k = len(basis)
    assert k >= 3
    assert len(calls) - unchecked == k * (k - 1) // 2


def test_verify_radical_cert_trivial():
    v = veronese(3, 2).ideal
    polys = tuple(Poly.from_monomial(g, 3) for g in v.gens)
    cert = RadicalCertificate(polys, v, "manual")
    result = verify_radical_cert(cert)
    assert result.verified
    assert set(result.powers.values()) == {1}


def test_verify_radical_cert_veronese42_minimal_powers():
    cert = sv_sums(veronese_cert(4, 2))
    result = groebner_radical_check(cert, cap=6)
    assert (result.verified, result.method) == (True, "groebner")
    powers = {mono_vars(g): p for g, p in result.powers.items()}
    assert powers == {
        (1, 2): 1,
        (1, 3): 2,
        (2, 3): 2,
        (1, 4): 3,
        (2, 4): 3,
        (3, 4): 2,
    }


def test_layered_check_veronese42_powers():
    # Each power is taken against the terms of the earlier layers plus one
    # layer sum, so x1*x4 needs its square where the whole ideal needs a cube.
    cert = sv_sums(veronese_cert(4, 2))
    result = verify_radical_cert(cert, cap=6)
    assert (result.verified, result.method) == (True, "layered")
    powers = {mono_vars(g): p for g, p in result.powers.items()}
    assert powers == {
        (1, 2): 1,
        (1, 3): 2,
        (2, 3): 2,
        (1, 4): 2,
        (2, 4): 2,
        (3, 4): 2,
    }


def test_layered_check_verifies_below_the_monolithic_cap():
    # At cap 2 the cube of x1*x4 is out of reach of the monolithic check;
    # the layered squares are a proof all the same.
    cert = sv_sums(veronese_cert(4, 2))
    assert not groebner_radical_check(cert, cap=2).verified
    assert verify_radical_cert(cert, cap=2).method == "layered"


def test_layered_check_falls_back_on_a_misordered_certificate():
    # Layer 1 before layer 0: x1*x3 + x2*x3 alone has no power of x1*x3, so
    # the layered pass stops and the monolithic check decides.
    cert = sv_sums(veronese_cert(4, 2))
    polys = (cert.polys[1], cert.polys[0]) + cert.polys[2:]
    swapped = RadicalCertificate(polys, cert.target, "manual")
    result = verify_radical_cert(swapped, cap=6)
    assert (result.verified, result.method) == (True, "groebner")
    assert result == groebner_radical_check(swapped, cap=6)


def test_verify_radical_cert_rejects_cap_below_one():
    # Past MAX_CAP too, with the CLI's --cap message.
    cert = sv_sums(veronese_cert(3, 2))
    for cap in (0, -3, 1001):
        with pytest.raises(ValueError, match=rf"^oracle cap must be in 1\.\.1000, got {cap}$"):
            verify_radical_cert(cert, cap=cap)
    assert verify_radical_cert(cert, cap=1000).verified


def test_verify_radical_cert_inconclusive_single_sum():
    target = ideal_of(2, (1,), (2,))
    cert = RadicalCertificate((P("x1+x2", 2),), target, "manual")
    result = verify_radical_cert(cert, cap=6)
    assert not result.verified
    assert set(result.failures) == {mono((1,)), mono((2,))}


def _counting(monkeypatch, name):
    """Replace ``oracle.<name>`` with a wrapper; return its call list."""
    calls = []
    wrapped = getattr(oracle, name)

    def counting(*args):
        calls.append(1)
        return wrapped(*args)

    monkeypatch.setattr(oracle, name, counting)
    return calls


def _layout(n):
    return oracle._Layout(n, oracle._MIN_WIDTH)


def _unreduced(polys, layout, max_pairs):
    # The input itself as the basis: it generates the ideal but, for the
    # certificates below, is not a Groebner basis.
    return oracle._prepare(polys, layout)


def test_verified_verdict_runs_no_all_pairs_check(monkeypatch):
    # A zero remainder proves membership against any basis inside the
    # ideal, so a verified result costs the basis plus one division per
    # power tried, and nothing more.
    cert = sv_sums(veronese_cert(4, 2))
    checks = _counting(monkeypatch, "_assert_groebner")
    divisions = _counting(monkeypatch, "_normal_form")
    oracle._groebner(list(cert.polys), _layout(cert.target.n), 20000)
    basis_divisions = len(divisions)
    divisions.clear()
    result = groebner_radical_check(cert, cap=6)
    assert result.verified
    assert checks == []
    assert len(divisions) == basis_divisions + sum(result.powers.values())


def _squared_first(cert):
    """The certificate with the square of its first term put in front.

    That term is not square-free, so no step has a witness: every step of
    the layered pass builds a basis, and the powers stay those of the
    certificate itself.
    """
    (e,) = cert.polys[0].terms
    square = Poly(cert.target.n, {tuple(2 * x for x in e): 1})
    return RadicalCertificate((square,) + cert.polys, cert.target, "manual")


def test_layered_verdict_runs_no_all_pairs_check(monkeypatch):
    # Each step's basis is only ever divided by, never checked; V(6,3) has
    # four layers and twenty generators, and the square in front makes each
    # of its five steps build a basis.
    cert = _squared_first(sv_sums(veronese_cert(6, 3)))
    checks = _counting(monkeypatch, "_assert_groebner")
    steps = _counting(monkeypatch, "_groebner")
    result = verify_radical_cert(cert)
    assert (result.verified, result.method) == (True, "layered")
    assert len(steps) == len(cert.polys)
    assert checks == []


def test_witnessed_layers_build_no_basis(monkeypatch):
    # Every layer sum of a Schmitt-Vogel layering is settled by
    # multiplication witnesses, so the pair budget does not bind it.
    steps = _counting(monkeypatch, "_groebner")
    for cert in (
        sv_sums(veronese_cert(6, 3)),
        product_cert([variable_cert(b, 8) for b in ((1, 2, 3), (4, 5, 6), (7, 8))]),
    ):
        result = verify_radical_cert(cert, max_pairs=0)
        assert (result.verified, result.method) == (True, "layered")
        assert set(result.powers.values()) <= {1, 2}
    assert steps == []


def test_a_square_in_the_proven_terms_keeps_the_powers_exact():
    # x1 lies in the support of x1^2 but not in (x1^2): reading M by
    # supports would give x1 and x2 the power 1, while (x1^2, x1 + x2)
    # holds x1^2 and x2^2 and neither x1 nor x2.
    target = ideal_of(2, (1,), (2,))
    cert = RadicalCertificate((P("x1^2", 2), P("x1+x2", 2)), target, "manual")
    result = verify_radical_cert(cert)
    assert (result.verified, result.method) == (True, "layered")
    assert result.powers == {mono((1,)): 2, mono((2,)): 2}


def test_witness_powers_are_exact_on_small_sums():
    # N = 1 where a lies in M or every other term does, N = 2 where M
    # divides each a*b; a layer that holds neither goes to a basis.
    target = ideal_of(3, (1, 2), (1, 3), (2, 3))
    cases = [
        (("x1*x2", "x1*x3+x2*x3", "x1*x2+x2*x3"), {(1, 2): 1, (1, 3): 2, (2, 3): 2}),
        (("x1*x2", "x1*x2+x1*x3", "x2*x3"), {(1, 2): 1, (1, 3): 1, (2, 3): 1}),
        (("x1*x2", "2*x1*x3+-1*x2*x3"), {(1, 2): 1, (1, 3): 2, (2, 3): 2}),
    ]
    for sums, powers in cases:
        cert = RadicalCertificate(tuple(P(t, 3) for t in sums), target, "manual")
        for cap in (1, 2, 8):
            result = verify_radical_cert(cert, cap=cap)
            with without_witnesses():
                expected = verify_radical_cert(cert, cap=cap)
            assert result == expected, (sums, cap)
        assert {mono_vars(g): p for g, p in result.powers.items()} == powers


@pytest.mark.slow
def test_witnesses_verify_v13_6():
    # 1,716 generators in eight layers: a basis of each layer ran out of
    # pairs from V(11,5) on.
    result = verify_radical_cert(sv_sums(veronese_cert(13, 6)))
    assert (result.verified, result.method) == (True, "layered")
    assert max(result.powers.values()) <= 2


def test_failed_verdict_runs_the_all_pairs_check_once(monkeypatch):
    target = ideal_of(2, (1,), (2,))
    cert = RadicalCertificate((P("x1+x2", 2),), target, "manual")
    checks = _counting(monkeypatch, "_assert_groebner")
    result = verify_radical_cert(cert, cap=6)
    assert (result.verified, result.method) == (False, "groebner")
    assert len(checks) == 1


def test_layered_pass_over_budget_falls_back(monkeypatch):
    # A step that runs out of pairs hands the certificate on (here the first
    # step, which has no witness, is made to); so does a target generator
    # that is no term.
    cert = _squared_first(sv_sums(veronese_cert(4, 2)))
    assert verify_radical_cert(cert, cap=6).method == "layered"
    expected = groebner_radical_check(cert, cap=6)
    groebner = oracle._groebner
    calls = []

    def first_over_budget(*args):
        calls.append(1)
        if len(calls) == 1:
            raise BudgetExceededError("pair budget exceeded")
        return groebner(*args)

    monkeypatch.setattr(oracle, "_groebner", first_over_budget)
    assert verify_radical_cert(cert, cap=6) == expected
    assert len(calls) == 2
    squares = RadicalCertificate((P("x1^2", 1),), ideal_of(1, (1,)), "manual")
    assert verify_radical_cert(squares).method == "groebner"


def test_failed_verdict_on_a_non_groebner_basis_raises(monkeypatch):
    # The leading terms of x1 + x2 and x1 are both x1, so x2 has a nonzero
    # remainder against them although it lies in the ideal they generate.
    target = ideal_of(2, (1,), (2,))
    cert = RadicalCertificate((P("x1+x2", 2), P("x1", 2)), target, "manual")
    assert verify_radical_cert(cert).verified
    monkeypatch.setattr(oracle, "_groebner", _unreduced)
    with pytest.raises(InvariantViolation, match="did not reduce to zero"):
        verify_radical_cert(cert)


def test_verified_verdict_does_not_need_a_groebner_basis(monkeypatch):
    # The leading terms x1, x1*x2 and x2^2 miss x2, which lies in the ideal,
    # so these are not a Groebner basis; yet a power of each generator
    # divides to zero against them, which is proof enough.
    target = ideal_of(2, (1,), (2,))
    polys = (P("x1+x2", 2), P("x1+x1*x2", 2), P("x2^2", 2))
    layout = _layout(2)
    with pytest.raises(InvariantViolation):
        oracle._assert_groebner(_unreduced(list(polys), layout, 0), layout)
    monkeypatch.setattr(oracle, "_groebner", _unreduced)
    assert verify_radical_cert(RadicalCertificate(polys, target, "manual")).verified


def test_buchberger_checks_its_output(monkeypatch):
    monkeypatch.setattr(oracle, "_groebner", _unreduced)
    gens = [P("x1+x2", 2), P("x1", 2)]
    with pytest.raises(InvariantViolation, match="did not reduce to zero"):
        buchberger(gens)
    layout = _layout(2)
    basis = oracle._groebner(gens, layout, 20000)
    assert {layout.poly(2, oracle._terms(b)) for b in basis} == set(gens)


def test_verify_radical_cert_rejects_a_negative_pair_budget():
    cert = sv_sums(veronese_cert(3, 2))
    with pytest.raises(ValueError, match="pair budget must be nonnegative"):
        verify_radical_cert(cert, max_pairs=-1)


def _widths(monkeypatch):
    """Record the field width of every layout the oracle builds."""
    widths = []
    layout = oracle._Layout

    def recording(n, width):
        widths.append(width)
        return layout(n, width)

    monkeypatch.setattr(oracle, "_Layout", recording)
    return widths


def test_wide_exponent_certificate_matches_reference(monkeypatch):
    # x1^40000 fits neither 8- nor 16-bit fields, so the oracle widens twice
    # at entry, then walks the powers of x1 up to the cap, 1000, and finds
    # none: a cap that reaches 40000 is refused.  x1^1000 widens once and
    # is proven at the cap itself.
    x1 = ideal_of(1, (1,))
    wide = RadicalCertificate((P("x1^40000", 1),), x1, "manual")
    with pytest.raises(ValueError, match="oracle cap must be in 1..1000, got 40000"):
        verify_radical_cert(wide, cap=40000)
    for cert, cap, width, powers in (
        (wide, 1000, [8, 16, 32], {}),
        (RadicalCertificate((P("x1^1000", 1),), x1, "manual"), 1000, [8, 16], {mono((1,)): 1000}),
    ):
        widths = _widths(monkeypatch)
        result = verify_radical_cert(cert, cap=cap)
        assert widths == width
        assert result.powers == powers
        assert result.verified is bool(powers)
        basis = reference_buchberger(cert.polys)
        assert result == reference_radical_check(cert, basis, cap=cap)


def test_overflow_in_a_new_term_restarts_wider(monkeypatch):
    # Each input fits 8-bit fields (exponents up to 127) but a term made from
    # it does not: the guard bit fires and the work restarts at 16 bits.
    widths = _widths(monkeypatch)
    # In division: x1^127*x2 -> x2^128, since x1^127 leads x1^127 - x2^127.
    f, g = P("x1^127*x2", 2), P("x1^127+-1*x2^127", 2)
    assert reduce(f, [g]) == P("x2^128", 2) == reference_reduce(f, [g])
    assert buchberger([f, g]) == reference_buchberger([f, g])
    # In an S-polynomial: that of x1^125*x2*x3^2 + x1^127 and x1^126*x3 is x1^128.
    gens = [P("x1^125*x2*x3^2+x1^127", 3), P("x1^126*x3", 3)]
    assert buchberger(gens) == reference_buchberger(gens)
    # In the power loop: no power of x1 reduces against x1*x2, so x1^128 comes.
    cert = RadicalCertificate((P("x1*x2", 2),), ideal_of(2, (1,)), "manual")
    result = verify_radical_cert(cert, cap=130)
    basis = reference_buchberger(cert.polys)
    assert result == reference_radical_check(cert, basis, cap=130)
    assert widths == [8, 16] * 4


def test_negative_exponents_are_rejected():
    # A packed field cannot hold a negative exponent, and division by a term
    # order is defined for polynomials only.
    with pytest.raises(ValueError, match="nonnegative"):
        reduce(Poly(2, {(1, -1): 1}), [P("x1", 2)])
    with pytest.raises(ValueError, match="nonnegative"):
        buchberger([P("x1", 2), Poly(2, {(-1, 0): 1})])


def test_certificate_rejects_terms_outside_target():
    target = ideal_of(2, (1,))
    with pytest.raises(ValueError):
        RadicalCertificate((P("x1+x2", 2),), target, "manual")


def test_oracle_cross_check_against_sympy():
    import sympy

    rng = random.Random(11)
    xs = sympy.symbols("x1:4")
    for _ in range(8):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = []
            for _ in range(rng.randint(1, 3)):
                e = [rng.randint(0, 2) for _ in range(3)]
                c = rng.randint(-2, 2) or 1
                terms.append((tuple(e), c))
            poly = Poly(3, {e: Fraction(c) for e, c in dict(terms).items()})
            if not poly.is_zero():
                gens.append(poly)
        if not gens:
            continue
        basis = buchberger(gens, max_pairs=50000)
        sym_gens = [
            sum(c * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2] for e, c in g.terms.items())
            for g in gens
        ]
        sym_basis = sympy.groebner(sym_gens, *xs, order="grevlex")
        for _ in range(6):
            e = tuple(rng.randint(0, 2) for _ in range(3))
            probe = Poly(3, {e: Fraction(1)})
            sym_probe = xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2]
            assert reduce(probe, basis).is_zero() == (sym_basis.reduce(sym_probe)[1] == 0)


poly_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-4, max_value=4),
    max_size=4,
)


@given(poly_terms)
@settings(max_examples=80)
def test_poly_string_roundtrip(terms):
    p = Poly(2, terms)
    assert parse_poly(poly_str(p), 2) == p


@given(poly_terms, poly_terms)
@settings(max_examples=60)
def test_poly_ring_axioms(t1, t2):
    a, b = Poly(2, t1), Poly(2, t2)
    assert a + b == b + a
    assert a * b == b * a
    assert (a - b) + b == a
