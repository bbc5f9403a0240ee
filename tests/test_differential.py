"""Fast kernels against their slow oracles in ``helpers``.

``check_matroidal`` decides through fundamental cocircuits and
``minimal_primes`` reads matroidal primes off those cocircuits.  Each must
agree exactly with the pairwise exchange scan and the transversal DFS: on
every ideal with n <= 6, on each of them with a generator dropped (mostly
not matroidal), and on random antichains.  ``find_ordering`` reads the
colon steps in canonical order as the external masks of the completion
map.  It must equal the recursive ordering search in lex order on every
ideal with n <= 6.  On random antichains, a canonical-order step that
fails ``colon_step_vars`` means ``check_matroidal`` rejects, and where it
accepts ``find_ordering`` must give those steps.  The cocircuit kernel is
also held to both oracles on Veronese ideals and relabeled block products
up to n = 12 and on the n = 7 orbit representatives (slow), each also
with its first generator dropped.

The Groebner oracle packs each monomial into one int, divides through a
term heap and picks pairs from a queue.  ``reduce``, ``buchberger`` and the
monolithic radical check must agree exactly with the exponent-tuple,
``max``-per-step division and ``min``-per-step pair choice they replaced: on
every certificate family with n <= 6 that the benchmark's oracle workload
checks, on random polynomials, and on exponents on both sides of the packed
field limits.  ``verify_radical_cert`` confirms those certificates layer by
layer with the same verdicts.  On shuffled and edited certificates with
n <= 5, each "verified" must survive the Rabinowitsch test of every
generator, and each "not verified" must come from the monolithic check.

``verify_sv`` settles pairs by single exchanges and tests the pairs left
over against bitmasks of the earlier layers, and ``minimal_generators``
compares a monomial only with kept generators of lower degree.  Each must
agree exactly with the scan it replaced: the layering check on every certificate
with n <= 6 and on corrupted copies of them, on random layerings of random
mixed-degree families (some with an earlier-layer exchange injected, so
one layer holds settled pairs and pairs left over) and on V(9,4) and
V(12,6) with a generator moved up or down a layer, and
``minimal_generators`` on random mixed-degree sets.

``ara_bounds`` climbs one construction ladder, ``construct_certificate``,
and must pick the method and size the ladder it replaced picked, on every
ideal with n <= 6.  ``theorem_battery`` climbs the same ladder from its own
q and must report the bounds ``ara_bounds`` reports on each of them.

``theorem_battery`` takes q from one read of the canonical-order colon
steps and everything else from the completion map and cocircuits its
``MatroidalIdeal`` carries.
Its results must equal ``reference_battery``'s, the composition of
``find_ordering``, the transversal DFS, the component search for blocks,
the unmixed bounds and the closed-form ladder, none of which reads that
record: on every ideal with n <= 6, and (slow) on the relabeled (7,3) and
(7,4) orbit representatives, V(9,4) and relabeled 4+4 and 4+4+4 products.
On each, the read's q must equal ``find_ordering``'s and the blocks read
off the cocircuits must equal the component search's, also on a
relabeled 4+4+4+4 product.  The ``MatroidalIdeal`` constructor must
accept exactly where the pairwise scan accepts and otherwise name the
same failure and witness; the minimal primes and block recognizer of the
bare ``Ideal`` must give the references' results on every input, and on
what the constructor accepts so must the unmixed bounds, construction
ladder and battery: every ideal with n <= 5, each with a generator
dropped or a d-subset added, the ideals with n <= 4 in a ring with one
more variable, and random antichains.
Each rung reads one exchange rule in a variable order.  With ``auto`` and
each forced method it must give the layers of the closed forms it
replaced, or refuse with the same message: on every ideal with n <= 6 and
on larger Veronese, block-product and degree-2 ideals, two of them
relabeled.

``enumerate_matroidal`` closes each exchange slot when its last subset is
decided, also by an exclusion, and checks nothing at the leaves.  It must
yield exactly the sequence of the DFS that checked slots only at inclusion
and again at every leaf, labeled and up to symmetry, on every cell with
n <= 6, and (slow) on (7,2) and (7,5) both ways and (8,2) and (8,6)
labeled.

The symmetry filter closes each orbit under the adjacent transpositions;
the closure must be the set of all n! relabelings of every ideal with
n <= 5, and (slow) the (7,3) and (7,4) orbit lists must be the labeled
lists filtered by the canonicity walk, in order.  The walk asks for a
smaller relabeling, and ``canonical_form`` descends along such
relabelings.  Both must agree with the scan over all n! relabelings: on
every ideal with n <= 5 and each of them with a generator dropped, on
every 10th ideal with n = 6, and on random mixed-degree antichains with
the zero and unit ideals.

``degree2_partition`` checks each variable's pairs with one test of its
adjacency mask.  It must give the parts, or the first failing pair, of
the ordered pair loops it replaced: on every degree-2 ideal with n <= 6,
each with one generator dropped and each with one pair added.

The holder columns and the canonical order are read from packed 64-bit
words.  The columns must equal the bit-at-a-time loop's on random lists
of up to 300 masks of up to 64 bits, bit 63 included, and the order must
equal the sort by variable tuple on random mixed-degree antichains over
up to 64 variables.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from matroidal import (
    Ideal,
    InvariantViolation,
    Poly,
    RadicalCertificate,
    SVPartition,
    ara_bounds,
    buchberger,
    canonical_form,
    colon_step_vars,
    construct_certificate,
    check_matroidal,
    degree2_cert,
    degree2_partition,
    enumerate_matroidal,
    find_ordering,
    has_full_support,
    minimal_generators,
    minimal_primes,
    mono,
    mono_vars,
    product_cert,
    recognize_var_block_product,
    recognize_veronese,
    reduce,
    relabel_ideal,
    search_cert,
    sv_sums,
    theorem_battery,
    unmixed_bounds_report,
    var_block_product,
    variable_cert,
    verify_radical_cert,
    verify_sv,
    veronese,
    veronese_cert,
)
from matroidal import matroids
from matroidal.decomposition import _cocircuit_blocks
from matroidal.enumeration import _adjacent_swaps, _orbit, _smaller_relabeling
from matroidal.ideals import _canonical
from matroidal.matroids import (
    MatroidalIdeal,
    NotMatroidalError,
    _completions,
    _external_masks,
    _fundamental_cocircuits,
    _holders,
)
from matroidal.oracle import BudgetExceededError
from matroidal.quotients import _lex_q
from matroidal.svrank import _unsettled_pairs

from helpers import (
    contiguous_blocks,
    groebner_radical_check,
    ideal_of,
    in_radical,
    layered_radical_check,
    moved_generator,
    multipartite_ideal,
    partition_shapes,
    reference_ara_bounds,
    reference_battery,
    reference_buchberger,
    reference_canonical_form,
    reference_check_matroidal,
    reference_construct_certificate,
    reference_degree2_partition,
    reference_enumerate_matroidal,
    reference_find_ordering,
    reference_holders,
    reference_minimal_generators,
    reference_minimal_primes,
    reference_radical_check,
    reference_reduce,
    reference_unmixed_bounds_report,
    reference_var_block_product,
    reference_verify_sv,
    without_witnesses,
)

CELLS = [(n, d) for n in range(1, 7) for d in range(1, n + 1)]


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


def _assert_agree_with_and_without_the_first_generator(ideal):
    _assert_check_and_primes_agree(ideal)
    _assert_check_and_primes_agree(Ideal(ideal.n, ideal.gens[1:]))


# Past n = 6 the transversal reference slows fast: the 4+4+4+4 product
# (256 generators and primes) takes over a minute, so it keeps to its
# closed-form test.
@pytest.mark.parametrize("n, d", [(8, 4), (9, 4), (9, 5), (10, 5)])
def test_kernels_match_oracles_on_larger_veronese_ideals(n, d):
    _assert_agree_with_and_without_the_first_generator(veronese(n, d).ideal)


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 3, 3, 3), (4, 4, 4)])
def test_kernels_match_oracles_on_relabeled_block_products(shape):
    n = sum(shape)
    perm = tuple(random.Random(n).sample(range(1, n + 1), n))
    product = var_block_product(contiguous_blocks(shape)).ideal
    _assert_agree_with_and_without_the_first_generator(relabel_ideal(product, perm))


@pytest.mark.slow
@pytest.mark.parametrize("n,d", [(7, 3), (7, 4)])
def test_kernels_match_oracles_on_n7_orbits(enum_cache, n, d):
    for mi in enum_cache(n, d, True):
        _assert_agree_with_and_without_the_first_generator(mi.ideal)


def test_orderings_match_the_recursive_search(enum_cache):
    for n, d in CELLS:
        for mi in enum_cache(n, d):
            assert find_ordering(mi) == reference_find_ordering(mi)


@st.composite
def antichains(draw, equal_degree: bool, max_gens: int = 12, max_n: int = 7):
    n = draw(st.integers(1, max_n))
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


# Mixed-degree input where lex order fails a step (the recursive search,
# asked for lex order, backtracks before it succeeds; on the last one it
# pops twelve times).  Random equal-degree input did not fail once in a
# sample of 20,000.
BACKTRACKING = [
    ideal_of(3, (1, 3), (2,)),
    ideal_of(6, (1, 3, 4, 6), (1, 3, 5, 6), (2,)),
    ideal_of(6, (1, 2, 3, 5), (1, 5, 6), (3, 5, 6), (4,)),
]


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(lambda eq: antichains(eq)))
@example(BACKTRACKING[0])
@example(BACKTRACKING[1])
@example(BACKTRACKING[2])
def test_find_ordering_is_one_colon_pass_on_unchecked_input(ideal):
    # find_ordering presumes a validated matroid, so the check that the
    # canonical order has linear quotients lives here: a step that fails
    # colon_step_vars means check_matroidal rejects, and where it accepts,
    # find_ordering returns those steps.
    gens = ideal.gens
    steps = [colon_step_vars(list(gens[:j]), gens[j]) for j in range(1, len(gens))]
    assert ideal not in BACKTRACKING or None in steps
    check = check_matroidal(ideal)
    if None in steps:
        assert not check
    elif check:
        ordering = find_ordering(check.matroidal)
        assert ordering.order == gens
        assert ordering.colon_steps == tuple(steps)
        assert ordering.q == max(map(len, steps), default=0)


def _oracle_certificates(enum_cache):
    """The n <= 6 certificate families of the benchmark's oracle workload."""
    for mi in enum_cache(5, 3):
        if recognize_veronese(mi.ideal) or recognize_var_block_product(mi.ideal):
            continue
        yield sv_sums(search_cert(mi, 3, budget=20000).partition)
    for mi in enum_cache(6, 2, True):
        yield sv_sums(degree2_cert(mi))
    yield sv_sums(veronese_cert(6, 3))
    for shape in ((2, 2, 2), (3, 3)):
        n = sum(shape)
        yield product_cert([variable_cert(b, n) for b in contiguous_blocks(shape)])


def test_oracle_matches_reference_on_certificates(enum_cache):
    checked = 0
    for cert in _oracle_certificates(enum_cache):
        basis = reference_buchberger(cert.polys)
        assert buchberger(cert.polys) == basis, cert.target
        expected = reference_radical_check(cert, basis)
        assert groebner_radical_check(cert) == expected
        result = verify_radical_cert(cert)
        assert (result.verified, result.failures) == (expected.verified, expected.failures)
        assert result.method == "layered"
        checked += 1
    assert checked == 80 + 10 + 1 + 2


@cache
def _small_certificates():
    """(target, polynomials) of every certificate family with n <= 5."""
    certs = [sv_sums(veronese_cert(n, d)) for n in range(2, 6) for d in range(1, n + 1)]
    for n in (4, 5):
        for mi in enumerate_matroidal(n, 2, up_to_symmetry=True):
            certs.append(sv_sums(degree2_cert(mi)))
    for total in range(2, 6):
        for shape in partition_shapes(total):
            if len(shape) > 1:
                blocks = contiguous_blocks(shape)
                certs.append(product_cert([variable_cert(b, total) for b in blocks]))
    for mi in enumerate_matroidal(5, 3, up_to_symmetry=True):
        if not (recognize_veronese(mi.ideal) or recognize_var_block_product(mi.ideal)):
            certs.append(sv_sums(search_cert(mi, 3, budget=20000).partition))
    return tuple((cert.target, cert.polys) for cert in certs)


@st.composite
def tampered_certificates(draw):
    """A small certificate with its polynomials shuffled and up to two edits.

    An edit takes one term out of a polynomial and drops it, moves it to
    another polynomial (adding to a term there) or puts it back with its
    sign flipped.  The result may or may not still generate the target up
    to radical.
    """
    target, polys = draw(st.sampled_from(_small_certificates()))
    n = target.n
    terms = draw(st.permutations([dict(p.terms) for p in polys]))
    for _ in range(draw(st.integers(0, 2))):
        source = draw(st.sampled_from(terms))
        e = draw(st.sampled_from(sorted(source)))
        c = source.pop(e)
        edit = draw(st.sampled_from(("drop", "move", "flip")))
        if edit == "move":
            other = draw(st.sampled_from(terms))
            other[e] = other.get(e, 0) + c
        elif edit == "flip":
            source[e] = -c
        terms = [t for t in terms if t]
        assume(terms)
    cert_polys = tuple(p for p in (Poly(n, t) for t in terms) if p)
    assume(cert_polys)
    return RadicalCertificate(cert_polys, target, "manual")


@settings(max_examples=40, deadline=None)
@given(tampered_certificates())
def test_radical_verdicts_hold_on_tampered_certificates(cert):
    # "verified" must be true of the radical, by an independent test that
    # bounds no power; "not verified" comes only from the monolithic check.
    result = verify_radical_cert(cert)
    if result.verified:
        n = cert.target.n
        assert all(in_radical(cert.polys, g, n) for g in cert.target.gens)
    else:
        assert result.method == "groebner"


# run_grid.py's default cells.
GRID_CELLS = [(2, 1), (3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3)]


def _witness_certificates(enum_cache):
    """Certificates to hold the witness step to the basis path on.

    The library's ``construct_certificate`` result on every labeled grid
    ideal that the reference ladder covers (picked without the library's
    ladder, so a new rung leaves the set alone), the oracle workload's
    families (its 80 (5,3) search certificates among them), the 21 (6,3)
    search certificates of acceptance criterion 8 and every contiguous
    block product up to n = 8.
    """
    certs = []
    for n, d in GRID_CELLS:
        for mi in enum_cache(n, d):
            if reference_construct_certificate(mi) is not None:
                certs.append(sv_sums(construct_certificate(mi)[1]))
    certs += _oracle_certificates(enum_cache)
    for mi in enum_cache(6, 3, True):
        if reference_construct_certificate(mi) is None:
            certs.append(sv_sums(search_cert(mi, 4, budget=20000).partition))
    for total in range(2, 9):
        for shape in partition_shapes(total):
            if len(shape) > 1:
                blocks = contiguous_blocks(shape)
                certs.append(product_cert([variable_cert(b, total) for b in blocks]))
    return certs


def _radical_outcome(cert, cap):
    try:
        return verify_radical_cert(cert, cap=cap)
    except BudgetExceededError as exc:
        return exc.args


def test_witnesses_match_the_basis_path_on_every_certificate(enum_cache):
    # Where a layer needs squares, cap 1 sends both paths on to one basis of
    # all the sums, the same code either way and slow past n = 5; there the
    # layered pass is compared, and the whole check under slow.
    certs = _witness_certificates(enum_cache)
    assert len(certs) == 396 + 93 + 21 + 58
    for cert in certs:
        caps = (1, 2, 8) if cert.target.n <= 5 else (2, 8)
        got = [_radical_outcome(cert, cap) for cap in caps]
        got.append(layered_radical_check(cert, cap=1))
        with without_witnesses():
            expected = [_radical_outcome(cert, cap) for cap in caps]
            expected.append(layered_radical_check(cert, cap=1))
        assert got == expected, cert.target


@pytest.mark.slow
def test_witnesses_match_the_basis_path_at_cap_1(enum_cache):
    for cert in _witness_certificates(enum_cache):
        if cert.target.n > 5:
            got = _radical_outcome(cert, 1)
            with without_witnesses():
                assert got == _radical_outcome(cert, 1), cert.target


@st.composite
def mutated_sums(draw):
    """A small certificate in its own order with one to three edits.

    An edit drops a term, moves a term to another sum (adding to a term
    there), swaps two sums, scales a term by -1, 2 or -1/2, or multiplies
    a term by a variable, which leaves its sum inhomogeneous or its term a
    square.  Edits leave every term inside the target, so the result is a
    certificate; it may or may not still generate the target up to
    radical.
    """
    target, polys = draw(st.sampled_from(_small_certificates()))
    terms = [dict(p.terms) for p in polys]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(terms) - 1))
        edit = draw(st.sampled_from(("drop", "move", "swap", "scale", "lift")))
        if edit == "swap":
            j = draw(st.integers(0, len(terms) - 1))
            terms[i], terms[j] = terms[j], terms[i]
            continue
        e = draw(st.sampled_from(sorted(terms[i])))
        if edit == "scale":
            terms[i][e] *= draw(st.sampled_from((-1, 2, Fraction(-1, 2))))
            continue
        c = terms[i].pop(e)
        if edit != "drop":
            if edit == "lift":
                v = draw(st.integers(0, target.n - 1))
                e, other = tuple(x + (k == v) for k, x in enumerate(e)), terms[i]
            else:
                other = terms[draw(st.integers(0, len(terms) - 1))]
            other[e] = other.get(e, 0) + c
            if not other[e]:
                del other[e]
        terms = [t for t in terms if t]
        assume(terms)
    return RadicalCertificate(tuple(Poly(target.n, t) for t in terms), target, "manual")


@settings(max_examples=60, deadline=None)
@given(mutated_sums(), st.sampled_from((1, 2, 8)))
def test_witnesses_match_the_basis_path_on_mutated_sums(cert, cap):
    got = _radical_outcome(cert, cap)
    with without_witnesses():
        assert got == _radical_outcome(cert, cap)


@st.composite
def polys(draw, n: int, max_terms: int = 3):
    """A nonzero polynomial in n variables with small exponents and coefficients."""
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * n),
            st.integers(-3, 3).filter(bool).map(Fraction),
            min_size=1,
            max_size=max_terms,
        )
    )
    return Poly(n, terms)


@st.composite
def poly_sets(draw, max_size: int):
    n = draw(st.integers(1, 4))
    return draw(st.lists(polys(n), min_size=1, max_size=max_size))


@settings(max_examples=150, deadline=None)
@given(poly_sets(max_size=3))
def test_buchberger_matches_reference_on_random_input(gens):
    try:
        basis = buchberger(gens, max_pairs=300)
    except BudgetExceededError:
        return  # the odd input with a large basis; the budget is not compared
    assert basis == reference_buchberger(gens)
    assert all(type(c) is Fraction for b in basis for c in b.terms.values())


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(polys(n, max_terms=5), st.lists(polys(n), max_size=4))
    )
)
def test_reduce_matches_reference_against_any_basis(f_basis):
    # Random bases are almost never Groebner bases, so the remainder depends
    # on which divisor each step takes: the first one in the given order.
    f, basis = f_basis
    nf = reduce(f, basis)
    assert nf == reference_reduce(f, basis)
    assert all(type(c) is Fraction for c in nf.terms.values())


@st.composite
def wide_inputs(draw):
    """A polynomial and up to three binomials with exponents near field limits.

    Each variable's exponents lie in one window of three: at 0, just below
    or across 127 and 32767 (the limits of 8- and 16-bit fields), or across
    2^16.  So inputs are packed on both sides of a limit, and the terms made
    from them may pass it and force a restart at double width.  Every term
    shares the factor x^lo of the window starts, and binomials keep every
    remainder in Buchberger short.
    """
    n = draw(st.integers(1, 8))
    windows = st.sampled_from((0, 125, 127, 32765, 32767, 65535))
    starts = draw(st.lists(windows, min_size=n, max_size=n))
    exponents = st.tuples(*[st.integers(lo, lo + 2) for lo in starts])
    coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3)).map(Fraction)

    def poly(max_terms):
        return st.dictionaries(exponents, coeffs, min_size=1, max_size=max_terms).map(
            lambda terms: Poly(n, terms)
        )

    return draw(poly(4)), draw(st.lists(poly(2), min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(wide_inputs())
# Inputs that fit 8-bit fields, with a remainder that does not: x2^128.
@example((Poly(2, {(127, 1): 1}), [Poly(2, {(127, 0): 1, (0, 127): -1})]))
def test_wide_exponents_match_reference(f_gens):
    f, gens = f_gens
    assert reduce(f, gens) == reference_reduce(f, gens)
    try:
        basis = buchberger(gens, max_pairs=300)
    except BudgetExceededError:
        return  # as in the small-exponent differential
    assert basis == reference_buchberger(gens)
    assert reduce(f, basis) == reference_reduce(f, basis)


def test_ara_bounds_matches_the_written_out_ladder(enum_cache):
    # The dispatcher picks the method and size the ladder picked; a block
    # product's layer sums are the polynomials ``product_cert`` folded.
    ideals = products = 0
    for n, d in CELLS:
        for mi in enum_cache(n, d):
            ideals += 1
            new = ara_bounds(mi, search=False)
            old = reference_ara_bounds(mi, search=False)
            assert (new.lower, new.upper, new.exact, new.method) == (
                old.lower, old.upper, old.exact, old.method
            )
            if new.method == "product":
                products += 1
                assert sv_sums(new.certificate).polys == old.certificate.polys
            elif old.certificate is None:
                assert new.certificate is None
            else:
                assert new.certificate.layers == old.certificate.layers
    assert ideals == 2356
    assert products == 2356 - 2089


CONSTRUCTIONS = ("auto", "veronese", "product", "degree2", "search")


def _construction_outcome(construct, mi, method):
    try:
        built = construct(mi, method)
    except ValueError as exc:
        return str(exc)
    return built and (built[0], built[1].layers)


def _relabeled(sizes, perm):
    """Contiguous parts of ``sizes`` with variable v renamed perm[v - 1]."""
    return [{perm[v - 1] for v in part} for part in contiguous_blocks(sizes)]


def _larger_construction_inputs():
    for n, d in ((9, 4), (10, 5), (12, 6), (13, 6)):
        yield veronese(n, d)
    for sizes in ((5, 5, 5), (3, 3, 3, 3), (4, 4, 4, 4)):
        yield var_block_product(contiguous_blocks(sizes))
    yield var_block_product(_relabeled((3, 2, 3), (5, 2, 8, 1, 7, 3, 6, 4)))
    for sizes in ((3, 2, 4), (3, 2, 2, 4), (1,) * 10):
        yield multipartite_ideal(contiguous_blocks(sizes))
    yield multipartite_ideal(_relabeled((3, 2, 4), (4, 9, 1, 7, 2, 8, 3, 6, 5)))


def test_constructions_match_the_closed_forms(enum_cache):
    # Every rung reads one exchange rule in a variable order; it must give
    # the layers of the Veronese, block-position and anti-diagonal closed
    # forms, or refuse with the same message, for auto and each method.
    inputs = [mi for n, d in CELLS for mi in enum_cache(n, d)]
    inputs += _larger_construction_inputs()
    built = 0
    for mi in inputs:
        for method in CONSTRUCTIONS:
            new = _construction_outcome(construct_certificate, mi, method)
            old = _construction_outcome(reference_construct_certificate, mi, method)
            assert new == old, (mi.ideal.gens, method)
            built += not isinstance(new, str) and new is not None
    assert len(inputs) == 2356 + 12
    assert built == 1095


def test_battery_bounds_match_ara_bounds(enum_cache):
    for n, d in CELLS:
        for mi in enum_cache(n, d):
            battery = theorem_battery(mi)
            bounds = ara_bounds(mi, search=False)
            assert (
                battery.ara_lower,
                battery.ara_upper,
                battery.ara_exact,
                battery.certificate,
            ) == (bounds.lower, bounds.upper, bounds.exact, bounds.certificate)


def _assert_battery_kernels_agree(mi):
    # The q pass and the cocircuit block reading against their oracles,
    # then the whole battery against its old composition.  The instance's
    # cocircuits, built lazily at an enumeration leaf, are the checker's.
    ideal = mi.ideal
    masks = _external_masks(mi, range(1, ideal.n + 1))
    assert masks[0] == 0
    assert _lex_q(mi) == find_ordering(mi).q == max(m.bit_count() for m in masks)
    assert mi._cocircuits == _fundamental_cocircuits(ideal.gens, _completions(ideal.gens))
    blocks = _cocircuit_blocks(mi)
    expected = reference_var_block_product(ideal)
    assert (blocks and tuple(frozenset(mono_vars(b)) for b in blocks)) == expected
    assert recognize_var_block_product(ideal) == expected
    assert theorem_battery(mi) == reference_battery(mi)
    return blocks is not None


def test_battery_matches_its_old_composition_on_every_small_ideal(enum_cache):
    ideals = products = 0
    for n, d in CELLS:
        for mi in enum_cache(n, d):
            ideals += 1
            products += _assert_battery_kernels_agree(mi)
    assert ideals == 2356
    # The 267 product rungs of the ladder and the 11 V(n, 1) and V(n, n).
    assert products == 267 + 11


def test_cocircuit_blocks_match_the_recognizer_on_a_relabeled_product():
    perm = tuple(random.Random(16).sample(range(1, 17), 16))
    mi = var_block_product(_relabeled((4, 4, 4, 4), perm))
    blocks = _cocircuit_blocks(mi)
    expected = reference_var_block_product(mi.ideal)
    assert tuple(frozenset(mono_vars(b)) for b in blocks) == expected
    assert recognize_var_block_product(mi.ideal) == expected
    assert sorted(map(sorted, expected)) == sorted(map(sorted, _relabeled((4, 4, 4, 4), perm)))


def _outcome(read, *args):
    try:
        return read(*args)
    except (InvariantViolation, ValueError) as exc:
        return type(exc), str(exc)


def _structure_inputs(enum_cache):
    """Ideals for the constructor differential, matroidal or not.

    Every labeled ideal with n <= 5, each with one generator dropped and
    each with one d-subset added, those with n <= 4 also in a ring with one
    more variable, and random antichains with n <= 6.
    """
    for n in range(1, 6):
        for d in range(1, n + 1):
            subsets = {mono(c) for c in combinations(range(1, n + 1), d)}
            for mi in enum_cache(n, d):
                gens = set(mi.ideal.gens)
                added = [gens | {s} for s in subsets - gens]
                for family in [gens] + [gens - {g} for g in gens] + added:
                    if family:
                        yield minimal_generators(family, n)
                if n <= 4:
                    yield minimal_generators(gens, n + 1)
    rng = random.Random(19)
    for _ in range(400):
        n = rng.randint(3, 6)
        pool = rng.sample(range(1, 1 << n), rng.randint(2, 7))
        yield minimal_generators(pool, n)


def test_structure_readers_match_the_references_on_unvalidated_input(enum_cache):
    # The constructor accepts exactly where the pairwise scan does, and
    # otherwise raises with its failure and witness.  The primes and block
    # recognizer of the bare Ideal keep their generic path on any input;
    # the readers of an accepted instance must match their references.
    kinds = set()
    for ideal in _structure_inputs(enum_cache):
        reference = reference_check_matroidal(ideal)
        kinds.add((reference.failure, has_full_support(ideal)))
        for read, oracle in [
            (minimal_primes, reference_minimal_primes),
            (recognize_var_block_product, reference_var_block_product),
        ]:
            assert _outcome(read, ideal) == _outcome(oracle, ideal), (read, ideal)
        if not reference:
            with pytest.raises(NotMatroidalError) as caught:
                MatroidalIdeal(ideal, min(g.bit_count() for g in ideal.gens))
            assert caught.value.check == reference, ideal
            continue
        mi = MatroidalIdeal(ideal, reference.matroidal.d)
        assert mi == reference.matroidal
        for read, oracle in [
            (unmixed_bounds_report, reference_unmixed_bounds_report),
            (theorem_battery, reference_battery),
        ]:
            assert _outcome(read, mi) == _outcome(oracle, mi), (read, ideal)
        for method in CONSTRUCTIONS:
            new = _outcome(construct_certificate, mi, method)
            old = _outcome(reference_construct_certificate, mi, method)
            assert new == old, (ideal.gens, method)
        if len(ideal.gens) > 1:
            # Out of canonical order, the same generators are refused.
            swapped = Ideal(ideal.n, (ideal.gens[1], ideal.gens[0]) + ideal.gens[2:])
            with pytest.raises(ValueError, match="^generators out of canonical order"):
                MatroidalIdeal(swapped, mi.d)
    failures = (None, "exchange", "mixed_degrees")
    assert kinds == {(f, s) for f in failures for s in (False, True)}


def _battery_slow_inputs(enum_cache):
    rng = random.Random(7)
    for n, d in ((7, 3), (7, 4)):
        for mi in enum_cache(n, d, True):
            perm = tuple(rng.sample(range(1, n + 1), n))
            yield MatroidalIdeal(relabel_ideal(mi.ideal, perm), d)
    yield veronese(9, 4)
    for sizes in ((4, 4), (4, 4, 4)):
        perm = tuple(rng.sample(range(1, sum(sizes) + 1), sum(sizes)))
        yield var_block_product(_relabeled(sizes, perm))


@pytest.mark.slow
def test_battery_matches_its_old_composition_on_larger_ideals(enum_cache):
    products = [_assert_battery_kernels_agree(mi) for mi in _battery_slow_inputs(enum_cache)]
    assert len(products) == 70 + 85 + 3
    assert products[-2:] == [True, True]


def test_enumeration_matches_the_inclusion_only_dfs(enum_cache):
    for n, d in CELLS:
        for sym in (False, True):
            expected = list(reference_enumerate_matroidal(n, d, sym))
            assert enum_cache(n, d, sym) == expected, (n, d, sym)


@pytest.mark.slow
@pytest.mark.parametrize(
    "n,d,sym,count",
    [
        (7, 2, False, 876),
        (7, 2, True, 14),
        (7, 5, False, 3592),
        (7, 5, True, 31),
        (8, 2, False, 4139),
        (8, 6, False, 19903),
    ],
)
def test_enumeration_matches_the_inclusion_only_dfs_past_n6(enum_cache, n, d, sym, count):
    expected = list(reference_enumerate_matroidal(n, d, sym))
    assert len(expected) == count
    assert enum_cache(n, d, sym) == expected


@pytest.mark.slow
@pytest.mark.parametrize("n,d", [(7, 3), (7, 4)])
def test_n7_orbits_are_the_labeled_lists_filtered_by_the_walk(enum_cache, n, d):
    expected = [mi for mi in enum_cache(n, d) if _smaller_relabeling(mi.ideal) is None]
    assert enum_cache(n, d, True) == expected


def test_adjacent_transpositions_close_every_orbit(enum_cache):
    for n, d in CELLS:
        if n > 5:
            continue
        swaps = _adjacent_swaps(n)
        perms = list(permutations(range(1, n + 1)))
        for mi in enum_cache(n, d):
            relabelings = {tuple(sorted(relabel_ideal(mi.ideal, p).gens)) for p in perms}
            assert _orbit(tuple(sorted(mi.ideal.gens)), swaps) == relabelings, mi


def _partition_outcome(partition, mi):
    try:
        return partition(mi)
    except (InvariantViolation, ValueError) as exc:
        return type(exc), str(exc)


def test_degree2_partition_matches_the_pair_loops(enum_cache):
    outcomes = set()
    for n in range(2, 7):
        for mi in enum_cache(n, 2):
            gens = set(mi.ideal.gens)
            pairs = {mono(p) for p in combinations(range(1, n + 1), 2)}
            tampered = [gens - {g} for g in gens] + [gens | {p} for p in pairs - gens]
            for family in [gens] + tampered:
                # Mostly not matroidal, so past the constructor's check.
                copy = matroids._unchecked(minimal_generators(family, n), 2)
                got = _partition_outcome(degree2_partition, copy)
                assert got == _partition_outcome(reference_degree2_partition, copy), family
                outcomes.add(got[1].split(" x")[0] if isinstance(got, tuple) else "parts")
    # Both failing pairs are reached, so the message comparison is not
    # vacuous.  (With full support x1 has a neighbour, so there are always
    # at least two parts.)
    assert outcomes == {"parts", "cross pair", "intra-part pair", "support must be all of"}


def _layered_certificates(enum_cache):
    """The certificate of every ideal with n <= 6 that is a layered partition."""
    for n, d in CELLS:
        for mi in enum_cache(n, d):
            cert = ara_bounds(mi, search_budget=20000).certificate
            if isinstance(cert, SVPartition):
                yield cert


def _corruptions(partition, rng):
    """Copies of a partition with one generator or layer moved, merged or lost."""
    layers = [set(layer) for layer in partition.layers]
    yield "identity", layers
    if len(layers) < 2:
        return
    i, j = rng.sample(range(len(layers)), 2)
    g = rng.choice(sorted(layers[i]))
    moved = [set(layer) for layer in layers]
    moved[i].discard(g)
    moved[j].add(g)
    yield "moved", moved
    swapped = list(layers)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    yield "swapped", swapped
    k = min(i, j)
    merged = layers[:k] + [layers[k] | layers[k + 1]] + layers[k + 2 :]
    yield "merged", merged
    dropped = [set(layer) for layer in layers]
    dropped[i].discard(g)
    yield "dropped", [layer for layer in dropped if layer]
    duplicated = [set(layer) for layer in layers]
    duplicated[j].add(g)
    yield "duplicated", duplicated


def test_verify_sv_matches_reference_on_certificates_and_corruptions(enum_cache):
    rng = random.Random(5)
    certificates = 0
    outcomes = set()
    for partition in _layered_certificates(enum_cache):
        certificates += 1
        for kind, layers in _corruptions(partition, rng):
            copy = SVPartition(
                partition.ideal, tuple(frozenset(layer) for layer in layers)
            )
            check = verify_sv(copy)
            assert check == reference_verify_sv(copy), (kind, copy)
            outcomes.add((kind, check.failure))
    # Every ideal: block products are layered too, not only the 2,089
    # certificates of the other methods.
    assert certificates == 2356
    # Every corruption kind is caught at least once, and the pair witness
    # (the first failing pair in order) is compared, not just the verdict.
    assert {kind for kind, failure in outcomes if failure} == {
        "moved", "swapped", "merged", "dropped", "duplicated"
    }
    assert {failure for _, failure in outcomes} >= {
        None, "pair", "overlap", "union_mismatch", "layer0_size"
    }


def _random_layering(rng):
    """A random layering of a random square-free family with n <= 8.

    Degrees may be mixed.  P_0 is a singleton and every other generator
    goes to a random later layer.  Some draws then take a pair a, b of one
    layer and put w = a - x + y, with x in a - b and y in b - a, into an
    earlier layer (adding w to the family when it keeps the family an
    antichain), so that w settles that pair by a single exchange while
    other pairs of the layer may stay open.
    """
    n = rng.randint(2, 8)
    family = {rng.randrange(1, 1 << n) for _ in range(rng.randint(2, 14))}
    gens = list(minimal_generators(family, n).gens)
    rng.shuffle(gens)
    depth = rng.randint(1, 4)
    layers = [{gens[0]}] + [set() for _ in range(depth)]
    for g in gens[1:]:
        layers[rng.randint(1, depth)].add(g)
    crowded = [i for i in range(1, depth + 1) if len(layers[i]) > 1]
    if crowded and rng.random() < 0.7:
        i = rng.choice(crowded)
        a, b = rng.sample(sorted(layers[i]), 2)
        x = rng.choice(mono_vars(a & ~b))
        y = rng.choice(mono_vars(b & ~a))
        w = a ^ (1 << (x - 1)) | (1 << (y - 1))
        if w not in gens and len(minimal_generators(gens + [w], n).gens) > len(gens):
            gens.append(w)
        if w in gens and w not in layers[0]:
            for layer in layers:
                layer.discard(w)
            j = rng.randrange(i)
            if j:
                layers[j].add(w)
            else:
                layers[1] |= layers[0]
                layers[0] = {w}
    return SVPartition(
        minimal_generators(gens, n),
        tuple(frozenset(layer) for layer in layers if layer),
    )


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_verify_sv_matches_reference_on_random_layerings(rng):
    partition = _random_layering(rng)
    assert verify_sv(partition) == reference_verify_sv(partition)


def test_random_layerings_hold_settled_and_leftover_pairs_in_one_layer():
    # The Hypothesis test above is not vacuous for the fast path: its
    # layerings reach layers where the single-exchange pass settles some
    # pairs and leaves others to the scan, and both verdicts occur.
    rng = random.Random(7)
    mixed = 0
    verdicts = set()
    for _ in range(300):
        partition = _random_layering(rng)
        check = verify_sv(partition)
        assert check == reference_verify_sv(partition)
        verdicts.add(check.failure)
        numbered = [g for layer in partition.layers for g in layer]
        columns = _holders(numbered)
        earlier = _completions(partition.layers[0])
        start = len(partition.layers[0])
        for layer in partition.layers[1:]:
            pairs = len(layer) * (len(layer) - 1) // 2
            members = numbered[start : start + len(layer)]
            if 0 < len(_unsettled_pairs(members, earlier, columns, start)) < pairs:
                mixed += 1
            _completions(layer, earlier)
            start += len(layer)
    assert mixed >= 20
    assert {None, "pair"} <= verdicts


def _tampered_veronese():
    """V(9,4) and V(12,6) layerings with one generator moved a layer.

    Every layer's first generator in canonical order goes one layer up and
    one layer down; on V(9,4) its last one too, and on V(12,6) the first
    generator of every later layer goes into layer 1.
    """
    for n, d in ((9, 4), (12, 6)):
        partition = veronese_cert(n, d)
        depth = len(partition.layers)
        moves = {
            (i, to, 0) for i in range(depth) for to in (i - 1, i + 1) if 0 <= to < depth
        }
        if n == 9:
            moves |= {(i, to, -1) for i, to, _ in moves}
        else:
            moves |= {(i, 1, 0) for i in range(2, depth)}
        for source, to, position in sorted(moves):
            yield moved_generator(partition, source, to, position)


def test_verify_sv_matches_reference_on_tampered_veronese_layerings():
    failures = []
    for partition in _tampered_veronese():
        check = verify_sv(partition)
        assert check == reference_verify_sv(partition)
        failures.append(check.failure)
    assert set(failures) == {"empty_layer", "layer0_size", "pair"}
    # The smallest generator of the last V(12,6) layer, moved into layer 1.
    partition = moved_generator(veronese_cert(12, 6), 6, 1)
    check = verify_sv(partition)
    assert check == reference_verify_sv(partition)
    assert check.failure == "pair" and check.witness[0] == 1


@st.composite
def monomial_sets(draw):
    n = draw(st.integers(1, 8))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=16))


@settings(max_examples=300, deadline=None)
@given(monomial_sets())
def test_minimal_generators_matches_reference_on_mixed_degrees(n_monomials):
    n, monomials = n_monomials
    assert minimal_generators(monomials, n) == reference_minimal_generators(
        monomials, n
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.integers(0, (1 << 64) - 1)
        | st.sets(st.integers(0, 63), max_size=8).map(lambda s: sum(1 << v for v in s)),
        max_size=300,
    )
)
@example([1 << 63])
@example([(1 << 64) - 1, 0, 1 << 63 | 1])
def test_holder_columns_match_the_bit_loop(gens):
    assert _holders(gens) == reference_holders(gens)


@st.composite
def wide_antichains(draw):
    """Shuffled antichains of mixed degree over up to 64 variables."""
    n = draw(st.integers(1, 64))
    supports = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=40))
    masks = {sum(1 << v for v in s) for s in supports}
    antichain = [m for m in masks if not any(g != m and g & m == g for g in masks)]
    return draw(st.permutations(antichain))


@settings(max_examples=200, deadline=None)
@given(wide_antichains())
@example([1 << 63, 1])
@example([])
def test_canonical_order_matches_the_variable_tuple_sort(antichain):
    assert _canonical(antichain) == sorted(antichain, key=mono_vars)


def _assert_canonicity_agrees(ideal):
    expected = reference_canonical_form(ideal)
    own = tuple(sorted(ideal.gens))
    relabeling = _smaller_relabeling(ideal)
    assert (relabeling is None) == (expected == own), ideal
    if relabeling is not None:
        assert tuple(sorted(relabel_ideal(ideal, relabeling).gens)) < own
    assert canonical_form(ideal) == expected, ideal
    return relabeling is None


def test_canonicity_walk_matches_the_relabeling_scan(enum_cache):
    verdicts = set()
    for n, d in CELLS:
        ideals = enum_cache(n, d)
        if n == 6:
            ideals = ideals[::10]
        for mi in ideals:
            ideal = mi.ideal
            verdicts.add(_assert_canonicity_agrees(ideal))
            if n <= 5 and len(ideal.gens) > 1:
                _assert_canonicity_agrees(Ideal(n, ideal.gens[1:]))
    # Both verdicts occur, so the comparison is not vacuous.
    assert verdicts == {True, False}


@settings(max_examples=300, deadline=None)
@given(antichains(False, max_n=6))
@example(Ideal(6, ()))  # the zero ideal
@example(Ideal(6, (0,)))  # the unit ideal
def test_canonicity_walk_matches_the_scan_on_mixed_degrees(ideal):
    _assert_canonicity_agrees(ideal)
