"""Independent verification oracle: exact polynomials and Groebner bases.

Sparse multivariate polynomials over the rationals (`fractions.Fraction`,
never floats), textbook Buchberger with the normal selection strategy and
the coprimality / chain criteria, and bounded radical membership used to
confirm that certificate polynomials generate an ideal up to radical.

The bookkeeping follows heap-based division over packed exponent vectors
(Monagan and Pearce, 2007) and a pair queue (Gebauer and Moeller, 1988).
The term order is degrevlex throughout.  Inside division and Buchberger a
monomial is one int (``_Layout``): a W-bit field per variable whose top bit
is a guard bit, and a total-degree field on top.  A product is one addition,
``a`` divides ``b`` iff ``(b - a) & GUARD`` is zero, and the rank, one int,
is the term order: working terms sit in a heap of ranks, open pairs in a
heap keyed by the rank of their lcm.  W starts at 8 and doubles until the
input fits; a guard bit firing on any new term restarts the computation from
its input at double width, so the field limit never changes a result.  The
arithmetic and the divisor rule (the first basis element whose leading
monomial divides the lead term) are the textbook ones, so normal forms and
reduced bases are exactly those of the plain algorithm.  Inside division,
integral coefficients travel as Python ints (exact, and much cheaper than
``Fraction``); every polynomial handed back is a ``Poly`` of exponent tuples
and ``Fraction``s.

This module is deliberately self-contained and shares no combinatorial
shortcuts with the rest of the package: membership answers come from
normal forms against a basis, or, for the terms of a layer sum, from
multiplication witnesses checked here against the monomial ideal of the
terms already proven.

The two radical verdicts rest on different facts.  Every polynomial
Buchberger keeps lies in the ideal of its input, so a zero remainder proves
membership against any such set, Groebner or not: "verified" rests on the
zero remainders and the witnesses alone.  The layered path proves each
term of p_i in (M, p_i), where M holds the terms already proven to lie in
rad(p_0..p_(i-1)), so each proof puts a term in rad(p_0..p_i): a
homogeneous p_i with square-free terms over a square-free M by a witness
(p_i itself, or a*p_i less multiples of M), any other p_i by dividing
powers of the term by a basis of (M, p_i).  The monolithic path divides
powers of the generators by a basis of all the polynomials.  A nonzero
remainder disproves membership only against a Groebner basis, so "not
verified", which only the monolithic path reports, (and the minimality of
each power it records) rests on the Groebner property of the basis.  That
property is asserted, pair by pair with no criterion applied, before any
failure is reported; ``buchberger`` asserts it on every call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import lshift, sub
from typing import Callable, Iterable, TypeVar

from .ideals import (
    Ideal,
    InvariantViolation,
    Monomial,
    _check_var,
    _read_index,
    _read_int,
    mono_vars,
)

Exponents = tuple[int, ...]
_T = TypeVar("_T")

# The largest power ``verify_radical_cert`` tries, also the CLI's ``--cap``
# bound: the power loop is linear in the cap even where the pair budget
# cannot bind.
MAX_CAP = 1000


class BudgetExceededError(RuntimeError):
    """The Buchberger pair budget was exhausted before completion."""


def _grevlex_key(e: Exponents):
    return (sum(e), tuple(-x for x in reversed(e)))


class Poly:
    """Exact sparse polynomial: exponent vector -> nonzero rational."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Exponents, Fraction] | None = None):
        self.n = n
        clean: dict[Exponents, Fraction] = {}
        for e, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                if len(e) != n:
                    raise ValueError("exponent vector length must equal n")
                clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def zero(cls, n: int) -> Poly:
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> Poly:
        return cls(n, {tuple([0] * n): Fraction(c)})

    @classmethod
    def from_monomial(cls, m: Monomial, n: int) -> Poly:
        e = [0] * n
        for v in mono_vars(m):
            _check_var(v, n)
            e[v - 1] = 1
        return cls(n, {tuple(e): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __add__(self, other: Poly) -> Poly:
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        p = Poly.zero(self.n)
        p.terms = out
        return p

    def __neg__(self) -> Poly:
        p = Poly.zero(self.n)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other) -> Poly:
        if not isinstance(other, Poly):
            c = Fraction(other)
            p = Poly.zero(self.n)
            if c:
                p.terms = {e: c * v for e, v in self.terms.items()}
            return p
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        p = Poly.zero(self.n)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def leading(self) -> tuple[Exponents, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grevlex_key)
        return e, self.terms[e]

    def monic(self) -> Poly:
        _, c = self.leading()
        return self * (Fraction(1) / c)

    def __repr__(self) -> str:
        return f"Poly({poly_str(self)!r})"


def _term_str(e: Exponents, c: Fraction) -> str:
    factors = []
    for i, exp in enumerate(e, start=1):
        if exp == 1:
            factors.append(f"x{i}")
        elif exp > 1:
            factors.append(f"x{i}^{exp}")
    if not factors:
        return str(c)
    body = "*".join(factors)
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    return f"{c}*{body}"


def poly_str(p: Poly) -> str:
    """Render ``term (+ term)*`` in degrevlex order; zero prints as ``0``."""
    if p.is_zero():
        return "0"
    return "+".join(
        _term_str(e, p.terms[e])
        for e in sorted(p.terms, key=_grevlex_key, reverse=True)
    )


_VAR_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_NUM_FACTOR = re.compile(r"^(\d+)(?:/(\d*[1-9]\d*))?$")  # no zero denominator


def parse_poly(text: str, n: int) -> Poly:
    """Parse ``term (+ term)*`` where a term is ``[-]coef? x<i>(^<e>)?*...``."""
    text = text.strip()
    if text == "0":
        return Poly.zero(n)
    terms: dict[Exponents, Fraction] = {}
    for raw in text.split("+"):
        part = raw.strip()
        if not part:
            raise ValueError("empty term")
        sign = Fraction(1)
        if part.startswith("-"):
            sign = Fraction(-1)
            part = part[1:].strip()
        coeff = sign
        e = [0] * n
        for factor in part.split("*"):
            factor = factor.strip()
            m = _VAR_FACTOR.match(factor)
            if m is not None:
                v = _read_index(m.group(1), "variable index")
                _check_var(v, n)
                e[v - 1] += _read_int(m.group(2) or "1", f"exponent of x{v}")
                continue
            m = _NUM_FACTOR.match(factor)
            if m is not None:
                coeff *= Fraction(
                    _read_int(m.group(1), "coefficient"),
                    _read_int(m.group(2) or "1", "denominator"),
                )
                continue
            raise ValueError(f"malformed factor {factor!r}")
        key = tuple(e)
        s = terms.get(key, Fraction(0)) + coeff
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
    return Poly(n, terms)


# Internal coefficients: a Fraction, or an int where the value is integral.
_Coeff = Fraction | int
# A prepared divisor: the packed leading monomial and the other terms divided
# by the leading coefficient, found once per basis element instead of once
# per division step.
_Divisor = tuple[int, tuple[tuple[int, _Coeff], ...]]

# The first field width tried; 8 bits hold exponents up to 127.
_MIN_WIDTH = 8


class _Overflow(Exception):
    """An exponent does not fit its packed field: restart at double width."""


class _Layout:
    """Packed monomials of n variables in degrevlex (see the module).

    A variable field holds exponents up to ``limit``; its top bit, the guard
    bit, is clear in every packed monomial.  x1 is lowest and the total
    degree sits above xn (``degree`` is its unit).  The rank ``p ^ mask``,
    which flips the exponents of xn, ..., x1, orders monomials as degrevlex,
    and a heap of ``p ^ flip``, that is ``~rank``, pops the leading one first.
    """

    __slots__ = ("width", "limit", "offsets", "degree", "guard", "mask", "flip")

    def __init__(self, n: int, width: int):
        self.width = width
        self.limit = limit = (1 << (width - 1)) - 1
        self.offsets = [width * i for i in range(n)]
        self.degree = 1 << (width * n)
        self.guard = sum((limit + 1) << o for o in self.offsets)
        self.mask = sum(limit << o for o in self.offsets)  # every variable field
        self.flip = ~self.mask

    def pack(self, e: Exponents) -> int:
        if max(e, default=0) > self.limit:
            raise _Overflow
        if min(e, default=0) < 0:
            raise ValueError("exponents must be nonnegative")
        return sum(map(lshift, e, self.offsets)) + sum(e) * self.degree

    def unpack(self, p: int) -> Exponents:
        return tuple(p >> o & self.limit for o in self.offsets)

    def pack_terms(self, terms: dict[Exponents, _Coeff]) -> dict[int, _Coeff]:
        return {self.pack(e): c for e, c in terms.items()}

    def poly(self, n: int, terms: dict[int, _Coeff]) -> Poly:
        p = Poly.zero(n)
        p.terms = {self.unpack(e): Fraction(c) for e, c in terms.items()}
        return p

    def lcm(self, a: int, b: int) -> int:
        """The per-field maximum, with the degree recomputed."""
        guard = self.guard
        ge = ((a | guard) - b) & guard  # the guard bit of each field where a >= b
        ge -= ge >> (self.width - 1)  # ... turned into that field's value bits
        m = a & ge | b & (self.mask ^ ge)
        return m + sum(self.unpack(m)) * self.degree


def _widening(run: Callable[[_Layout], _T], n: int) -> _T:
    """``run`` at the first width, 8, 16, 32, ..., at which nothing overflows.

    ``run`` packs its own input, so an input exponent past the limit also
    lands here, and each retry starts again from the input.
    """
    width = _MIN_WIDTH
    while True:
        try:
            return run(_Layout(n, width))
        except _Overflow:
            width *= 2


def _narrow(c: _Coeff) -> _Coeff:
    """An integral coefficient as an int: the same exact value, which Python
    multiplies and subtracts many times faster than a ``Fraction``.  Division
    only ever has a ``Fraction`` numerator, so no float can arise."""
    return c.numerator if c.denominator == 1 else c


def _monic(terms: dict[int, _Coeff], lm: int) -> _Divisor:
    inv = Fraction(1) / terms[lm]
    return lm, tuple((e, _narrow(c * inv)) for e, c in terms.items() if e != lm)


def _prepare(basis: Iterable[Poly], layout: _Layout) -> list[_Divisor]:
    packed = [layout.pack_terms(b.terms) for b in basis if b.terms]
    return [_monic(t, max(t, key=layout.mask.__xor__)) for t in packed]


def _terms(d: _Divisor) -> dict[int, _Coeff]:
    """The monic polynomial of a prepared divisor, leading term first."""
    lm, tail = d
    return {lm: 1, **dict(tail)}


def _normal_form(
    terms: dict[int, _Coeff], divisors: list[_Divisor], layout: _Layout
) -> dict[int, _Coeff]:
    """Remainder of dividing the packed terms by the divisors, leading term first.

    The working polynomial's packed terms sit in a heap of ``~rank`` ints
    (see ``_Layout``), so the lead term is a pop and an XOR.  One subtraction
    ``lt - lm`` is both the divisibility test (no guard bit set) and the
    shift of the divisor's tail.  A shifted term past the field limit has a
    guard bit set, so it is new to ``work``; it is caught there and raises
    ``_Overflow``.  A term that cancels leaves its heap entry behind; the
    entry is skipped when popped, since the term is no longer in ``work``.
    A cancelled term may come back and be pushed again, but every term a
    step adds is below the lead term, so the earlier of its entries takes
    it and the later one is skipped.
    """
    guard, flip = layout.guard, layout.flip
    work = {e: _narrow(c) for e, c in terms.items()}
    heap = [e ^ flip for e in work]
    heapify(heap)
    remainder: dict[int, _Coeff] = {}
    while heap:
        lt = heappop(heap) ^ flip
        lc = work.pop(lt, None)
        if lc is None:
            continue
        for lm, tail in divisors:
            shift = lt - lm
            if not shift & guard:
                for e, c in tail:
                    te = e + shift
                    old = work.get(te)
                    if old is None:
                        if te & guard:
                            raise _Overflow
                        work[te] = -lc * c
                        heappush(heap, te ^ flip)
                    else:
                        s = old - lc * c
                        if s:
                            work[te] = s
                        else:
                            del work[te]
                break
        else:
            remainder[lt] = lc
    return remainder


def reduce(f: Poly, basis: Iterable[Poly]) -> Poly:
    """Normal form of f modulo the basis (full multivariate division).

    Each step divides the lead term by the first basis element, in the
    given order, whose leading monomial divides it, so the result is the
    textbook remainder even when the basis is not a Groebner basis.  The
    working terms are packed and kept in a heap ordered by degrevlex (see
    ``_normal_form``), and each divisor's leading term is found once per
    call.
    """
    basis = list(basis)

    def run(layout: _Layout) -> Poly:
        nf = _normal_form(layout.pack_terms(f.terms), _prepare(basis, layout), layout)
        return layout.poly(f.n, nf)

    return _widening(run, f.n)


def s_polynomial(f: Poly, g: Poly) -> Poly:
    lf, cf = f.leading()
    lg, cg = g.leading()
    lcm = tuple(map(max, lf, lg))
    mf = Poly(f.n, {tuple(map(sub, lcm, lf)): Fraction(1) / cf})
    mg = Poly(g.n, {tuple(map(sub, lcm, lg)): Fraction(1) / cg})
    return mf * f - mg * g


def _s_terms(f: _Divisor, g: _Divisor, lcm: int, layout: _Layout) -> dict[int, _Coeff]:
    """Terms of the S-polynomial of two prepared divisors with this lcm.

    The leading terms cancel exactly, so only the tails are shifted; a
    shifted term past the field limit raises ``_Overflow``.
    """
    (lf, tf), (lg, tg) = f, g
    sf = lcm - lf
    sg = lcm - lg
    out = {e + sf: c for e, c in tf}
    for e, c in tg:
        te = e + sg
        s = out.get(te, 0) - c
        if s:
            out[te] = s
        else:
            out.pop(te, None)
    if any(map(layout.guard.__and__, out)):
        raise _Overflow
    return out


def _groebner(polys: list[Poly], layout: _Layout, max_pairs: int) -> list[_Divisor]:
    """Reduced Groebner basis of nonzero polynomials, as prepared divisors.

    Every element is monic, integral coefficients are ints (see
    ``_narrow``), monomials are packed by ``layout``, and the list runs from
    the largest leading monomial down.  Open pairs sit in a heap keyed by
    ``(lcm rank, i, j)``: the lcm is a per-field maximum of two packed
    words, its rank one int, and a leading monomial divides it when a
    subtraction sets no guard bit.  A pair of two monomials is never queued
    (its S-polynomial is identically zero) and counts as processed for the
    chain criterion from the start.  Every polynomial kept along the way,
    interreduced ones included, is a remainder of members of the ideal the
    input generates, so it lies in that ideal whether or not the pair
    criteria are right.  Only the claim that the result is a Groebner basis
    rests on them; ``_assert_groebner`` checks that claim.  A negative budget
    or an empty input raises ``ValueError``; a term outgrowing its field
    raises ``_Overflow`` (see ``_widening``).
    """
    if max_pairs < 0:
        raise ValueError(f"pair budget must be nonnegative, got {max_pairs}")
    if not polys:
        raise ValueError("need at least one nonzero generator")
    guard, mask = layout.guard, layout.mask
    basis = _prepare(polys, layout)
    lms = [b[0] for b in basis]
    pairs: list[tuple[int, int, int, int]] = []
    processed: set[tuple[int, int]] = set()

    def add_pairs(new: int) -> None:
        for k in range(new):
            if not (basis[k][1] or basis[new][1]):
                processed.add((k, new))  # two monomials: the S-polynomial is 0
                continue
            lcm = layout.lcm(lms[k], lms[new])
            heappush(pairs, (lcm ^ mask, k, new, lcm))

    for new in range(1, len(basis)):
        add_pairs(new)
    handled = 0
    while pairs:
        _, i, j, lcm = heappop(pairs)
        processed.add((i, j))
        handled += 1
        if handled > max_pairs:
            raise BudgetExceededError(f"pair budget {max_pairs} exceeded")
        if lcm == lms[i] + lms[j]:
            continue  # coprime leading terms
        chained = False
        for k in range(len(basis)):
            if k in (i, j) or lcm - lms[k] & guard:
                continue
            p1 = (min(i, k), max(i, k))
            p2 = (min(j, k), max(j, k))
            if p1 in processed and p2 in processed:
                chained = True
                break
        if chained:
            continue
        h = _normal_form(_s_terms(basis[i], basis[j], lcm, layout), basis, layout)
        if h:
            basis.append(_monic(h, next(iter(h))))
            lms.append(basis[-1][0])
            add_pairs(len(basis) - 1)
    # Minimalize: drop members whose leading monomial another one divides.
    keep: list[int] = []
    for i in sorted(range(len(basis)), key=lambda i: lms[i] ^ mask):
        if all(lms[i] - lms[k] & guard for k in keep):
            keep.append(i)
    minimal = [basis[i] for i in keep]
    reduced = []
    for i, b in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        # No other leading monomial divides b's, so it stays first, monic.
        reduced.append(_monic(_normal_form(_terms(b), others, layout), b[0]))
    reduced.sort(key=lambda b: b[0] ^ mask, reverse=True)
    return reduced


def _assert_groebner(reduced: list[_Divisor], layout: _Layout) -> None:
    """Raise unless the S-polynomial of every pair reduces to zero.

    No criterion is applied: coprime leading terms and chains are divided
    too, so the check does not lean on the criteria ``_groebner`` used.
    """
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            lcm = layout.lcm(reduced[i][0], reduced[j][0])
            s = _s_terms(reduced[i], reduced[j], lcm, layout)
            if _normal_form(s, reduced, layout):
                raise InvariantViolation(
                    "S-polynomial of the output basis did not reduce to zero"
                )


def buchberger(gens: Iterable[Poly], max_pairs: int = 20000) -> tuple[Poly, ...]:
    """Reduced Groebner basis of the input polynomials.

    Pair selection is the normal (minimal lcm in the term order) strategy:
    open pairs sit in a heap keyed by ``(lcm, i, j)``, filled once as each
    basis element arrives, so ties go to the lower indices.  Coprime
    leading terms and the chain criterion prune pairs.  The basis is kept
    as prepared divisors (see ``reduce``), extended as elements are added.
    Processing more than ``max_pairs`` pairs raises
    :class:`BudgetExceededError`; a negative budget raises ``ValueError``.
    The defining property is asserted before returning: the S-polynomial of
    every pair of the output reduces to zero, with no criterion applied.
    """
    polys = [g for g in gens if g and g.terms]
    n = polys[0].n if polys else 0

    def run(layout: _Layout) -> tuple[Poly, ...]:
        reduced = _groebner(polys, layout, max_pairs)
        _assert_groebner(reduced, layout)
        return tuple(layout.poly(n, _terms(b)) for b in reduced)

    return _widening(run, n)


def _support(e: Exponents) -> int:
    """The bitmask of the variables of a term."""
    return sum(1 << v for v, x in enumerate(e) if x)


@dataclass(frozen=True)
class RadicalCertificate:
    """Polynomials generating the target up to radical, with provenance.

    Construction is the one input check: the family is nonempty, every
    polynomial is a nonzero ``Poly`` in the target's ring, and every term
    lies in the target, so each polynomial does (a polynomial lies in a
    monomial ideal iff each of its terms does).
    """

    polys: tuple[Poly, ...]
    target: Ideal
    provenance: str  # "sv_partition" | "product_composition" | "manual"

    def __post_init__(self):
        if not self.polys:
            raise ValueError("certificate needs at least one polynomial")
        genset = set(self.target.gens)
        for p in self.polys:
            if not isinstance(p, Poly):
                raise TypeError(f"certificate polynomial is not a Poly: {p!r}")
            if p.is_zero():
                raise ValueError("certificate contains the zero polynomial")
            if p.n != self.target.n:
                raise ValueError("certificate polynomial in the wrong ring")
            for e in p.terms:
                sup = _support(e)
                if sup not in genset and not any(g & sup == g for g in genset):
                    raise ValueError("certificate term lies outside the target ideal")


@dataclass(frozen=True)
class RadicalCheck:
    """Outcome of bounded radical verification.

    ``failures`` lists generators not certified within the cap
    (inconclusive, never a disproof).  ``method`` names the path that gave
    the verdict.  Under ``"groebner"``, ``powers`` records per generator the
    least N <= cap with u^N in the certificate ideal.  Under ``"layered"``
    it records the least N with u^N in (M, p), where p is the first
    certificate polynomial having u as a term and M holds the terms of the
    polynomials before p; that N may be smaller or larger than the first.
    It is the same N whether a witness or a basis of (M, p) found it.
    ``verified=True`` rests on zero remainders and witnesses alone.
    ``verified=False``, only ever reported by ``"groebner"``, and the
    minimality of its powers rest on the basis being a Groebner basis,
    which is asserted before any failure is reported.
    """

    verified: bool
    powers: dict[Monomial, int]
    failures: tuple[Monomial, ...]
    cap: int
    method: str  # "layered" | "groebner"


def _exponents(g: Monomial, n: int) -> Exponents:
    return tuple(g >> i & 1 for i in range(n))


def _least_power(u: int, basis: list[_Divisor], layout: _Layout, cap: int) -> int | None:
    """The least N <= cap with u^N dividing to zero by the basis, or None.

    Each power is the previous remainder times u, one addition per term.
    """
    current: dict[int, _Coeff] = {u: 1}
    for power in range(1, cap + 1):
        nf = _normal_form(current, basis, layout)
        if not nf:
            return power
        current = {e + u: c for e, c in nf.items()}
        if any(map(layout.guard.__and__, current)):
            raise _Overflow
    return None


class _Proven:
    """The proven terms M as per-variable masks over their supports.

    ``has[v]`` has bit k set when the k-th term involves x_(v+1).  A
    square-free term divides a monomial with support s iff it involves no
    variable outside s, so s lies in M iff the terms involving some
    variable outside s are not all of M: at most n ORs, whatever the size
    of M.  That reading is exact only while every term is square-free,
    which ``square_free`` records.
    """

    __slots__ = ("has", "full", "square_free")

    def __init__(self, n: int):
        self.has = [0] * n
        self.full = 0  # one bit per term
        self.square_free = True

    def add(self, e: Exponents) -> None:
        bit = self.full + 1
        self.full |= bit
        for v, x in enumerate(e):
            if x:
                self.has[v] |= bit
        if max(e, default=0) > 1:
            self.square_free = False

    def divides(self, s: int) -> bool:
        """Whether some term divides every monomial with support s."""
        outside, full = 0, self.full
        for v, mask in enumerate(self.has):
            if not s >> v & 1:
                outside |= mask
                if outside == full:
                    return False
        return outside != full


def _witness_step(
    p: Poly, proven: dict[Exponents, int], terms: _Proven, cap: int
) -> dict[Exponents, int] | None:
    """The least N with a^N in (M, p) for each new term a of p, or None.

    Decided with no basis, for a homogeneous p with square-free terms while
    M is square-free.  Modulo the monomial ideal M, a member of (M, p) of
    degree deg(p) is a scalar multiple of p, so a lies in (M, p) iff a
    lies in M or every other term of p does: N = 1 exactly then.
    Otherwise, when M divides every a*b for b != a in p, the identity
    c_a a^2 = a*p - sum_b c_b a*b puts a^2 in (M, p): N = 2.  Any other
    term, or cap 1 with N = 1 ruled out, returns None, and the step goes to
    a Groebner basis.  Membership answers are memoised by support, which is
    all they read.
    """
    if not terms.square_free or any(x > 1 for e in p.terms for x in e):
        return None
    if len({sum(e) for e in p.terms}) > 1:
        return None
    memo: dict[int, bool] = {}

    def inside(s: int) -> bool:
        hit = memo.get(s)
        if hit is None:
            hit = memo[s] = terms.divides(s)
        return hit

    supports = {e: _support(e) for e in p.terms}
    # A term of M divides every product a*b with b in M, so only these count.
    outside = [s for s in supports.values() if not inside(s)]
    step: dict[Exponents, int] = {}
    for e, s in supports.items():
        if e in proven:
            continue
        if inside(s) or outside == [s]:
            step[e] = 1
        elif cap >= 2 and all(b == s or inside(s | b) for b in outside):
            step[e] = 2
        else:
            return None
    return step


def _groebner_step(
    p: Poly, proven: dict[Exponents, int], layout: _Layout, cap: int, max_pairs: int
) -> dict[Exponents, int] | None:
    """The least N <= cap with a^N in (M, p) for each new term a of p, by a
    basis of (M, p); None when a term has none or the pair budget runs out."""
    monomials = [Poly(p.n, {e: 1}) for e in proven]
    try:
        basis = _groebner(monomials + [p], layout, max_pairs)
    except BudgetExceededError:
        return None
    step: dict[Exponents, int] = {}
    for e in p.terms:
        if e not in proven:
            power = _least_power(layout.pack(e), basis, layout, cap)
            if power is None:
                return None
            step[e] = power
    return step


def _layered_check(
    cert: RadicalCertificate, layout: _Layout, cap: int, max_pairs: int
) -> RadicalCheck | None:
    """Prove the terms of the polynomials in rad(p_0..p_i), one p_i at a time.

    M holds the terms proven so far; by induction M lies in
    rad(p_0..p_(i-1)).  Step i finds for each new term a of p_i the least
    N <= cap with a^N in (M, p_i), which puts a in rad(p_0..p_i).  A
    multiplication witness (``_witness_step``) decides the step where it
    can; under the Schmitt-Vogel condition a*p_i is a^2 plus products a*b,
    each divisible by a term of an earlier layer, so every step of a
    layering's sums is decided that way.  Any other step computes a basis
    of (M, p_i), one monomial ideal plus one polynomial, and divides powers
    of a by it (``_groebner_step``).  Every basis element lies in (M, p_i),
    so a zero remainder is a proof whether or not the basis is Groebner; no
    all-pairs check is needed.  Returns ``None``, for the monolithic check
    to decide, unless every target generator is a term of some polynomial,
    and as soon as a term is not proven within the cap or a basis exceeds
    the pair budget.
    """
    n = cert.target.n
    gens = {g: _exponents(g, n) for g in cert.target.gens}
    if not set(gens.values()) <= {e for p in cert.polys for e in p.terms}:
        return None
    proven: dict[Exponents, int] = {}
    terms = _Proven(n)
    for p in cert.polys:
        step = _witness_step(p, proven, terms, cap)
        if step is None:
            step = _groebner_step(p, proven, layout, cap, max_pairs)
            if step is None:
                return None
        proven.update(step)
        for e in step:
            terms.add(e)
    powers = {g: proven[e] for g, e in gens.items()}
    return RadicalCheck(True, powers, (), cap, "layered")


def _groebner_check(
    cert: RadicalCertificate, layout: _Layout, cap: int, max_pairs: int
) -> RadicalCheck:
    """The power of each generator against one basis of all the polynomials.

    A verified result needs no further check.  Before a result with
    failures is returned, ``_assert_groebner`` checks the basis and raises
    :class:`InvariantViolation` instead of a verdict if it is not Groebner.
    """
    basis = _groebner(list(cert.polys), layout, max_pairs)
    n = cert.target.n
    powers: dict[Monomial, int] = {}
    failures: list[Monomial] = []
    for g in cert.target.gens:
        found = _least_power(layout.pack(_exponents(g, n)), basis, layout, cap)
        if found is None:
            failures.append(g)
        else:
            powers[g] = found
    if failures:
        _assert_groebner(basis, layout)
    return RadicalCheck(not failures, powers, tuple(failures), cap, "groebner")


def verify_radical_cert(
    cert: RadicalCertificate, cap: int = 8, max_pairs: int = 20000
) -> RadicalCheck:
    """Check that the certificate polynomials generate the target up to radical.

    Containment one way is structural: every term of every certificate
    polynomial lies in the target, which ``RadicalCertificate`` checked on
    construction.  The other containment is witnessed by a power u^N
    (N <= cap) of every generator u: first layer by layer
    (``_layered_check``: by multiplication witnesses, and by a basis of one
    layer where no witness decides), and where that pass stops, inside the
    ideal of all the certificate polynomials (``_groebner_check``), which
    alone can report "not verified".  ``max_pairs`` bounds each basis
    built, so it does not bind a layer that witnesses settle.  Anything but
    a ``RadicalCertificate`` raises ``TypeError``; a cap below 1 could
    verify nothing and a negative pair budget nothing either, and both
    raise ``ValueError``, as does a cap above ``MAX_CAP``; a basis of all
    the polynomials needing more than ``max_pairs`` pairs raises
    :class:`BudgetExceededError`.
    """
    if not isinstance(cert, RadicalCertificate):
        raise TypeError(f"expected a RadicalCertificate, got {type(cert).__name__}")
    if not 1 <= cap <= MAX_CAP:
        raise ValueError(f"oracle cap must be in 1..{MAX_CAP}, got {cap}")
    if max_pairs < 0:
        raise ValueError(f"pair budget must be nonnegative, got {max_pairs}")

    def run(layout: _Layout) -> RadicalCheck:
        layered = _layered_check(cert, layout, cap, max_pairs)
        if layered is not None:
            return layered
        return _groebner_check(cert, layout, cap, max_pairs)

    return _widening(run, cert.target.n)
