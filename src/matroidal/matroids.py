"""Matroidal-ideal recognition, constructors, and exchange-based pivots.

An equal-degree square-free monomial ideal is matroidal when its generator
supports satisfy the basis exchange condition: for generators B1, B2 and
any x in B1 - B2 there is a y in B2 - B1 with (B1 - x) + y again a
generator.  The checker builds the fundamental cocircuits
C(B, x) = {x} + {y not in B : B - x + y in G} of every generator B from one
completion map, O(|G| d) dict updates in all, and accepts when each of them
meets every generator.  The pairwise scan runs only on failure, to name the
lexicographically first failing exchange.  It is the ``MatroidalIdeal``
constructor, whose instance keeps the map, cocircuits and colon masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product as iter_product
from typing import Iterable, Sequence

from .ideals import (
    Ideal,
    InvariantViolation,
    Monomial,
    SupportOverlapError,
    _DIGITS,
    _check_var,
    _packed,
    contains,
    is_unit_ideal,
    is_zero_ideal,
    minimal_generators,
    mono,
    mono_degree,
    mono_str,
    mono_vars,
    support_mask,
    witness_text,
)


@dataclass(frozen=True)
class MatroidalIdeal:
    """A validated matroidal ideal together with its uniform degree.

    The constructor raises as :func:`as_matroidal` does, or on a ``d`` that
    is not the generators' degree.  Its check's completion map and
    cocircuits, and its colon masks, are not fields: ``==`` ignores them.
    """

    ideal: Ideal
    d: int

    def __post_init__(self) -> None:
        # as_matroidal runs only on failure, to raise with the witness.
        checked = _matroid(self.ideal) or as_matroidal(self.ideal)
        if checked.d != self.d:
            raise ValueError(
                f"d={self.d} differs from the generators' degree {checked.d}"
            )
        object.__setattr__(self, "_completion_map", checked._completion_map)
        object.__setattr__(self, "_cocircuits", checked._cocircuits)

    @cached_property
    def _completion_map(self) -> dict[Monomial, int]:
        return _completions(self.ideal.gens)

    @cached_property
    def _cocircuits(self) -> frozenset[int]:
        """The fundamental cocircuits: the values of the completion map."""
        return frozenset(self._completion_map.values())

    @cached_property
    def _colon_masks(self) -> tuple[int, ...]:
        """The natural-order external masks: q, the colon steps, the layers."""
        return tuple(_external_masks(self, range(1, self.ideal.n + 1)))


def _unchecked(ideal: Ideal, d: int, **record: object) -> MatroidalIdeal:
    """A ``MatroidalIdeal`` for a caller that has checked ``ideal`` already.

    Of ``_completion_map``, ``_cocircuits`` and ``_colon_masks``, one not
    in ``record`` is built when first read.  Attributes are set as the
    dataclass ``__init__`` sets them, which builds no dict per instance.
    """
    mi = object.__new__(MatroidalIdeal)
    object.__setattr__(mi, "ideal", ideal)
    object.__setattr__(mi, "d", d)
    for name, value in record.items():
        object.__setattr__(mi, name, value)
    return mi


@dataclass(frozen=True)
class ExchangeWitness:
    """An ordered generator pair and a variable with no valid exchange."""

    b1: Monomial
    b2: Monomial
    x: int

    def __str__(self) -> str:
        return (
            f"B1={mono_str(self.b1)}, B2={mono_str(self.b2)}, x=x{self.x}: "
            "no y in B2-B1 repairs the exchange"
        )


@dataclass(frozen=True)
class MatroidCheck:
    """Outcome of the exchange check: a validated ideal or a witness."""

    matroidal: MatroidalIdeal | None
    failure: str | None = None  # "mixed_degrees" | "exchange"
    witness: object = None

    def __bool__(self) -> bool:
        return self.matroidal is not None


class NotMatroidalError(ValueError):
    def __init__(self, check: MatroidCheck):
        self.check = check
        witness = witness_text(check.failure, check.witness)
        super().__init__(f"not a matroidal ideal ({check.failure}): {witness}")


def check_matroidal(ideal: Ideal) -> MatroidCheck:
    """Validate the exchange condition, or report the first violation.

    Witnesses are first-found in lexicographic generator order, so failures
    are reproducible.  Mixed generator degrees are a distinct failure kind.
    The zero and unit ideals and generators out of canonical order raise
    ValueError.
    """
    mi = _matroid(ideal)
    if mi is not None:
        return MatroidCheck(mi)
    if is_zero_ideal(ideal):
        raise ValueError("the zero ideal has no matroid structure")
    if is_unit_ideal(ideal):
        raise ValueError("the whole ring has no matroid structure")
    gens = ideal.gens
    degrees = sorted({mono_degree(g) for g in gens})
    if len(degrees) > 1:
        lo = next(g for g in gens if mono_degree(g) == degrees[0])
        hi = next(g for g in gens if mono_degree(g) == degrees[-1])
        return MatroidCheck(None, "mixed_degrees", (lo, hi))
    for a, b in zip(gens, gens[1:]):
        if mono_vars(a) >= mono_vars(b):
            raise ValueError(
                "generators out of canonical order: "
                f"{mono_str(a)} before {mono_str(b)}"
            )
    return MatroidCheck(None, "exchange", _first_exchange_failure(gens))


def _matroid(ideal: Ideal) -> MatroidalIdeal | None:
    """:func:`check_matroidal`'s instance, or None, with no witness named."""
    gens = ideal.gens
    if not gens or not gens[0]:
        return None
    d = gens[0].bit_count()
    for a, b in zip(gens, gens[1:]):
        # In canonical order a holds the lowest variable where a and b differ.
        if b.bit_count() != d or not a & (a ^ b) & -(a ^ b):
            return None
    completions = _completions(gens)
    cocircuits = _fundamental_cocircuits(gens, completions)
    if cocircuits is None:
        return None
    return _unchecked(ideal, d, _completion_map=completions, _cocircuits=cocircuits)


def _completions(
    gens: Iterable[Monomial], into: dict[Monomial, int] | None = None
) -> dict[Monomial, int]:
    """The completion map: g - x to the mask of all y with g - x + y in G.

    Keys are g - x for every generator g and x in g.  One pass over the
    generators, |G| d dict updates: each g adds its own x to the entry of
    g - x.  Given a map ``into``, the generators are added to it in place,
    so a map can be grown one batch of generators at a time.
    """
    completions = {} if into is None else into
    for g in gens:
        rest = g
        while rest:
            x = rest & -rest
            completions[g ^ x] = completions.get(g ^ x, 0) | x
            rest ^= x
    return completions


def _external_masks(mi: MatroidalIdeal, order: Iterable[int]) -> list[int]:
    """Each generator's external exchanges in a variable ``order``.

    For u in ``mi.ideal.gens`` order, the mask of the y outside u that
    replace a later variable x of u: y precedes x in ``order`` and
    u - x + y is a generator.  That is the OR over x in u of
    ``completions[u - x] & before[x]``, on the instance's completion map.
    In the natural order the mask of u is its colon step in the canonical
    generator order: <earlier generators> : u is generated by the y in the
    mask, each u - x + y with y < x being an earlier generator
    (Herzog-Takayama 2002), and the first generator's mask is 0.  The
    popcount is the external activity that places u in an exchange
    layering; the instance keeps the natural order's as ``_colon_masks``.
    The masks presume a matroid; nothing here checks one.
    """
    completions = mi._completion_map
    before: dict[int, int] = {}  # keyed by the variable's bit
    seen = 0
    for v in order:
        before[1 << (v - 1)] = seen
        seen |= 1 << (v - 1)
    masks = []
    for u in mi.ideal.gens:
        external = 0
        rest = u
        while rest:
            x = rest & -rest
            external |= completions[u ^ x] & before[x]
            rest ^= x
        masks.append(external)
    return masks


def _holders(gens: Sequence[Monomial]) -> dict[int, int]:
    """Variable bit to the mask of the indices of the generators holding it.

    Each mask is a column of the packed words (``ideals._packed``).  A
    strided slice from the last word back takes the byte holding the
    variable from every word, generator 0 last; ``_DIGITS`` turns those
    bytes into '0'/'1' digits, so ``int(_, 2)`` puts generator 0 in the
    lowest bit.  That is one C-level pass per variable up to the highest
    one held, instead of |G| d big-int ORs.  Only variables some generator
    holds are keys.  A generator of 2^64 or more raises the ``MAX_VARS``
    ValueError.
    """
    if not gens:
        return {}
    data = _packed(gens)
    last = len(data) - 8
    holders = {}
    for v in range(max(gens).bit_length()):
        column = int(data[last + (v >> 3) :: -8].translate(_DIGITS[v & 7]), 2)
        if column:
            holders[1 << v] = column
    return holders


def _fundamental_cocircuits(
    gens: tuple[Monomial, ...], completions: dict[Monomial, int]
) -> frozenset[int] | None:
    """The distinct fundamental cocircuits of equal-degree generators.

    For each generator B and x in B, C(B, x) is x together with every
    support variable y outside B such that B - x + y is a generator.  That
    is exactly the completion mask of B - x: it holds x because B is a
    generator, and every other y in it lies outside B.  Every key of the
    map is some B - x, so the set of its values is the set of fundamental
    cocircuits.  A generator B2 missing C(B, x) is exactly a failing
    exchange triple (B, B2, x), so ``None`` is returned iff the exchange
    condition fails.  Otherwise the sets are the cocircuits of the matroid
    whose bases are the generators, which are exactly its minimal
    transversals (Oxley, *Matroid Theory*, ch. 2).  ``completions`` is
    ``_completions(gens)``.
    """
    cocircuits = frozenset(completions.values())
    holders = _holders(gens)
    everyone = (1 << len(gens)) - 1
    for c in cocircuits:
        met = 0
        rest = c
        while rest:
            v = rest & -rest
            met |= holders[v]
            rest ^= v
        if met != everyone:
            return None
    return cocircuits


def _first_exchange_failure(gens: tuple[Monomial, ...]) -> ExchangeWitness:
    """The lexicographically first (B1, B2, x) with no repairing y.

    Only called once :func:`_fundamental_cocircuits` has found a failure,
    so finding none is an invariant violation.
    """
    genset = set(gens)
    for b1 in gens:
        for b2 in gens:
            if b1 == b2:
                continue
            incoming = mono_vars(b2 & ~b1)
            for x in mono_vars(b1 & ~b2):
                base = b1 ^ (1 << (x - 1))
                if not any(base | (1 << (y - 1)) in genset for y in incoming):
                    return ExchangeWitness(b1, b2, x)
    raise InvariantViolation(
        "a fundamental cocircuit misses a generator, but every exchange holds"
    )


def as_matroidal(ideal: Ideal) -> MatroidalIdeal:
    """Like :func:`check_matroidal` but raising on failure."""
    check = check_matroidal(ideal)
    if not check:
        raise NotMatroidalError(check)
    assert check.matroidal is not None
    return check.matroidal


def veronese(n: int, d: int) -> MatroidalIdeal:
    """The square-free Veronese ideal: all degree-d monomials in x1..xn."""
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    gens = {mono(c) for c in combinations(range(1, n + 1), d)}
    return as_matroidal(minimal_generators(gens, n))


def var_block_product(
    blocks: list[frozenset[int] | set[int]], n: int | None = None
) -> MatroidalIdeal:
    """Transversal ideal of a list of disjoint variable blocks.

    Generators take one variable from each block; the degree equals the
    number of blocks.  ``n`` defaults to the largest variable mentioned.
    """
    if not blocks:
        raise ValueError("need at least one block")
    masks = []
    seen = 0
    for block in blocks:
        bm = mono(block)
        if bm == 0:
            raise ValueError("blocks must be nonempty")
        if bm & seen:
            raise SupportOverlapError("blocks overlap")
        seen |= bm
        masks.append(bm)
    if n is None:
        n = seen.bit_length()
    gens = {
        mono(choice)
        for choice in iter_product(*(sorted(mono_vars(bm)) for bm in masks))
    }
    return as_matroidal(minimal_generators(gens, n))


def pivot(mi: MatroidalIdeal, f: Monomial, y: int) -> int:
    """Smallest 1-based position i in sorted supp(f) with (f / f_i) * y in I.

    Requires f to be a generator and y a support variable outside supp(f).
    Nonexistence would contradict the exchange theory and is surfaced as an
    :class:`InvariantViolation` carrying the witness.
    """
    ideal = mi.ideal
    if f not in ideal.gens:
        raise ValueError(f"{mono_str(f)} is not a generator")
    _check_var(y, ideal.n)
    ybit = 1 << (y - 1)
    if not support_mask(ideal) & ybit:
        raise ValueError(f"x{y} is not in the support")
    if f & ybit:
        raise ValueError(f"x{y} already divides {mono_str(f)}")
    for i, v in enumerate(mono_vars(f), start=1):
        if contains(ideal, (f ^ (1 << (v - 1))) | ybit):
            return i
    raise InvariantViolation(
        f"no pivot for f={mono_str(f)}, y=x{y}: exchange lemma violated"
    )


def transfer_fibers_equal(mi: MatroidalIdeal, x: int, y: int) -> bool:
    """Whether {f : x*f generates} equals {f : y*f generates}.

    Precondition: x != y and no generator is divisible by x*y.  Under that
    hypothesis the exchange theory forces equality; this is the check.
    """
    _check_var(x, mi.ideal.n)
    _check_var(y, mi.ideal.n)
    if x == y:
        raise ValueError("x and y must be distinct")
    xbit = 1 << (x - 1)
    ybit = 1 << (y - 1)
    both = xbit | ybit
    for g in mi.ideal.gens:
        if g & both == both:
            raise ValueError(
                f"precondition violated: x{x}*x{y} divides {mono_str(g)}"
            )
    fiber_x = {g ^ xbit for g in mi.ideal.gens if g & xbit}
    fiber_y = {g ^ ybit for g in mi.ideal.gens if g & ybit}
    return fiber_x == fiber_y
