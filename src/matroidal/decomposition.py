"""Minimal primes, unmixedness, and the degree-2 multipartite structure.

Minimal primes of a square-free monomial ideal are the minimal transversals
of the generator supports: variable sets meeting every generator, none of
whose proper subsets do.  On matroidal input they are the cocircuits of the
matroid, read off as its fundamental cocircuits in O(|G| d) dict updates.
Other input (mixed degrees, or a failing exchange) goes through a
branch-and-bound on an uncovered generator, pruning strict supersets of
transversals already found.

The primes, the Veronese test (C(n, d) generators) and the blocks of a
variable block product (d disjoint cocircuits whose sizes multiply to the
generator count) are read off the cocircuits a ``MatroidalIdeal`` carries;
a bare ``Ideal`` is checked first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .ideals import (
    Ideal,
    InvariantViolation,
    _check_var,
    _require_full_support,
    has_full_support,
    is_unit_ideal,
    is_zero_ideal,
    minimal_generators,
    mono_degree,
    mono_vars,
    support_mask,
)
from .matroids import MatroidalIdeal, NotMatroidalError, _matroid, as_matroidal


@dataclass(frozen=True)
class PrimeDecomposition:
    """Minimal variable-set primes with height and unmixedness metadata."""

    primes: tuple[frozenset[int], ...]
    height: int
    unmixed: bool


@dataclass(frozen=True)
class MultipartitePartition:
    """Parts S_1..S_m of the variables of a degree-2 matroidal ideal.

    Cross-part pairs are exactly the generators; the signature lists the
    part sizes in descending order (the multipartite graph shape).
    """

    parts: tuple[frozenset[int], ...]
    signature: tuple[int, ...]


def _decompose(ideal: Ideal) -> tuple[PrimeDecomposition, MatroidalIdeal | None]:
    """:func:`minimal_primes`, and the ideal as a ``MatroidalIdeal`` or None."""
    if is_zero_ideal(ideal):
        raise ValueError("the zero ideal has no minimal variable primes")
    if is_unit_ideal(ideal):
        raise ValueError("the whole ring has no minimal primes")
    mi = _matroid(ideal)
    primes = _minimal_transversals(ideal.gens) if mi is None else mi._cocircuits
    ordered = sorted((c.bit_count(), mono_vars(c)) for c in primes)
    heights = {h for h, _ in ordered}
    decomposition = PrimeDecomposition(
        primes=tuple(frozenset(vs) for _, vs in ordered),
        height=min(heights),
        unmixed=len(heights) == 1,
    )
    return decomposition, mi


def minimal_primes(ideal: Ideal) -> PrimeDecomposition:
    """All minimal transversals of the generator supports (cocircuits if matroidal)."""
    return _decompose(ideal)[0]


def _is_veronese(mi: MatroidalIdeal) -> bool:
    """Whether ``mi`` holds every d-subset of x1..xn (so has full support)."""
    return len(mi.ideal.gens) == comb(mi.ideal.n, mi.d)


def _minimal_transversals(gens: tuple[int, ...]) -> list[int]:
    """Minimal transversals by branch-and-bound, for any generator set."""
    found: list[int] = []

    def dfs(cover: int) -> None:
        # A strict superset of a known transversal can never become minimal.
        for f in found:
            if f & cover == f:
                return
        uncovered = next((g for g in gens if not g & cover), None)
        if uncovered is None:
            # Minimal iff every chosen variable has a private generator.
            for v in mono_vars(cover):
                rest = cover ^ (1 << (v - 1))
                if not any(not g & rest for g in gens):
                    return
            found.append(cover)
            return
        for v in mono_vars(uncovered):
            dfs(cover | (1 << (v - 1)))

    dfs(0)
    return found


def height(ideal: Ideal) -> int:
    return minimal_primes(ideal).height


def is_unmixed(ideal: Ideal) -> bool:
    return minimal_primes(ideal).unmixed


def degree2_partition(mi: MatroidalIdeal) -> MultipartitePartition:
    """Partition the variables of a degree-2 matroidal ideal into parts.

    Anchored at the lowest-index unassigned variable: a part is the anchor
    plus all its non-neighbors among the remaining variables, then recurse.
    The defining properties (parts partition the variables, cross pairs
    generate, intra pairs do not, at least two parts) are verified before
    returning, each variable's pairs by one test of its adjacency mask; the
    ordered pair loops run only to name the first failing pair.  A failure
    on validated input is an invariant violation.
    """
    ideal = mi.ideal
    n = ideal.n
    if mi.d != 2:
        raise ValueError("degree-2 partition needs a degree-2 ideal")
    _require_full_support(ideal)
    adjacency = {v: 0 for v in range(1, n + 1)}
    for g in ideal.gens:
        a, b = mono_vars(g)
        adjacency[a] |= 1 << (b - 1)
        adjacency[b] |= 1 << (a - 1)
    full = (1 << n) - 1
    remaining = full
    part_masks: list[int] = []
    while remaining:
        anchor = (remaining & -remaining).bit_length()
        part = remaining & ~adjacency[anchor]
        part_masks.append(part)
        remaining &= ~part
    if len(part_masks) < 2:
        raise InvariantViolation("fewer than two parts for a degree-2 ideal")
    for part in part_masks:
        for a in mono_vars(part):
            # Cross pairs: a meets every variable outside its part.  Intra
            # pairs: a meets none inside it.
            if adjacency[a] | part != full or adjacency[a] & part:
                raise _first_bad_pair(part_masks, set(ideal.gens))
    parts = tuple(frozenset(mono_vars(p)) for p in part_masks)
    signature = tuple(sorted((len(p) for p in parts), reverse=True))
    return MultipartitePartition(parts, signature)


def _first_bad_pair(part_masks: list[int], genset: set[int]) -> InvariantViolation:
    """The error naming the first failing pair of :func:`degree2_partition`.

    Part by part: its cross pairs, in part order, then its intra pairs.
    Only called once the adjacency masks have found a failure.
    """
    for i, p in enumerate(part_masks):
        for j, q in enumerate(part_masks):
            if i == j:
                continue
            for a in mono_vars(p):
                for b in mono_vars(q):
                    if (1 << (a - 1)) | (1 << (b - 1)) not in genset:
                        return InvariantViolation(
                            f"cross pair x{a}x{b} is not a generator"
                        )
        for a in mono_vars(p):
            for b in mono_vars(p):
                if a < b and (1 << (a - 1)) | (1 << (b - 1)) in genset:
                    return InvariantViolation(
                        f"intra-part pair x{a}x{b} is a generator"
                    )
    return InvariantViolation("a part fails its adjacency masks, but every pair holds")


def multipartite_signature(mi: MatroidalIdeal) -> tuple[int, ...]:
    """Descending part sizes of the degree-2 partition."""
    return degree2_partition(mi).signature


def contraction(mi: MatroidalIdeal, x: int) -> MatroidalIdeal:
    """The degree-(d-1) matroidal ideal generated by {g/x : x divides g}."""
    ideal = mi.ideal
    _check_var(x, ideal.n)
    bit = 1 << (x - 1)
    if not support_mask(ideal) & bit:
        raise ValueError(f"x{x} is not in the support")
    if mi.d < 2:
        raise ValueError("contraction needs degree at least 2")
    gens = {g ^ bit for g in ideal.gens if g & bit}
    contracted = minimal_generators(gens, ideal.n)
    try:
        result = as_matroidal(contracted)
    except NotMatroidalError as exc:
        raise InvariantViolation(
            f"contraction at x{x} lost the exchange condition: {exc}"
        ) from exc
    return result


def recognize_veronese(ideal: Ideal) -> bool:
    """Whether the ideal is square-free Veronese on all of x1..xn."""
    if is_zero_ideal(ideal) or is_unit_ideal(ideal):
        return False
    degrees = {mono_degree(g) for g in ideal.gens}
    if len(degrees) != 1:
        return False
    d = degrees.pop()
    return has_full_support(ideal) and len(ideal.gens) == comb(ideal.n, d)


def recognize_var_block_product(
    ideal: Ideal,
) -> tuple[frozenset[int], ...] | None:
    """The variable blocks whose transversals are exactly G(I), or None.

    Blocks come ordered by their smallest variable, read off the
    cocircuits by ``_cocircuit_blocks``.  Only a matroidal ideal is one.
    """
    mi = _matroid(ideal)
    blocks = None if mi is None else _cocircuit_blocks(mi)
    if blocks is None:
        return None
    return tuple(frozenset(mono_vars(b)) for b in blocks)


def _cocircuit_blocks(mi: MatroidalIdeal) -> tuple[int, ...] | None:
    """The blocks of a variable block product, read off its cocircuits.

    The instance's cocircuits are those of a rank-d matroid whose bases are
    the generators, as masks.  It is a block product exactly when there
    are d of them, pairwise disjoint, with sizes multiplying to the
    generator count: each basis meets every cocircuit, so it takes one
    variable from each, and the bases are then all such transversals.
    Returns the blocks ordered by their smallest variable, or None.
    """
    cocircuits = mi._cocircuits
    if len(cocircuits) != mi.d:
        return None
    union, product = 0, 1
    for c in cocircuits:
        if union & c:
            return None
        union |= c
        product *= c.bit_count()
    if product != len(mi.ideal.gens):
        return None
    return tuple(sorted(cocircuits, key=lambda c: c & -c))


def _unmixed_bounds(
    n: int, d: int, h: int, veronese: bool, block_sizes: tuple[int, ...] | None
) -> dict[str, object]:
    """The bounds and tightness checks of :func:`unmixed_bounds_report`.

    ``h`` is the height of an unmixed ideal with full support, ``veronese``
    whether it is square-free Veronese, and ``block_sizes`` the sizes of
    its blocks when it is a variable block product, else None.
    """
    if not h + d - 1 <= n <= h * d:
        raise InvariantViolation(
            f"unmixed bounds failed: h={h}, d={d}, n={n}"
        )
    lower_tight = n == h + d - 1
    upper_tight = n == h * d
    if lower_tight != veronese:
        raise InvariantViolation("lower tightness disagrees with Veronese recognizer")
    equal_blocks = (
        block_sizes is not None
        and len(block_sizes) == d
        and all(size == h for size in block_sizes)
    )
    if upper_tight != equal_blocks:
        raise InvariantViolation("upper tightness disagrees with block recognizer")
    return {
        "h": h,
        "d": d,
        "n": n,
        "lower_tight": lower_tight,
        "upper_tight": upper_tight,
    }


def unmixed_bounds_report(mi: MatroidalIdeal) -> dict[str, object]:
    """Assert h+d-1 <= n <= h*d for an unmixed ideal and report tightness.

    The lower bound is tight exactly for square-free Veronese ideals; the
    upper bound exactly for products of d blocks of h distinct variables.
    Both tightness flags are cross-checked against the ideal's cocircuits.
    """
    ideal = mi.ideal
    if ideal.n < 2:
        raise ValueError("need n >= 2")
    _require_full_support(ideal)
    heights = {p.bit_count() for p in mi._cocircuits}
    if len(heights) != 1:
        raise ValueError("ideal is mixed: minimal primes have unequal heights")
    blocks = _cocircuit_blocks(mi)
    return _unmixed_bounds(
        ideal.n,
        mi.d,
        heights.pop(),
        _is_veronese(mi),
        None if blocks is None else tuple(b.bit_count() for b in blocks),
    )
