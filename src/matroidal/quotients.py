"""Linear-quotient orderings and the numerical invariants they determine.

An ordering u_1..u_s of the generators has linear quotients when each colon
ideal <u_1..u_{j-1}> : u_j is generated by variables.  The colon ideal is
computed exactly: its generators are the quotients u_i / gcd(u_i, u_j),
minimalized; it is variable-generated iff every quotient is divisible by
some degree-one quotient.  q(I) is the largest number of colon variables
over the steps, and is independent of the ordering chosen.

A matroidal ideal has linear quotients in its canonical (descending lex)
generator order (Herzog-Takayama 2002), so the ordering and q come from
one colon pass in that order; nothing here searches other orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .ideals import InvariantViolation, Monomial, _require_full_support, mono_vars
from .matroids import MatroidalIdeal


@dataclass(frozen=True)
class QuotientOrdering:
    """A verified linear-quotient ordering with its per-step colon variables.

    ``order`` is the canonical generator tuple ``mi.ideal.gens``;
    ``colon_steps[j-2]`` is the variable set generating the j-th colon
    ideal; ``q`` is the maximum step size (0 for a principal ideal, the
    empty maximum).
    """

    order: tuple[Monomial, ...]
    colon_steps: tuple[frozenset[int], ...]
    q: int


def colon_step_vars(prefix: list[Monomial], u: Monomial) -> frozenset[int] | None:
    """Variables generating <prefix> : u, or None if not variable-generated."""
    quotients = {p & ~u for p in prefix}
    singles = 0
    for qt in quotients:
        if qt.bit_count() == 1:
            singles |= qt
    if all(qt & singles for qt in quotients):
        return frozenset(mono_vars(singles))
    return None


def _colon_vars(masks: list[int], u: Monomial, prefix: int) -> int | None:
    """Bitmask form of :func:`colon_step_vars`, on per-variable masks.

    ``masks[v]`` holds the positions in the prefix of the generators
    containing x_{v+1}, and ``prefix`` has a bit for every position.
    Folding the masks of the variables outside u into ``seen`` and
    ``twice`` leaves the positions whose quotient is a single variable:
    those in exactly one mask.  The colon ideal is generated by these
    variables exactly when their masks cover the whole prefix; a position
    in no mask (a generator dividing u) is never covered.  Returns the
    variables as a monomial, or None.
    """
    seen = twice = 0
    outside = []
    for v, mask in enumerate(masks):
        if not u >> v & 1:
            twice |= seen & mask
            seen |= mask
            outside.append(v)
    once = seen ^ twice
    singles = covered = 0
    for v in outside:
        if masks[v] & once:
            singles |= 1 << v
            covered |= masks[v]
    return singles if covered == prefix else None


def _flip(masks: list[int], u: Monomial, bit: int) -> None:
    """Toggle ``bit`` in ``masks[v]`` for every variable x_{v+1} of u."""
    while u:
        low = u & -u
        masks[low.bit_length() - 1] ^= bit
        u ^= low


def _colon_pass(order: Sequence[Monomial], n: int) -> list[int] | None:
    """The colon variables of each step of ``order``, or None.

    One exact pass on per-variable masks: step j (from the second
    generator on) is ``_colon_vars`` of the j-th generator against the
    positions before it, as a monomial.  None at the first step whose
    colon ideal is not variable-generated.
    """
    masks = [0] * n  # positions in ``order`` containing x_{v+1}
    steps = []
    for position, u in enumerate(order):
        bit = 1 << position
        if position:
            singles = _colon_vars(masks, u, bit - 1)
            if singles is None:
                return None
            steps.append(singles)
        _flip(masks, u, bit)
    return steps


def _lex_steps(mi: MatroidalIdeal) -> list[int]:
    """The colon pass in the canonical (descending lex) generator order.

    Matroidal ideals have linear quotients in that order (Herzog-Takayama
    2002), so a step that is not variable-generated is an invariant
    violation.
    """
    steps = _colon_pass(mi.ideal.gens, mi.ideal.n)
    if steps is None:
        raise InvariantViolation("no linear quotients in the canonical order")
    return steps


def _lex_q(mi: MatroidalIdeal) -> int:
    """q(I): the largest step of the canonical-order colon pass."""
    return max((s.bit_count() for s in _lex_steps(mi)), default=0)


def find_ordering(mi: MatroidalIdeal) -> QuotientOrdering:
    """The linear-quotient ordering of the generators in canonical order.

    One colon pass over ``mi.ideal.gens`` (``_colon_pass``): each step is
    read off per-variable masks over the generators placed so far, so it
    costs O(n) mask operations instead of a pass over the prefix, and it
    agrees with :func:`colon_step_vars` on every prefix.  There is no
    search: a matroidal ideal has linear quotients in this order, and a
    failing step raises :class:`InvariantViolation`.
    """
    steps = tuple(frozenset(mono_vars(s)) for s in _lex_steps(mi))
    return QuotientOrdering(
        mi.ideal.gens, steps, max((len(s) for s in steps), default=0)
    )


def q_index(mi: MatroidalIdeal) -> int:
    """The linear-quotient index q(I); requires full support.

    Read from the same canonical-order colon pass as the theorem battery
    (``_lex_q``) and cross-asserted against the closed form n - d; a
    mismatch would be a toolkit bug, never a counterexample.
    """
    ideal = mi.ideal
    _require_full_support(ideal)
    q = _lex_q(mi)
    if q != ideal.n - mi.d:
        raise InvariantViolation(
            f"q={q} disagrees with n-d={ideal.n - mi.d}"
        )
    return q


def proj_dim(mi: MatroidalIdeal) -> int:
    """Projective dimension of the ideal (as a module): equals q(I)."""
    return q_index(mi)


def depth(mi: MatroidalIdeal) -> int:
    """depth of R/I via the Auslander-Buchsbaum formula: n - q(I) - 1."""
    return mi.ideal.n - q_index(mi) - 1


def is_cohen_macaulay(mi: MatroidalIdeal) -> bool:
    """R/I is Cohen-Macaulay iff height(I) = q(I) + 1."""
    return min(c.bit_count() for c in mi._cocircuits) == q_index(mi) + 1


def analyze(mi: MatroidalIdeal) -> dict[str, object]:
    """The homological summary surfaced by the CLI."""
    ideal = mi.ideal
    q = q_index(mi)
    h = min(c.bit_count() for c in mi._cocircuits)
    return {
        "n": ideal.n,
        "d": mi.d,
        "q": q,
        "pd": q,
        "depth": ideal.n - q - 1,
        "height": h,
        "cohen_macaulay": h == q + 1,
    }
