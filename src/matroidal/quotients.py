"""Linear-quotient orderings and the numerical invariants they determine.

An ordering u_1..u_s of the generators has linear quotients when each colon
ideal <u_1..u_{j-1}> : u_j is generated by variables.  The colon ideal is
computed exactly: its generators are the quotients u_i / gcd(u_i, u_j),
minimalized; it is variable-generated iff every quotient is divisible by
some degree-one quotient.  q(I) is the largest number of colon variables
over the steps, and is independent of the ordering chosen.

A matroidal ideal has linear quotients in its canonical (descending lex)
generator order (Herzog-Takayama 2002): the colon step of u is the set of
y outside u with u - x + y a generator for some x > y in u.  Those
generators all come before u, so the walk that builds the instance's
completion map reads each step as it passes u: the ordering and q are the
validated instance's ``_colon_masks``, which also place u in its
Schmitt-Vogel layer.  Nothing here searches other orders.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _lex_q(mi: MatroidalIdeal) -> int:
    """q(I): the largest colon step, the widest of the instance's colon masks."""
    return max(m.bit_count() for m in mi._colon_masks)


def find_ordering(mi: MatroidalIdeal) -> QuotientOrdering:
    """The linear-quotient ordering of the generators in canonical order.

    Step j is the j-th generator's mask in ``mi._colon_masks``: the y with
    u - x + y a generator for some x > y in u.  There is no search and no
    pass over the prefix: a matroidal ideal has linear quotients in this
    order, and the masks are its colon steps, which :func:`colon_step_vars`
    computes the slow way.
    """
    steps = tuple(frozenset(mono_vars(m)) for m in mi._colon_masks[1:])
    return QuotientOrdering(
        mi.ideal.gens, steps, max((len(s) for s in steps), default=0)
    )


def q_index(mi: MatroidalIdeal) -> int:
    """The linear-quotient index q(I); requires full support.

    Read from the same canonical-order colon steps as the theorem battery
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
