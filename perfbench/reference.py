"""Reference values and independent checks for the benchmark's outputs.

Nothing here calls the library: counts are pinned constants, and the
structural checks (layered-partition conditions, expected prime sets) are
re-derived from the definitions on plain integer bit-sets.
"""

from __future__ import annotations

from itertools import combinations

# The eight default grid cells and their labeled ideal counts (full
# support).  d=1 is always 1, d=2 is the number of set partitions of n
# into at least two parts, and d=n-1 is 2^n - n - 1.
GRID_CELLS = ((2, 1), (3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3))
FULL_COUNTS = {
    (2, 1): 1,
    (3, 2): 4,
    (4, 2): 14,
    (5, 2): 51,
    (6, 2): 202,
    (4, 3): 11,
    (5, 3): 106,
    (6, 3): 1232,
}
# One ideal per relabeling orbit; the same values as SYMMETRY_COUNTS in
# tests/test_enumeration.py, plus the single (2,1) ideal.  Sum: 60.
SYMMETRY_COUNTS = {
    (2, 1): 1,
    (3, 2): 2,
    (4, 2): 4,
    (5, 2): 6,
    (6, 2): 10,
    (4, 3): 3,
    (5, 3): 9,
    (6, 3): 25,
}

SCAN_CELL = (6, 3)
SCAN_BUDGET = 20000
# Exact work of one (6,3) scan pass at budget 20000.  The seeded relabeling
# permutes the whole cell onto itself, so these do not depend on the seed.
SCAN_SEARCHES = 1141
SCAN_NODES = 4031051

# Ideals of (5,3) that are neither Veronese nor a block product: the
# search certificates that the certify workload sends to the oracle.
CERTIFY_SEARCH_IDEALS = 80


def veronese_primes(n: int, d: int) -> set[frozenset[int]]:
    """Minimal primes of V(n,d): every (n-d+1)-subset of the variables."""
    return {frozenset(c) for c in combinations(range(1, n + 1), n - d + 1)}


def layering_problem(gens: tuple[int, ...], layers) -> str | None:
    """Why ``layers`` is not a Schmitt-Vogel layering of ``gens``, or None.

    P_0 is a single generator, the layers partition the generators, and
    for i > 0 each product of two distinct elements of P_i is divisible by
    an element of an earlier layer.  On bit-sets, w divides a*b iff w is a
    subset of a | b.
    """
    if not layers or len(layers[0]) != 1:
        return "first layer is not a singleton"
    seen: list[int] = []
    for layer in layers:
        if not layer:
            return "empty layer"
        seen.extend(layer)
    if len(seen) != len(set(seen)) or set(seen) != set(gens):
        return "layers do not partition the generators"
    earlier = list(layers[0])
    for layer in layers[1:]:
        members = sorted(layer)
        for a, b in combinations(members, 2):
            union = a | b
            if not any(w & union == w for w in earlier):
                return "pair without an earlier divisor"
        earlier.extend(members)
    return None


def exchange_problem(gens: tuple[int, ...]) -> str | None:
    """Why the bit-set family fails the basis exchange condition, or None."""
    genset = set(gens)
    for b1 in gens:
        for b2 in gens:
            out = b1 & ~b2
            incoming = b2 & ~b1
            while out:
                x = out & -out
                out ^= x
                base = b1 ^ x
                rest = incoming
                ok = False
                while rest:
                    y = rest & -rest
                    rest ^= y
                    if base | y in genset:
                        ok = True
                        break
                if not ok:
                    return "exchange fails"
    return None
