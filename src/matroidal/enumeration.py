"""Exhaustive enumeration of small matroidal ideals, batteries, and scans.

Enumeration walks inclusion decisions over the d-subsets of the variables
in lexicographic order.  Each exchange slot (an ordered pair of subsets and
one exchangeable variable, with its fixed set of repair subsets) is checked
once, when the last of its subsets is decided: by the inclusion of the
later subset of the pair when every repair comes before it, else by the
exclusion of its last repair.  A branch is pruned when a decided slot has
both subsets of its pair chosen and no repair chosen; the exchange
condition is existential, so no completion could satisfy it.  Every slot
is decided by the leaves, so every leaf with full support satisfies the
exchange condition and is yielded without a further check.

Each slot is one bit of a mask over all slots.  A node carries three
running masks: the slots with a member of their pair chosen, those with
both, and those with no repair chosen yet.  Per subset, precomputed masks
name the slots it decides on inclusion and on exclusion, the slots whose
pair holds it and the slots it repairs, so each node decides its slots
with a few big-int ANDs and no loop over them.

With symmetry reduction an ideal is kept when no relabeling gives a
smaller sorted generator encoding.  Relabeling keeps full support and the
exchange condition, so every relabeling of a leaf is another leaf of the
same DFS.  The first leaf of each orbit closes it under the n - 1
adjacent transpositions, each a two-bit swap on every mask, and maps each
member to the orbit's least encoding; every later member looks itself up
and consumes its entry, and a leaf is kept when it is that least
encoding.  ``canonical_form`` decides single ideals, of any mix of
degrees, by a pure-Python walk that places labels bottom up
(``_smaller_relabeling``); the tests hold the orbit filter to it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from operator import getitem

from .decomposition import _is_veronese, degree2_partition, unmixed_bounds_report
from .ideals import (
    Ideal,
    InvariantViolation,
    _canonical,
    _check_ambient,
    _require_full_support,
    mono,
    mono_vars,
)
from .matroids import MatroidalIdeal, _unchecked
from .quotients import _lex_q
from .svrank import SVPartition, construct_certificate, search_cert, verify_sv

# 2^C(n,d) search space with pruning; C(7,3) = 35 admits every n <= 7
# cell.  The cap counts subsets, not work: for 9 <= n <= 64 (MAX_VARS) it
# admits only (n, 1), (n, n) and (n, n-1), and (n, n-1) has 2^n - n - 1
# ideals (every family of at least two coatoms), so those cells are also
# capped by that count, which admits them up to n = 16.
MAX_SUBSETS = 35
MAX_IDEALS = 1 << 16
# Bounds ``canonical_form``'s walk, which places one label per level (n!
# placements at worst), and the orbit map of a symmetry-reduced
# enumeration, which can hold up to a whole cell's labeled encodings.
MAX_SYMMETRY_VARS = 7
# Default search node budget of ``conjecture_scan`` and ``matroidal scan``.
SCAN_BUDGET = 20000


def _smaller_relabeling(ideal: Ideal) -> tuple[int, ...] | None:
    """A relabeling whose sorted generator encoding beats the ideal's own.

    Labels 1, 2, ... go on the old variables depth first.  With labels 1..k
    placed, the generators inside them are the encoding's masks below 2^k,
    for any mix of degrees, so each placement fixes a prefix: its masks in
    [2^(k-1), 2^k) against the ideal's own there.  Smaller returns at once,
    larger prunes, equal goes deeper; ``None`` means the ideal is canonical.
    """
    n, gens = ideal.n, ideal.gens
    end = 1 << n  # closes each range, so fewer masks in a range compare larger
    own = [sorted(g for g in gens if g.bit_length() == k) + [end] for k in range(n + 1)]
    containing = [[i for i, g in enumerate(gens) if g >> v & 1] for v in range(n)]
    image = [0] * len(gens)  # new bits of each generator's placed variables
    label = [0] * n  # new label of each old variable index, set on success

    def walk(k: int, placed: int) -> bool:
        bit = 1 << (k - 1)
        for v in range(n):
            if placed >> v & 1:
                continue
            inside = placed | 1 << v
            for i in containing[v]:
                image[i] |= bit
            added = sorted([image[i] for i in containing[v] if not gens[i] & ~inside])
            added.append(end)
            if added < own[k] or (added == own[k] and walk(k + 1, inside)):
                label[v] = k
                return True
            for i in containing[v]:
                image[i] ^= bit
        return False

    if not walk(1, 0):
        return None
    free = iter(sorted(set(range(1, n + 1)) - set(label)))
    return tuple(k or next(free) for k in label)


def _adjacent_swaps(n: int) -> list[list[int]]:
    """For each bit i < n - 1, every mask below 2^n with bits i, i+1 swapped."""
    tables = []
    for i in range(n - 1):
        both = 3 << i
        tables.append(
            [m ^ both if (m >> i ^ m >> (i + 1)) & 1 else m for m in range(1 << n)]
        )
    return tables


def _orbit(
    encoding: tuple[int, ...], swaps: list[list[int]]
) -> set[tuple[int, ...]]:
    """Every sorted generator encoding a relabeling gives ``encoding``.

    A search under the adjacent transpositions ``_adjacent_swaps(n)``,
    which generate the symmetric group: |orbit| (n - 1) swaps in all.
    """
    orbit = {encoding}
    frontier = [encoding]
    while frontier:
        masks = frontier.pop()
        for table in swaps:
            image = tuple(sorted(map(table.__getitem__, masks)))
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def canonical_form(ideal: Ideal) -> tuple[int, ...]:
    """Lexicographically smallest sorted generator encoding over relabelings.

    Relabels by ``_smaller_relabeling`` until it returns ``None``; every
    step lowers the encoding, so the descent ends at the minimum.
    """
    if ideal.n > MAX_SYMMETRY_VARS:
        raise ValueError(f"canonical forms supported up to n={MAX_SYMMETRY_VARS}")
    while (perm := _smaller_relabeling(ideal)) is not None:
        ideal = relabel_ideal(ideal, perm)
    return tuple(sorted(ideal.gens))


def relabel_ideal(ideal: Ideal, perm: tuple[int, ...]) -> Ideal:
    """Apply the variable relabeling v -> perm[v-1], a permutation of 1..n."""
    if sorted(perm) != list(range(1, ideal.n + 1)):
        raise ValueError(f"not a permutation of 1..{ideal.n}: {tuple(perm)}")
    gens = _canonical(mono(perm[v - 1] for v in mono_vars(g)) for g in ideal.gens)
    return Ideal(ideal.n, tuple(gens))


def _check_cell(n: int, d: int, up_to_symmetry: bool) -> None:
    """Raise ValueError unless ``enumerate_matroidal`` takes the cell (n, d).

    The enumeration is a generator and checks only when first resumed, so
    a caller that must reject a bad cell before any output calls this.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    _check_ambient(n)  # before C(n, d), which is huge for a huge cell
    if comb(n, d) > MAX_SUBSETS:
        raise ValueError(
            f"C({n},{d})={comb(n, d)} exceeds the enumeration cap {MAX_SUBSETS}"
        )
    if d == n - 1 and 2**n - n - 1 > MAX_IDEALS:
        raise ValueError(
            f"({n},{d}) has 2^{n} - {n} - 1 = {2**n - n - 1} matroidal ideals, "
            f"more than the enumeration cap {MAX_IDEALS}"
        )
    if up_to_symmetry and n > MAX_SYMMETRY_VARS:
        raise ValueError(f"symmetry reduction supported up to n={MAX_SYMMETRY_VARS}")


def enumerate_matroidal(n: int, d: int, up_to_symmetry: bool = False):
    """Yield every matroidal ideal of degree d with support {x1..xn}.

    Deterministic and restart-stable.  With ``up_to_symmetry`` only the
    ideals equal to their own canonical form are yielded, one per
    relabeling orbit, in the same order.  Canonicity costs one orbit
    closure per orbit, |cell| (n - 1) swaps in all, through a map local
    to the call that is empty again when the DFS ends.
    """
    _check_cell(n, d, up_to_symmetry)
    subsets = [mono(c) for c in combinations(range(1, n + 1), d)]
    k = len(subsets)
    position = {s: t for t, s in enumerate(subsets)}
    full = (1 << n) - 1
    # Every slot (ordered pair a, b and one exchangeable variable, with its
    # repair subsets) gets one bit and is decided at its highest index
    # among a, b and its repairs.  closed_in[t] holds the slots decided by
    # including t (t is the later of the pair and every repair comes before
    # it), closed_out[t] those decided by excluding t (t is the last repair
    # and comes after the pair), paired[t] the slots whose pair holds t and
    # unrepaired[t] every slot that t does not repair.  A slot whose last
    # repair is the later subset b itself is satisfied whenever the pair
    # is chosen and gets no bit.
    closed_in = [0] * k
    closed_out = [0] * k
    paired = [0] * k
    repaired = [0] * k
    bit = 1
    for a, sa in enumerate(subsets):
        for b, sb in enumerate(subsets):
            if a == b:
                continue
            incoming = mono_vars(sb & ~sa)
            later = max(a, b)
            for x in mono_vars(sa & ~sb):
                base = sa ^ (1 << (x - 1))
                repairs = [position[base | (1 << (y - 1))] for y in incoming]
                last = max(repairs)
                if last == later:
                    continue
                if last > later:
                    closed_out[last] |= bit
                else:
                    closed_in[later] |= bit
                paired[a] |= bit
                paired[b] |= bit
                for r in repairs:
                    repaired[r] |= bit
                bit <<= 1
    every_slot = bit - 1
    unrepaired = [every_slot ^ r for r in repaired]
    suffix_support = [0] * (k + 1)
    for t in range(k - 1, -1, -1):
        suffix_support[t] = suffix_support[t + 1] | subsets[t]
    # A leaf's generators, read a byte of its chosen mask at a time.
    decode = [
        [
            tuple(s for i, s in enumerate(block) if byte >> i & 1)
            for byte in range(1 << len(block))
        ]
        for block in (subsets[j:j + 8] for j in range(0, k, 8))
    ]
    width = len(decode)

    # Each orbit is closed once, at its first leaf; every member is a leaf
    # of this DFS, met exactly once, and consumes its entry when it is.
    orbit_min: dict[tuple[int, ...], tuple[int, ...]] = {}
    swaps = _adjacent_swaps(n) if up_to_symmetry else []
    # Along a branch, once holds the slots with a chosen member of their
    # pair, twice those with both, and unfixed those with no chosen repair
    # (kept as that complement so every test ANDs nonnegative ints).  A
    # slot decided at t fails when its pair ends up chosen and it is still
    # unfixed: excluding t fails closed_out[t] & twice & unfixed, and
    # including t, which completes the pair of every slot in closed_in[t]
    # and repairs none of them, fails closed_in[t] & once & unfixed.
    stack: list[tuple[int, ...]] = [(0, 0, 0, 0, 0, every_slot)]
    while stack:
        t, chosen, sup, once, twice, unfixed = stack.pop()
        if t == k:
            if chosen and sup == full:
                raw = chosen.to_bytes(width, "little")
                gens = tuple(chain.from_iterable(map(getitem, decode, raw)))
                if up_to_symmetry:
                    encoding = tuple(sorted(gens))
                    least = orbit_min.pop(encoding, None)
                    if least is None:
                        orbit = _orbit(encoding, swaps)
                        least = min(orbit)
                        orbit.discard(encoding)
                        orbit_min.update(dict.fromkeys(orbit, least))
                    if encoding != least:
                        continue
                yield _unchecked(Ideal(n, gens), d)
            continue
        if sup | suffix_support[t + 1] == full and not closed_out[t] & twice & unfixed:
            stack.append((t + 1, chosen, sup, once, twice, unfixed))
        if not closed_in[t] & once & unfixed:
            pair = paired[t]
            stack.append((
                t + 1, chosen | 1 << t, sup | subsets[t],
                once | pair, twice | once & pair, unfixed & unrepaired[t],
            ))


THEOREMS = (
    "linear_quotient_index",
    "height_bound",
    "degree2_structure",
    "unmixed_bounds",
    "cm_iff_veronese",
    "sv_certificate",
    "cm_iff_stci",
)


@dataclass(frozen=True)
class BatteryResult:
    """Per-ideal verdicts plus the computed invariants behind them."""

    n: int
    d: int
    q: int
    height: int
    unmixed: bool
    cohen_macaulay: bool
    ara_lower: int
    ara_upper: int | None
    ara_exact: bool | None
    verdicts: dict[str, str]  # per theorem: "pass" | "fail" | "skip"
    certificate: SVPartition | None  # the layering behind ``ara_upper``


def theorem_battery(mi: MatroidalIdeal) -> BatteryResult:
    """Run every applicable structural check on a full-support ideal.

    Each invariant is computed once, off the instance.  q is the widest of
    its colon masks, the colon steps in the canonical (descending lex)
    order, in which matroidal ideals have linear quotients (Herzog-Takayama
    2002); ``construct_certificate`` lays the Veronese and product layers
    out from the same masks.  The cocircuits are the primes (the height,
    unmixedness, Veronese and block facts).  The degree-2 verdict checks
    them against ``degree2_partition``'s parts.

    Support short of x1..xn raises ValueError first.  Other failures are
    recorded as verdicts: they mean a toolkit bug, not bad input.
    """
    ideal = mi.ideal
    _require_full_support(ideal)
    n, d = ideal.n, mi.d
    verdicts: dict[str, str] = {}
    q = _lex_q(mi)
    verdicts["linear_quotient_index"] = "pass" if q == n - d else "fail"
    primes = mi._cocircuits
    veronese = _is_veronese(mi)
    sizes = {p.bit_count() for p in primes}
    h = min(sizes)
    unmixed = len(sizes) == 1
    verdicts["height_bound"] = "pass" if h <= q + 1 else "fail"
    if d == 2:
        try:
            partition = degree2_partition(mi)
            everything = (1 << n) - 1
            complements = {everything & ~mono(part) for part in partition.parts}
            verdicts["degree2_structure"] = "pass" if complements == primes else "fail"
        except InvariantViolation:
            verdicts["degree2_structure"] = "fail"
    else:
        verdicts["degree2_structure"] = "skip"
    if unmixed and n >= 2:
        try:
            unmixed_bounds_report(mi)
            verdicts["unmixed_bounds"] = "pass"
        except InvariantViolation:
            verdicts["unmixed_bounds"] = "fail"
    else:
        verdicts["unmixed_bounds"] = "skip"
    cohen_macaulay = h == q + 1
    verdicts["cm_iff_veronese"] = (
        "pass" if cohen_macaulay == veronese else "fail"
    )
    # The bounds ``ara_bounds(mi, search=False)`` gives, from this q: none
    # when q misses n - d (``q_index`` raises) or a construction raises.
    found = None
    if q == n - d:
        try:
            found = construct_certificate(mi)
        except InvariantViolation:
            pass
    ara_lower = q + 1
    if found is None:
        verdicts["sv_certificate"] = "skip"
        verdicts["cm_iff_stci"] = "skip"
        ara_upper, ara_exact, certificate = None, None, None
    else:
        certificate = found[1]
        ara_upper = len(certificate.layers)
        ara_exact = ara_upper == ara_lower
        verdicts["sv_certificate"] = "pass" if ara_upper == n - d + 1 else "fail"
        set_theoretic_ci = h == ara_upper
        verdicts["cm_iff_stci"] = (
            "pass" if set_theoretic_ci == cohen_macaulay else "fail"
        )
    return BatteryResult(
        n=n,
        d=d,
        q=q,
        height=h,
        unmixed=unmixed,
        cohen_macaulay=cohen_macaulay,
        ara_lower=ara_lower,
        ara_upper=ara_upper,
        ara_exact=ara_exact,
        verdicts=verdicts,
        certificate=certificate,
    )


@dataclass(frozen=True)
class ScanReport:
    """Aggregate of an enumeration scan: theorem counts and conjecture tallies.

    Certified means a layering of size n-d+1 was produced (by the
    battery's construction, else by the budgeted search) and re-verified:
    the scan itself passed it through ``verify_sv``.  The construction or
    the search has checked that layering and recorded the verdict on it,
    so the re-check reads that recorded verdict rather than checking the
    layering a second time.  Inconclusive means every other outcome, never
    a refutation: no construction applied and the search found nothing,
    the layering had another size, or the re-check rejected it.
    ``all_certificates_reverified`` is False when some size-(n-d+1)
    layering failed the re-check.
    """

    n: int
    d: int
    up_to_symmetry: bool
    total_ideals: int
    theorem_counts: dict[str, dict[str, int]]
    certified: int
    inconclusive: int
    all_certificates_reverified: bool
    budget: int
    elapsed_seconds: float


def conjecture_scan(
    n: int,
    d: int,
    budget: int = SCAN_BUDGET,
    up_to_symmetry: bool = True,
) -> ScanReport:
    """Attempt a size-(n-d+1) certificate for every enumerated ideal.

    The battery's construction is reused; ``search_cert`` runs only for
    the ideals no construction covers.  Each layering is re-verified
    through ``verify_sv``, which reads the verdict the construction or the
    search recorded on it.  A negative ``budget`` raises ValueError before
    anything is enumerated, searched or not.
    """
    if budget < 0:
        raise ValueError(f"search budget must be nonnegative, got {budget}")
    start = time.perf_counter()
    counts = {name: {"pass": 0, "fail": 0, "skip": 0} for name in THEOREMS}
    total = certified = inconclusive = 0
    all_reverified = True
    target = n - d + 1
    for mi in enumerate_matroidal(n, d, up_to_symmetry=up_to_symmetry):
        total += 1
        battery = theorem_battery(mi)
        for name in THEOREMS:
            counts[name][battery.verdicts[name]] += 1
        partition = battery.certificate
        if partition is None:
            partition = search_cert(mi, target, budget=budget).partition
        if partition is not None and len(partition.layers) == target:
            if verify_sv(partition):
                certified += 1
                continue
            all_reverified = False
        inconclusive += 1
    return ScanReport(
        n=n,
        d=d,
        up_to_symmetry=up_to_symmetry,
        total_ideals=total,
        theorem_counts=counts,
        certified=certified,
        inconclusive=inconclusive,
        all_certificates_reverified=all_reverified,
        budget=budget,
        elapsed_seconds=time.perf_counter() - start,
    )
