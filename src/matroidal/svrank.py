"""Schmitt-Vogel certificates for the arithmetical rank of matroidal ideals.

A layered partition P_0..P_r of the generators is a certificate when P_0
is a singleton and any two distinct elements of a layer have their product
divisible by an element of an earlier layer; the layer sums then generate
the ideal up to radical, so r+1 bounds the arithmetical rank from above.
The projective dimension bounds it from below, and the two meet at
q(I) + 1 = n - d + 1 whenever a certificate of that size exists.

``construct_certificate`` is the one construction ladder.  Every rung
reads only the validated ``MatroidalIdeal``: its cocircuits pick the rung
and its exchange masks give the layers, u going in the layer that counts
its external exchanges.  Square-free Veronese ideals and variable block
products take the instance's natural-order ``_colon_masks``, the colon
steps of ``quotients``; degree-2 ideals take the masks in the part order
(``matroids._external_masks``, or the colon masks when that order is the
natural one), the parts being the complements of the cocircuits.  Every
layering it returns has passed ``verify_sv``.  A complete layered-partition
search covers everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from .decomposition import _cocircuit_blocks, _is_veronese
from .ideals import (
    Ideal,
    InvariantViolation,
    Monomial,
    _canonical,
    _require_full_support,
    minimal_generators,
    mono,
    mono_vars,
    star_product,
    witness_text,
)
from .matroids import MatroidalIdeal, _completions, _external_masks, _holders, veronese
from .oracle import Poly, RadicalCertificate, _exponents
from .quotients import q_index

# Default node budget of ``search_cert``, ``ara_bounds`` and ``matroidal cert``.
SEARCH_BUDGET = 50000


@dataclass(frozen=True)
class SVPartition:
    """Ordered disjoint nonempty layers P_0..P_r covering G(I)."""

    ideal: Ideal
    layers: tuple[frozenset[Monomial], ...]

    @property
    def r(self) -> int:
        return len(self.layers) - 1


@dataclass(frozen=True)
class SVCheck:
    """Certificate check outcome; ``witness`` pins the first failure."""

    ok: bool
    failure: str | None = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


def verify_sv(partition: SVPartition) -> SVCheck:
    """Check the layering conditions, reporting the first failing pair.

    Conditions: layers are nonempty and disjoint and cover the generators,
    the first layer is a singleton, and for i > 0 any two distinct p, p' in
    P_i have some earlier-layer element dividing p*p'.

    The generators are numbered layer by layer, and one table of holder
    columns is read over that numbering (``matroids._holders``, from the
    packed 64-bit words): a variable's column holds the numbers of the
    generators holding it, so a layer's own columns are a shift of it.

    The pair condition first runs a single-exchange pass per layer
    (``_unsettled_pairs``).  A completion map of the earlier layers, grown
    one layer at a time and never by the last, gives, for each a in P_i
    and x in a, every y with a - x + y in an earlier layer; each b in P_i
    holding such a y is settled with a, since
    a - x + y lies in the union of a and b and so divides a*b.  This is
    sound for any partition, matroidal or not, and costs about
    |P_i| d (n - d) mask operations instead of |P_i|^2 pair tests.  Only
    the pairs left over go through the exact scan: the earlier layers of
    P_i are a prefix mask of the numbering, and the generators dividing
    p*p' come from the same columns, memoised by the product's support
    (``_Dividers``).  The scan visits the pairs left over in canonical
    order within the layer, and every settled pair holds, so the witness
    is still the first failing pair in that order.  The memo and the
    canonical sort are built only when some pair is left over.

    Measured, not proven: the pass left no pair over on any exchange
    layering tried, that is every ``construct_certificate`` result of the
    grid cells, every search result of the (6,3) scan and Veronese
    layerings up to V(15,7); then the scan never runs.
    """
    layers = partition.layers
    if not layers:
        return SVCheck(False, "empty_partition")
    seen: set[Monomial] = set()
    for i, layer in enumerate(layers):
        if not layer:
            return SVCheck(False, "empty_layer", i)
        overlap = layer & seen
        if overlap:
            return SVCheck(False, "overlap", (i, min(overlap)))
        seen |= layer
    genset = set(partition.ideal.gens)
    if seen != genset:
        missing = tuple(sorted(genset - seen))
        extra = tuple(sorted(seen - genset))
        return SVCheck(False, "union_mismatch", (missing, extra))
    if len(layers[0]) != 1:
        return SVCheck(False, "layer0_size", len(layers[0]))
    numbered = list(chain.from_iterable(layers))
    columns = _holders(numbered)
    earlier: dict[Monomial, int] = {}  # the completion map of P_0..P_{i-1}
    dividers: _Dividers | None = None
    start = 0
    for i, layer in enumerate(layers[1:], start=1):
        _completions(layers[i - 1], earlier)
        start += len(layers[i - 1])
        members = numbered[start : start + len(layer)]
        left = _unsettled_pairs(members, earlier, columns, start)
        if left:
            if dividers is None:
                dividers = _Dividers(columns, len(numbered))
            canonical = _canonical(layer)
            rank = {g: k for k, g in enumerate(canonical)}
            prefix = (1 << start) - 1
            for ka, kb in sorted(sorted((rank[a], rank[b])) for a, b in left):
                a, b = canonical[ka], canonical[kb]
                if not dividers[a | b] & prefix:
                    return SVCheck(False, "pair", (i, a, b))
    return SVCheck(True)


def _unsettled_pairs(
    members: list[Monomial],
    earlier: dict[Monomial, int],
    columns: dict[int, int],
    start: int,
) -> list[tuple[Monomial, Monomial]]:
    """The pairs of a layer's ``members`` that no single exchange settles.

    ``earlier`` is the completion map of the earlier layers, so
    ``earlier[a - x]`` holds every y with a - x + y in an earlier layer.
    ``columns`` are the holder columns of a numbering that holds the
    earlier layers and has the members at ``start``, ``start + 1``, ...;
    they are shifted to the layer only when it has two members or more.
    ``covered[k]`` is the mask of the members holding such a y for member
    k; a pair is settled when either member covers the other.
    """
    if len(members) < 2:
        return []
    full = (1 << len(members)) - 1
    holders = {v: column >> start & full for v, column in columns.items()}
    covered = []
    for a in members:
        ys = 0
        rest = a
        while rest:
            x = rest & -rest
            ys |= earlier.get(a ^ x, 0)
            rest ^= x
        mask = 0
        while ys:
            y = ys & -ys
            mask |= holders[y]
            ys ^= y
        covered.append(mask)
    left = []
    for k, mask in enumerate(covered):
        # The partners j > k that member k does not cover.
        miss = full & ~mask & ~((2 << k) - 1)
        while miss:
            low = miss & -miss
            j = low.bit_length() - 1
            if not covered[j] >> k & 1:
                left.append((members[k], members[j]))
            miss ^= low
    return left


def _checked(partition: SVPartition, what: str) -> SVPartition:
    """A constructed layering, after ``verify_sv`` accepted it."""
    check = verify_sv(partition)
    if not check:
        raise InvariantViolation(f"{what} layering failed: {check.failure}")
    return partition


def _exchange_layering(
    mi: MatroidalIdeal, masks: Iterable[int], what: str
) -> SVPartition:
    """Layer k holds the generators u whose external mask has k members.

    ``masks`` is ``matroids._external_masks`` in some variable order, one
    per generator.  Given ``mi._colon_masks``, the natural order's, the
    layer of u is the size of its colon step in the canonical order.
    """
    layer_map: dict[int, set[Monomial]] = {}
    for u, external in zip(mi.ideal.gens, masks):
        layer_map.setdefault(external.bit_count(), set()).add(u)
    layers = tuple(frozenset(layer_map.get(k, ())) for k in range(max(layer_map) + 1))
    return _checked(SVPartition(mi.ideal, layers), what)


def sv_sums(partition: SVPartition) -> RadicalCertificate:
    """Layer sums of a verified partition, as a radical certificate."""
    check = verify_sv(partition)
    if not check:
        witness = witness_text(check.failure, check.witness)
        raise ValueError(f"unverified partition ({check.failure}): {witness}")
    return _layer_sums(partition)


def _layer_sums(partition: SVPartition) -> RadicalCertificate:
    """``sv_sums`` for a partition whose ``verify_sv`` check has passed."""
    n = partition.ideal.n
    polys = []
    for layer in partition.layers:
        gens = _canonical(layer)
        polys.append(Poly(n, {_exponents(m, n): 1 for m in gens}))
    return RadicalCertificate(tuple(polys), partition.ideal, "sv_partition")


def veronese_cert(n: int, d: int) -> SVPartition:
    """Canonical layering of the square-free Veronese ideal.

    The exchange rule in the natural order: y counts iff y is outside u
    and below max u, so u sits in layer max u - d.  There are n-d+1
    layers, and layer i > 0 holds C(d+i-1, d-1) generators.
    """
    mi = veronese(n, d)
    return _exchange_layering(mi, mi._colon_masks, "Veronese")


def variable_cert(variables, n: int) -> RadicalCertificate:
    """Trivial certificate for an ideal generated by distinct variables."""
    vs = sorted(set(variables))
    if not vs:
        raise ValueError("need at least one variable")
    target = minimal_generators({mono((v,)) for v in vs}, n)
    polys = tuple(Poly.from_monomial(mono((v,)), n) for v in vs)
    return RadicalCertificate(polys, target, "manual")


def product_cert(certs: list[RadicalCertificate]) -> RadicalCertificate:
    """Fold certificates of disjointly supported ideals over anti-diagonals.

    For certificates a_0..a_{u-1} and b_0..b_{v-1} the combined family is
    c_k = sum_{i+j=k} a_i*b_j, of size u+v-1, certifying the star product;
    folding left extends this to any number of factors.
    """
    if not certs:
        raise ValueError("need at least one certificate")
    result = certs[0]
    for other in certs[1:]:
        target = star_product([result.target, other.target])
        u, v = len(result.polys), len(other.polys)
        polys = []
        for k in range(u + v - 1):
            s = Poly.zero(target.n)
            for i in range(u):
                j = k - i
                if 0 <= j < v:
                    s = s + result.polys[i] * other.polys[j]
            polys.append(s)
        result = RadicalCertificate(tuple(polys), target, "product_composition")
    return result


def degree2_cert(mi: MatroidalIdeal) -> SVPartition:
    """Anti-diagonal layering for a degree-2 matroidal ideal.

    Like every rung of the ladder it reads only the instance: the parts
    are the complements of its cocircuits.  The exchange rule in the part
    order (parts by descending size, then smallest member; members
    ascending).  For {a, b} with a the i-th variable and b the j-th after
    a's part, the variables that count are those before a and those
    between a's part and b: layer i + j - 2, over exactly n-1 layers.
    """
    if mi.d != 2:
        raise ValueError("degree-2 partition needs a degree-2 ideal")
    _require_full_support(mi.ideal)
    everything = (1 << mi.ideal.n) - 1
    parts = [everything & ~c for c in mi._cocircuits]
    parts.sort(key=lambda p: (-p.bit_count(), p & -p))
    order = [v for part in parts for v in mono_vars(part)]
    # The parts cover 1..n, so an ascending order is the natural one.
    masks = mi._colon_masks if order == sorted(order) else _external_masks(mi, order)
    return _exchange_layering(mi, masks, "degree-2")


def construct_certificate(
    mi: MatroidalIdeal, method: str = "auto"
) -> tuple[str, SVPartition] | None:
    """The first construction that applies, as ``(method, layering)``.

    ``auto`` climbs the ladder: Veronese layering, then variable block
    product, then degree-2 anti-diagonals, and returns None when none
    applies.  A forced ``method`` that does not apply raises ValueError.
    Every rung reads only the instance; the degree-2 order comes from its
    cocircuits, as the complements of the parts.  In a block product y can
    replace only the variable of u in its own block, so the natural order
    puts u in the sum of its block positions.  Every returned layering has
    passed ``verify_sv``.
    """
    if method in ("auto", "veronese"):
        if _is_veronese(mi):
            return "veronese", _exchange_layering(mi, mi._colon_masks, "Veronese")
        if method == "veronese":
            raise ValueError("not a square-free Veronese ideal")
    if method in ("auto", "product"):
        if _cocircuit_blocks(mi) is not None:
            return "product", _exchange_layering(mi, mi._colon_masks, "block product")
        if method == "product":
            raise ValueError("not a variable block product")
    if method in ("auto", "degree2"):
        if mi.d == 2:
            return "degree2", degree2_cert(mi)
        if method == "degree2":
            raise ValueError("degree is not 2")
    if method != "auto":
        raise ValueError(f"unknown construction {method!r}")
    return None


@dataclass(frozen=True)
class SearchResult:
    """Search outcome.

    ``exhausted`` means the entire layered-partition space at this size was
    explored without a certificate; that never lower-bounds the
    arithmetical rank (the layering condition is sufficient, not
    necessary).  Otherwise a missing partition just means the node budget
    ran out.
    """

    partition: SVPartition | None
    exhausted: bool
    nodes: int


class _Dividers(dict):
    """Memo from a product's support to the generators dividing the product.

    ``dividers[prod]`` is the bitmask of generator indices w with w
    dividing any monomial of support ``prod``, computed on first lookup
    from the holder columns of ``count`` generators (``matroids._holders``,
    the generators containing x_v): w divides the product exactly when it
    contains no variable outside the support.
    """

    def __init__(self, containing: dict[int, int], count: int):
        super().__init__()
        self._full = (1 << count) - 1
        self._containing = containing
        self._support = sum(containing)

    def __missing__(self, prod: Monomial) -> int:
        outside = self._support & ~prod
        excluded = 0
        while outside:
            low = outside & -outside
            excluded |= self._containing[low]
            outside ^= low
        cover = self[prod] = self._full & ~excluded
        return cover


def _hits_every_cover(
    covers: Iterable[int], cands: int, conflict: list[int], allowance: int
) -> bool | None:
    """Whether some nonempty independent S of ``cands`` meets every cover.

    ``conflict[c]`` is the mask of the candidates that conflict with c; a
    set is independent when no two of its members conflict.  An exact
    search: it branches on the open cover with the fewest live candidates,
    takes each of them in turn and excludes it from the later branches.
    Each branch costs one unit of ``allowance``; None means it ran out
    before an answer.  The open branches sit on an explicit stack.
    """
    covers = [cover & cands for cover in covers]
    if not covers:
        return cands != 0
    # Frames: [live candidates, open covers cut to them, choices left].
    stack = [[cands, covers, min(covers, key=int.bit_count)]]
    while stack:
        frame = stack[-1]
        live, open_covers, choices = frame
        if not choices:
            stack.pop()
            continue
        allowance -= 1
        if allowance < 0:
            return None
        bit = choices & -choices
        frame[0], frame[2] = live ^ bit, choices ^ bit
        live &= ~bit & ~conflict[bit.bit_length() - 1]
        rest = [cover & live for cover in open_covers if not cover & bit]
        if not rest:
            return True
        choices = min(rest, key=int.bit_count)
        if choices:
            stack.append([live, rest, choices])
    return False


def _dead_layer_nodes(cands: int, conflict: list[int], room: int) -> int:
    """Nodes past the entry descent of a layer before the last with no valid S.

    Each nonempty independent S of ``cands`` costs size - position of its
    highest member h + 1, leaf included.  The sets below h are counted by
    their own highest member, c(K) = sum over h in K of c(K_<h - N(h)) + 1,
    memoised, and cut short past ``room`` (each set costs at least 2), so
    a result above ``room`` means out of budget.
    """
    counted: dict[int, int] = {}

    def count(cands: int) -> int:
        number = 0
        rest = cands
        while rest:
            h = rest.bit_length() - 1
            rest ^= 1 << h
            sub = rest & ~conflict[h]
            number += (counted.get(sub) or count(sub)) + 1 if sub else 1
            if number > room:
                return number
        counted[cands] = number
        return number

    nodes = number = 0
    rest, size = cands, cands.bit_count()
    while rest and number <= room:
        h = rest.bit_length() - 1
        weight = size - rest.bit_count() + 2
        rest ^= 1 << h
        sub = rest & ~conflict[h]
        k = (counted.get(sub) or count(sub)) + 1 if sub else 1
        number += k
        nodes += k * weight
    return nodes


def search_cert(
    mi: MatroidalIdeal, target_size: int, budget: int = SEARCH_BUDGET
) -> SearchResult:
    """Complete search for a certificate with exactly ``target_size`` layers.

    Layers are filled in order, so the divisibility condition for a layer
    is decided exactly against the finalized earlier layers: every pruned
    branch is genuinely dead.  Generators are indices and sets of them int
    bitmasks.  Two candidates of a layer conflict when no generator of an
    earlier layer divides their product (``_Dividers``); a layer takes an
    independent set S of this conflict graph.

    After each singleton P_0 every layer goes through one routine, which
    yields its sets S in the order of the exclusion-first walk over its
    candidates: highest candidate first, each S before its extensions by
    higher candidates, which reaches small early layers (the shape the
    constructions produce) quickly.  Each node of that walk costs one unit
    of ``budget``, as the list-based reference search in the test suite
    counts it: a layer of ``size`` candidates adds ``size`` for its
    all-exclusion descent, and each S adds size minus the position of its
    highest member (that member's pick and the descent below it), plus a
    leaf node when S leaves a generator for each later layer; only then
    does the search go on below S.  The last layer takes what is left and
    adds nothing: its node is the leaf before it.  The budget is checked
    on the running total, so the search runs out where the walk would and
    reports ``budget + 1`` nodes.

    The layer before the last must leave a valid last layer: its S must
    meet every open cover, the generators dividing the product of a
    conflicting pair, as a cover holds its own pair.  For that layer the
    routine adds one step after the entry descent: it builds the whole
    conflict graph and the open covers, then runs an exact hitting-set
    test (``_hits_every_cover``) whose branches spend the budget left but
    add no nodes.  When no independent S meets every cover, each S is a
    proper subset, as some pair conflicts, so the walk would take every
    leaf and yield nothing: its nodes are counted instead
    (``_dead_layer_nodes``).  Otherwise, or when the test runs out, the
    walk reads the conflict rows the test built and yields only the sets
    that meet every cover.  Earlier layers skip the step, and their walk
    finds a candidate's conflicts with higher ones when it first reaches
    that candidate.

    Python recursion stays within one layer: once per member of S, which
    comes after its 2^|S| - 2 other nonempty subsets at a node each, or
    of a counted set.  The open layers and the test's branches sit on
    explicit stacks.
    """
    if target_size < 1:
        raise ValueError("target size must be at least one layer")
    if budget < 0:
        raise ValueError(f"search budget must be nonnegative, got {budget}")
    gens = list(mi.ideal.gens)
    if target_size > len(gens):
        return SearchResult(None, True, 0)
    dividers = _Dividers(_holders(gens), len(gens))
    nodes = 0

    def found(used: list[int]) -> SearchResult:
        # ``used[k]``: the generators of layers 0..k.
        layers = tuple(
            frozenset(g for i, g in enumerate(gens) if (mask ^ below) >> i & 1)
            for below, mask in zip([0] + used, used)
        )
        partition = _checked(SVPartition(mi.ideal, layers), "search")
        return SearchResult(partition, False, nodes)

    def layer(cands: int, earlier: int, left: int) -> Iterator[int]:
        # The sets S this layer takes from the candidates ``cands`` under
        # the ``earlier`` layers, ``left`` layers before the end, in order.
        nonlocal nodes
        size = cands.bit_count()
        nodes += size  # the all-exclusion entry descent
        if nodes > budget:
            return
        conflict: list[int | None] = [None] * len(gens)  # above, once reached
        covers: set[int] = set()  # open covers each S must meet
        if left == 1:
            # The layer before the last: the whole conflict graph and the
            # open covers, then the cover test.
            conflict = [0] * len(gens)
            seen: list[tuple[int, Monomial]] = []
            for a in range(len(gens)):
                if cands >> a & 1:
                    ga, bit = gens[a], 1 << a
                    for b, gb in seen:
                        cover = dividers[ga | gb]
                        if not cover & earlier:
                            conflict[a] |= 1 << b
                            conflict[b] |= bit
                            covers.add(cover)
                    seen.append((a, ga))
            room = budget - nodes
            if _hits_every_cover(covers, cands, conflict, room) is False:
                nodes += _dead_layer_nodes(cands, conflict, room)
                return
        members = [i for i in range(len(gens)) if cands >> i & 1]
        weight = [0] * len(gens)  # by index: size - position
        for j, a in enumerate(members):
            weight[a] = size - j

        def extend(taken: int, cands: int, spare: int) -> Iterator[int]:
            # ``taken`` plus each nonempty independent subset of ``cands``;
            # ``spare``: size - left - |taken|, positive when taken + c has
            # a leaf.
            nonlocal nodes
            above = 0
            leaf = spare > 0
            while cands:
                c = cands.bit_length() - 1
                bit = 1 << c
                cands ^= bit
                chosen = taken | bit
                nodes += weight[c] + leaf
                if nodes > budget:
                    return
                if leaf and all(cover & chosen for cover in covers):
                    yield chosen
                if above:
                    conflicting = conflict[c]
                    if conflicting is None:
                        gc, conflicting = gens[c], 0
                        for b in members[size - weight[c] + 1 :]:
                            if not dividers[gc | gens[b]] & earlier:
                                conflicting |= 1 << b
                        conflict[c] = conflicting
                    later = above & ~conflicting
                    if later:
                        yield from extend(chosen, later, spare - 1)
                above |= bit

        yield from extend(0, cands, size - left)

    if target_size == 1:
        # The only layer is the singleton P_0.
        return found([1]) if len(gens) == 1 else SearchResult(None, True, 0)
    everyone = (1 << len(gens)) - 1
    for p0 in range(len(gens)):
        nodes += 1
        if nodes > budget:
            return SearchResult(None, False, budget + 1)
        first = 1 << p0
        if target_size == 2:
            # The rest is the last layer.
            rest = [g for i, g in enumerate(gens) if i != p0]
            if all(
                dividers[a | b] & first
                for j, a in enumerate(rest)
                for b in rest[:j]
            ):
                return found([first, everyone])
            continue
        # One routine per open layer; ``used[k]`` holds the generators of
        # the layers below ``stack[k]``.
        used = [first]
        stack = [layer(everyone ^ first, first, target_size - 2)]
        while stack:
            taken = next(stack[-1], 0)
            if nodes > budget:
                return SearchResult(None, False, budget + 1)
            if not taken:
                stack.pop()
                used.pop()
                continue
            below = used[-1] | taken
            left = target_size - 1 - len(stack)
            if left == 1:
                # The rest is the last layer.
                return found(used + [below, everyone])
            used.append(below)
            stack.append(layer(everyone ^ below, below, left - 1))
    return SearchResult(None, True, nodes)


@dataclass(frozen=True)
class AraBounds:
    """Bracketing of the arithmetical rank.

    ``lower`` is the projective-dimension bound q(I)+1; ``upper`` the size
    of the verified layering ``certificate``, when one was produced;
    ``exact`` when they meet.
    """

    lower: int
    upper: int | None
    exact: bool | None
    method: str | None
    certificate: SVPartition | None


def ara_bounds(
    mi: MatroidalIdeal, search: bool = True, search_budget: int = SEARCH_BUDGET
) -> AraBounds:
    """Lower bound q(I)+1 plus the best available certificate upper bound.

    The certificate comes from ``construct_certificate``; when no
    construction applies, from an optional budgeted search at the lower
    bound.  Requires full support.  A negative ``search_budget`` raises
    ValueError before any work, whether or not a search would run.
    """
    if search_budget < 0:
        raise ValueError(f"search budget must be nonnegative, got {search_budget}")
    lower = q_index(mi) + 1
    method, certificate = construct_certificate(mi) or (None, None)
    if certificate is None and search:
        certificate = search_cert(mi, lower, budget=search_budget).partition
        method = "search" if certificate is not None else None
    upper = len(certificate.layers) if certificate is not None else None
    exact = (upper == lower) if upper is not None else None
    return AraBounds(lower, upper, exact, method, certificate)
