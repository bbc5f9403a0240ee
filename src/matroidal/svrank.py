"""Schmitt-Vogel certificates for the arithmetical rank of matroidal ideals.

A layered partition P_0..P_r of the generators is a certificate when P_0
is a singleton and any two distinct elements of a layer have their product
divisible by an element of an earlier layer; the layer sums then generate
the ideal up to radical, so r+1 bounds the arithmetical rank from above.
The projective dimension bounds it from below, and the two meet at
q(I) + 1 = n - d + 1 whenever a certificate of that size exists.

``construct_certificate`` is the one construction ladder.  Its rungs are
one exchange rule read in a variable order: the natural order for
square-free Veronese ideals and variable block products, the part order
for degree-2 ideals.  Every layering it returns has passed ``verify_sv``.
A complete layered-partition search covers everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .decomposition import (
    degree2_partition,
    recognize_var_block_product,
    recognize_veronese,
)
from .ideals import (
    Ideal,
    InvariantViolation,
    Monomial,
    minimal_generators,
    mono,
    mono_str,
    mono_vars,
    parse_mono,
    star_product,
)
from .matroids import MatroidalIdeal, veronese
from .oracle import Poly, poly_str
from .quotients import q_index


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

    The pair condition runs on bitmasks: the generators are numbered layer
    by layer, so the earlier layers of P_i are a prefix mask, and the
    generators dividing p*p' come from per-variable masks memoised by the
    product's support (``_Dividers``); a support that held once in a
    layer is not tested again there.  Pairs are visited in canonical order
    within each layer, so the witness is the first failing pair.
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
    ordered = [sorted(layer, key=mono_vars) for layer in layers]
    dividers = _Dividers([g for layer in ordered for g in layer])
    start = 1
    for i, layer in enumerate(ordered[1:], start=1):
        earlier = (1 << start) - 1
        passed: set[Monomial] = set()  # supports of the pairs that held
        for k, a in enumerate(layer):
            for b in layer[k + 1 :]:
                prod = a | b
                if prod in passed:
                    continue
                if not dividers[prod] & earlier:
                    return SVCheck(False, "pair", (i, a, b))
                passed.add(prod)
        start += len(layer)
    return SVCheck(True)


def _checked(partition: SVPartition, what: str) -> SVPartition:
    """A constructed layering, after ``verify_sv`` accepted it."""
    check = verify_sv(partition)
    if not check:
        raise InvariantViolation(f"{what} layering failed: {check.failure}")
    return partition


def _exchange_layering(ideal: Ideal, order: Iterable[int], what: str) -> SVPartition:
    """Layer k holds the generators u with k external exchanges in ``order``.

    A variable y outside u counts when it replaces a later variable x of u:
    y precedes x in ``order`` and u - x + y is a generator (a colon variable
    of the linear-quotient order; external activity).  The count is the
    popcount of the OR over x in u of ``completions[u - x] & before[x]``.
    """
    before: dict[int, int] = {}  # keyed by the variable's bit
    seen = 0
    for v in order:
        before[1 << (v - 1)] = seen
        seen |= 1 << (v - 1)
    completions: dict[Monomial, int] = {}  # the y with m + y a generator
    for g in ideal.gens:
        rest = g
        while rest:
            x = rest & -rest
            completions[g ^ x] = completions.get(g ^ x, 0) | x
            rest ^= x
    layer_map: dict[int, set[Monomial]] = {}
    for u in ideal.gens:
        external = 0
        rest = u
        while rest:
            x = rest & -rest
            external |= completions[u ^ x] & before[x]
            rest ^= x
        layer_map.setdefault(external.bit_count(), set()).add(u)
    layers = tuple(frozenset(layer_map.get(k, ())) for k in range(max(layer_map) + 1))
    return _checked(SVPartition(ideal, layers), what)


@dataclass(frozen=True)
class RadicalCertificate:
    """Polynomials generating the target up to radical, with provenance.

    Every term of every polynomial must lie in the target, so each
    polynomial does; construction validates this term-wise.
    """

    polys: tuple[Poly, ...]
    target: Ideal
    provenance: str  # "sv_partition" | "product_composition" | "manual"

    def __post_init__(self):
        genset = self.target.gens
        for p in self.polys:
            if p.is_zero():
                raise ValueError("certificate contains the zero polynomial")
            if p.n != self.target.n:
                raise ValueError("certificate polynomial in the wrong ring")
            for e in p.terms:
                sup = sum(1 << i for i, exp in enumerate(e) if exp)
                if not any(g & sup == g for g in genset):
                    raise ValueError(
                        "certificate term lies outside the target ideal"
                    )


def sv_sums(partition: SVPartition) -> RadicalCertificate:
    """Layer sums of a verified partition, as a radical certificate."""
    check = verify_sv(partition)
    if not check:
        raise ValueError(
            f"unverified partition ({check.failure}): {check.witness}"
        )
    return _layer_sums(partition)


def _layer_sums(partition: SVPartition) -> RadicalCertificate:
    """``sv_sums`` for a partition whose ``verify_sv`` check has passed."""
    n = partition.ideal.n
    polys = []
    for layer in partition.layers:
        s = Poly.zero(n)
        for m in sorted(layer, key=mono_vars):
            s = s + Poly.from_monomial(m, n)
        polys.append(s)
    return RadicalCertificate(tuple(polys), partition.ideal, "sv_partition")


def veronese_cert(n: int, d: int) -> SVPartition:
    """Canonical layering of the square-free Veronese ideal.

    The exchange rule in the natural order: y counts iff y is outside u
    and below max u, so u sits in layer max u - d.  There are n-d+1
    layers, and layer i > 0 holds C(d+i-1, d-1) generators.
    """
    return _exchange_layering(veronese(n, d).ideal, range(1, n + 1), "Veronese")


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

    The exchange rule in the part order (parts by descending size, then
    smallest member; members ascending).  For {a, b} with a the i-th
    variable and b the j-th after a's part, the variables that count are
    those before a and those between a's part and b: layer i + j - 2,
    over exactly n-1 layers.
    """
    parts = sorted(degree2_partition(mi).parts, key=lambda p: (-len(p), sorted(p)))
    order = [v for part in parts for v in sorted(part)]
    return _exchange_layering(mi.ideal, order, "degree-2")


def construct_certificate(
    mi: MatroidalIdeal, method: str = "auto"
) -> tuple[str, SVPartition] | None:
    """The first construction that applies, as ``(method, layering)``.

    ``auto`` climbs the ladder: Veronese layering, then variable block
    product, then degree-2 anti-diagonals, and returns None when none
    applies.  A forced ``method`` that does not apply raises ValueError.
    In a block product y can replace only the variable of u in its own
    block, so the natural order puts u in the sum of its block positions.
    Every returned layering has passed ``verify_sv``.
    """
    ideal = mi.ideal
    natural = range(1, ideal.n + 1)
    if method in ("auto", "veronese"):
        if recognize_veronese(ideal):
            return "veronese", _exchange_layering(ideal, natural, "Veronese")
        if method == "veronese":
            raise ValueError("not a square-free Veronese ideal")
    if method in ("auto", "product"):
        blocks = recognize_var_block_product(ideal)
        if blocks is not None:
            return "product", _exchange_layering(ideal, natural, "block product")
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
    from per-variable masks (the generators containing x_v): w divides the
    product exactly when it contains no variable outside the support.
    """

    def __init__(self, gens: list[Monomial]):
        super().__init__()
        containing: dict[int, int] = {}
        for i, g in enumerate(gens):
            bit = 1 << i
            while g:
                low = g & -g
                containing[low] = containing.get(low, 0) | bit
                g ^= low
        self._full = (1 << len(gens)) - 1
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


class _PairCovers:
    """Lazily built table of the generators dividing each pairwise product.

    ``row(a)[b]`` is the bitmask of generator indices w with w dividing
    gens[a] * gens[b].  A row is built the first time generator a is
    tested, from entries memoised by the product's support (``_Dividers``).
    """

    def __init__(self, gens: list[Monomial]):
        self._gens = gens
        self._dividers = _Dividers(gens)
        self._rows: list[list[int] | None] = [None] * len(gens)

    def row(self, a: int) -> list[int]:
        cached = self._rows[a]
        if cached is not None:
            return cached
        dividers = self._dividers
        ga = self._gens[a]
        row = self._rows[a] = [dividers[ga | g] for g in self._gens]
        return row


def search_cert(
    mi: MatroidalIdeal, target_size: int, budget: int = 50000
) -> SearchResult:
    """Complete search for a certificate with exactly ``target_size`` layers.

    Layers are filled in order, so the divisibility condition for a layer
    is decided exactly against the finalized earlier layers: every pruned
    branch is genuinely dead.  Generators are taken in canonical order and
    subsets enumerated exclusion-first, which reaches small early layers
    (the shape the constructions produce) quickly.

    Generators are handled by index and sets of them as int bitmasks: a
    pair of layer candidates is compatible when the lazily built pair-cover
    bitmask (the generators dividing their product) meets the mask of the
    earlier layers.  Within a layer, each candidate's "cannot share a layer
    with" mask is computed once, so admissibility is one AND against the
    chosen set.  The walk keeps its own stack instead of recursing once
    per generator; the solver below recurses once per member of the layer
    it builds.  Every node of the exclusion-first subset tree costs one
    unit of ``budget``, counted exactly as the list-based reference search
    in the test suite counts it; a search that runs out reports
    ``budget + 1`` nodes.

    The layer before the last is solved, not walked.  Its candidates S are
    the independent sets of the conflict graph (two remaining generators
    conflict when no earlier one divides their product), met in the walk's
    order, and S leaves a valid last layer exactly when it meets every open
    cover.  Each S adds the walk's nodes for it: its all-exclusion descent
    and its leaf (S never takes everything: the first S is valid when no
    pair conflicts).  When an open cover misses the taken set and every
    later candidate that can join it, no extension can meet that cover and
    the walk would return nothing there, so the subtree's nodes are counted
    instead (memoised per layer).  The budget is checked on the running
    total: it runs out where the walk's would.
    """
    if target_size < 1:
        raise ValueError("target size must be at least one layer")
    if budget < 0:
        raise ValueError(f"search budget must be nonnegative, got {budget}")
    gens = list(mi.ideal.gens)
    if target_size > len(gens):
        return SearchResult(None, True, 0)
    row = _PairCovers(gens).row
    out_of_budget = SearchResult(None, False, budget + 1)

    def conflicts_of(remaining: list[int], j: int, earlier: int) -> int:
        cover = row(remaining[j])
        conflict = 0
        for h in remaining[:j]:
            if not cover[h] & earlier:
                conflict |= 1 << h
        return conflict

    def found(masks: list[int], nodes: int) -> SearchResult:
        layers = tuple(
            frozenset(g for i, g in enumerate(gens) if mask >> i & 1)
            for mask in masks
        )
        partition = SVPartition(mi.ideal, layers)
        check = verify_sv(partition)
        if not check:
            raise InvariantViolation(
                f"search produced an invalid partition: {check.failure}"
            )
        return SearchResult(partition, False, nodes)

    def last_two(
        remaining: list[int], earlier: int, upper: list[int]
    ) -> SearchResult | None:
        # The search's result if it ends in these last two layers, under
        # the layers ``upper``; None once they are exhausted.
        nonlocal nodes
        size = len(remaining)
        nodes += size  # the all-exclusion entry descent
        if nodes > budget:
            return out_of_budget
        full = 0
        weight = [0] * len(gens)  # by index: size - position, the descent
        conflict = [0] * len(gens)
        covers: set[int] = set()
        for j, a in enumerate(remaining):
            bit = 1 << a
            full |= bit
            weight[a] = size - j
            cover = row(a)
            for b in remaining[:j]:
                if not cover[b] & earlier:
                    conflict[a] |= 1 << b
                    conflict[b] |= bit
                    covers.add(cover[b])
        counted: dict[int, tuple[int, int]] = {}

        def count(cands: int) -> tuple[int, int]:
            # Number and node cost of the nonempty independent subsets of
            # ``cands`` by their highest member h, c(K) = c(K-h) + 1 +
            # c(K-h-N(h)); cut short past the budget (each costs >= 2).
            number = cost = 0
            room = budget - nodes
            rest = cands
            while rest:
                h = rest.bit_length() - 1
                rest ^= 1 << h
                sub = rest & ~conflict[h]
                k = (counted.get(sub) or count(sub))[0] + 1 if sub else 1
                number += k
                cost += k * (weight[h] + 1)
                if number > room:
                    return number, cost
            counted[cands] = number, cost
            return number, cost

        def solve(taken: int, cands: int, missing: list[int]) -> int:
            # The first valid extension of ``taken`` by independent subsets
            # of ``cands``, or 0; ``missing``: the covers ``taken`` misses.
            nonlocal nodes
            inter = alive = -1
            for cover in missing:
                inter &= cover
                alive &= (1 << (cover & cands).bit_length()) - 1
            above = cands & ~alive  # no extension there meets every cover
            if above:
                nodes += (counted.get(above) or count(above))[1]
            cands &= alive
            while cands:
                c = cands.bit_length() - 1
                cands ^= 1 << c
                chosen = taken | 1 << c
                nodes += weight[c] + 1
                if nodes > budget:
                    return 0
                if inter >> c & 1:
                    return chosen
                later = above & ~conflict[c]
                if later:
                    rest = [cover for cover in missing if not cover >> c & 1]
                    chosen = solve(chosen, later, rest)
                    if chosen or nodes > budget:
                        return chosen
                above |= 1 << c
            return 0

        taken = solve(0, full, list(covers))
        if nodes > budget:
            return out_of_budget
        return found(upper + [taken, full ^ taken], nodes) if taken else None

    if target_size == 1:
        # The only layer is the singleton P_0.
        return found([1], 0) if len(gens) == 1 else SearchResult(None, True, 0)
    nodes = 0
    for p0 in range(len(gens)):
        first = 1 << p0
        rest = [h for h in range(len(gens)) if h != p0]
        nodes += 1
        if nodes > budget:
            return out_of_budget
        if target_size == 2:
            # One layer after P_0: every pair in it needs a cover in P_0.
            if all(row(a)[b] & first for a in rest for b in rest if a < b):
                return found([first, sum(1 << h for h in rest)], nodes)
            continue
        if target_size == 3:
            result = last_two(rest, first, [first])
            if result:
                return result
            continue
        # One frame per walked layer, each with at least two layers to go
        # after it: [remaining, earlier-layer mask, lazily computed
        # conflict masks by position, chosen mask].  ``depth`` is the pick
        # node just entered; None resumes a frame whose leaf has been
        # handled, to backtrack from it.
        stack = [[rest, first, [None] * len(rest), 0]]
        depth: int | None = 0
        while stack:
            frame = stack[-1]
            remaining, earlier, conflicts, taken = frame
            size = len(remaining)
            if depth is not None:
                # All-exclusion descent to the leaf, one node per depth.
                nodes += size - depth
                if nodes > budget:
                    return out_of_budget
                left = target_size - 1 - len(stack)
                if taken and size - taken.bit_count() >= left:
                    nodes += 1
                    if nodes > budget:
                        return out_of_budget
                    rest = [h for h in remaining if not taken >> h & 1]
                    below = earlier | taken
                    if left > 2:
                        stack.append([rest, below, [None] * len(rest), 0])
                        depth = 0
                        continue
                    result = last_two(rest, below, [first] + [f[3] for f in stack])
                    if result:
                        return result
            # Backtrack to the deepest exclusion whose inclusion is allowed.
            j = size - 1
            while j >= 0:
                bit = 1 << remaining[j]
                if taken & bit:
                    taken ^= bit
                else:
                    conflict = conflicts[j]
                    if conflict is None:
                        conflict = conflicts[j] = conflicts_of(
                            remaining, j, earlier
                        )
                    if not conflict & taken:
                        taken |= bit
                        nodes += 1
                        if nodes > budget:
                            return out_of_budget
                        break
                j -= 1
            if j < 0:
                stack.pop()
                depth = None
            else:
                frame[3] = taken
                depth = j + 1
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
    mi: MatroidalIdeal, search: bool = True, search_budget: int = 50000
) -> AraBounds:
    """Lower bound q(I)+1 plus the best available certificate upper bound.

    The certificate comes from ``construct_certificate``; when no
    construction applies, from an optional budgeted search at the lower
    bound.  Requires full support.
    """
    lower = q_index(mi) + 1
    method, certificate = construct_certificate(mi) or (None, None)
    if certificate is None and search:
        certificate = search_cert(mi, lower, budget=search_budget).partition
        method = "search" if certificate is not None else None
    upper = len(certificate.layers) if certificate is not None else None
    exact = (upper == lower) if upper is not None else None
    return AraBounds(lower, upper, exact, method, certificate)


def certificate_document(cert: SVPartition | RadicalCertificate) -> dict[str, object]:
    """JSON-ready certificate: target, layers, sums, verification flags."""
    if isinstance(cert, SVPartition):
        check = verify_sv(cert)
        sums = _layer_sums(cert) if check else None
        target = cert.ideal
        layers = [
            [mono_str(m) for m in sorted(layer, key=mono_vars)]
            for layer in cert.layers
        ]
        sum_strings = [poly_str(p) for p in sums.polys] if sums else []
        verified = bool(check)
    else:
        target = cert.target
        layers = None
        sum_strings = [poly_str(p) for p in cert.polys]
        verified = False  # not a layered partition; oracle is the check
    return {
        "target_ideal": {
            "n": target.n,
            "generators": [mono_str(g) for g in target.gens],
        },
        "layers": layers,
        "sums": sum_strings,
        "verified_sv": verified,
        "oracle_checked": False,
    }


def _ambient(doc: dict[str, object]) -> int:
    """The document's ``target_ideal.n``; only a JSON integer is accepted."""
    n = doc["target_ideal"]["n"]  # type: ignore[index]
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    return n


def _strings(value: object, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ValueError(f"{what} must be a list of strings")
    return value


def partition_from_document(doc: dict[str, object]) -> SVPartition:
    """Rebuild an SVPartition from the certificate JSON layout.

    A document without that layout (a missing key, a value of the wrong
    type, a malformed monomial) raises KeyError, TypeError or ValueError.
    """
    target = doc["target_ideal"]
    n = _ambient(doc)
    gens = {
        parse_mono(s)
        for s in _strings(target["generators"], "target generators")  # type: ignore[index]
    }
    ideal = minimal_generators(gens, n)
    layers = doc["layers"]
    if not isinstance(layers, list):
        raise ValueError("layers must be a list of layers")
    return SVPartition(
        ideal,
        tuple(
            frozenset(parse_mono(s) for s in _strings(layer, f"layer {i}"))
            for i, layer in enumerate(layers)
        ),
    )
