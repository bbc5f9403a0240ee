"""Shared test constructions."""

from itertools import combinations, permutations
from operator import le, sub
from typing import Iterator

from matroidal import Ideal, as_matroidal, minimal_generators, mono, mono_vars


def ideal_of(n: int, *gens) -> Ideal:
    """Ideal from variable tuples, e.g. ideal_of(3, (1, 2), (2, 3))."""
    return minimal_generators({mono(g) for g in gens}, n)


def matroidal_of(n: int, *gens):
    return as_matroidal(ideal_of(n, *gens))


def multipartite_ideal(parts: list[set[int]], n: int | None = None):
    """Degree-2 ideal of the complete multipartite graph with these parts."""
    if n is None:
        n = max(v for p in parts for v in p)
    gens = set()
    for i, p in enumerate(parts):
        for q in parts[i + 1 :]:
            for a in p:
                for b in q:
                    gens.add(mono((a, b)))
    return as_matroidal(minimal_generators(gens, n))


def contiguous_blocks(shape: tuple[int, ...]) -> list[set[int]]:
    """Variable blocks [1..s1], [s1+1..s1+s2], ... for a size shape."""
    blocks = []
    start = 1
    for size in shape:
        blocks.append(set(range(start, start + size)))
        start += size
    return blocks


def partition_shapes(total: int, largest: int | None = None):
    """All descending integer partitions of ``total``."""
    if total == 0:
        yield ()
        return
    largest = largest or total
    for first in range(min(total, largest), 0, -1):
        for rest in partition_shapes(total - first, first):
            yield (first,) + rest


def brute_force_matroidal(n: int, d: int) -> set[tuple[int, ...]]:
    """Independent oracle: filter all subsets of d-subsets by the checker."""
    from matroidal import check_matroidal

    subsets = [mono(c) for c in combinations(range(1, n + 1), d)]
    full = (1 << n) - 1
    out = set()
    for mask in range(1, 1 << len(subsets)):
        gens = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
        sup = 0
        for g in gens:
            sup |= g
        if sup != full:
            continue
        if check_matroidal(Ideal(n, tuple(gens))):
            out.add(tuple(sorted(gens)))
    return out


def reference_enumerate_matroidal(n: int, d: int, up_to_symmetry: bool = False):
    """The inclusion-only pruned DFS: the oracle for ``enumerate_matroidal``.

    Including a subset checks the slots of each pair it forms with an
    already-included one and prunes only when every repair is decided and
    excluded; a slot closed by excluding its last repair is left to the
    exact pass at the leaves.  Same nodes in the same order, so
    ``enumerate_matroidal`` must yield the same sequence.  No argument
    checks and no caps.
    """
    from matroidal.enumeration import _index_bits, _smaller_relabeling
    from matroidal.matroids import MatroidalIdeal

    subsets = [mono(c) for c in combinations(range(1, n + 1), d)]
    k = len(subsets)
    position = {s: t for t, s in enumerate(subsets)}
    full = (1 << n) - 1
    repairs: list[list[tuple[int, ...] | None]] = [
        [None] * k for _ in range(k)
    ]
    for a, sa in enumerate(subsets):
        for b, sb in enumerate(subsets):
            if a == b:
                continue
            incoming = mono_vars(sb & ~sa)
            slots = []
            for x in mono_vars(sa & ~sb):
                base = sa ^ (1 << (x - 1))
                m = 0
                for y in incoming:
                    m |= 1 << position[base | (1 << (y - 1))]
                slots.append(m)
            repairs[a][b] = tuple(slots)
    suffix_support = [0] * (k + 1)
    for t in range(k - 1, -1, -1):
        suffix_support[t] = suffix_support[t + 1] | subsets[t]

    def exchange_ok(chosen: int) -> bool:
        indices = list(_index_bits(chosen))
        for a in indices:
            row = repairs[a]
            for b in indices:
                if a == b:
                    continue
                for slot in row[b]:
                    if not slot & chosen:
                        return False
        return True

    stack: list[tuple[int, int, int]] = [(0, 0, 0)]
    while stack:
        t, chosen, sup = stack.pop()
        if t == k:
            if chosen and sup == full and exchange_ok(chosen):
                gens = tuple(subsets[i] for i in _index_bits(chosen))
                ideal = Ideal(n, gens)
                if up_to_symmetry and _smaller_relabeling(ideal) is not None:
                    continue
                yield MatroidalIdeal(ideal, d)
            continue
        if sup | suffix_support[t + 1] == full:
            stack.append((t + 1, chosen, sup))
        with_t = chosen | (1 << t)
        undecided = ~((1 << (t + 1)) - 1)
        viable = True
        for j in _index_bits(chosen):
            for slot in repairs[t][j]:
                if slot & with_t or slot & undecided:
                    continue
                viable = False
                break
            if not viable:
                break
            for slot in repairs[j][t]:
                if slot & with_t or slot & undecided:
                    continue
                viable = False
                break
            if not viable:
                break
        if viable:
            stack.append((t + 1, with_t, sup | subsets[t]))


def reference_canonical_form(ideal: Ideal) -> tuple[int, ...]:
    """Scan of all n! relabelings: the oracle for the canonicity walk.

    ``enumeration._smaller_relabeling`` must return ``None`` exactly when
    this minimum is the ideal's own sorted encoding, and ``canonical_form``
    must return this minimum, for every mix of degrees.
    """
    n = ideal.n
    gens = ideal.gens
    best_enc: tuple[int, ...] | None = None
    for perm in permutations(range(1, n + 1)):
        enc = tuple(
            sorted(sum(1 << (perm[v - 1] - 1) for v in mono_vars(g)) for g in gens)
        )
        if best_enc is None or enc < best_enc:
            best_enc = enc
    return best_enc


class _Budget(Exception):
    pass


def reference_search_cert(mi, target_size: int, budget: int = 50000):
    """Recursive layered-partition search over monomial lists: the oracle.

    The differential tests require ``svrank.search_cert`` (generator
    indices and bitmasks, explicit stack) to return the same partition,
    ``exhausted`` flag and node count as this plain version.  Its recursion
    depth grows with the number of generators, so only call it on small
    ideals.
    """
    from matroidal import InvariantViolation, SearchResult, SVPartition, verify_sv

    if target_size < 1:
        raise ValueError("target size must be at least one layer")
    gens = list(mi.ideal.gens)
    if target_size > len(gens):
        return SearchResult(None, True, 0)
    nodes = 0
    limit = budget

    def bump() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise _Budget

    def assemble(layer_lists):
        partition = SVPartition(
            mi.ideal, tuple(frozenset(l) for l in layer_lists)
        )
        check = verify_sv(partition)
        if not check:
            raise InvariantViolation(
                f"search produced an invalid partition: {check.failure}"
            )
        return partition

    def admissible(m, layer, earlier) -> bool:
        for h in layer:
            prod = m | h
            if not any(w & prod == w for w in earlier):
                return False
        return True

    def fill(layer_lists, earlier, remaining):
        left = target_size - len(layer_lists)
        if left == 0:
            return assemble(layer_lists) if not remaining else None
        if len(remaining) < left:
            return None
        if left == 1:
            bump()
            for a, b in combinations(remaining, 2):
                prod = a | b
                if not any(w & prod == w for w in earlier):
                    return None
            return assemble(layer_lists + [remaining])
        chosen = []

        def pick(i: int):
            bump()
            if i == len(remaining):
                if not chosen:
                    return None
                taken = set(chosen)
                rest = [x for x in remaining if x not in taken]
                return fill(
                    layer_lists + [list(chosen)], earlier + chosen, rest
                )
            found = pick(i + 1)
            if found is not None:
                return found
            m = remaining[i]
            if admissible(m, chosen, earlier):
                chosen.append(m)
                found = pick(i + 1)
                chosen.pop()
                if found is not None:
                    return found
            return None

        return pick(0)

    try:
        for p0 in gens:
            rest = [g for g in gens if g != p0]
            found = fill([[p0]], [p0], rest)
            if found is not None:
                return SearchResult(found, False, nodes)
        return SearchResult(None, True, nodes)
    except _Budget:
        return SearchResult(None, False, nodes)


def reference_walk_search_cert(mi, target_size: int, budget: int = 50000):
    """The bitmask walk that visits every node of the layered-partition tree.

    ``svrank.search_cert`` solves the layer before the last from its
    conflict graph and counts the nodes of subtrees that cannot hold a
    certificate instead of visiting them; the differential tests require
    the same partition, ``exhausted`` flag and node count as this walk,
    which keeps one explicit stack frame per open layer and tests every
    leaf of the layer before the last against its open pair covers.
    """
    from matroidal import InvariantViolation, SearchResult, SVPartition, verify_sv
    from matroidal.svrank import _PairCovers

    if target_size < 1:
        raise ValueError("target size must be at least one layer")
    if budget < 0:
        raise ValueError(f"search budget must be nonnegative, got {budget}")
    gens = list(mi.ideal.gens)
    if target_size > len(gens):
        return SearchResult(None, True, 0)
    row = _PairCovers(gens).row
    out_of_budget = SearchResult(None, False, budget + 1)

    def open_covers(layer: list[int], earlier: int) -> Iterator[int]:
        # Covers of the pairs of ``layer`` that no earlier generator divides.
        for k, a in enumerate(layer):
            cover = row(a)
            for b in layer[k + 1 :]:
                if not cover[b] & earlier:
                    yield cover[b]

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
            if next(open_covers(rest, first), None) is None:
                return found([first, sum(1 << h for h in rest)], nodes)
            continue
        # One frame per open layer: [remaining, earlier-layer mask,
        # lazily computed conflict masks by position, chosen mask, and for
        # the layer before the last, the lazily computed open covers,
        # smallest first as those are the likeliest to be missed].
        # ``depth`` is the pick node just entered; None resumes a frame
        # whose leaf has been handled, to backtrack from it.
        stack = [[rest, first, [None] * len(rest), 0, None]]
        depth: int | None = 0
        while stack:
            frame = stack[-1]
            remaining, earlier, conflicts, taken, covers = frame
            size = len(remaining)
            if depth is not None:
                # All-exclusion descent to the leaf, one node per depth.
                nodes += size - depth
                if nodes > budget:
                    return out_of_budget
                # Layers still to fill after this one: at least one, as a
                # frame is opened only with two or more to go.
                left = target_size - 1 - len(stack)
                if taken and size - taken.bit_count() >= left:
                    nodes += 1
                    if nodes > budget:
                        return out_of_budget
                    if left == 1:
                        # The rest is a valid last layer exactly when
                        # this layer meets every open cover: a cover
                        # holds its own pair, so a met cover either
                        # takes the pair out or divides its product.
                        if covers is None:
                            covers = frame[4] = sorted(
                                set(open_covers(remaining, earlier)),
                                key=int.bit_count,
                            )
                        for cover in covers:
                            if not cover & taken:
                                break
                        else:
                            last = sum(1 << h for h in remaining) ^ taken
                            return found(
                                [first] + [f[3] for f in stack] + [last],
                                nodes,
                            )
                    else:
                        rest = [h for h in remaining if not taken >> h & 1]
                        below = earlier | taken
                        stack.append([rest, below, [None] * len(rest), 0, None])
                        depth = 0
                        continue
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


def reference_check_matroidal(ideal: Ideal):
    """The exchange condition by a scan over all generator pairs: the oracle.

    ``check_matroidal`` decides through fundamental cocircuits and names
    its witness with a scan like this one; the differential tests require
    the same verdict, failure kind and witness.
    """
    from matroidal import ExchangeWitness, MatroidCheck, mono_degree, mono_vars
    from matroidal.matroids import MatroidalIdeal

    degrees = sorted({mono_degree(g) for g in ideal.gens})
    if len(degrees) > 1:
        lo = next(g for g in ideal.gens if mono_degree(g) == degrees[0])
        hi = next(g for g in ideal.gens if mono_degree(g) == degrees[-1])
        return MatroidCheck(None, "mixed_degrees", (lo, hi))
    genset = set(ideal.gens)
    for b1 in ideal.gens:
        for b2 in ideal.gens:
            if b1 == b2:
                continue
            incoming = mono_vars(b2 & ~b1)
            for x in mono_vars(b1 & ~b2):
                base = b1 ^ (1 << (x - 1))
                if not any(base | (1 << (y - 1)) in genset for y in incoming):
                    return MatroidCheck(None, "exchange", ExchangeWitness(b1, b2, x))
    return MatroidCheck(MatroidalIdeal(ideal, degrees[0]))


def reference_minimal_primes(ideal: Ideal):
    """Minimal primes from the transversal DFS alone, whatever the input."""
    from matroidal import PrimeDecomposition, mono_vars
    from matroidal.decomposition import _minimal_transversals

    found = _minimal_transversals(ideal.gens)
    ordered = sorted(found, key=lambda c: (c.bit_count(), mono_vars(c)))
    heights = {c.bit_count() for c in ordered}
    return PrimeDecomposition(
        primes=tuple(frozenset(mono_vars(c)) for c in ordered),
        height=min(heights),
        unmixed=len(heights) == 1,
    )


def reference_find_ordering(mi, strategy: str = "lex", seed: int = 0):
    """Recursive backtracking search for a linear-quotient ordering.

    ``find_ordering`` walks an explicit stack and must visit candidates in
    the same order, so both return the same ordering or both raise.  This
    version recurses once per generator, so only call it on small ideals.
    """
    from matroidal import InvariantViolation, QuotientOrdering, colon_step_vars
    from matroidal.quotients import _preference

    preference = _preference(mi.ideal.gens, mi.ideal.n, strategy, seed)
    if len(preference) == 1:
        return QuotientOrdering((preference[0],), (), 0)
    order = []
    steps = []

    def dfs(remaining) -> bool:
        if not remaining:
            return True
        for u in remaining:
            stepped = False
            if order:
                step = colon_step_vars(order, u)
                if step is None:
                    continue
                steps.append(step)
                stepped = True
            order.append(u)
            if dfs([r for r in remaining if r != u]):
                return True
            order.pop()
            if stepped:
                steps.pop()
        return False

    if not dfs(preference):
        raise InvariantViolation("no linear-quotient ordering found")
    return QuotientOrdering(
        tuple(order), tuple(steps), max((len(s) for s in steps), default=0)
    )


def reference_verify_sv(partition):
    """The layering check with a scan of the earlier layers per pair.

    ``verify_sv`` tests each pair against bitmasks of the earlier layers
    and must return the same ``SVCheck``, failure witness included.
    """
    from matroidal import Monomial, SVCheck, mono_vars

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
    earlier: list[Monomial] = sorted(layers[0])
    for i, layer in enumerate(layers[1:], start=1):
        ordered = sorted(layer, key=mono_vars)
        for a, b in combinations(ordered, 2):
            prod = a | b  # support of the (non-square-free) product
            if not any(w & prod == w for w in earlier):
                return SVCheck(False, "pair", (i, a, b))
        earlier.extend(ordered)
    return SVCheck(True)


def reference_minimal_generators(monomials, n: int) -> Ideal:
    """Minimal antichain by comparing each monomial with every kept one.

    ``minimal_generators`` compares only against kept generators of lower
    degree and must return the same ``Ideal``.
    """
    from matroidal import mono_degree, mono_vars
    from matroidal.ideals import _check_ambient, _check_range

    _check_ambient(n)
    ms = set(monomials)
    for m in ms:
        _check_range(m, n)
    kept = []
    # Ascending degree: any proper divisor is seen before its multiples.
    for m in sorted(ms, key=lambda m: (mono_degree(m), mono_vars(m))):
        if not any(g & m == g for g in kept):
            kept.append(m)
    return Ideal(n, tuple(sorted(kept, key=mono_vars)))


# Exponent-tuple arithmetic of the reference path, shared with no fast path.
Exponents = tuple[int, ...]


def _exp_divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def _exp_sub(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(sub, a, b))


def _exp_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def reference_reduce(f, basis, order: str = "degrevlex"):
    """Normal form of f modulo the basis (full multivariate division).

    The oracle's division before its heap: a ``max`` over the working
    polynomial per step and a fresh leading term per divisor per call.
    ``oracle.reduce`` must return the same polynomial, against any basis.
    """
    from fractions import Fraction

    from matroidal import Poly
    from matroidal.oracle import ORDER_KEYS

    key = ORDER_KEYS[order]
    divisors = [
        (max(b.terms, key=key), b) for b in basis if b.terms
    ]
    work = dict(f.terms)
    remainder = {}
    while work:
        lt = max(work, key=key)
        lc = work[lt]
        for lm, b in divisors:
            if _exp_divides(lm, lt):
                shift = _exp_sub(lt, lm)
                factor = lc / b.terms[lm]
                for e, c in b.terms.items():
                    te = tuple(x + y for x, y in zip(e, shift))
                    s = work.get(te, Fraction(0)) - factor * c
                    if s:
                        work[te] = s
                    else:
                        work.pop(te, None)
                break
        else:
            remainder[lt] = lc
            del work[lt]
    out = Poly.zero(f.n)
    out.terms = remainder
    return out


def reference_buchberger(
    gens,
    order: str = "degrevlex",
    max_pairs: int = 20000,
    check: bool = True,
):
    """Reduced Groebner basis by the oracle's Buchberger before its pair heap.

    Each step takes the pair of least lcm with a ``min`` over all open
    pairs and divides with ``reference_reduce``.  ``oracle.buchberger``
    must return the same (unique) reduced basis.
    """
    from matroidal import InvariantViolation, s_polynomial
    from matroidal.oracle import ORDER_KEYS, BudgetExceededError

    reduce = reference_reduce
    key = ORDER_KEYS[order]
    basis = [g.monic(order) for g in gens if g and g.terms]
    if not basis:
        raise ValueError("need at least one nonzero generator")
    lms = [b.leading(order)[0] for b in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    processed = set()
    handled = 0
    while pairs:
        i, j = min(pairs, key=lambda p: key(_exp_lcm(lms[p[0]], lms[p[1]])))
        pairs.remove((i, j))
        processed.add((i, j))
        handled += 1
        if handled > max_pairs:
            raise BudgetExceededError(f"pair budget {max_pairs} exceeded")
        lcm = _exp_lcm(lms[i], lms[j])
        if lcm == tuple(a + b for a, b in zip(lms[i], lms[j])):
            continue  # coprime leading terms
        chained = False
        for k in range(len(basis)):
            if k in (i, j) or not _exp_divides(lms[k], lcm):
                continue
            p1 = (min(i, k), max(i, k))
            p2 = (min(j, k), max(j, k))
            if p1 in processed and p2 in processed:
                chained = True
                break
        if chained:
            continue
        h = reduce(s_polynomial(basis[i], basis[j], order), basis, order)
        if h:
            h = h.monic(order)
            basis.append(h)
            lms.append(h.leading(order)[0])
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))
    # Minimalize: drop members whose leading monomial another one divides.
    keep = []
    for i in sorted(range(len(basis)), key=lambda i: key(lms[i])):
        if not any(_exp_divides(lms[k], lms[i]) for k in keep):
            keep.append(i)
    minimal = [basis[i] for i in keep]
    reduced = []
    for i, b in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        nf = reduce(b, others, order) if others else b
        reduced.append(nf.monic(order))
    reduced.sort(key=lambda b: key(b.leading(order)[0]), reverse=True)
    if check:
        for i in range(len(reduced)):
            for j in range(i + 1, len(reduced)):
                if reduce(s_polynomial(reduced[i], reduced[j], order), reduced, order):
                    raise InvariantViolation(
                        "S-polynomial of the output basis did not reduce to zero"
                    )
    return tuple(reduced)


def reference_radical_check(cert, basis, cap: int = 8):
    """The oracle's power loop against a given basis, with ``reference_reduce``.

    With ``basis = reference_buchberger(cert.polys)`` this is the radical
    check as it stood before prepared divisors; ``verify_radical_cert``
    must return the same ``RadicalCheck``.
    """
    from matroidal import Poly, RadicalCheck

    n = cert.target.n
    powers = {}
    failures = []
    for g in cert.target.gens:
        u = Poly.from_monomial(g, n)
        current = u
        found = None
        for power in range(1, cap + 1):
            nf = reference_reduce(current, basis)
            if nf.is_zero():
                found = power
                break
            current = nf * u
        if found is None:
            failures.append(g)
        else:
            powers[g] = found
    return RadicalCheck(
        verified=not failures,
        powers=powers,
        failures=tuple(failures),
        cap=cap,
        method="groebner",
    )


def groebner_radical_check(cert, cap: int = 8, max_pairs: int = 20000):
    """The oracle's monolithic radical check alone, widening as needed."""
    from matroidal import oracle

    return oracle._widening(
        lambda layout: oracle._groebner_check(cert, layout, cap, max_pairs),
        cert.target.n,
        "degrevlex",
    )


def in_radical(polys, u, n: int) -> bool:
    """Whether the monomial u lies in rad(polys), by the Rabinowitsch trick.

    u is in rad(J) iff 1 lies in J + (1 - t*u) with a new variable t, that
    is iff the reduced Groebner basis of that ideal in n + 1 variables is
    {1}.  Computed with ``reference_buchberger`` and no power bound, so it
    shares neither the packed kernels nor the power loop with the oracle.
    """
    from matroidal import Poly

    lifted = [Poly(n + 1, {e + (0,): c for e, c in p.terms.items()}) for p in polys]
    u_t = tuple(u >> i & 1 for i in range(n)) + (1,)
    lifted.append(Poly(n + 1, {(0,) * (n + 1): 1, u_t: -1}))
    return reference_buchberger(lifted) == (Poly.constant(n + 1, 1),)


def reference_veronese_cert(n: int, d: int):
    """Closed-form Veronese layering, as written before the exchange rule.

    Layer i holds the degree-d monomials in x1..x_{d+i} that involve
    x_{d+i}; there are n-d+1 layers and layer sizes C(d+i-1, d-1).
    """
    from matroidal import SVPartition, veronese
    from matroidal.svrank import _checked

    ideal = veronese(n, d).ideal
    layers = [frozenset({mono(range(1, d + 1))})]
    for i in range(1, n - d + 1):
        top = d + i
        layers.append(
            frozenset(
                mono(c + (top,)) for c in combinations(range(1, top), d - 1)
            )
        )
    return _checked(SVPartition(ideal, tuple(layers)), "Veronese")


def reference_degree2_cert(mi):
    """Closed-form anti-diagonal layering of a degree-2 matroidal ideal.

    Variables are reindexed part-by-part with part sizes descending; the
    generator pairing row variable i (in parts 1..m-1) with the j-th later
    variable lands in layer i+j-2.
    """
    from matroidal import InvariantViolation, SVPartition, degree2_partition, mono_str
    from matroidal.svrank import _checked

    partition = degree2_partition(mi)
    parts = sorted(partition.parts, key=lambda p: (-len(p), sorted(p)))
    order: list[int] = []
    for part in parts:
        order.extend(sorted(part))
    position = {v: k + 1 for k, v in enumerate(order)}
    sizes = [len(p) for p in parts]
    prefixes = [0]
    for s in sizes:
        prefixes.append(prefixes[-1] + s)
    part_of_position = {}
    for k in range(len(parts)):
        for pos in range(prefixes[k] + 1, prefixes[k + 1] + 1):
            part_of_position[pos] = k
    n = mi.ideal.n
    layer_map: dict[int, set[int]] = {}
    for g in mi.ideal.gens:
        a, b = sorted(mono_vars(g), key=lambda v: position[v])
        i = position[a]
        k = part_of_position[i]
        j = position[b] - prefixes[k + 1]
        if j < 1:
            raise InvariantViolation(
                f"generator {mono_str(g)} is not a cross-part pair"
            )
        layer_map.setdefault(i + j - 2, set()).add(g)
    top = max(layer_map)
    if top > n - 2 or sorted(layer_map) != list(range(top + 1)):
        raise InvariantViolation("degree-2 layering left a gap")
    layers = tuple(frozenset(layer_map[l]) for l in range(top + 1))
    return _checked(SVPartition(mi.ideal, layers), "degree-2")


def reference_product_layering(ideal, blocks):
    """Layer k holds the generators whose block positions sum to k.

    A variable's position is its index in its sorted block.
    """
    from matroidal import SVPartition
    from matroidal.svrank import _checked

    position = {v: k for block in blocks for k, v in enumerate(sorted(block))}
    layer_map: dict[int, set[int]] = {}
    for g in ideal.gens:
        layer_map.setdefault(sum(position[v] for v in mono_vars(g)), set()).add(g)
    layers = tuple(frozenset(layer_map[k]) for k in sorted(layer_map))
    return _checked(SVPartition(ideal, layers), "block product")


def reference_construct_certificate(mi, method: str = "auto"):
    """``construct_certificate`` on the closed forms it replaced."""
    from matroidal import recognize_var_block_product, recognize_veronese

    ideal = mi.ideal
    if method in ("auto", "veronese"):
        if recognize_veronese(ideal):
            return "veronese", reference_veronese_cert(ideal.n, mi.d)
        if method == "veronese":
            raise ValueError("not a square-free Veronese ideal")
    if method in ("auto", "product"):
        blocks = recognize_var_block_product(ideal)
        if blocks is not None:
            return "product", reference_product_layering(ideal, blocks)
        if method == "product":
            raise ValueError("not a variable block product")
    if method in ("auto", "degree2"):
        if mi.d == 2:
            return "degree2", reference_degree2_cert(mi)
        if method == "degree2":
            raise ValueError("degree is not 2")
    if method != "auto":
        raise ValueError(f"unknown construction {method!r}")
    return None


def reference_ara_bounds(
    mi, search: bool = True, search_budget: int = 50000
):
    """Lower bound q(I)+1 plus the best available certificate upper bound.

    The construction ladder as written out before the dispatcher, on the
    closed-form layerings: block products come back as the folded
    ``product_cert`` polynomials, not as a layering.  ``ara_bounds`` must
    pick the same method and size.
    """
    from matroidal import (
        AraBounds,
        RadicalCertificate,
        SVPartition,
        product_cert,
        q_index,
        recognize_var_block_product,
        recognize_veronese,
        search_cert,
        variable_cert,
    )

    ideal = mi.ideal
    n, d = ideal.n, mi.d
    lower = q_index(mi) + 1
    upper: int | None = None
    method: str | None = None
    certificate: SVPartition | RadicalCertificate | None = None
    if recognize_veronese(ideal):
        certificate = reference_veronese_cert(n, d)
        upper = len(certificate.layers)
        method = "veronese"
    else:
        blocks = recognize_var_block_product(ideal)
        if blocks is not None:
            certificate = product_cert([variable_cert(b, n) for b in blocks])
            upper = len(certificate.polys)
            method = "product"
        elif d == 2:
            certificate = reference_degree2_cert(mi)
            upper = len(certificate.layers)
            method = "degree2"
        elif search:
            result = search_cert(mi, lower, budget=search_budget)
            if result.partition is not None:
                certificate = result.partition
                upper = len(result.partition.layers)
                method = "search"
    exact = (upper == lower) if upper is not None else None
    return AraBounds(lower, upper, exact, method, certificate)
