"""Shared test constructions."""

from itertools import combinations

from matroidal import Ideal, as_matroidal, minimal_generators, mono


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
