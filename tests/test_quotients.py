from itertools import permutations

import pytest

from matroidal import (
    analyze,
    colon_step_vars,
    depth,
    find_ordering,
    is_cohen_macaulay,
    mono,
    mono_vars,
    proj_dim,
    q_index,
    support,
    var_block_product,
    veronese,
)

from helpers import betti_k_polynomial, faces_k_polynomial, matroidal_of


def test_colon_step_vars_exact():
    # <x1x2> : x1x3 = (x2); <x1x2, x1x3> : x2x3 = (x1)
    assert colon_step_vars([mono((1, 2))], mono((1, 3))) == {2}
    assert colon_step_vars([mono((1, 2)), mono((1, 3))], mono((2, 3))) == {1}
    # <x1x2x3> : x1x4 is generated by x2x3, not by variables
    assert colon_step_vars([mono((1, 2, 3))], mono((1, 4))) is None


def test_find_ordering_veronese32():
    ordering = find_ordering(veronese(3, 2))
    assert ordering.order == (mono((1, 2)), mono((1, 3)), mono((2, 3)))
    assert ordering.colon_steps == (frozenset({2}), frozenset({1}))
    assert ordering.q == 1


def test_find_ordering_principal():
    ordering = find_ordering(matroidal_of(3, (1, 2, 3)))
    assert ordering.order == (mono((1, 2, 3)),)
    assert ordering.colon_steps == ()
    assert ordering.q == 0


def test_find_ordering_blocks_lex():
    ordering = find_ordering(var_block_product([{1, 2}, {3, 4}]))
    assert ordering.order == (
        mono((1, 3)),
        mono((1, 4)),
        mono((2, 3)),
        mono((2, 4)),
    )
    assert ordering.colon_steps[-1] == {1, 3}
    assert ordering.q == 2


def test_q_index_examples():
    assert q_index(veronese(4, 2)) == 2
    assert q_index(var_block_product([{1, 2}, {3, 4}])) == 2
    assert q_index(matroidal_of(4, (1, 2, 3, 4))) == 0


def test_q_index_requires_full_support():
    with pytest.raises(ValueError):
        q_index(matroidal_of(3, (1, 2)))


def test_homological_invariants():
    v = veronese(4, 2)
    assert proj_dim(v) == 2
    assert depth(v) == 1
    assert is_cohen_macaulay(v)
    blocks = var_block_product([{1, 2}, {3, 4}])
    assert not is_cohen_macaulay(blocks)
    assert is_cohen_macaulay(matroidal_of(1, (1,)))
    assert analyze(v) == {
        "n": 4,
        "d": 2,
        "q": 2,
        "pd": 2,
        "depth": 1,
        "height": 3,
        "cohen_macaulay": True,
    }


def test_colon_steps_avoid_the_generator_support(enum_cache):
    # Step-j colon variables never meet supp(u_j); the final step's equal
    # exactly the complement of supp(u_s).
    for n in range(2, 6):
        for d in range(1, n + 1):
            for mi in enum_cache(n, d):
                ordering = find_ordering(mi)
                for u, step in zip(ordering.order[1:], ordering.colon_steps):
                    assert not step & set(mono_vars(u))
                if len(ordering.order) > 1:
                    last = ordering.order[-1]
                    expected = set(range(1, n + 1)) - set(mono_vars(last))
                    assert set(ordering.colon_steps[-1]) == expected


def test_q_is_ordering_independent_for_all_valid_orderings():
    # Small enough to try every permutation: every valid ordering gives
    # the same q.
    for mi in (veronese(3, 2), matroidal_of(3, (1, 2), (2, 3)), veronese(4, 2)):
        gens = mi.ideal.gens
        qs = set()
        valid = 0
        for perm in permutations(gens):
            steps = []
            ok = True
            for j in range(1, len(perm)):
                step = colon_step_vars(list(perm[:j]), perm[j])
                if step is None:
                    ok = False
                    break
                steps.append(step)
            if ok:
                valid += 1
                qs.add(max(len(s) for s in steps))
        assert valid >= 2
        assert len(qs) == 1


def test_extra_grid_cells_q_equals_n_minus_d(enum_cache):
    # Cells outside the main acceptance grid, still exhaustively checked.
    for (n, d) in [(2, 2), (3, 3), (4, 4), (5, 4), (5, 5), (6, 4), (6, 5), (6, 6)]:
        for mi in enum_cache(n, d):
            assert find_ordering(mi).q == n - d


def test_height_never_exceeds_q_plus_one(enum_cache):
    from matroidal import height

    for n in range(2, 6):
        for d in range(1, n + 1):
            for mi in enum_cache(n, d):
                assert height(mi.ideal) <= find_ordering(mi).q + 1


def test_colon_steps_give_the_k_polynomial_of_the_faces(enum_cache):
    # beta_i = sum_u C(|set(u)|, i) from the colon steps must give the
    # K-polynomial that the Stanley-Reisner faces give, a count that reads
    # only the generators; a wrong step or q would break it.
    ideals = 0
    for n in range(1, 7):
        for d in range(1, n + 1):
            for mi in enum_cache(n, d):
                steps = find_ordering(mi).colon_steps
                expected = faces_k_polynomial(mi.ideal)
                assert betti_k_polynomial(n, d, [0, *map(len, steps)]) == expected
                ideals += 1
    assert ideals == 2356


def test_q_index_past_the_recursion_limit():
    # 1716 generators: the colon steps are read in one loop over the
    # completion map, so no interpreter frame is spent per generator.
    assert q_index(veronese(13, 6)) == 7


def test_cross_assertion_guard(monkeypatch):
    # q_index cross-checks the colon steps' q against n - d; a q that
    # misses it is a toolkit bug and must raise, here and through analyze.
    import matroidal.quotients
    from matroidal import InvariantViolation

    mi = matroidal_of(4, (1, 2), (1, 3), (1, 4))
    assert support(mi.ideal) == {1, 2, 3, 4}
    assert q_index(mi) == 2
    lex_q = matroidal.quotients._lex_q
    monkeypatch.setattr(matroidal.quotients, "_lex_q", lambda mi: lex_q(mi) + 1)
    for call in (q_index, analyze):
        with pytest.raises(InvariantViolation, match=r"^q=3 disagrees with n-d=2$"):
            call(mi)
