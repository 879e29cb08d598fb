"""Certificate search, assembly of factorizations, verification, export."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_min_expansions, naive_shift_x, naive_weigh_rows, recursive_derive_row
import spanone
from spanone import multisum, prover
from spanone.multisum import MultisumProfile, eval_H, shift_beta
from spanone.prover import (
    Expand,
    FactorizationSystem,
    Leaf,
    SearchExhausted,
    assemble_system,
    cert_from_json,
    check_certs,
    cert_to_json,
    derive_row,
    equivalent_systems,
    expansions,
    leaf_combination,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    verify_numeric,
)
from spanone.qdiff import QDiffSystem, check_system, solve
from spanone.series import Series, _rows_hold

KR_TARGETS = frozenset({(4, 9), (5, 12), (6, 12)})


def _one_tree(p, targets, root, max_expansions=prover.MAX_EXPANSIONS):
    """derive_row's outcome for a single root."""
    return derive_row(p, [root], targets, max_expansions)[root]


def test_root_in_targets_gives_single_leaf(ex1_profile):
    tree = _one_tree(ex1_profile, frozenset({(3,), (4,)}), (3,))
    assert tree == Leaf((3,))


def test_derive_row_minimal_tree_rank_one(ex1_profile):
    tree = _one_tree(ex1_profile, frozenset({(3,), (4,)}), (1,))
    assert tree == Expand(
        (1,), 1, Expand((2,), 1, Leaf((3,)), Leaf((4,))), Leaf((3,))
    )
    assert expansions(tree) == 2


def test_derive_row_kr_leaf_multisets(kr_profile):
    trees = derive_row(kr_profile, [(1, 3), (2, 6), (3, 6)], KR_TARGETS)
    # a target set given as a set is the same search as the frozenset
    assert derive_row(kr_profile, [(1, 3), (2, 6), (3, 6)], set(KR_TARGETS)) == trees
    tree = trees[(1, 3)]
    assert expansions(tree) == 6
    assert leaf_combination(kr_profile, tree) == sorted(
        [
            ((4, 9), (0, 0)),
            ((4, 9), (1, 1)),
            ((4, 9), (1, 2)),
            ((4, 9), (2, 3)),
            ((5, 12), (1, 3)),
            ((5, 12), (2, 4)),
            ((6, 12), (2, 6)),
        ]
    )
    assert leaf_combination(kr_profile, trees[(2, 6)]) == sorted(
        [((4, 9), (0, 0)), ((4, 9), (1, 2)), ((5, 12), (1, 3)), ((6, 12), (2, 6))]
    )
    assert leaf_combination(kr_profile, trees[(3, 6)]) == sorted(
        [((4, 9), (0, 0)), ((5, 12), (1, 3)), ((6, 12), (2, 6))]
    )


def test_derive_row_budget_exhaustion(kr_profile):
    # (1, 3)'s least tree has 6 expansions, (3, 6)'s has 2
    assert derive_row(kr_profile, [(1, 3), (3, 6)], KR_TARGETS, 5) == {
        (1, 3): None, (3, 6): _one_tree(kr_profile, KR_TARGETS, (3, 6))}
    assert expansions(derive_row(kr_profile, [(1, 3)], KR_TARGETS, 6)[(1, 3)]) == 6


def test_derive_row_unreachable_targets(ex1_profile):
    assert derive_row(ex1_profile, [(5,)], frozenset({(3,)})) == {(5,): None}


def test_derive_row_checks_the_root_rank(kr_profile, monkeypatch):
    # the search builds children without checks, so a root of the wrong rank is
    # refused before any root is expanded, also among roots of the right rank
    calls = _counting_children(monkeypatch)
    for roots in ([(1,)], [(1, 3, 5)], [(1, 3), (1,), (2, 6)]):
        bad = next(r for r in roots if len(r) != 2)
        with pytest.raises(ValueError, match=f"beta has rank {len(bad)}, profile has rank 2"):
            derive_row(kr_profile, roots, KR_TARGETS)
    assert calls == []


@st.composite
def _search_cases(draw):
    R = draw(st.integers(1, 3))
    alpha = [[0] * R for _ in range(R)]
    for r in range(R):
        for s in range(r, R):
            alpha[r][s] = alpha[s][r] = draw(st.integers(0, 4))
    zero = draw(st.one_of(st.none(), st.integers(0, R - 1)))
    if zero is not None:  # a zero alpha row makes that coordinate's right move a self-loop
        for s in range(R):
            alpha[zero][s] = alpha[s][zero] = 0
    gamma = tuple(draw(st.integers(1, 3)) for _ in range(R))
    A = tuple(draw(st.integers(1, 3)) for _ in range(R))
    p = MultisumProfile(tuple(map(tuple, alpha)), gamma, A)
    beta = st.tuples(*[st.integers(-3, 4)] * R)
    betas = draw(st.lists(beta, min_size=1, max_size=4))
    root = draw(st.sampled_from(betas) | beta)
    return p, betas, draw(st.integers(0, 5)), root, draw(st.integers(0, 64))


ZERO_ROW = MultisumProfile(alpha=((0, 0), (0, 1)), gamma=(1, 1), A=(2, 1))


@settings(max_examples=300)
@given(_search_cases())
@example((ZERO_ROW, [(2, 0), (1, 1)], 1, (2, 0), 64))  # a 3-expansion tree beside a self-loop
@example((ZERO_ROW, [(2, 0), (1, 1)], 1, (2, 0), 2))
@example((ZERO_ROW, [(2, 0), (1, 1)], 0, (0, 0), 64))  # S = 0: the targets are the betas
@example((ZERO_ROW, [(2, 0), (1, 1)], 0, (2, 0), 0))  # budget 0: only a root target passes
@example((ZERO_ROW, [(2, 0), (1, 1)], 1, (2, 0), 0))
def test_derive_row_equals_recursive_search(case):
    p, betas, S, root, budget = case
    targets = frozenset(shift_beta(p, b, S) for b in betas)
    assert _one_tree(p, targets, root, budget) == _recursive_outcome(p, root, targets, budget)


def _recursive_outcome(p, root, targets, budget):
    """recursive_derive_row's tree, or None where it raises SearchExhausted."""
    try:
        return recursive_derive_row(p, root, targets, budget)
    except SearchExhausted:
        return None


def _counting_children(monkeypatch, limit: int = 10_000) -> list:
    """Record prover._children calls; past limit, raise instead of searching on."""
    calls = []
    children = prover._children

    def counted(*args):
        calls.append(args)
        if len(calls) > limit:
            raise RuntimeError(f"more than {limit} expansions")
        return children(*args)

    monkeypatch.setattr(prover, "_children", counted)
    return calls


def test_far_targets_are_refused_without_expanding(ex3_system, monkeypatch):
    p, _, betas = ex3_system
    calls = _counting_children(monkeypatch)
    far = frozenset(shift_beta(p, b, 30) for b in betas)
    assert derive_row(p, betas, far) == dict.fromkeys(betas)
    assert calls == []


@pytest.mark.parametrize("target", [(4,), (4, 9, 0)], ids=["short", "long"])
def test_targets_of_another_rank_are_refused_before_expanding(kr_profile, monkeypatch, target):
    # compared on a common prefix, a short target is "reached" by every beta with
    # b_1 <= 4 and the search climbs coordinate 2 without end; a long one exhausts
    calls = _counting_children(monkeypatch)
    message = re.escape(f"target {target} has rank {len(target)}, profile has rank 2")
    for targets in ({target}, KR_TARGETS | {target}):
        with pytest.raises(ValueError, match=message):
            derive_row(kr_profile, [(1, 3)], targets)
    assert calls == []


@settings(max_examples=300)
@given(_search_cases())
def test_shared_search_gives_each_root_its_own_tree(case):
    # one search over every root gives each the tree a search from it alone finds
    p, betas, S, root, budget = case
    roots = (*betas, root)
    targets = frozenset(shift_beta(p, b, S) for b in betas)
    assert derive_row(p, roots, targets, budget) == {
        r: _recursive_outcome(p, r, targets, budget) for r in roots}


def test_assembly_names_the_first_exhausted_root(kr_profile):
    # at a budget of 2, (1, 3) needs 6 expansions and (2, 6) needs 3; (3, 6) fits
    for betas, named in (([(3, 6), (2, 6), (1, 3)], (2, 6)), ([(3, 6), (1, 3), (2, 6)], (1, 3))):
        with pytest.raises(SearchExhausted, match=re.escape(f"no certificate for {named} within 2")):
            assemble_system(kr_profile, 3, betas, max_expansions=2)


def test_one_search_table_serves_every_root(ex3_system, monkeypatch):
    # ex3's four roots expand 155 betas between them, three relation steps
    # each, in one search; one search per root takes 885 steps, redoing the
    # shared betas
    calls = _counting_children(monkeypatch)
    fs = assemble_system(*ex3_system)
    assert len(fs.certs) == 4
    assert len(calls) == 465


def test_children_in_reach_are_not_tested_again(ex3_system, monkeypatch):
    # a child already solved or expanded was in reach when it got there: ex3's
    # search makes 537 reach tests, where testing every child makes 877
    calls = []
    reaches = prover._reaches_target

    def counted(*args):
        calls.append(args[1])
        return reaches(*args)

    monkeypatch.setattr(prover, "_reaches_target", counted)
    assemble_system(*ex3_system)
    assert len(calls) == 537


def test_memoized_search_is_cost_transparent(ex1_profile, kr_profile):
    for p, root, targets in (
        (ex1_profile, (1,), frozenset({(3,), (4,)})),
        (ex1_profile, (2,), frozenset({(3,), (4,)})),
        (kr_profile, (1, 3), KR_TARGETS),
        (kr_profile, (2, 6), KR_TARGETS),
        (kr_profile, (3, 6), KR_TARGETS),
    ):
        tree = _one_tree(p, targets, root)
        assert expansions(tree) == naive_min_expansions(p, root, targets)


def test_tree_monotone_along_paths(kr_profile):
    tree = _one_tree(kr_profile, KR_TARGETS, (1, 3))

    def walk(node):
        if isinstance(node, Leaf):
            assert node.beta in KR_TARGETS
            return
        for child in (node.left, node.right):
            assert all(c >= b for b, c in zip(node.beta, child.beta))
            walk(child)

    walk(tree)


def test_leaf_combination_rejects_mismatched_children(kr_profile):
    bad = Expand((2, 6), 1, Leaf((4, 9)), Leaf((5, 12)))
    with pytest.raises(ValueError, match=r"^children of \(2, 6\) do not match coordinate 1$"):
        leaf_combination(kr_profile, bad)
    # below a sound root: (3, 9) expands along coordinate 1 into (4, 9) and (5, 12)
    deep = Expand((3, 6), 2, Expand((3, 9), 1, Leaf((5, 12)), Leaf((4, 9))), Leaf((6, 12)))
    with pytest.raises(ValueError, match=r"^children of \(3, 9\) do not match coordinate 1$"):
        leaf_combination(kr_profile, deep)


def test_node_by_node_soundness(kr_profile):
    # every expansion is itself a two-term identity; check them all numerically
    from spanone.multisum import verify_recurrence_numeric

    tree = _one_tree(kr_profile, KR_TARGETS, (1, 3))

    def walk(node):
        if isinstance(node, Leaf):
            return
        assert verify_recurrence_numeric(kr_profile, node.beta, node.coord, 12, 12)
        walk(node.left)
        walk(node.right)

    walk(tree)


def test_leaf_combination_telescopes(kr_profile):
    # collecting leaves turns the tree into one series identity for the root
    q_max = 14
    for root in ((1, 3), (2, 6), (3, 6)):
        tree = _one_tree(kr_profile, KR_TARGETS, root)
        rhs = Series.zero(q_max, q_max)
        for beta, (xe, qe) in leaf_combination(kr_profile, tree):
            rhs = rhs + Series({(xe, qe): 1}, q_max, q_max) * eval_H(kr_profile, beta, q_max, q_max)
        assert eval_H(kr_profile, root, q_max, q_max).eq_upto(rhs)


def test_assemble_rank_one(ex1_system):
    fs = assemble_system(*ex1_system)
    assert fs.U == ((1, 1, 1), (1, 1, 1), (1, 0, 1))
    assert fs.V == ((0, 0), (1, 1), (1, 2))
    assert set(fs.certs) == {(1,), (2,)}


def test_assemble_kr(kr_system):
    fs = assemble_system(*kr_system)
    assert fs.V == ((0, 0), (1, 1), (1, 2), (1, 3), (2, 3), (2, 4), (2, 6))
    ones = (1,) * 7
    assert fs.U == (
        ones,
        ones,
        ones,
        (1, 0, 1, 1, 0, 0, 1),
        ones,
        (1, 0, 1, 1, 0, 0, 1),
        (1, 0, 0, 1, 0, 0, 1),
    )
    # structural invariants of any assembled factorization
    assert all(e == 1 for e in fs.U[0])
    assert all(row[0] == 1 for row in fs.U)
    assert fs.V[0] == (0, 0)


def test_assemble_matches_known_kr_matrices(kr_system):
    fs = assemble_system(*kr_system)
    known_V = [(0, 0), (1, 1), (2, 3), (2, 4), (1, 2), (1, 3), (2, 6)]
    ones = (1,) * 7
    known_U = [
        ones,
        ones,
        ones,
        (1, 0, 0, 0, 1, 1, 1),
        ones,
        (1, 0, 0, 0, 1, 1, 1),
        (1, 0, 0, 0, 0, 1, 1),
    ]
    assert equivalent_systems(fs.betas, fs.U, fs.V, known_U, known_V)


def test_equivalence_is_sharp(kr_system):
    fs = assemble_system(*kr_system)
    # swapping two columns inside one beta group preserves equivalence
    perm = [0, 2, 1, 3, 4, 5, 6]  # columns 2 and 3 share beta (1,3)
    U2 = tuple(tuple(row[j] for j in perm) for row in fs.U)
    V2 = tuple(fs.V[j] for j in perm)
    assert equivalent_systems(fs.betas, fs.U, fs.V, U2, V2)
    # swapping across groups does not
    perm = [0, 3, 2, 1, 4, 5, 6]  # column 4 has beta (2,6)
    U3 = tuple(tuple(row[j] for j in perm) for row in fs.U)
    V3 = tuple(fs.V[j] for j in perm)
    assert not equivalent_systems(fs.betas, fs.U, fs.V, U3, V3)


def test_assemble_rejects_leaf_count_mismatch(ex1_profile):
    with pytest.raises(SearchExhausted, match="row 1 produces 2 leaves"):
        assemble_system(ex1_profile, 2, [(1,), (2,)])


def test_assemble_rejects_missing_unit_diagonal(ex1_profile):
    with pytest.raises(SearchExhausted, match="leading diagonal"):
        assemble_system(ex1_profile, 2, [(2,), (1,)])


@settings(max_examples=60)
@given(data=st.data())
def test_assembled_systems_are_certified_and_select_column_one(ex1_system, kr_system, ex3_system, data):
    # fixture beta lists with the columns after the first reordered, some repeated
    # and some replaced by nearby vectors; many fail to assemble, and those that do
    # must meet what assemble_system no longer checks at the end
    p, S, betas = data.draw(st.sampled_from([ex1_system, kr_system, ex3_system]))
    lo, hi = min(map(min, betas)), max(map(max, betas)) + 2
    near = st.tuples(*[st.integers(lo, hi)] * p.R)
    rest = data.draw(st.permutations(betas[1:]))
    rest = [data.draw(st.sampled_from(betas) | near) if data.draw(st.integers(0, 4)) == 0 else b for b in rest]
    rest += data.draw(st.lists(st.sampled_from(betas) | near, max_size=2))
    try:
        fs = assemble_system(p, S, [betas[0], *rest])
    except SearchExhausted:
        return
    assert check_certs(fs) == ({}, set())
    assert all(e == 1 for e in fs.U[0])
    assert all(row[0] == 1 for row in fs.U)
    for k, b in enumerate(fs.betas):
        assert fs.U[k] == fs.U[fs.betas.index(b)]


def test_check_certs_names_each_rejection(kr_system):
    fs = assemble_system(*kr_system)  # roots (1, 3), (2, 6), (3, 6); rows 4 and 6 are (2, 6)
    flipped = [list(row) for row in fs.U]
    flipped[5][1] ^= 1
    both = [list(row) for row in flipped]
    both[3][2] ^= 1
    # a tree that is wrong in itself fails every row of its root (0-based rows
    # 0, 1, 2 and 4 are (1, 3)), a tree whose leaves differ from some rows only
    # those rows, naming the first
    cases = [
        ((1, 3), fs.certs[(2, 6)], fs.U, "tree starts at (2, 6)", {0, 1, 2, 4}),
        ((1, 3), Leaf((1, 3)), fs.U, "leaf (1, 3) is not a target", {0, 1, 2, 4}),
        ((9, 9), Leaf((9, 9)), fs.U, "leaf (9, 9) is not a target", set()),
        ((2, 6), Expand((2, 6), 1, Leaf((4, 9)), Leaf((5, 12))), fs.U,
         "children of (2, 6) do not match coordinate 1", {3, 5}),
        ((2, 6), fs.certs[(2, 6)], tuple(map(tuple, flipped)), "its leaves are not row 6 of U and V", {5}),
        ((2, 6), fs.certs[(2, 6)], tuple(map(tuple, both)), "its leaves are not row 4 of U and V", {3, 5}),
    ]
    for root, tree, U, message, rows in cases:
        assert check_certs(fs._replace(U=U, certs={**fs.certs, root: tree})) == ({root: message}, rows)


def test_a_bare_spec_loads_with_no_trees_to_check_again(kr_system):
    # its trees were read into U and V as it was assembled; a proved file's are its own
    fs = prover.load_factorization(spanone.fixture_path("kr_system.json"))
    assert fs == assemble_system(*kr_system)._replace(certs={})


def test_verify_numeric_passes(ex1_system, kr_system):
    for spec in (ex1_system, kr_system):
        fs = assemble_system(*spec)
        assert all(verify_numeric(fs, 16, 16))


def test_factorizations_verify_at_q60(ex1_system, kr_system, ex3_system):
    for spec in (ex1_system, kr_system, ex3_system):
        fs = assemble_system(*spec)
        assert verify_numeric(fs, 60, 60) == [True] * fs.K


def test_verify_numeric_detects_tampering(kr_system):
    fs = assemble_system(*kr_system)
    U = [list(r) for r in fs.U]
    U[3][1] ^= 1
    fs = fs._replace(U=tuple(tuple(r) for r in U))
    assert not all(verify_numeric(fs, 12, 12))


def _oracle_rows(fs, x_max: int, q_max: int) -> list[bool]:
    """verify_numeric's row vector with every row weighed and summed on its own."""
    H = {b: eval_H(fs.profile, b, x_max, q_max) for b in set(fs.betas)}
    shifted = {b: naive_shift_x(h, fs.S) for b, h in H.items()}
    rhs = naive_weigh_rows(fs.U, fs.V, [shifted[b] for b in fs.betas])
    return [H[b].eq_upto(r) for b, r in zip(fs.betas, rhs)]


def _with(fs, U=None, V=None):
    return FactorizationSystem(profile=fs.profile, S=fs.S, betas=fs.betas,
                               U=fs.U if U is None else U, V=fs.V if V is None else V, certs={})


def _mutants(fs) -> list[FactorizationSystem]:
    """Every U with one entry flipped, then every V with one exponent moved by one."""
    mutants = []
    for i in range(fs.K):
        for j in range(fs.K):
            U = [list(row) for row in fs.U]
            U[i][j] ^= 1
            mutants.append(_with(fs, U=tuple(map(tuple, U))))
    for j, (m, n) in enumerate(fs.V):
        for dm, dn in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if m + dm >= 0 and n + dn >= 0:
                V = list(fs.V)
                V[j] = (m + dm, n + dn)
                mutants.append(_with(fs, V=tuple(V)))
    return mutants


def test_derive_row_refuses_no_targets_and_a_negative_budget(kr_profile):
    with pytest.raises(ValueError, match=r"^target set must be nonempty$"):
        derive_row(kr_profile, [(1, 3)], frozenset())
    with pytest.raises(ValueError, match=r"^max_expansions must be >= 0, got -1$"):
        derive_row(kr_profile, [(1, 3)], KR_TARGETS, -1)


def test_assemble_system_refuses_a_system_without_components(kr_system):
    p, S, _ = kr_system
    with pytest.raises(ValueError, match=r"^need at least one component$"):
        assemble_system(p, S, [])


def test_verify_numeric_rows_equal_oracle_on_every_kr_mutant(kr_system):
    # the whole row vector, not only the mutated row: equal rows share one sum
    fs = assemble_system(*kr_system)
    mutants = _mutants(fs)
    assert len(mutants) == 49 + 26
    # windows wider in x than in q and the reverse, and x^0 alone, where
    # weighed terms fall off one edge of the rectangle before the other
    for x_max, q_max in ((12, 12), (3, 20), (20, 5), (0, 12)):
        for mutant in mutants:
            assert verify_numeric(mutant, x_max, q_max) == _oracle_rows(mutant, x_max, q_max)
    # at S = 0 no weighed row moves up in q with its x-degree
    for mutant in _mutants(fs._replace(S=0)):
        assert verify_numeric(mutant, 12, 12) == _oracle_rows(mutant, 12, 12)


def test_verify_numeric_rows_equal_oracle_on_every_ex3_mutant(ex3_system):
    fs = assemble_system(*ex3_system)
    mutants = _mutants(fs)
    assert len(mutants) == 529 + 90  # only V_1 = 1 has an exponent that cannot drop
    for mutant in mutants:
        assert verify_numeric(mutant, 12, 12) == _oracle_rows(mutant, 12, 12)


def test_verify_numeric_raises_eval_H_error_on_negative_energy(kr_system):
    # H(-2, 3)'s summand n = (1, 0) has q-exponent -2, so it is no power series
    fs = assemble_system(*kr_system)
    bad = (-2, 3)
    with pytest.raises(ValueError) as expected:
        eval_H(fs.profile, bad, 12, 12)
    with pytest.raises(ValueError) as raised:
        verify_numeric(fs._replace(betas=fs.betas[:3] + (bad,) + fs.betas[4:]), 12, 12)
    # named by the row of betas that holds it
    assert str(raised.value) == f"evaluating betas row 4: {expected.value}"
    assert "negative q-exponent" in str(raised.value)


def test_verify_numeric_refuses_laurent_weights(kr_system):
    # refused as the series would refuse them, also where the term falls off the rectangle
    fs = assemble_system(*kr_system)
    with pytest.raises(ValueError, match=r"^shift amount must be >= 0, got -1$"):
        verify_numeric(fs._replace(S=-1), 12, 12)
    V = fs.V[:2] + ((1, -1),) + fs.V[3:]
    with pytest.raises(ValueError, match=r"^monomial degrees must be >= 0, got x\^1 q\^-1$"):
        verify_numeric(fs._replace(V=V), 0, 12)


def test_verify_numeric_tells_equal_u_rows_apart_by_beta(kr_system):
    # row 4, for H(2,6), takes the U row of row 1, for H(1,3): a check keyed
    # on the U row alone would pass it along with row 1
    fs = assemble_system(*kr_system)
    U = list(fs.U)
    U[3] = U[0]
    mutant = _with(fs, U=tuple(U))
    rows = verify_numeric(mutant, 12, 12)
    assert rows == [True, True, True, False, True, True, True]
    assert rows == _oracle_rows(mutant, 12, 12)


@pytest.fixture()
def cold_rows():
    """verify_numeric's row memo, emptied before and after the test."""
    multisum._row_holds.cache_clear()
    yield multisum._row_holds
    multisum._row_holds.cache_clear()


def _batch_rows(fs, x_max: int, q_max: int) -> list[bool]:
    """verify_numeric's row vector from one row check of the whole system, no row memo."""
    H = {b: eval_H(fs.profile, b, x_max, q_max) for b in dict.fromkeys(fs.betas)}
    return _rows_hold(fs.U, fs.V, fs.S, [H[b] for b in fs.betas])


def _rows(fs, x_max: int, q_max: int) -> str:
    rows = verify_numeric(fs, x_max, q_max)
    assert rows == _batch_rows(fs, x_max, q_max)
    return "".join("1" if ok else "0" for ok in rows)


def test_row_memo_keeps_each_window_apart(kr_system, cold_rows):
    # V_5 moved to x^2 q^4 and V_6 to x^3 q^4: each term falls off one
    # window only, so the same rows hold there and fail on q^12 x^12
    fs = assemble_system(*kr_system)
    for j, w, window in ((4, (2, 4), (1, 12)), (5, (3, 4), (12, 3))):
        mutant = _with(fs, V=fs.V[:j] + (w,) + fs.V[j + 1:])
        assert _rows(mutant, *window) == "1111111"
        assert _rows(mutant, 12, 12) == "0001011"
    # three distinct rows per window, but rows 4 and 7 select neither moved
    # column, so at x^12 q^12 the second mutant checks only row 1 anew
    assert cold_rows.cache_info()[:2] == (2, 3 + 3 + 3 + 1)


def test_row_memo_keeps_each_profile_and_shift_apart(kr_system, cold_rows):
    fs = assemble_system(*kr_system)
    other = MultisumProfile(alpha=((2, 1), (1, 2)), gamma=(1, 1), A=(1, 1))
    assert _rows(fs, 12, 12) == "1111111"
    assert _rows(fs._replace(profile=other), 12, 12) == "0000000"
    assert _rows(fs._replace(S=4), 12, 12) == "0000000"


def test_row_memo_keeps_each_root_weight_and_entry_apart(kr_system, cold_rows):
    fs = assemble_system(*kr_system)
    assert _rows(fs, 12, 12) == "1111111"
    # row 4, for H(2,6), with row 1's U row, which H(1,3) holds with
    U = list(fs.U)
    U[3] = U[0]
    assert _rows(_with(fs, U=tuple(U)), 12, 12) == "1110111"
    # V_2 one power of q up, in the rows that select column 2
    assert _rows(_with(fs, V=fs.V[:1] + ((1, 2),) + fs.V[2:]), 12, 12) == "0001011"
    # an entry 2 where row 1 selects column 2 once
    assert _rows(_with(fs, U=((1, 2, 1, 1, 1, 1, 1),) + fs.U[1:]), 12, 12) == "0111111"


def test_row_memo_is_bounded(ex1_system, cold_rows):
    # ex1 has two distinct (beta, U row) pairs, so each window adds two rows
    fs = assemble_system(*ex1_system)
    for q_max in range(multisum._ROW_MEMO_SIZE // 2 + 20):
        assert verify_numeric(fs, 1, q_max) == [True] * 3
    assert cold_rows.cache_info().currsize == multisum._ROW_MEMO_SIZE
    # the oldest rows were dropped and are checked again
    misses = cold_rows.cache_info().misses
    verify_numeric(fs, 1, 0)
    assert cold_rows.cache_info().misses == misses + 2


def test_row_memo_raises_the_first_negative_summand_every_time(kr_system, cold_rows):
    # H(-3, 6) and H(-2, 3) both have a negative summand; betas name H(-3, 6) first
    fs = assemble_system(*kr_system)
    for betas, named in (
        (fs.betas[:3] + ((-2, 3),) + fs.betas[4:], "n=(1, 0) of H(beta=(-2, 3)) has negative q-exponent -2"),
        (fs.betas[:1] + ((-3, 6),) + fs.betas[2:3] + ((-2, 3),) + fs.betas[4:],
         "n=(1, 0) of H(beta=(-3, 6)) has negative q-exponent -3"),
    ):
        bad = fs._replace(betas=betas)
        with pytest.raises(ValueError, match=re.escape(named)):
            _batch_rows(bad, 12, 12)
        for _ in range(3):
            with pytest.raises(ValueError, match=re.escape(named)):
                verify_numeric(bad, 12, 12)
    assert cold_rows.cache_info().currsize == 0


def test_row_memo_agrees_with_the_batch_check_on_every_mutant(kr_system, ex3_system, cold_rows):
    for spec in (kr_system, ex3_system):
        fs = assemble_system(*spec)
        systems = [fs, *_mutants(fs)]
        expected = [_batch_rows(mutant, 12, 12) for mutant in systems]
        assert [verify_numeric(mutant, 12, 12) for mutant in systems] == expected
        # the second pass is all hits
        misses = cold_rows.cache_info().misses
        assert [verify_numeric(mutant, 12, 12) for mutant in systems] == expected
        assert cold_rows.cache_info().misses == misses


def test_check_system_agrees_with_verify_numeric(ex1_system, kr_system, ex3_system):
    # a factorization is a q-difference system with A = U and weights = V, so
    # both checks of F = A W(x) F(xq^S) give one answer, also on every U
    # mutant that is still such a system (column and row 1 all ones)
    q_max = 20
    for spec in (ex1_system, kr_system, ex3_system):
        fs = assemble_system(*spec)
        H = {b: eval_H(fs.profile, b, q_max, q_max) for b in set(fs.betas)}
        F = [H[b] for b in fs.betas]
        checked = 0
        for mutant in [fs] + _mutants(fs)[:fs.K ** 2]:
            try:
                sys = QDiffSystem(A=mutant.U, weights=mutant.V, S=mutant.S)
            except ValueError:
                continue
            assert check_system(sys, F) == all(verify_numeric(mutant, q_max, q_max))
            checked += 1
        assert checked == 1 + (fs.K - 1) ** 2


def test_factorization_solves_back_to_components(ex1_system, kr_system, ex3_system):
    # U and V double as a q-difference system; its solution is the H vector
    for spec, q_max in ((ex1_system, 16), (kr_system, 14), (ex3_system, 40)):
        fs = assemble_system(*spec)
        F = solve(QDiffSystem(A=fs.U, weights=fs.V, S=fs.S), q_max, q_max)
        for k, beta in enumerate(fs.betas):
            assert F[k].eq_upto(eval_H(fs.profile, beta, q_max, q_max))


# random trees of kr's rank: tree_from_json reads back any shape tree_to_json writes
_betas = st.tuples(st.integers(-9, 99), st.integers(-9, 99))
_trees = st.recursive(
    st.builds(Leaf, _betas),
    lambda sub: st.builds(Expand, _betas, st.integers(1, 2), sub, sub),
    max_leaves=12,
)


@settings(max_examples=100)
@given(_trees)
def test_tree_json_round_trip(kr_profile, tree):
    for t in (_one_tree(kr_profile, KR_TARGETS, (1, 3)), tree):
        text = json.dumps(tree_to_json(t), sort_keys=True)
        assert tree_from_json(json.loads(text), kr_profile.R) == t


def test_cert_document_round_trip(kr_profile):
    tree = _one_tree(kr_profile, KR_TARGETS, (1, 3))
    doc = cert_to_json(kr_profile, 3, tree)
    p2, S2, tree2 = cert_from_json(json.loads(json.dumps(doc)))
    assert (p2, S2, tree2) == (kr_profile, 3, tree)
    # export, parse, export again: byte-identical
    assert json.dumps(cert_to_json(p2, S2, tree2), sort_keys=True) == json.dumps(
        doc, sort_keys=True
    )


def test_dot_export_structure(kr_profile):
    tree = _one_tree(kr_profile, KR_TARGETS, (1, 3))
    dot = tree_to_dot(kr_profile, tree)
    assert dot.startswith("digraph certificate {")
    assert dot.count("label=\"H(") == 13  # 6 expansions + 7 leaves
    assert dot.count("->") == 12
    assert 'label="x^2 q^3"' in dot
    assert 'label="1"' in dot
    assert tree_to_dot(kr_profile, tree) == dot  # deterministic


def test_tree_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        tree_from_json({"coord": 1}, 1)
    with pytest.raises(ValueError):
        tree_from_json({"beta": [1], "coord": 1, "left": {"beta": [2]}}, 1)
    with pytest.raises(ValueError, match=r"beta must be a list of 2 integers, got \[7\]"):
        tree_from_json({"beta": [3, 9], "coord": 1, "left": {"beta": [7]}, "right": {"beta": [4, 9]}}, 2)
