"""Acceptance suite: the end-to-end reproductions this package promises.

Each test covers one headline claim and prints a single pass/fail line
(visible under ``pytest -s``).  Everything here is exact integer arithmetic
on truncated series, so "agreement" always means coefficient-for-coefficient
equality on the stated window.  Time limits are generous sanity bounds, not
benchmarks.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from oracles import enumerate_walks, naive_add, naive_mul, walk_genfun_matrix

from spanone.ideals import associated_graph, enumerate_members, ideal_genfun_vec
from spanone.multisum import eval_H, shift_beta, verify_recurrence_numeric
from spanone.partitions import kr_i1_predicate, oracle_genfun, satisfies_gap
from spanone.prover import (
    FactorizationSystem,
    assemble_system,
    equivalent_systems,
    leaf_combination,
    verify_numeric,
)
from spanone.qdiff import f_from_g, solve
from spanone.series import Series, series_sum


@contextmanager
def criterion(n: int, what: str):
    """Print one pass/fail line per criterion, whatever happens inside."""
    note: dict = {}
    try:
        yield note
    except BaseException:
        print(f"acceptance {n}: FAIL - {what}")
        raise
    print(f"acceptance {n}: PASS - {note.get('detail', what)}")


# Reference factorizations, frozen here as the expected outcome of `prove`.
# Column order within a group of equal beta is a presentation choice, so the
# comparisons below go through equivalent_systems rather than raw equality.

KNOWN_EX1_U = ((1, 1, 1), (1, 1, 1), (1, 0, 1))
KNOWN_EX1_V = ((0, 0), (1, 1), (1, 2))

_ONES7 = (1,) * 7
KNOWN_KR_U = (
    _ONES7,
    _ONES7,
    _ONES7,
    (1, 0, 0, 0, 1, 1, 1),
    _ONES7,
    (1, 0, 0, 0, 1, 1, 1),
    (1, 0, 0, 0, 0, 1, 1),
)
KNOWN_KR_V = ((0, 0), (1, 1), (2, 3), (2, 4), (1, 2), (1, 3), (2, 6))


def _row23(cols: frozenset[int]) -> tuple[int, ...]:
    return tuple(1 if j + 1 in cols else 0 for j in range(23))


_ONES23 = (1,) * 23
_ROW_B = _row23(frozenset({1, 2, 7, 8, 9, 10, 14, 15, 16, 17, 22}))
_ROW_C = _row23(frozenset({1, 2, 7, 8, 14, 15, 16, 22}))
_ROW_D = _row23(frozenset({1, 7, 14, 15, 22}))
KNOWN_EX3_U = (_ONES23,) * 6 + (_ROW_B,) * 7 + (_ROW_C,) * 8 + (_ROW_D,) * 2
KNOWN_EX3_V = (
    (0, 0), (1, 2), (1, 1), (2, 3), (2, 2), (3, 4),
    (1, 3), (2, 5), (2, 4), (3, 7), (2, 4), (3, 6), (3, 5),
    (2, 7), (2, 6), (3, 9), (3, 8), (3, 8), (3, 7), (4, 10), (4, 9),
    (3, 10), (4, 11),
)


def test_1_gap2_counts_agree_across_four_routes(rr_ideal, ex1_profile):
    with criterion(1, "gap-2 generating function, four routes to q^30") as note:
        t0 = time.monotonic()
        q_max = 30
        oracle = oracle_genfun(lambda p: satisfies_gap(p, 2, 1), q_max, q_max)
        total = series_sum(ideal_genfun_vec(rr_ideal, q_max, q_max), q_max, q_max)
        by_enumeration, _ = enumerate_members(rr_ideal, q_max)
        by_multisum = eval_H(ex1_profile, (1,), q_max, q_max)
        assert oracle == total
        assert oracle == by_enumeration
        assert oracle == by_multisum
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        note["detail"] = f"four routes agree to q^30 ({elapsed:.2f}s)"


def test_2_smallest_part_refinements_match_multisums(
    rr_ideal, kr_ideal, ex1_profile, kr_profile
):
    with criterion(2, "smallest-part refinements to q^25") as note:
        t0 = time.monotonic()
        q_max = 25
        G = ideal_genfun_vec(rr_ideal, q_max, q_max)
        assert G[0] + G[2] == eval_H(ex1_profile, (2,), q_max, q_max)
        G = ideal_genfun_vec(kr_ideal, q_max, q_max)
        assert G[0] + G[4] + G[5] + G[6] == eval_H(kr_profile, (2, 6), q_max, q_max)
        assert G[0] + G[5] + G[6] == eval_H(kr_profile, (3, 6), q_max, q_max)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        note["detail"] = f"three refinements agree to q^25 ({elapsed:.2f}s)"


def test_3_kr_i1_oracle_matches_multisum(kr_profile):
    with criterion(3, "KR I1 brute-force count vs multi-sum to q^25") as note:
        q_max = 25
        oracle = oracle_genfun(kr_i1_predicate, q_max, q_max)
        assert oracle == eval_H(kr_profile, (1, 3), q_max, q_max)
        note["detail"] = "brute-force count equals multi-sum to q^25"


def test_4_qdiff_solution_matches_walk_product_route(rr_ideal, kr_ideal):
    with criterion(4, "q-difference solve vs walk-product route to q^25") as note:
        q_max = 25
        for ideal in (rr_ideal, kr_ideal):
            system = associated_graph(ideal)
            F = solve(system, q_max, q_max)
            F2 = f_from_g(system, ideal_genfun_vec(ideal, q_max, q_max))
            assert F == F2
        note["detail"] = "both component vectors agree entrywise to q^25"


def test_5_two_term_relation_random_beta_suite(ex1_profile, kr_profile, ex3_profile):
    with criterion(5, "two-term relation at random shift vectors") as note:
        rng = random.Random(20260825)
        q_max = 20
        checked = 0
        for p in (ex1_profile, kr_profile, ex3_profile):
            R = p.R
            for _ in range(50):
                beta = tuple(rng.randint(1, 8) for _ in range(R))
                for r in range(1, R + 1):
                    assert verify_recurrence_numeric(p, beta, r, q_max, q_max)
                    checked += 1
        assert checked == 50 * (1 + 2 + 3)
        note["detail"] = f"{checked} relation instances verified to q^20, all pass"


def _telescoped_ok(p, root, tree, x_max: int, q_max: int) -> bool:
    """H(root) equals the weighted sum over the tree's leaves."""
    cache: dict = {}
    acc = Series.zero(x_max, q_max)
    for leaf, (xe, qe) in leaf_combination(p, tree):
        if leaf not in cache:
            cache[leaf] = eval_H(p, leaf, x_max, q_max)
        acc = naive_add(acc, naive_mul(Series({(xe, qe): 1}, x_max, q_max), cache[leaf]))
    return eval_H(p, root, x_max, q_max).eq_upto(acc)


def test_6_prover_reproduces_reference_factorizations(
    ex1_system, kr_system, ex3_system
):
    with criterion(6, "search reproduces the reference factorizations") as note:
        t0 = time.monotonic()
        cases = (
            (ex1_system, KNOWN_EX1_U, KNOWN_EX1_V),
            (kr_system, KNOWN_KR_U, KNOWN_KR_V),
            (ex3_system, KNOWN_EX3_U, KNOWN_EX3_V),
        )
        sizes = []
        for (p, S, betas), known_U, known_V in cases:
            fs = assemble_system(p, S, betas)  # default expansion budget
            assert equivalent_systems(fs.betas, fs.U, fs.V, known_U, known_V)
            targets = frozenset(shift_beta(p, b, S) for b in fs.betas)
            for root, tree in fs.certs.items():
                assert {leaf for leaf, _ in leaf_combination(p, tree)} <= targets
                assert _telescoped_ok(p, root, tree, 12, 12)
            sizes.append(fs.K)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        note["detail"] = (
            f"systems of sizes {sizes} match up to in-group column order ({elapsed:.2f}s)"
        )


def test_7_factorizations_verify_at_full_order(ex1_system, kr_system, ex3_system):
    with criterion(7, "numeric verification of all three factorizations") as note:
        t0 = time.monotonic()
        q_max = 25
        for spec in (ex1_system, kr_system, ex3_system):
            fs = assemble_system(*spec)
            assert verify_numeric(fs, q_max, q_max) == [True] * fs.K
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0
        note["detail"] = f"all rows of all three systems hold to q^25 ({elapsed:.2f}s)"


def _random_digraph(rng: random.Random, k_max: int) -> tuple[tuple, tuple, tuple]:
    K = rng.randint(1, k_max)
    adjacency = tuple(
        tuple(1 if j == 0 else rng.randint(0, 1) for j in range(K)) for _ in range(K)
    )
    lengths = (0,) + tuple(rng.randint(1, 3) for _ in range(K - 1))
    sizes = (0,) + tuple(rng.randint(1, 5) for _ in range(K - 1))
    return adjacency, lengths, sizes


def _matpow(A: list[list[int]], M: int) -> list[list[int]]:
    K = len(A)
    P = [[int(i == j) for j in range(K)] for i in range(K)]
    for _ in range(M):
        P = [[sum(P[i][t] * A[t][j] for t in range(K)) for j in range(K)] for i in range(K)]
    return P


def _walk_bounds(lengths: tuple, sizes: tuple, M: int, S: int) -> tuple[int, int]:
    """Window on which the walk matrix is a complete polynomial, not truncated."""
    x_bound = (M + 1) * max(lengths)
    q_bound = (M + 1) * max(sizes) + S * max(lengths) * M * (M + 1) // 2
    return x_bound, q_bound


def test_8_walk_matrix_counts_and_symbolic_entries():
    with criterion(8, "walk matrices vs adjacency powers and enumeration") as note:
        rng = random.Random(8320)
        for _ in range(20):
            A, lengths, sizes = _random_digraph(rng, k_max=6)
            M = rng.randint(0, 5)
            S = rng.randint(1, 3)
            x_bound, q_bound = _walk_bounds(lengths, sizes, M, S)
            W = walk_genfun_matrix(A, tuple(zip(lengths, sizes)), M, S, x_bound, q_bound)
            P = _matpow([list(row) for row in A], M)
            for i in range(len(A)):
                for j in range(len(A)):
                    assert sum(c for _, c in W[i][j].terms()) == P[i][j]
        for _ in range(8):
            A, lengths, sizes = _random_digraph(rng, k_max=4)
            M = rng.randint(0, 3)
            S = rng.randint(1, 3)
            x_bound, q_bound = _walk_bounds(lengths, sizes, M, S)
            W = walk_genfun_matrix(A, tuple(zip(lengths, sizes)), M, S, x_bound, q_bound)
            expected = [
                [Series.zero(x_bound, q_bound) for _ in range(len(A))] for _ in range(len(A))
            ]
            for start, end, xe, qe in enumerate_walks(A, lengths, sizes, M, S):
                expected[start][end] = expected[start][end] + Series(
                    {(xe, qe): 1}, x_bound, q_bound
                )
            assert W == expected
        note["detail"] = "20 digraphs match adjacency powers, 8 match walk enumeration"


def test_9_single_entry_mutations_break_verification(
    ex1_system, kr_system, ex3_system
):
    with criterion(9, "every single-entry mutation is detected") as note:
        q_max = 12  # small enough to keep hundreds of re-checks quick,
        # large enough that every diagonal monomial sits inside the window
        mutants = 0
        for spec in (ex1_system, kr_system, ex3_system):
            fs = assemble_system(*spec)
            assert all(verify_numeric(fs, q_max, q_max))
            K = fs.K
            for i in range(K):
                for j in range(K):
                    U2 = [list(row) for row in fs.U]
                    U2[i][j] ^= 1
                    mutant = FactorizationSystem(
                        profile=fs.profile,
                        S=fs.S,
                        betas=fs.betas,
                        U=tuple(tuple(row) for row in U2),
                        V=fs.V,
                        certs={},
                    )
                    assert not verify_numeric(mutant, q_max, q_max)[i]
                    mutants += 1
            for j in range(K):
                m, n = fs.V[j]
                for dm, dn in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    if m + dm < 0 or n + dn < 0:
                        continue
                    V2 = list(fs.V)
                    V2[j] = (m + dm, n + dn)
                    mutant = FactorizationSystem(
                        profile=fs.profile,
                        S=fs.S,
                        betas=fs.betas,
                        U=fs.U,
                        V=tuple(V2),
                        certs={},
                    )
                    # row 1 selects every column, so it must notice
                    assert not verify_numeric(mutant, q_max, q_max)[0]
                    mutants += 1
        note["detail"] = f"{mutants} single-entry mutations, each detected"
