"""Nahm-type multi-sums: evaluation, relations, shifts, side conditions."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from spanone import multisum
from spanone.multisum import (
    MultisumProfile,
    check_additional,
    check_positivity,
    energy,
    eval_H,
    profile_from_json,
    profile_to_json,
    rec_children,
    shift_beta,
    verify_recurrence_numeric,
)
from spanone.partitions import kr_i1_predicate, oracle_genfun, satisfies_gap
from spanone.series import Series

from oracles import naive_add, naive_eval_H, naive_mul


def test_profile_validation():
    with pytest.raises(ValueError, match="symmetric"):
        MultisumProfile(alpha=((1, 2), (3, 1)), gamma=(1, 1), A=(1, 1))
    with pytest.raises(ValueError, match=">= 0"):
        MultisumProfile(alpha=((-1,),), gamma=(1,), A=(1,))
    with pytest.raises(ValueError, match="gamma"):
        MultisumProfile(alpha=((2,),), gamma=(0,), A=(1,))
    with pytest.raises(ValueError, match="moduli"):
        MultisumProfile(alpha=((2,),), gamma=(1,), A=(0,))
    with pytest.raises(ValueError, match="rank"):
        MultisumProfile(alpha=((2,),), gamma=(1, 1), A=(1,))


def test_energy_values(ex1_profile, kr_profile):
    assert energy(ex1_profile, (1,), (3,)) == 9  # n^2 at n = 3
    assert energy(kr_profile, (1, 3), (2, 1)) == 13  # 4 + 3 + 6
    assert energy(kr_profile, (2, 6), (1, 1)) == 11  # 3*1*1 + 2 + 6


def test_positivity_fast_path(ex1_profile, kr_profile, ex3_profile):
    assert check_positivity(ex1_profile, (1,))
    assert check_positivity(kr_profile, (1, 3))
    assert check_positivity(ex3_profile, (3, 6, 10))


def test_positivity_rejects_flat_directions(ex1_profile, kr_profile):
    assert not check_positivity(ex1_profile, (0,))
    assert not check_positivity(kr_profile, (5, 0))
    assert not check_positivity(kr_profile, (-1, 3))


def test_positivity_zero_diagonal_ray():
    p = MultisumProfile(alpha=((0, 1), (1, 2)), gamma=(1, 1), A=(1, 1))
    assert check_positivity(p, (1, 1))
    assert not check_positivity(p, (0, 5))


@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
def test_positivity_matches_brute_force(a11, a22, a12, b1, b2):
    p = MultisumProfile(alpha=((a11, a12), (a12, a22)), gamma=(1, 1), A=(1, 1))
    beta = (b1, b2)
    # wide box plus long rays; quadratic growth makes this decisive
    brute = all(
        energy(p, beta, n) > 0
        for n in product(range(13), repeat=2)
        if n != (0, 0)
    ) and all(
        energy(p, beta, tuple(k if i == r else 0 for i in range(2))) > 0
        for r in range(2)
        for k in range(13, 60)
    )
    assert check_positivity(p, beta) == brute


@given(
    st.lists(st.integers(0, 2), min_size=6, max_size=6),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_positivity_matches_brute_force_rank_three(entries, beta):
    a11, a22, a33, a12, a13, a23 = entries
    alpha = ((a11, a12, a13), (a12, a22, a23), (a13, a23, a33))
    p = MultisumProfile(alpha=alpha, gamma=(1, 1, 1), A=(1, 1, 1))
    beta = tuple(beta)
    brute = all(
        energy(p, beta, n) > 0
        for n in product(range(6), repeat=3)
        if any(n)
    ) and all(
        energy(p, beta, tuple(k if i == r else 0 for i in range(3))) > 0
        for r in range(3)
        for k in range(6, 40)
    )
    assert check_positivity(p, beta) == brute


def test_eval_h_matches_gap_oracle(ex1_profile):
    q_max = 16
    assert eval_H(ex1_profile, (1,), q_max, q_max).eq_upto(
        oracle_genfun(lambda p: satisfies_gap(p, 2, 1), q_max, q_max)
    )


def test_eval_h_shifted_beta_counts_larger_parts(ex1_profile):
    # beta = (2): gap-2 partitions with every part at least 2
    q_max = 14
    s = eval_H(ex1_profile, (2,), q_max, q_max)
    oracle = oracle_genfun(
        lambda p: satisfies_gap(p, 2, 1) and (not p or p[-1] >= 2), q_max, q_max
    )
    assert s.eq_upto(oracle)
    assert [s.coeff(1, n) for n in range(1, 4)] == [0, 1, 1]


def test_eval_h_matches_kr_oracle(kr_profile):
    q_max = 16
    assert eval_H(kr_profile, (1, 3), q_max, q_max).eq_upto(
        oracle_genfun(kr_i1_predicate, q_max, q_max)
    )


def test_eval_h_x_grading(kr_profile):
    s = eval_H(kr_profile, (1, 3), 10, 10)
    assert sum(s.coeff(m, 3) for m in range(11)) == 2  # sizes counted across part numbers


def test_eval_h_constant_term(ex3_profile):
    for beta in ((1, 2, 4), (2, 4, 7), (2, 6, 10), (3, 6, 10)):
        s = eval_H(ex3_profile, beta, 10, 10)
        assert s.coeff(0, 0) == 1
        assert all((m, n) == (0, 0) or n > 0 for (m, n), _ in s.terms())


def test_eval_h_q_order_dominates_x_degree(kr_profile, ex3_profile):
    # whenever beta_r >= gamma_r the x^m coefficient starts at q-order >= m
    for p, beta in ((kr_profile, (1, 3)), (kr_profile, (2, 6)), (ex3_profile, (3, 6, 10))):
        s = eval_H(p, beta, 12, 12)
        assert all(n >= m for (m, n), _ in s.terms())


def test_eval_h_rejects_negative_energy(ex1_profile):
    with pytest.raises(ValueError, match="negative q-exponent"):
        eval_H(ex1_profile, (-5,), 8, 8)


@pytest.fixture()
def cold_memo():
    """eval_H's memo, emptied before and after the test."""
    multisum._walk_H.cache_clear()
    yield multisum._walk_H
    multisum._walk_H.cache_clear()


def test_memo_keeps_each_window_apart(kr_profile, cold_memo):
    beta = (1, 3)
    for q_max in (12, 40, 12):
        s = eval_H(kr_profile, beta, q_max, q_max)
        assert (s.x_max, s.q_max) == (q_max, q_max)
        assert s == naive_eval_H(kr_profile, beta, q_max, q_max)
    assert cold_memo.cache_info().misses == 2


def test_memo_keeps_each_profile_apart(kr_profile, cold_memo):
    other = MultisumProfile(alpha=((2, 1), (1, 2)), gamma=(1, 1), A=(1, 1))
    for p in (kr_profile, other, kr_profile):
        assert eval_H(p, (1, 3), 12, 12) == naive_eval_H(p, (1, 3), 12, 12)
    assert eval_H(kr_profile, (1, 3), 12, 12) != eval_H(other, (1, 3), 12, 12)


def test_memo_accepts_a_list_beta(kr_profile, cold_memo):
    from_list = eval_H(kr_profile, [2, 6], 12, 10)
    assert from_list == eval_H(kr_profile, (2, 6), 12, 10)
    assert from_list == naive_eval_H(kr_profile, (2, 6), 12, 10)


def test_memo_raises_the_negative_summand_every_time(ex1_profile, cold_memo):
    for _ in range(3):
        with pytest.raises(ValueError, match=r"summand n=\(1,\) of H\(beta=\(-5,\)\) has negative q-exponent -5"):
            eval_H(ex1_profile, (-5,), 8, 8)
    assert cold_memo.cache_info().currsize == 0


def test_memo_is_bounded(ex1_profile, cold_memo):
    for b in range(1, multisum._MEMO_SIZE + 20):
        eval_H(ex1_profile, (b,), 1, b)
    assert cold_memo.cache_info().currsize == multisum._MEMO_SIZE
    # the oldest key was dropped and is walked again
    misses = cold_memo.cache_info().misses
    eval_H(ex1_profile, (1,), 1, 1)
    assert cold_memo.cache_info().misses == misses + 1


def test_memo_series_stay_immutable(kr_profile, cold_memo):
    s = eval_H(kr_profile, (1, 3), 8, 8)
    for name, value in (("x_max", 3), ("q_max", 3), ("_rows", [])):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(s, name, value)
    assert eval_H(kr_profile, (1, 3), 8, 8) == naive_eval_H(kr_profile, (1, 3), 8, 8)


@st.composite
def _eval_cases(draw):
    R = draw(st.integers(1, 3))
    alpha = [[0] * R for _ in range(R)]
    for r in range(R):
        for s in range(r, R):
            alpha[r][s] = alpha[s][r] = draw(st.integers(0, 3))
    gamma = tuple(draw(st.integers(1, 2)) for _ in range(R))
    A = tuple(draw(st.integers(1, 3)) for _ in range(R))
    p = MultisumProfile(tuple(map(tuple, alpha)), gamma, A)
    beta = tuple(draw(st.integers(-2, 4)) for _ in range(R))
    q_max = draw(st.integers(0, 10))
    x_max = draw(st.one_of(st.just(q_max), st.integers(0, 10)))
    return p, beta, x_max, q_max


ZERO_DIAGONAL = MultisumProfile(alpha=((0, 1), (1, 0)), gamma=(1, 1), A=(1, 2))
RANK_THREE = MultisumProfile(
    alpha=((2, 1, 0), (1, 0, 2), (0, 2, 3)), gamma=(1, 2, 1), A=(1, 2, 3)
)


@given(_eval_cases())
@example((ZERO_DIAGONAL, (1, 1), 8, 8))
@example((RANK_THREE, (-1, 0, 2), 6, 9))  # negative beta reaches a negative summand
@example((RANK_THREE, (2, -1, 1), 1, 9))  # negative beta on a coordinate x_max rules out
@example((RANK_THREE, (3, 1, -1), 6, 2))  # negative beta on a coordinate that can still grow
@example((RANK_THREE, (1, 2, 1), 4, 0))
def test_eval_h_matches_naive_enumeration(case):
    p, beta, x_max, q_max = case

    def outcome(f):
        try:
            return f(p, beta, x_max, q_max)
        except ValueError as exc:
            return str(exc)

    assert outcome(eval_H) == outcome(naive_eval_H)


def test_rec_children_examples(ex1_profile, kr_profile, ex3_profile):
    assert rec_children(ex1_profile, (1,), 1) == ((2,), (1, 1), (3,))
    assert rec_children(kr_profile, (1, 3), 2) == ((1, 6), (2, 3), (4, 9))
    assert rec_children(kr_profile, (3, 6), 2) == ((3, 9), (2, 6), (6, 12))
    assert rec_children(ex3_profile, (1, 2, 4), 3) == ((1, 2, 7), (3, 4), (4, 8, 13))


def test_rec_children_coordinate_bounds(kr_profile):
    with pytest.raises(ValueError):
        rec_children(kr_profile, (1, 3), 0)
    with pytest.raises(ValueError):
        rec_children(kr_profile, (1, 3), 3)


def test_rec_children_checks_the_rank(kr_profile):
    with pytest.raises(ValueError, match="beta has rank 3, profile has rank 2"):
        rec_children(kr_profile, (1, 3, 5), 1)
    with pytest.raises(ValueError, match="beta has rank 1, profile has rank 2"):
        rec_children(kr_profile, (1,), 1)
    # a list is read as the tuple it lists
    assert rec_children(kr_profile, [1, 3], 2) == ((1, 6), (2, 3), (4, 9))


def test_shift_beta_examples(ex1_profile, kr_profile, ex3_profile):
    assert shift_beta(ex1_profile, (1,), 2) == (3,)
    assert shift_beta(kr_profile, (1, 3), 3) == (4, 9)
    assert shift_beta(ex3_profile, (1, 2, 4), 3) == (4, 8, 13)
    assert shift_beta(kr_profile, (2, 6), 0) == (2, 6)


def test_check_additional(ex1_profile, kr_profile, ex3_profile):
    assert check_additional(ex1_profile, 2)
    assert check_additional(kr_profile, 3)
    assert not check_additional(kr_profile, 1)
    assert not check_additional(kr_profile, 2)
    assert check_additional(ex3_profile, 3)


def test_recurrence_examples(ex1_profile, kr_profile):
    assert verify_recurrence_numeric(ex1_profile, (1,), 1, 14, 14)
    assert verify_recurrence_numeric(ex1_profile, (2,), 1, 14, 14)
    assert verify_recurrence_numeric(kr_profile, (1, 3), 1, 14, 14)
    assert verify_recurrence_numeric(kr_profile, (1, 3), 2, 14, 14)


def test_recurrence_beyond_positivity_region(kr_profile):
    # the splitting identity needs no positivity, only representability
    assert not check_positivity(kr_profile, (0, 5))
    assert verify_recurrence_numeric(kr_profile, (0, 5), 1, 12, 12)
    assert verify_recurrence_numeric(kr_profile, (0, 5), 2, 12, 12)


@given(st.sampled_from(("kr", "ex3")), st.lists(st.integers(0, 13), min_size=3, max_size=3),
       st.integers(1, 3), st.integers(0, 6), st.integers(0, 10))
@example("kr", [1, 3, 0], 2, 3, 10)  # xmax < qmax
@example("ex3", [2, 4, 7], 3, 2, 9)
@example("kr", [1, 12, 0], 2, 6, 10)  # beta_r > q_max: the right term falls off entirely
@example("ex3", [11, 0, 1], 1, 4, 8)
def test_recurrence_agrees_with_naive_route(kr_profile, ex3_profile, name, beta, r, x_max, q_max):
    # H(beta) = H(left) + x^gamma_r q^beta_r H(right) with every H summed over
    # the full box and the weight multiplied out as a product
    p = kr_profile if name == "kr" else ex3_profile
    beta, r = tuple(beta[:p.R]), (r - 1) % p.R + 1
    left, (xe, qe), right = rec_children(p, beta, r)
    weight = Series({(xe, qe): 1}, x_max, q_max)
    lhs = naive_eval_H(p, beta, x_max, q_max)
    rhs = naive_add(naive_eval_H(p, left, x_max, q_max), naive_mul(weight, naive_eval_H(p, right, x_max, q_max)))
    assert lhs == rhs
    assert verify_recurrence_numeric(p, beta, r, x_max, q_max)


# profiles, each with a shift at which check_additional fails: a modulus does
# not divide gamma S, or does not divide an alpha entry
OFF_DIVISIBILITY = (
    (MultisumProfile(alpha=((1, 1), (1, 1)), gamma=(1, 1), A=(2, 3)), 1),
    (MultisumProfile(alpha=((1,),), gamma=(1,), A=(2,)), 2),
    (MultisumProfile(alpha=((2, 1), (1, 2)), gamma=(1, 2), A=(3, 2)), 3),
)


def test_recurrence_needs_no_divisibility():
    # 1/(q^A;q^A)_n = q^(An)/(q^A;q^A)_n + 1/(q^A;q^A)_(n-1) for every modulus A,
    # so the two-term relation holds whether check_additional does or not
    for p, S in OFF_DIVISIBILITY:
        assert not check_additional(p, S)
        for beta in product((1, 2, 3), repeat=p.R):
            for r in range(1, p.R + 1):
                assert verify_recurrence_numeric(p, beta, r, 14, 14)


@st.composite
def _free_moduli_cases(draw):
    """Profiles of rank <= 2 whose moduli are drawn apart from alpha and
    gamma, and a beta in {1, 2, 3}^R, where every summand is positive."""
    R = draw(st.integers(1, 2))
    alpha = [[0] * R for _ in range(R)]
    for r in range(R):
        for s in range(r, R):
            alpha[r][s] = alpha[s][r] = draw(st.integers(0, 3))
    gamma = tuple(draw(st.integers(1, 2)) for _ in range(R))
    A = tuple(draw(st.integers(1, 4)) for _ in range(R))
    p = MultisumProfile(tuple(map(tuple, alpha)), gamma, A)
    beta = tuple(draw(st.integers(1, 3)) for _ in range(R))
    return p, beta, draw(st.integers(1, R))


@given(_free_moduli_cases())
@example((OFF_DIVISIBILITY[0][0], (1, 1), 1))
@example((OFF_DIVISIBILITY[2][0], (3, 1), 2))
def test_recurrence_holds_for_any_moduli(case):
    p, beta, r = case
    assert verify_recurrence_numeric(p, beta, r, 9, 9)
    left, (xe, qe), right = rec_children(p, beta, r)
    weight = Series({(xe, qe): 1}, 9, 9)
    rhs = naive_add(naive_eval_H(p, left, 9, 9), naive_mul(weight, naive_eval_H(p, right, 9, 9)))
    assert naive_eval_H(p, beta, 9, 9) == rhs


def test_recurrence_chain_reassembles(ex1_profile):
    # H(2) = H(3) + x q^2 H(4), the step taken when peeling smallest parts
    q_max = 20
    lhs = eval_H(ex1_profile, (2,), q_max, q_max)
    rhs = eval_H(ex1_profile, (3,), q_max, q_max) + Series({(1, 2): 1}, q_max, q_max) * eval_H(
        ex1_profile, (4,), q_max, q_max
    )
    assert lhs.eq_upto(rhs)


def test_shift_commutes_with_recurrence(kr_profile):
    # expanding then shifting = shifting then expanding with the weight's
    # q-exponent raised by gamma_r * S
    p, S, q_max = kr_profile, 3, 14
    for beta in ((1, 3), (2, 6)):
        for r in (1, 2):
            left, (xe, qe), right = rec_children(p, beta, r)
            lhs = eval_H(p, shift_beta(p, beta, S), q_max, q_max)
            rhs = eval_H(p, shift_beta(p, left, S), q_max, q_max) + Series(
                {(xe, qe + xe * S): 1}, q_max, q_max
            ) * eval_H(p, shift_beta(p, right, S), q_max, q_max)
            assert lhs.eq_upto(rhs)


def test_json_round_trip(kr_profile):
    assert profile_from_json(profile_to_json(kr_profile)) == kr_profile


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        profile_from_json({"alpha": [[2]], "gamma": [1]})
