"""Solving and checking the q-difference system of a weighted digraph."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from oracles import naive_weigh_rows, walk_genfun_matrix
from spanone.ideals import associated_graph, default_levels, ideal_genfun_vec
from spanone.prover import assemble_system
from spanone.qdiff import (
    QDiffSystem,
    check_system,
    f_from_g,
    solve,
    system_from_json,
    system_to_json,
)
from spanone.series import Series, _weigh


def test_from_ideal_rr(rr_ideal):
    sys = associated_graph(rr_ideal)
    assert sys.A == ((1, 1, 1), (1, 1, 1), (1, 0, 1))
    assert sys.weights == ((0, 0), (1, 1), (1, 2))
    assert sys.S == 2


def test_invariant_violations_rejected():
    with pytest.raises(ValueError, match="first adjacency row"):
        QDiffSystem(A=((1, 0), (1, 1)), weights=((0, 0), (1, 1)), S=2)
    with pytest.raises(ValueError, match="first adjacency column"):
        QDiffSystem(A=((1, 1), (0, 1)), weights=((0, 0), (1, 1)), S=2)
    with pytest.raises(ValueError, match="weightless"):
        QDiffSystem(A=((1, 1), (1, 1)), weights=((1, 0), (1, 1)), S=2)
    with pytest.raises(ValueError, match="x-degree"):
        QDiffSystem(A=((1, 1), (1, 1)), weights=((0, 0), (0, 2)), S=2)
    with pytest.raises(ValueError, match="shift"):
        QDiffSystem(A=((1,),), weights=((0, 0),), S=0)
    with pytest.raises(ValueError, match="A is empty"):
        QDiffSystem(A=(), weights=(), S=1)


def test_solve_single_vertex_is_constant_one():
    sys = QDiffSystem(A=((1,),), weights=((0, 0),), S=1)
    (f,) = solve(sys, 8, 8)
    assert str(f) == "1"


def test_solve_rr_known_coefficients(rr_ideal):
    F = solve(associated_graph(rr_ideal), 12, 12)
    # first components of the classical pair: x-degree 1 rows are geometric
    assert F[0].coeff(0, 0) == 1
    assert [F[0].coeff(1, n) for n in range(5)] == [0, 1, 1, 1, 1]
    assert [F[2].coeff(1, n) for n in range(5)] == [0, 0, 1, 1, 1]
    assert F[0].coeff(2, 6) == 2  # 5+1 and 4+2


def test_solve_equals_adjacency_times_walk_product(rr_ideal, kr_ideal):
    for ideal, q_max in ((rr_ideal, 18), (kr_ideal, 16)):
        sys = associated_graph(ideal)
        F = solve(sys, q_max, q_max)
        G = ideal_genfun_vec(ideal, q_max, q_max)
        F2 = f_from_g(sys, G)
        for a, b in zip(F, F2):
            assert a.eq_upto(b)


@st.composite
def _systems(draw):
    K = draw(st.integers(1, 4))
    A = tuple(
        (1,) + tuple(1 if k == 0 else draw(st.integers(0, 1)) for _ in range(K - 1))
        for k in range(K)
    )
    weights = ((0, 0),) + tuple(
        (draw(st.integers(1, 3)), draw(st.integers(1, 4))) for _ in range(K - 1)
    )
    return QDiffSystem(A=A, weights=weights, S=draw(st.integers(1, 3)))


@given(_systems(), st.integers(0, 9), st.integers(0, 9))
@example(QDiffSystem(A=((1, 1), (1, 1)), weights=((0, 0), (2, 1)), S=1), 3, 1)
@example(QDiffSystem(A=((1, 1), (1, 0)), weights=((0, 0), (3, 1)), S=2), 9, 0)
# two equal rows other than row 1, so a class holds vertices 2 and 4 only
@example(QDiffSystem(A=((1, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 0, 1, 1)),
                     weights=((0, 0), (1, 1), (1, 2), (2, 3)), S=1), 6, 9)
# rows given as lists are classed by their entries
@example(QDiffSystem(A=[[1, 1, 1], [1, 0, 1], [1, 0, 1]], weights=((0, 0), (1, 2), (1, 1)), S=2), 5, 9)
def test_solve_equals_walk_product_route(sys, x_max, q_max):
    # weights with m_j > s_j put x^n below q-order n once x_max > q_max
    M = default_levels(sys.S, q_max)
    G = [row[0] for row in walk_genfun_matrix(sys.A, sys.weights, M, sys.S, x_max, q_max)]
    assert solve(sys, x_max, q_max) == f_from_g(sys, G)


def test_solve_shares_one_series_per_distinct_row(ex3_system):
    # ex3's 23 components are 4 distinct H(beta), one per distinct row of U
    fs = assemble_system(*ex3_system)
    F = solve(QDiffSystem(A=fs.U, weights=fs.V, S=fs.S), 12, 12)
    assert len(F) == 23 and len({id(f) for f in F}) == 4
    for (i, a), (j, b) in combinations(enumerate(fs.U), 2):
        assert (F[i] is F[j]) == (a == b)


@st.composite
def _weigh_cases(draw):
    """K rows drawn from at most K - 1 distinct ones, so some row repeats;
    rows come as lists or tuples of integer coefficients, bools among them,
    every series has its own window, weights lie inside the smallest
    window, so that weighed terms land on the common rectangle, and the
    shift may be 0."""
    K = draw(st.integers(2, 5))
    row = st.lists(st.integers(-2, 2) | st.booleans(), min_size=K, max_size=K)
    pool = draw(st.lists(row, min_size=1, max_size=K - 1))
    A = [draw(st.sampled_from((list, tuple)))(draw(st.sampled_from(pool))) for _ in range(K)]
    vec = []
    for _ in range(K):
        x_max, q_max = draw(st.integers(0, 4)), draw(st.integers(0, 5))
        terms = draw(st.lists(st.tuples(st.integers(0, x_max), st.integers(0, q_max),
                                        st.integers(-5, 5)), max_size=6))
        vec.append(Series({(m, n): c for m, n, c in terms}, x_max, q_max))
    x_max, q_max = min(s.x_max for s in vec), min(s.q_max for s in vec)
    weights = [(draw(st.integers(0, x_max)), draw(st.integers(0, q_max))) for _ in range(K)]
    return A, weights, vec, draw(st.integers(0, 3))


@given(_weigh_cases())
# every coefficient other than 1 lands inside the common rectangle
@example(([[1, 2, -1], (1, 2, -1), [True, 0, 3]], [(0, 0), (1, 0), (0, 2)],
          [Series.one(4, 5), Series({(0, 1): 1, (2, 1): -3}, 4, 5), Series({(1, 1): 2}, 5, 5)], 1))
def test_shifted_weigh_equals_per_row_oracle(case):
    # A W(x q^shift) vec is the kernel with x^m q^n taken as x^m q^(n + m shift), S = 0
    A, weights, vec, shift = case
    out = _weigh(A, [(m, n + m * shift) for m, n in weights], 0, vec)
    assert out == naive_weigh_rows(A, weights, vec, shift)
    for i, j in combinations(range(len(A)), 2):
        if list(A[i]) == list(A[j]):
            assert out[i] is out[j]


def test_shifted_weigh_refuses_laurent_weights():
    # also where the weighed term would fall off the rectangle
    vec = [Series.one(3, 3), Series.one(3, 3)]
    with pytest.raises(ValueError, match=r"^monomial degrees must be >= 0, got x\^5 q\^-1$"):
        _weigh(((1, 1), (1, 0)), ((0, 0), (5, -1)), 0, vec)
    # x q taken at shift -3
    with pytest.raises(ValueError, match=r"^monomial degrees must be >= 0, got x\^1 q\^-2$"):
        _weigh(((1, 1), (1, 0)), ((0, 0), (1, 1 - 3)), 0, vec)


def test_solve_rejects_negative_orders(rr_ideal):
    sys = associated_graph(rr_ideal)
    with pytest.raises(ValueError, match="truncation orders"):
        solve(sys, -1, 5)
    with pytest.raises(ValueError, match="truncation orders"):
        solve(sys, 5, -1)


def test_f_from_g_unit_vector(rr_ideal):
    sys = associated_graph(rr_ideal)
    G = [Series.one(6, 6), Series.zero(6, 6), Series.zero(6, 6)]
    F = f_from_g(sys, G)
    for f in F:
        assert str(f) == "1"


def test_f_from_g_requires_matching_length(rr_ideal):
    sys = associated_graph(rr_ideal)
    with pytest.raises(ValueError):
        f_from_g(sys, [Series.one(4, 4)])


def test_check_system_accepts_solution(rr_ideal, kr_ideal):
    for ideal in (rr_ideal, kr_ideal):
        sys = associated_graph(ideal)
        F = solve(sys, 14, 14)
        assert check_system(sys, F)


def test_check_system_rejects_perturbation(rr_ideal):
    sys = associated_graph(rr_ideal)
    F = solve(sys, 10, 10)
    F[1] = F[1] + Series({(2, 7): 1}, 10, 10)
    assert not check_system(sys, F)


def test_check_system_compares_on_the_common_rectangle(kr_ideal):
    # components truncated to different rectangles are compared where all are known
    sys = associated_graph(kr_ideal)
    F = solve(sys, 12, 12)
    orders = [(12, 12), (9, 12), (12, 10)] + [(11, 11)] * (sys.K - 3)
    cut = [Series(dict(s.terms()), x, q) for s, (x, q) in zip(F, orders)]
    assert check_system(sys, cut)
    # the common rectangle is [0..9] x [0..10]
    inside = list(cut)
    inside[0] = inside[0] + Series({(2, 7): 1}, 12, 12)
    assert not check_system(sys, inside)
    for k, term in ((0, (11, 3)), (0, (4, 11)), (1, (3, 12)), (2, (12, 0))):
        outside = list(cut)
        outside[k] = outside[k] + Series({term: 1}, 12, 12)
        assert check_system(sys, outside)


def test_solution_coefficient_orders(rr_ideal, kr_ideal):
    # the x^n coefficient of any component starts at q-order >= n
    for ideal in (rr_ideal, kr_ideal):
        F = solve(associated_graph(ideal), 12, 12)
        for f in F:
            assert all(n >= m for (m, n), _ in f.terms())


def test_solution_constant_terms_are_one(kr_ideal):
    for f in solve(associated_graph(kr_ideal), 10, 10):
        assert f.coeff(0, 0) == 1
        assert all(m == 0 or n > 0 for (m, n), _ in f.terms())


def test_json_round_trip(kr_ideal):
    sys = associated_graph(kr_ideal)
    assert system_from_json(system_to_json(sys)) == sys


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        system_from_json({"A": [[1]], "S": 1})
