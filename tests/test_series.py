"""Exact arithmetic on truncated bivariate series."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from oracles import naive_add, naive_mul, naive_shift_x
from spanone.series import Series, _weigh, series_sum


def series_strategy(max_order=7, max_terms=8):
    def build(x_max, q_max, entries):
        coeffs = {}
        for m, n, c in entries:
            coeffs[(m % (x_max + 1), n % (q_max + 1))] = c
        return Series(coeffs, x_max, q_max)

    return st.builds(
        build,
        st.integers(0, max_order),
        st.integers(0, max_order),
        st.lists(
            st.tuples(st.integers(0, max_order), st.integers(0, max_order), st.integers(-9, 9)),
            max_size=max_terms,
        ),
    )


def test_monomial_coeff():
    s = Series({(2, 6): 3}, 10, 10)
    assert s.coeff(2, 6) == 3
    assert s.coeff(2, 5) == 0
    assert s.coeff(0, 0) == 0


def test_monomial_outside_window_is_zero_series():
    assert not Series({(4, 0): 5}, 3, 3).terms()
    assert not Series({(0, 9): 5}, 3, 3).terms()


def test_monomial_rejects_negative_degrees():
    with pytest.raises(ValueError, match="negative exponent in series term"):
        Series({(-1, 0): 1}, 3, 3)
    with pytest.raises(ValueError, match="negative exponent in series term"):
        Series({(0, -2): 1}, 3, 3)


def test_zero_coefficients_never_stored():
    s = Series({(0, 0): 0, (1, 1): 2}, 5, 5)
    assert [k for k, _ in s.terms()] == [(1, 1)]
    t = s + Series({(1, 1): -2}, 5, 5)
    assert not t.terms()


def test_add_uses_min_orders():
    a = Series({(0, 0): 1}, 10, 10)
    b = Series({(1, 1): 2}, 4, 6)
    c = a + b
    assert (c.x_max, c.q_max) == (4, 6)
    assert c.coeff(0, 0) == 1 and c.coeff(1, 1) == 2


def test_series_sum_lives_on_intersection_of_windows():
    a = Series({(0, 0): 1}, 8, 8) + Series({(5, 2): 3}, 8, 8)
    b = Series({(1, 1): 2}, 4, 6) + Series({(0, 0): 1}, 4, 6)
    s = series_sum([a, b], 10, 10)
    assert (s.x_max, s.q_max) == (4, 6)
    assert s == Series({(0, 0): 2}, 4, 6) + Series({(1, 1): 2}, 4, 6)
    assert series_sum([], 10, 10) == Series.zero(10, 10)


def test_coeff_outside_region_raises():
    s = Series({(1, 1): 1}, 4, 4)
    with pytest.raises(IndexError):
        s.coeff(5, 0)
    with pytest.raises(IndexError):
        s.coeff(0, 5)
    with pytest.raises(IndexError):
        s.coeff(-1, 0)


def test_mul_truncates_to_shared_window():
    a = Series({(0, n): 1 for n in range(9)}, 0, 8)
    b = Series({(0, n): 1 for n in range(6)}, 0, 5)
    c = a * b  # 1/(1-q)^2 = sum (n+1) q^n
    assert c.q_max == 5
    assert [c.coeff(0, n) for n in range(6)] == [1, 2, 3, 4, 5, 6]


def test_mul_cuts_the_larger_left_operand_once():
    class Rows(list):
        """x-rows that count the slices taken of them, one per cut."""
        cuts = 0

        def __getitem__(self, index):
            Rows.cuts += isinstance(index, slice)
            return super().__getitem__(index)

    dense = Series({(m, n): m + n + 1 for m in range(41) for n in range(41)}, 40, 40)
    a = Series._of_rows(Rows(dense._rows), 40, 40)
    b = Series({(m, n): 1 for m in range(13) for n in range(13)}, 12, 12)
    assert len(b.terms()) == 169
    assert a * b == dense * b
    assert Rows.cuts == 1


def test_one_minus_q_times_geom_inverse_is_one():
    for j in range(1, 9):
        one_minus = Series({(0, 0): 1}, 0, 20) - Series({(0, j): 1}, 0, 20)
        geom = Series({(0, n): 1 for n in range(0, 21, j)}, 0, 20)  # 1/(1 - q^j)
        assert (one_minus * geom).eq_upto(Series.one(0, 20))


def test_geom_inverse_pochhammer_two():
    # 1/((1-q)(1-q^2)) counts partitions into parts of size at most 2
    s = Series({(0, n): 1 for n in range(5)}, 0, 4) * Series({(0, n): 1 for n in range(0, 5, 2)}, 0, 4)
    expect = [1, 1, 2, 2, 3]  # n//2 + 1
    assert [s.coeff(0, n) for n in range(5)] == expect


def test_shift_x_moves_q_degree():
    s = Series({(2, 1): 1}, 10, 10)
    t = s.shift_x(3)
    assert t.coeff(2, 7) == 1
    assert t.coeff(2, 1) == 0


def test_shift_x_drops_terms_past_q_max():
    s = Series({(3, 4): 1}, 6, 6)
    assert not s.shift_x(1).terms()  # 4 + 3*1 = 7 > 6


def test_shift_x_zero_is_identity():
    s = Series({(0, 0): 1, (2, 3): -4}, 6, 6)
    assert s.shift_x(0) == s


def test_shift_x_rejects_negative():
    with pytest.raises(ValueError):
        Series({(1, 1): 1}, 3, 3).shift_x(-1)


@given(series_strategy(), series_strategy(), st.integers(0, 9), st.integers(0, 9), st.integers(0, 3),
       st.integers(-3, 3), st.integers(-3, 3))
def test_weigh_equals_product_with_monomial(a, b, m, n, s, c, d):
    # c x^m q^n a(x q^s) and that plus d b(x q^s), on the common rectangle of a and b
    one, two = _weigh(((c, 0), (c, d)), ((m, n), (0, 0)), s, (a, b))
    assert one == naive_mul(naive_shift_x(a, s), Series({(m, n): c}, b.x_max, b.q_max))
    assert two == naive_add(one, naive_mul(naive_shift_x(b, s), Series({(0, 0): d}, a.x_max, a.q_max)))


@given(series_strategy(), series_strategy(), st.integers(0, 3), st.integers(0, 9), st.integers(0, 9))
def test_operators_equal_per_coefficient_oracles(a, b, s, x_max, q_max):
    minus_one = Series({(0, 0): -1}, 9, 9)
    assert a + b == naive_add(a, b)
    assert a - b == naive_add(a, naive_mul(minus_one, b))
    assert -a == naive_mul(minus_one, a)
    assert a * b == naive_mul(a, b)
    assert a.shift_x(s) == naive_shift_x(a, s)
    assert series_sum((a, b, a), x_max, q_max) == naive_add(a, b, a, Series.zero(x_max, q_max))


def test_weigh_refuses_laurent_weights_and_shifts():
    # refused also where the weighed terms would all fall off the rectangle
    s = Series({(1, 1): 1}, 3, 3)
    with pytest.raises(ValueError, match=r"^monomial degrees must be >= 0, got x\^0 q\^-1$"):
        _weigh(((1,),), ((0, -1),), 0, (s,))
    with pytest.raises(ValueError, match=r"^monomial degrees must be >= 0, got x\^-1 q\^9$"):
        _weigh(((0,),), ((-1, 9),), 0, (s,))
    with pytest.raises(ValueError, match=r"^shift amount must be >= 0, got -1$"):
        _weigh(((1,),), ((0, 0),), -1, (s,))


def test_eq_upto_compares_shared_region():
    a = Series({(0, 0): 1, (1, 5): 7}, 8, 8)
    b = Series({(0, 0): 1}, 8, 4)
    assert a.eq_upto(b)
    assert b.eq_upto(a)
    c = Series({(0, 0): 2}, 8, 4)
    assert not a.eq_upto(c)


def test_render_graded_lex():
    s = Series({(1, 4): 1, (2, 4): 1, (0, 0): 1, (1, 1): 1}, 6, 6)
    assert str(s) == "1 + x*q + x*q^4 + x^2*q^4"


def test_render_edge_cases():
    assert str(Series.zero(3, 3)) == "0"
    assert str(Series.one(3, 3)) == "1"
    assert str(Series({(1, 1): -2}, 3, 3)) == "-2*x*q"
    assert str(Series({(0, 1): 1}, 3, 3) - Series({(2, 2): 3}, 3, 3)) == "q - 3*x^2*q^2"


def test_immutability():
    s = Series({(1, 1): 1}, 3, 3)
    with pytest.raises(AttributeError):
        s.x_max = 99


@given(series_strategy(), series_strategy())
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(series_strategy(5, 5), series_strategy(5, 5), series_strategy(5, 5))
def test_mul_associative(a, b, c):
    assert ((a * b) * c).eq_upto(a * (b * c))


@given(series_strategy(5, 5), series_strategy(5, 5), series_strategy(5, 5))
def test_mul_distributes_over_add(a, b, c):
    assert (a * (b + c)).eq_upto(a * b + a * c)


@given(series_strategy())
def test_mul_matches_naive_convolution(a):
    b = Series({(0, 0): 1}, a.x_max, a.q_max) + a
    assert (a * b).eq_upto(naive_mul(a, b))


@given(series_strategy(), st.integers(0, 3), st.integers(0, 3))
def test_shift_x_composes_additively(a, s1, s2):
    assert a.shift_x(s1).shift_x(s2) == a.shift_x(s1 + s2)


@given(series_strategy())
def test_add_negation_cancels(a):
    assert not (a + (-a)).terms()


def _canonical(s: Series) -> bool:
    """At most x_max + 1 rows of q_max + 1 ints each, and no trailing zero row."""
    rows = s._rows
    return (len(rows) <= s.x_max + 1 and all(len(row) == s.q_max + 1 for row in rows)
            and (not rows or any(rows[-1])))


@st.composite
def dense_rows(draw):
    """(rows, x_max, q_max): up to x_max + 1 rows of q_max + 1 ints, zero rows included."""
    x_max, q_max = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    row = st.lists(st.integers(-2, 2) | st.just(0), min_size=q_max + 1, max_size=q_max + 1)
    return draw(st.lists(row, max_size=x_max + 1)), x_max, q_max


@given(series_strategy(), series_strategy(), st.integers(0, 3), st.integers(0, 9), dense_rows())
def test_every_operation_keeps_rows_canonical(a, b, s, n, dense):
    # x^m q^n a(x q^s) alone and plus q^m b(x q^s), for m up to two past
    # a's rectangle
    weighed = [w for m in range(a.x_max + 3)
               for w in _weigh(((1, 0), (1, 1)), ((m, n), (0, m)), s, (a, b))]
    for r in (a + b, a - b, a * b, -a, a.shift_x(s), *weighed):
        assert _canonical(r)
    b = Series(dict(b.terms()), a.x_max, a.q_max)
    assert a + b - b == a and hash(a + b - b) == hash(a)
    assert a * b == naive_mul(a, b)
    rows, x_max, q_max = dense
    coeffs = {(i, j): c for i, row in enumerate(rows) for j, c in enumerate(row)}
    t = Series._of_rows([row[:] for row in rows], x_max, q_max)
    assert _canonical(t) and t == Series(coeffs, x_max, q_max)
