"""Partition literals and checks, predicates, and the brute-force generating function."""

from __future__ import annotations

import re
import time

import pytest
from hypothesis import given, strategies as st

from oracles import count_gap2, gap_reference, kr_i1_reference, oplus, phi, s_tail
from spanone import partitions
from spanone.partitions import (
    ORACLE_MAX_PARTITIONS,
    _check_parts,
    format_partition,
    kr_i1_predicate,
    oracle_genfun,
    parse_partition,
    partitions_of,
    satisfies_gap,
    window_partitions,
)

partition_strategy = st.lists(st.integers(1, 12), max_size=8).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


def test_literal_round_trip():
    for text in ("empty", "1", "4+2+2+1", "10+10+3"):
        assert format_partition(parse_partition(text)) == text


def test_parse_rejects_garbage():
    for text in ("3+x", "1_0", "1_0+2", "+3", "3 + 1", "٣", " 1", "1 ", "empty "):
        with pytest.raises(ValueError):
            parse_partition(text)
    with pytest.raises(ValueError):
        parse_partition("1+2")  # increasing
    with pytest.raises(ValueError):
        parse_partition("3+0")


def test_check_parts_messages():
    # parse_partition runs the same check on every literal it reads
    for bad, message in (
        ((0,), "^parts must be positive, got 0$"),
        ((1, 2), "^" + re.escape("parts must be weakly decreasing, got (1, 2)") + "$"),
    ):
        with pytest.raises(ValueError, match=message):
            _check_parts(bad)
        with pytest.raises(ValueError, match=message):
            parse_partition(format_partition(bad))
    for parts in ((), (1,), (3, 3, 1)):
        _check_parts(parts)


def test_phi_adds_to_every_part():
    assert phi(parse_partition("5+3+3+2+1")) == parse_partition("6+4+4+3+2")
    assert phi((), 7) == ()
    assert phi(parse_partition("2+1"), 0) == parse_partition("2+1")


def test_oplus_merges_multisets():
    a = parse_partition("3+2+1+1")
    b = parse_partition("4+2+2+1+1")
    assert oplus(a, b) == parse_partition("4+3+2+2+2+1+1+1+1")


def test_size_and_parts():
    p = parse_partition("6+4+1")
    assert p == (6, 4, 1) and sum(p) == 11 and len(p) == 3
    assert parse_partition("empty") == ()


def test_s_tail_keeps_small_parts():
    p = parse_partition("6+4+2+1")
    assert s_tail(p, 3) == parse_partition("2+1")
    assert s_tail(p, 0) == ()
    assert s_tail(p, 6) == p


def test_s_tail_splits_partition():
    p = parse_partition("7+5+5+2+2+1")
    s = 4
    rest = tuple(a for a in p if a > s)
    assert oplus(s_tail(p, s), rest) == p


@pytest.mark.parametrize("k", [0, -1])
def test_satisfies_gap_rejects_distance_below_one(k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        satisfies_gap(parse_partition("3+1"), 2, k)


def test_satisfies_gap_examples():
    assert satisfies_gap(parse_partition("6+4+1"), 2, 1)
    assert not satisfies_gap(parse_partition("3+2"), 2, 1)
    assert satisfies_gap(parse_partition("5+4+1"), 3, 2)
    assert not satisfies_gap(parse_partition("4+3+2"), 3, 2)
    assert satisfies_gap((), 5, 1)
    assert satisfies_gap(parse_partition("1"), 5, 1)


def test_kr_predicate_cases():
    assert kr_i1_predicate(parse_partition("2+1"))  # 2+1 sums to 3
    assert not kr_i1_predicate(parse_partition("1+1"))  # sums to 2
    assert kr_i1_predicate(parse_partition("3+1"))
    assert not kr_i1_predicate(parse_partition("4+3"))  # adjacent, sum 7
    assert kr_i1_predicate(parse_partition("3+3"))
    assert kr_i1_predicate(parse_partition("6+4+1"))
    assert not kr_i1_predicate(parse_partition("3+2+1"))  # distance-2 gap is 2
    assert kr_i1_predicate(())


@given(partition_strategy)
def test_predicates_agree_with_reference_definitions(p):
    # every distance up to one past the last pair, and differences around the parts' range
    for k in range(1, len(p) + 2):
        for d in range(-2, 14):
            assert satisfies_gap(p, d, k) == gap_reference(p, d, k)
    assert kr_i1_predicate(p) == kr_i1_reference(p)


@given(partition_strategy, st.integers(0, 4), st.integers(1, 4), st.integers(1, 3))
def test_gap_predicate_invariant_under_phi(p, k, d, dist):
    assert satisfies_gap(phi(p, k), d, dist) == satisfies_gap(p, d, dist)


@given(partition_strategy, partition_strategy)
def test_oplus_commutative(a, b):
    assert oplus(a, b) == oplus(b, a)


@given(partition_strategy, partition_strategy, partition_strategy)
def test_oplus_associative(a, b, c):
    assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))


@given(partition_strategy)
def test_oplus_empty_identity(a):
    assert oplus(a, ()) == a


@given(partition_strategy, st.integers(0, 3), st.integers(0, 3))
def test_phi_composes(a, j, k):
    assert phi(phi(a, j), k) == phi(a, j + k)


def test_partitions_of_lex_order():
    got = list(partitions_of(4))
    assert got == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]


def test_partitions_of_counts():
    assert sum(1 for _ in partitions_of(8)) == 22
    assert list(partitions_of(0)) == [()]


def test_oracle_genfun_gap21_small():
    s = oracle_genfun(lambda p: satisfies_gap(p, 2, 1), 6, 6)
    assert str(s) == (
        "1 + x*q + x*q^2 + x*q^3 + x*q^4 + x^2*q^4 + x*q^5 + x^2*q^5"
        " + x*q^6 + 2*x^2*q^6"
    )


def test_oracle_genfun_trivial_predicates():
    assert str(oracle_genfun(lambda p: False, 5, 5)) == "0"
    assert str(oracle_genfun(lambda p: p == (), 5, 5)) == "1"


def test_oracle_genfun_respects_x_max():
    s = oracle_genfun(lambda p: True, 1, 6)
    assert s.x_max == 1
    assert s.coeff(1, 6) == 1  # only the single-part partition survives


@pytest.mark.parametrize("x_max", [12, 0, 3])
def test_oracle_genfun_calls_pred_once_per_partition(x_max):
    seen = []

    def pred(p):
        assert type(p) is tuple
        seen.append(p)
        return satisfies_gap(p, 2, 1)

    s = oracle_genfun(pred, x_max, 12)
    every = [p for n in range(13) for p in partitions_of(n) if len(p) <= x_max]
    assert sorted(seen) == sorted(every)
    assert s.x_max == x_max and s.q_max == 12
    for m in range(x_max + 1):
        for n in range(13):
            assert s.coeff(m, n) == sum(
                1 for p in every if len(p) == m and sum(p) == n and satisfies_gap(p, 2, 1)
            ), (m, n)


def _window_count(x_max: int, q_max: int) -> int:
    return sum(1 for n in range(q_max + 1) for p in partitions_of(n) if len(p) <= x_max)


def test_window_partitions_is_exact_up_to_its_bound():
    for x_max in range(9):
        for q_max in range(12):
            exact = _window_count(x_max, q_max)
            for bound in range(exact + 3):
                got = window_partitions(x_max, q_max, bound)
                assert got == exact if exact <= bound else got > bound, (x_max, q_max, bound)


def test_window_partitions_of_the_documented_windows():
    assert window_partitions(30, 30, ORACLE_MAX_PARTITIONS) == 28_629
    assert window_partitions(40, 40, ORACLE_MAX_PARTITIONS) == 215_308
    assert window_partitions(62, 62, ORACLE_MAX_PARTITIONS) == 9_061_010
    assert window_partitions(63, 63, ORACLE_MAX_PARTITIONS) > ORACLE_MAX_PARTITIONS
    assert window_partitions(63, 63, 10**8) == 10_566_509
    assert window_partitions(1, 10**7 - 1, ORACLE_MAX_PARTITIONS) == ORACLE_MAX_PARTITIONS


@pytest.mark.parametrize("x_max, q_max", [(4, 9), (9, 4), (6, 6)])
def test_oracle_refuses_a_window_one_partition_over_its_bound(x_max, q_max, monkeypatch):
    seen = []
    exact = _window_count(x_max, q_max)
    monkeypatch.setattr(partitions, "ORACLE_MAX_PARTITIONS", exact - 1)
    with pytest.raises(ValueError, match="lower --qmax or --xmax"):
        oracle_genfun(seen.append, x_max, q_max)
    assert seen == []
    monkeypatch.setattr(partitions, "ORACLE_MAX_PARTITIONS", exact)
    oracle_genfun(seen.append, x_max, q_max)
    assert len(seen) == exact


@pytest.mark.parametrize("x_max, q_max", [(10**8, 10**8), (1, 10**7), (5, 1000), (1000, 1000), (63, 63)])
def test_oracle_refuses_a_large_window_at_once(x_max, q_max):
    def walked(p):
        raise AssertionError("the window was walked")

    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"q_max={q_max} x_max={x_max} holds more than 10,000,000"):
        oracle_genfun(walked, x_max, q_max)
    assert time.perf_counter() - start < 0.5


def test_oracle_counts_match_bijective_recurrence():
    s = oracle_genfun(lambda p: satisfies_gap(p, 2, 1), 18, 18)
    for n in range(19):
        for m in range(n + 1):
            assert s.coeff(m, n) == count_gap2(n, m), (n, m)


def test_kr_oracle_small_sizes():
    s = oracle_genfun(kr_i1_predicate, 6, 6)
    by_size = {n: sum(s.coeff(m, n) for m in range(7)) for n in range(7)}
    # by hand: size 3 has {3, 2+1}, size 4 has {4, 3+1}, size 5 has {5, 4+1},
    # size 6 has {6, 5+1, 3+3, 4+2}... 4+2 differ by 2 (no sum rule) and gap fine
    assert by_size[0] == 1
    assert by_size[3] == 2
    assert by_size[4] == 2
    assert by_size[5] == 2
    assert by_size[6] == 4
