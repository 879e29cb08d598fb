"""Ideal structure, the associated digraph, and member generating functions."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import example, given, strategies as st

import spanone
from oracles import (
    enumerate_walks,
    naive_add,
    naive_shift_x,
    oplus,
    partitions_of,
    phi,
    recursive_enumerate_members,
    walk_genfun_matrix,
)
from spanone.cli import main
from spanone.ideals import (
    SpanOneIdeal,
    associated_graph,
    contains,
    default_levels,
    enumerate_members,
    ideal_from_json,
    ideal_genfun_vec,
    ideal_to_json,
)
from spanone.partitions import (
    format_partition,
    kr_i1_predicate,
    oracle_genfun,
    parse_partition,
    satisfies_gap,
)
from spanone.qdiff import QDiffSystem
from spanone.series import Series


def test_rr_fixture_shape(rr_ideal):
    g = associated_graph(rr_ideal)
    assert g.A == ((1, 1, 1), (1, 1, 1), (1, 0, 1))
    assert g.weights == ((0, 0), (1, 1), (1, 2))
    assert rr_ideal.S == 2


def test_kr_fixture_shape(kr_ideal):
    g = associated_graph(kr_ideal)
    assert g.weights == ((0, 0), (1, 1), (2, 3), (2, 4), (1, 2), (1, 3), (2, 6))
    ones = (1,) * 7
    assert g.A == (
        ones,
        ones,
        ones,
        (1, 0, 0, 0, 1, 1, 1),
        ones,
        (1, 0, 0, 0, 1, 1, 1),
        (1, 0, 0, 0, 0, 1, 1),
    )


def test_validate_rejects_small_span(rr_ideal):
    with pytest.raises(ValueError, match="largest seed part"):
        SpanOneIdeal(pi=rr_ideal.pi, linking=rr_ideal.linking, S=1)


def test_validate_rejects_missing_empty_link(rr_ideal):
    linking = (rr_ideal.linking[0], rr_ideal.linking[1], frozenset({3}))
    with pytest.raises(ValueError, match="missing from the linking set"):
        SpanOneIdeal(pi=rr_ideal.pi, linking=linking, S=2)


def test_validate_rejects_partial_empty_linking(rr_ideal):
    linking = (frozenset({1, 2}),) + rr_ideal.linking[1:]
    with pytest.raises(ValueError, match="link to every seed"):
        SpanOneIdeal(pi=rr_ideal.pi, linking=linking, S=2)


def test_validate_rejects_nonempty_first_seed():
    pi = (parse_partition("1"), parse_partition("2"))
    linking = (frozenset({1, 2}), frozenset({1}))
    with pytest.raises(ValueError, match="pi_1 must be the empty"):
        SpanOneIdeal(pi=pi, linking=linking, S=2)


def test_validate_reports_multiple_problems(rr_ideal):
    linking = (frozenset({1, 2}), rr_ideal.linking[1], frozenset({3}))
    with pytest.raises(ValueError, match="missing from the linking set.*largest seed part"):
        SpanOneIdeal(pi=rr_ideal.pi, linking=linking, S=1)


def test_validate_rejects_seeds_that_are_no_partitions():
    linking = (frozenset({1, 2, 3}),) * 3
    with pytest.raises(ValueError, match=re.escape("pi_2: parts must be weakly decreasing, got (1, 3)")):
        SpanOneIdeal(pi=((), (1, 3), (2,)), linking=linking, S=3)
    # reported among the other problems, each seed by its own index
    with pytest.raises(
        ValueError, match=r"pi_3: parts must be positive, got 0;.*span must be >= 1, got 0"
    ):
        SpanOneIdeal(pi=((), (2,), (1, 0)), linking=linking, S=0)


def test_validate_rejects_seeds_that_are_no_tuples_of_ints():
    # a library caller's seed that no parser made: refused by index, not
    # with a TypeError from hashing or comparing it
    linking = (frozenset({1, 2}),) * 2
    with pytest.raises(ValueError, match=re.escape("pi_2: a seed must be a tuple of ints, got [1]")):
        SpanOneIdeal(pi=((), [1]), linking=linking, S=1)
    with pytest.raises(ValueError, match=re.escape("pi_2: a seed must be a tuple of ints, got '1'")):
        SpanOneIdeal(pi=((), "1"), linking=linking, S=1)
    # among the other problems, each seed by its own index
    with pytest.raises(ValueError, match=r"^pi_2: .*got \(1, '2'\); pi_3: .*got \(True,\); span must be >= 1"):
        SpanOneIdeal(pi=((), (1, "2"), (True,)), linking=(frozenset({1, 2, 3}),) * 3, S=0)


def test_validate_rejects_linking_sets_that_are_no_frozensets_of_ints():
    # refused by index, and left out of the other linking checks: no TypeError
    # from comparing a str with the index range, no complaint about the empty
    # partition's links when its set has the wrong type, no float accepted
    pi = ((), (1,))
    with pytest.raises(ValueError, match=r"^linking_1: a linking set must be a frozenset of ints, got "
                                         r"frozenset\(\{.*'2'.*\}\)$"):
        SpanOneIdeal(pi=pi, linking=(frozenset({1, "2"}), frozenset({1})), S=1)
    with pytest.raises(ValueError, match=re.escape(
            "linking_1: a linking set must be a frozenset of ints, got [1, 2]; "
            "linking_2: a linking set must be a frozenset of ints, got [1, 2]")) as info:
        SpanOneIdeal(pi=pi, linking=([1, 2], [1, 2]), S=1)
    assert "empty partition" not in str(info.value)
    with pytest.raises(ValueError,
                       match=r"^linking_2: .*got frozenset\(\{.*2\.0.*\}\); span must be >= 1, got 0$"):
        SpanOneIdeal(pi=pi, linking=(frozenset({1, 2}), frozenset({1, 2.0})), S=0)
    with pytest.raises(ValueError, match=r"^linking_1: .*got frozenset\(\{.*2\.0.*\}\)$"):
        SpanOneIdeal(pi=pi, linking=(frozenset({1, 2.0}), frozenset({1})), S=1)


def test_trivial_ideal_of_empty_partition():
    ideal = SpanOneIdeal(pi=((),), linking=(frozenset({1}),), S=1)
    g = associated_graph(ideal)
    assert g.A == ((1,),)
    vec = ideal_genfun_vec(ideal, 6, 6)
    assert str(vec[0]) == "1"
    genfun, members = enumerate_members(ideal, 6)
    assert members == ["empty"]
    assert str(genfun) == "1"


def test_digraph_requires_edges_to_start():
    with pytest.raises(ValueError, match="first adjacency column must be all ones"):
        QDiffSystem(A=((1, 1), (0, 1)), weights=((0, 0), (1, 1)), S=1)


def test_digraph_requires_weightless_start():
    with pytest.raises(ValueError, match="vertex 1 must be weightless"):
        QDiffSystem(A=((1,),), weights=((1, 1),), S=1)


def test_walk_matrix_zero_steps_is_weight_diagonal(rr_ideal):
    g = associated_graph(rr_ideal)
    mat = walk_genfun_matrix(g.A, g.weights, 0, rr_ideal.S, 8, 8)
    assert str(mat[0][0]) == "1"
    assert str(mat[1][1]) == "x*q"
    assert str(mat[2][2]) == "x*q^2"
    assert not mat[0][1].terms()


def test_walk_matrix_one_step_row_sum(rr_ideal):
    g = associated_graph(rr_ideal)
    mat = walk_genfun_matrix(g.A, g.weights, 1, rr_ideal.S, 10, 10)
    total = mat[0][0] + mat[0][1] + mat[0][2]
    assert str(total) == "1 + x*q^3 + x*q^4"


def _matpow(A, M):
    K = len(A)
    out = [[1 if i == j else 0 for j in range(K)] for i in range(K)]
    for _ in range(M):
        out = [
            [sum(out[i][t] * A[t][j] for t in range(K)) for j in range(K)]
            for i in range(K)
        ]
    return out


def test_walk_matrix_counts_walks_at_one(rr_ideal, kr_ideal):
    for ideal, M in ((rr_ideal, 2), (kr_ideal, 3)):
        g = associated_graph(ideal)
        lengths, sizes = zip(*g.weights)
        # every M-step walk weight is a polynomial; large enough orders keep all of it
        q_bound = (M + 1) * max(sizes) + ideal.S * max(lengths) * M * (M + 1) // 2
        x_bound = (M + 1) * max(lengths)
        mat = walk_genfun_matrix(g.A, g.weights, M, ideal.S, x_bound, q_bound)
        power = _matpow(g.A, M)
        for i in range(g.K):
            for j in range(g.K):
                count = sum(c for _, c in mat[i][j].terms())
                assert count == power[i][j]
    # spot value: two 2-step walks from vertex 3 to vertex 1
    assert _matpow(associated_graph(rr_ideal).A, 2)[2][0] == 2


def test_walk_matrix_matches_walk_enumeration(rr_ideal, kr_ideal):
    for ideal, M in ((rr_ideal, 3), (kr_ideal, 2)):
        g = associated_graph(ideal)
        lengths, sizes = zip(*g.weights)
        q_bound = (M + 1) * max(sizes) + ideal.S * max(lengths) * M * (M + 1) // 2
        x_bound = (M + 1) * max(lengths)
        mat = walk_genfun_matrix(g.A, g.weights, M, ideal.S, x_bound, q_bound)
        expect = [[dict() for _ in range(g.K)] for _ in range(g.K)]
        for i, j, xe, qe in enumerate_walks(g.A, lengths, sizes, M, ideal.S):
            expect[i][j][(xe, qe)] = expect[i][j].get((xe, qe), 0) + 1
        for i in range(g.K):
            for j in range(g.K):
                assert mat[i][j] == Series(expect[i][j], x_bound, q_bound)


def test_genfun_vec_is_first_column_of_walk_matrix(rr_ideal, kr_ideal):
    # both run W(x) A W(xq^S) ... A W(xq^MS), from e_1 and from every e_j
    q = 16
    for ideal in (rr_ideal, kr_ideal):
        g = associated_graph(ideal)
        vec = ideal_genfun_vec(ideal, q, q)
        mat = walk_genfun_matrix(g.A, g.weights, default_levels(ideal.S, q), ideal.S, q, q)
        for k in range(g.K):
            assert vec[k] == mat[k][0]


def test_rr_triple_agreement_moderate(rr_ideal):
    q_max = 16
    vec = ideal_genfun_vec(rr_ideal, q_max, q_max)
    total = vec[0] + vec[1] + vec[2]
    assert total.eq_upto(oracle_genfun(lambda p: satisfies_gap(p, 2, 1), q_max, q_max))
    genfun, _ = enumerate_members(rr_ideal, q_max)
    assert total.eq_upto(genfun)


def test_kr_triple_agreement_moderate(kr_ideal):
    q_max = 14
    vec = ideal_genfun_vec(kr_ideal, q_max, q_max)
    total = vec[0]
    for s in vec[1:]:
        total = total + s
    assert total.eq_upto(oracle_genfun(kr_i1_predicate, q_max, q_max))
    genfun, _ = enumerate_members(kr_ideal, q_max)
    assert total.eq_upto(genfun)


def test_genfun_stable_in_extra_levels(rr_ideal):
    q_max = 12
    g = associated_graph(rr_ideal)
    base = default_levels(rr_ideal.S, q_max)
    vecs = [
        [row[0] for row in walk_genfun_matrix(g.A, g.weights, base + extra, rr_ideal.S, q_max, q_max)]
        for extra in (0, 1, 2)
    ]
    for k in range(3):
        assert vecs[0][k] == vecs[1][k] == vecs[2][k]


def test_first_component_counts_shifted_members(rr_ideal):
    # members with empty first window are exactly the S-fold upward shifts
    q_max = 14
    vec = ideal_genfun_vec(rr_ideal, q_max, q_max)
    total = naive_add(*vec)
    assert naive_shift_x(total, rr_ideal.S) == vec[0]


def test_contains_examples(rr_ideal):
    chain = contains(rr_ideal, parse_partition("6+4+1"))
    assert chain == (parse_partition("1"), parse_partition("2"), parse_partition("2"))
    assert contains(rr_ideal, ()) == ()
    assert contains(rr_ideal, parse_partition("2+1")) is None
    # a chain passing through an empty middle window
    assert contains(rr_ideal, parse_partition("6+1")) == (
        parse_partition("1"),
        (),
        parse_partition("2"),
    )


def test_contains_rejects_part_lists_that_are_no_partitions(rr_ideal):
    with pytest.raises(ValueError, match=re.escape("parts must be weakly decreasing, got (1, 3)")):
        contains(rr_ideal, (1, 3))
    with pytest.raises(ValueError, match="^parts must be positive, got 0$"):
        contains(rr_ideal, (3, 0))


def test_contains_kr_examples(kr_ideal):
    assert contains(kr_ideal, parse_partition("2+1")) == (parse_partition("2+1"),)
    assert contains(kr_ideal, parse_partition("4+3")) is None
    assert contains(kr_ideal, parse_partition("6+4+1")) == (
        parse_partition("1"),
        parse_partition("3+1"),
    )


def test_kr_members_small(kr_ideal):
    genfun, members = enumerate_members(kr_ideal, 3)
    assert members == ["empty", "1", "2", "2+1", "3"]
    assert str(genfun) == "1 + x*q + x*q^2 + x*q^3 + x^2*q^3"


def test_members_are_the_oracle_partitions_in_order(rr_ideal, kr_ideal):
    # every partition of size <= 18 passing the class predicate, in the
    # (size, parts) order that partitions_of yields them
    for ideal, pred in ((rr_ideal, lambda p: satisfies_gap(p, 2, 1)), (kr_ideal, kr_i1_predicate)):
        expected = [p for n in range(19) for p in partitions_of(n) if pred(p)]
        for q_max in range(19):
            _, members = enumerate_members(ideal, q_max)
            assert members == [format_partition(p) for p in expected if sum(p) <= q_max], q_max


@st.composite
def small_ideals(draw) -> SpanOneIdeal:
    """A valid ideal with span S <= 4, up to five distinct seeds with parts
    <= S, and random linking sets (each holding the empty seed)."""
    S = draw(st.integers(1, 4))
    seed = st.lists(st.integers(1, S), min_size=1, max_size=3).map(
        lambda parts: tuple(sorted(parts, reverse=True)))
    pi = ((), *draw(st.lists(seed, max_size=4, unique=True)))
    K = len(pi)
    linking = [frozenset(range(1, K + 1))]
    for _ in range(1, K):
        linking.append(frozenset({1} | draw(st.sets(st.integers(1, K)))))
    return SpanOneIdeal(pi=pi, linking=tuple(linking), S=S)


def _ideal(S: int, seeds: str, linking: str) -> SpanOneIdeal:
    """An ideal from seed literals and 1-based linking rows, as in '1 2+1' and '12 1 123'."""
    pi = ((), *map(parse_partition, seeds.split()))
    return SpanOneIdeal(pi=pi, linking=tuple(frozenset(map(int, row)) for row in linking.split()), S=S)


# the edge cases of the order argument: a seed that is a proper prefix of
# another, seeds listed out of part-tuple order, chains that must pass an
# empty window (1 links only to the empty seed) and a seed that links to itself
@example(_ideal(2, "2 2+1", "123 123 123"), 14)
@example(_ideal(3, "3+1 2+2 1 3", "12345 1234 135 1 15"), 14)
@example(_ideal(1, "1", "12 1"), 14)
@example(_ideal(2, "2+1", "12 12"), 14)
@given(small_ideals(), st.integers(0, 14))
def test_level_walk_matches_recursive_expansion(ideal, q_max):
    genfun, members = enumerate_members(ideal, q_max)
    old_genfun, old_members = recursive_enumerate_members(ideal, q_max)
    assert genfun == old_genfun
    assert members == [format_partition(m) for m in old_members]  # each of them checked by the oracle
    for m in members:
        assert contains(ideal, parse_partition(m)) is not None


@given(small_ideals(), st.integers(0, 14))
def test_cli_renders_member_tuples_as_format_partition(ideal, q_max):
    _, members = recursive_enumerate_members(ideal, q_max)
    expected = [format_partition(m) for m in members]
    assert enumerate_members(ideal, q_max)[1] == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ideal.json")
        with open(path, "w") as fh:
            json.dump(ideal_to_json(ideal), fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["ideal", "members", path, "--qmax", str(q_max)]) == 0
    lines = out.getvalue().splitlines()
    # the members are listed once, in the JSON after the header, genfun and a blank line
    assert len(lines) == 4 and lines[1].startswith("genfun = ") and lines[2] == ""
    assert json.loads(lines[-1])["members"] == expected


def test_contains_agrees_with_enumeration(rr_ideal, kr_ideal):
    bound = 13
    for ideal in (rr_ideal, kr_ideal):
        _, members = enumerate_members(ideal, bound)
        member_set = set(members)
        for n in range(bound + 1):
            for p in partitions_of(n):
                chain = contains(ideal, p)
                assert (chain is not None) == (format_partition(p) in member_set), p


def test_member_chain_reconstructs_partition(rr_ideal, kr_ideal):
    for ideal in (rr_ideal, kr_ideal):
        _, members = enumerate_members(ideal, 12)
        for m in members:
            p = parse_partition(m)
            chain = contains(ideal, p)
            assert chain is not None
            rebuilt = ()
            for k, link in enumerate(chain):
                rebuilt = oplus(rebuilt, phi(link, k * ideal.S))
            assert rebuilt == p


def test_json_round_trip(rr_ideal):
    data = ideal_to_json(rr_ideal)
    assert ideal_from_json(data) == rr_ideal
    assert data["pi"] == ["empty", "1", "2"]
    assert data["linking"] == [[1, 2, 3], [1, 2, 3], [1, 3]]


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        ideal_from_json({"S": 2, "pi": ["empty"]})
    with pytest.raises(ValueError):
        ideal_from_json({"S": 2, "pi": ["empty", "1"], "linking": [[1, 2], "nope"]})
    with pytest.raises(ValueError, match=r"pi entry 2: bad partition literal '1_0'"):
        ideal_from_json({"S": 2, "pi": ["empty", "1_0", "2"], "linking": [[1, 2, 3], [1, 2, 3], [1, 3]]})
    with pytest.raises(ValueError, match=re.escape("pi entry 2: parts must be weakly decreasing, got (1, 2)")):
        ideal_from_json({"S": 2, "pi": ["empty", "1+2"], "linking": [[1, 2], [1, 2]]})


def test_fixture_files_parse():
    for name in ("rr.json", "kr_i1.json"):
        with open(spanone.fixture_path(name)) as fh:
            ideal_from_json(json.load(fh))  # an invalid ideal cannot be built
