"""Span-one linked partition ideals and their transfer-matrix digraphs.

An ideal is a finite seed set Pi = (pi_1, ..., pi_K) of partitions with
pi_1 = empty, together with a linking function L assigning to each pi_j the
subset of Pi allowed to follow it, and a span S that is at least the largest
part occurring in Pi.  Members are built from chains
lambda_0 -> lambda_1 -> ... -> lambda_K (each step allowed by L, the last
entry nonempty, chains of length 0 give the empty partition) via

    lambda_0  (+)  phi^S(lambda_1)  (+)  phi^(2S)(lambda_2)  (+)  ...

so the k-th link occupies the window of parts in (kS, (k+1)S].  Because
S bounds the largest seed part, the windows are disjoint: each (+) is a
plain concatenation of part lists, and the decomposition of a member back
into links is unique: just slice by windows (contains).  enumerate_members
builds members that way, level by level with its chains grouped by last
seed and size, and returns them sorted by size, then part tuple.  Seeds,
members and links are all plain part tuples (partitions.Parts).

The same data is a vertex-weighted digraph: vertex j carries the monomial
x^(number of parts of pi_j) q^(size of pi_j), and j -> i is an edge when
pi_i in L(pi_j).  Generating functions for members are then truncations of
the infinite product  W(x) A W(xq^S) A W(xq^(2S)) ...  acting on the first
coordinate, where A is the adjacency matrix and W the diagonal of vertex
monomials.  A finite number of factors suffices at any truncation order,
since every extra factor only contributes parts larger than q_max.

associated_graph returns this data as a qdiff.QDiffSystem, the package's
one system type.  The walk products run each A W(x q^(mS)) step as the
series weighing kernel with vertex j weighed by x^a q^(b + a m S), and
their closing W(x) is the same kernel along the rows of the identity.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from math import ceil

from . import jsonin
from .partitions import Parts, _check_parts, format_partition, parse_partition
from .qdiff import QDiffSystem
from .series import Series, _check_orders, _weigh


class IdealError(ValueError):
    """Structural violation in an ideal or digraph definition."""


class SpanOneIdeal(namedtuple("SpanOneIdeal", "pi linking S")):
    """Seed partitions, linking sets (1-based index sets), and span; an
    invalid ideal cannot be built."""

    __slots__ = ()

    def __new__(cls, pi: tuple[Parts, ...], linking: tuple[frozenset[int], ...], S: int):
        """Check the structural requirements, reporting every violation found."""
        self = super().__new__(cls, pi, linking, S)
        problems: list[str] = []
        K = self.K
        if K == 0 or self.pi[0] != ():
            problems.append("pi_1 must be the empty partition")
        seeds = []  # (j, pi_j) for the seeds that are tuples of ints, which hash and compare
        for j, p in enumerate(self.pi, start=1):
            if type(p) is not tuple or any(type(a) is not int for a in p):
                problems.append(f"pi_{j}: a seed must be a tuple of ints, got {p!r}")
                continue
            seeds.append((j, p))
            try:
                _check_parts(p)
            except ValueError as exc:
                problems.append(f"pi_{j}: {exc}")
        if len(self.linking) != K:
            problems.append(f"need one linking set per seed, got {len(self.linking)} for {K}")
        first: dict[Parts, int] = {}
        repeats = [f"pi_{j} repeats pi_{first[p]}" for j, p in seeds if first.setdefault(p, j) != j]
        if repeats:
            problems.append(f"seed partitions must be distinct, got {', '.join(repeats)}")
        for j, linked in enumerate(self.linking, start=1):
            if type(linked) is not frozenset or any(type(i) is not int for i in linked):
                problems.append(f"linking_{j}: a linking set must be a frozenset of ints, got {linked!r}")
                continue
            for i in linked:
                if not 1 <= i <= K:
                    problems.append(f"linking set of pi_{j} mentions index {i} outside 1..{K}")
            if 1 not in linked:
                problems.append(f"the empty partition is missing from the linking set of pi_{j}")
            if j == 1 and K and linked != frozenset(range(1, K + 1)):
                problems.append("the empty partition must link to every seed")
        max_part = max((p[0] for _, p in seeds if p), default=0)
        if self.S < 1:
            problems.append(f"span must be >= 1, got {self.S}")
        elif self.S < max_part:
            problems.append(f"span {self.S} is smaller than the largest seed part {max_part}")
        if problems:
            raise IdealError("; ".join(problems))
        return self

    @property
    def K(self) -> int:
        return len(self.pi)


def associated_graph(ideal: SpanOneIdeal) -> QDiffSystem:
    """The ideal's q-difference system: an edge j -> i exactly when pi_i may
    follow pi_j, vertex j weighted by x^len(pi_j) q^|pi_j|, shift S."""
    K = ideal.K
    A = tuple(tuple(1 if i in ideal.linking[j] else 0 for i in range(1, K + 1)) for j in range(K))
    return QDiffSystem(A=A, weights=tuple((len(p), sum(p)) for p in ideal.pi), S=ideal.S)


def _walk_product(
    A, weights, start: int, M: int, S: int, x_max: int, q_max: int
) -> list[Series]:
    # right-to-left through W(x) A W(xq^S) A W(xq^2S) ... A W(xq^MS) e_start
    K = len(A)
    vec = [Series.one(x_max, q_max) if k == start else Series.zero(x_max, q_max) for k in range(K)]
    for m in range(M, 0, -1):
        # W(xq^(mS)) weighs vertex j by x^a q^(b + a m S); vec itself is not shifted
        vec = _weigh(A, [(a, b + a * m * S) for a, b in weights], 0, vec)
    return _weigh([[i == k for i in range(K)] for k in range(K)], weights, 0, vec)


def default_levels(S: int, q_max: int) -> int:
    """Number of product factors guaranteed to saturate truncation order q_max."""
    return ceil(q_max / S) + 1


def ideal_genfun_vec(ideal: SpanOneIdeal, x_max: int, q_max: int) -> list[Series]:
    """Vector G with G_k = generating function of members whose first link is
    pi_k, graded by x^(number of parts) q^(size).  The full member count is
    the sum over k; G_1 alone counts members with no part <= S plus the
    empty partition.
    """
    system = associated_graph(ideal)
    M = default_levels(ideal.S, q_max)
    return _walk_product(system.A, system.weights, 0, M, ideal.S, x_max, q_max)


def contains(ideal: SpanOneIdeal, lam: Parts) -> tuple[Parts, ...] | None:
    """Decompose lam into its chain of links, or None when lam is no member.

    The empty partition is a member with the empty chain ().  A lam that is
    not weakly decreasing and positive raises ValueError.
    """
    _check_parts(lam)
    if not lam:
        return ()
    S = ideal.S
    depth = (lam[0] - 1) // S  # window index of the largest part
    # a window cut from a weakly decreasing lam is weakly decreasing itself
    links = [tuple(a - k * S for a in lam if k * S < a <= (k + 1) * S) for k in range(depth + 1)]
    index_of = {p: i + 1 for i, p in enumerate(ideal.pi)}
    prev = 1  # chains start from the empty partition, which links to all of Pi
    for link in links:
        j = index_of.get(link)
        if j is None or j not in ideal.linking[prev - 1]:
            return None
        prev = j
    return tuple(links)


def enumerate_members(ideal: SpanOneIdeal, q_max: int) -> tuple[Series, list[Parts]]:
    """All members of size <= q_max by direct chain expansion.

    Returns the generating function (graded like ideal_genfun_vec's sum)
    together with the members as part tuples, sorted by size, then part
    tuple.  This is structurally independent of the matrix-product
    route: it assembles actual part lists chain by chain and weighs them
    afterwards.

    A link pi_i at level L contributes phi^(LS)(pi_i), whose parts lie in
    (LS, (L+1)S] because S is at least the largest seed part, while every
    part built so far is at most LS.  The windows are disjoint, so oplus is
    a plain concatenation: the shifted link goes in front of the parts
    already built and the result is weakly decreasing with no sort.

    The chains are grown one level at a time.  The frontier groups the
    part tuples of every chain that reached the current level by (last
    seed, size).  Per level each seed is shifted once; a group that no
    nonempty link fits on any more is dropped whole, and each other group
    grows by one list comprehension per seed it links to, whose result
    goes into its size bucket and its group of the next level.  A chain
    that takes the empty link passes unchanged into the next level's group
    of pi_1.  Each size bucket is sorted at the end.
    """
    _check_orders(q_max, q_max)
    S = ideal.S
    linking = ideal.linking
    buckets: list[list[Parts]] = [[] for _ in range(q_max + 1)]
    buckets[0].append(())
    frontier: dict[tuple[int, int], list[Parts]] = {(1, 0): [()]}
    shift = 0
    while frontier and shift < q_max:
        shifted = [tuple([a + shift for a in p]) for p in ideal.pi]
        sizes = [sum(p) + shift * len(p) for p in ideal.pi]
        grown_frontier: dict[tuple[int, int], list[Parts]] = {}
        for (j, size), chains in frontier.items():
            if size + shift >= q_max:
                continue  # even the smallest nonempty link, shift + 1, no longer fits
            for i in linking[j - 1]:
                link = shifted[i - 1]
                if link:
                    grown_size = size + sizes[i - 1]
                    if grown_size > q_max:
                        continue
                    grown = [link + parts for parts in chains]
                    buckets[grown_size] += grown
                else:
                    # a chain may pass through an empty window and resume higher up
                    grown_size, grown = size, chains
                grown_frontier.setdefault((i, grown_size), []).extend(grown)
        frontier = grown_frontier
        shift += S
    coeffs: dict[tuple[int, int], int] = {}
    members: list[Parts] = []
    for size, bucket in enumerate(buckets):
        bucket.sort()
        for n, count in Counter(map(len, bucket)).items():
            coeffs[(n, size)] = count
        members += bucket
    return Series(coeffs, q_max, q_max), members


# -- JSON interface ------------------------------------------------------


def _seed(i: int, text: str) -> Parts:
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise ValueError(f"pi entry {i}: {exc}") from None


def ideal_from_json(data: dict) -> SpanOneIdeal:
    try:
        S = jsonin.integer(jsonin.field(data, "S"), "S")
        pi = jsonin.field(data, "pi")
        if type(pi) is not list or any(type(t) is not str for t in pi):
            raise ValueError(f"pi must be a list of partition strings, got {json.dumps(pi)}")
        pi = tuple(_seed(i, t) for i, t in enumerate(pi, 1))
        linking = jsonin.rows(jsonin.field(data, "linking"), "linking")
        for j, row in enumerate(linking, 1):
            # a frozenset would merge the repeat, and ideal_to_json would write another row
            if len(set(row)) != len(row):
                raise ValueError(f"linking row {j} repeats an index, got {json.dumps(list(row))}")
        linking = tuple(map(frozenset, linking))
    except ValueError as exc:
        raise IdealError(f"malformed ideal description: {exc}") from None
    return SpanOneIdeal(pi=pi, linking=linking, S=S)


def ideal_to_json(ideal: SpanOneIdeal) -> dict:
    return {
        "S": ideal.S,
        "pi": [format_partition(p) for p in ideal.pi],
        "linking": [sorted(linked) for linked in ideal.linking],
    }


def load_ideal(path: str) -> SpanOneIdeal:
    return ideal_from_json(jsonin.load(path))
