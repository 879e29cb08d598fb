"""Span-one linked partition ideals and their transfer-matrix digraphs.

An ideal is a finite seed set Pi = (pi_1, ..., pi_K) of partitions with
pi_1 = empty, together with a linking function L assigning to each pi_j the
subset of Pi allowed to follow it, and a span S that is at least the largest
part occurring in Pi.  Members are built from chains
lambda_0 -> lambda_1 -> ... -> lambda_K (each step allowed by L, the last
entry nonempty, chains of length 0 give the empty partition) via

    lambda_0  (+)  phi^S(lambda_1)  (+)  phi^(2S)(lambda_2)  (+)  ...

so the k-th link occupies the window of parts in (kS, (k+1)S].  Because
S bounds the largest seed part, the decomposition of a member back into
links is unique: just slice by windows.

The same data is a vertex-weighted digraph: vertex j carries the monomial
x^(number of parts of pi_j) q^(size of pi_j), and j -> i is an edge when
pi_i in L(pi_j).  Generating functions for members are then truncations of
the infinite product  W(x) A W(xq^S) A W(xq^(2S)) ...  acting on the first
coordinate, where A is the adjacency matrix and W the diagonal of vertex
monomials.  A finite number of factors suffices at any truncation order,
since every extra factor only contributes parts larger than q_max.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import ceil
from pathlib import Path

from .partitions import EMPTY, Partition, format_partition, oplus, parse_partition, phi
from .series import Series, monomial, series_sum


class IdealError(ValueError):
    """Structural violation in an ideal or digraph definition."""


@dataclass(frozen=True)
class SpanOneIdeal:
    """Seed partitions, linking sets (1-based index sets), and span."""

    pi: tuple[Partition, ...]
    linking: tuple[frozenset[int], ...]
    S: int

    @property
    def K(self) -> int:
        return len(self.pi)

    def linked(self, j: int) -> frozenset[int]:
        """Indices allowed to follow pi_j (arguments and results are 1-based)."""
        return self.linking[j - 1]


def validate(ideal: SpanOneIdeal) -> None:
    """Check the structural requirements, reporting every violation found."""
    problems: list[str] = []
    K = ideal.K
    if K == 0 or ideal.pi[0] != EMPTY:
        problems.append("pi_1 must be the empty partition")
    if len(ideal.linking) != K:
        problems.append(f"need one linking set per seed, got {len(ideal.linking)} for {K}")
    index_of = {p: i + 1 for i, p in enumerate(ideal.pi)}
    if len(index_of) != K:
        problems.append("seed partitions must be distinct")
    for j, linked in enumerate(ideal.linking, start=1):
        for i in linked:
            if not 1 <= i <= K:
                problems.append(f"linking set of pi_{j} mentions index {i} outside 1..{K}")
        if 1 not in linked:
            problems.append(f"the empty partition is missing from the linking set of pi_{j}")
    if K and ideal.linking and ideal.linking[0] != frozenset(range(1, K + 1)):
        problems.append("the empty partition must link to every seed")
    max_part = max((p.parts[0] for p in ideal.pi if p.parts), default=0)
    if ideal.S < 1:
        problems.append(f"span must be >= 1, got {ideal.S}")
    elif ideal.S < max_part:
        problems.append(f"span {ideal.S} is smaller than the largest seed part {max_part}")
    if problems:
        raise IdealError("; ".join(problems))


@dataclass(frozen=True)
class ModifiedDigraph:
    """Vertex-weighted digraph with a distinguished weightless start vertex.

    Vertex k has a pair of weights (lengths[k-1], sizes[k-1]) giving the
    exponents of its monomial x^length q^size.  Vertex 1 must be weightless
    and every vertex must have an edge to vertex 1 (adjacency column 1 all
    ones), so that walks can always terminate.
    """

    adjacency: tuple[tuple[int, ...], ...]
    lengths: tuple[int, ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        K = len(self.adjacency)
        if len(self.lengths) != K or len(self.sizes) != K:
            raise IdealError("adjacency and weight vectors must have equal length")
        for row in self.adjacency:
            if len(row) != K:
                raise IdealError("adjacency matrix must be square")
            if any(e not in (0, 1) for e in row):
                raise IdealError("adjacency entries must be 0 or 1")
            if row[0] != 1:
                raise IdealError("every vertex needs an edge to vertex 1")
        if K and (self.lengths[0] != 0 or self.sizes[0] != 0):
            raise IdealError("vertex 1 must carry the weight x^0 q^0")
        for k in range(1, K):
            if self.lengths[k] < 1 or self.sizes[k] < 1:
                raise IdealError(f"vertex {k + 1} must carry positive weights")

    @property
    def K(self) -> int:
        return len(self.adjacency)


def associated_graph(ideal: SpanOneIdeal) -> ModifiedDigraph:
    """Digraph with an edge j -> i exactly when pi_i may follow pi_j."""
    K = ideal.K
    adjacency = tuple(
        tuple(1 if i in ideal.linking[j] else 0 for i in range(1, K + 1)) for j in range(K)
    )
    return ModifiedDigraph(
        adjacency=adjacency,
        lengths=tuple(len(p) for p in ideal.pi),
        sizes=tuple(p.size for p in ideal.pi),
    )


def weight_diag(g: ModifiedDigraph) -> tuple[tuple[int, int], ...]:
    """Exponent pairs (m, n) of the vertex monomials x^m q^n, vertex order."""
    return tuple(zip(g.lengths, g.sizes))


def _apply_weights(
    vec: list[Series], g: ModifiedDigraph, shift: int, x_max: int, q_max: int
) -> list[Series]:
    # multiply entry k by its vertex monomial evaluated at x -> x q^shift
    out = []
    for k, s in enumerate(vec):
        m, n = g.lengths[k], g.sizes[k]
        out.append(s * monomial(1, m, n + m * shift, x_max, q_max))
    return out


def _apply_adjacency(vec: list[Series], g: ModifiedDigraph, x_max: int, q_max: int) -> list[Series]:
    return [
        series_sum((vec[j] for j in range(g.K) if row[j]), x_max, q_max)
        for row in g.adjacency
    ]


def walk_genfun_matrix(
    g: ModifiedDigraph, M: int, S: int, x_max: int, q_max: int
) -> list[list[Series]]:
    """Entry (i, j): sum over M-step walks i -> j of the product of vertex
    monomials, the vertex at position m taken at x -> x q^(mS).

    Column convention: result[i][j] sums walks starting at vertex i+1 and
    ending at vertex j+1.  With every monomial set to 1 this collapses to
    the M-th power of the adjacency matrix.
    """
    if M < 0:
        raise ValueError(f"step count must be >= 0, got {M}")
    if S < 0:
        raise ValueError(f"shift must be >= 0, got {S}")
    K = g.K
    # rows of the product, maintained as vectors of series
    rows: list[list[Series]] = [
        [
            monomial(1, g.lengths[i], g.sizes[i], x_max, q_max) if j == i else Series.zero(x_max, q_max)
            for j in range(K)
        ]
        for i in range(K)
    ]
    for m in range(1, M + 1):
        for i in range(K):
            row = rows[i]
            # row <- row . A, then scale column j by W_j(x q^(mS))
            stepped = [
                series_sum((row[t] for t in range(K) if g.adjacency[t][j]), x_max, q_max)
                for j in range(K)
            ]
            rows[i] = [
                stepped[j] * monomial(1, g.lengths[j], g.sizes[j] + g.lengths[j] * m * S, x_max, q_max)
                for j in range(K)
            ]
    return rows


def default_levels(S: int, q_max: int) -> int:
    """Number of product factors guaranteed to saturate truncation order q_max."""
    return ceil(q_max / S) + 1


def ideal_genfun_vec(
    ideal: SpanOneIdeal, x_max: int, q_max: int, levels: int | None = None
) -> list[Series]:
    """Vector G with G_k = generating function of members whose first link is
    pi_k, graded by x^(number of parts) q^(size).  The full member count is
    the sum over k; G_1 alone counts members with no part <= S plus the
    empty partition.
    """
    validate(ideal)
    g = associated_graph(ideal)
    M = default_levels(ideal.S, q_max) if levels is None else levels
    K = g.K
    # right-to-left through W(x) A W(xq^S) A W(xq^2S) ... A W(xq^MS) e_1
    vec = [Series.one(x_max, q_max) if k == 0 else Series.zero(x_max, q_max) for k in range(K)]
    for m in range(M, 0, -1):
        vec = _apply_weights(vec, g, m * ideal.S, x_max, q_max)
        vec = _apply_adjacency(vec, g, x_max, q_max)
    return _apply_weights(vec, g, 0, x_max, q_max)


def contains(ideal: SpanOneIdeal, lam: Partition) -> tuple[Partition, ...] | None:
    """Decompose lam into its chain of links, or None when lam is no member.

    The empty partition is a member with the empty chain ().
    """
    validate(ideal)
    if lam == EMPTY:
        return ()
    S = ideal.S
    depth = (lam.parts[0] - 1) // S  # window index of the largest part
    links: list[Partition] = []
    for k in range(depth + 1):
        window = tuple(a - k * S for a in lam.parts if k * S < a <= (k + 1) * S)
        links.append(Partition(tuple(sorted(window, reverse=True))))
    index_of = {p: i + 1 for i, p in enumerate(ideal.pi)}
    prev = 1  # chains start from the empty partition, which links to all of Pi
    for link in links:
        j = index_of.get(link)
        if j is None or j not in ideal.linking[prev - 1]:
            return None
        prev = j
    return tuple(links)


def enumerate_members(ideal: SpanOneIdeal, q_max: int) -> tuple[Series, list[Partition]]:
    """All members of size <= q_max by direct chain expansion.

    Returns the generating function (graded like ideal_genfun_vec's sum)
    together with the member list sorted by size, then part list.  This is
    structurally independent of the matrix-product route: it assembles
    actual partitions with phi and oplus and weighs them afterwards.
    """
    validate(ideal)
    members: list[Partition] = [EMPTY]

    def extend(j: int, level: int, built: Partition) -> None:
        if built.size + level * ideal.S + 1 > q_max:
            return  # even the smallest nonempty link no longer fits
        for i in sorted(ideal.linking[j - 1]):
            link = ideal.pi[i - 1]
            if link == EMPTY:
                # a chain may pass through an empty window and resume higher up
                extend(i, level + 1, built)
                continue
            size = link.size + level * ideal.S * len(link)
            if built.size + size > q_max:
                continue
            grown = oplus(built, phi(link, level * ideal.S))
            members.append(grown)
            extend(i, level + 1, grown)

    extend(1, 0, EMPTY)
    members.sort(key=lambda p: (p.size, p.parts))
    coeffs: dict[tuple[int, int], int] = {}
    for p in members:
        key = (len(p), p.size)
        coeffs[key] = coeffs.get(key, 0) + 1
    return Series(coeffs, q_max, q_max), members


# -- JSON interface ------------------------------------------------------


def ideal_from_json(data: dict) -> SpanOneIdeal:
    try:
        S = int(data["S"])
        pi = tuple(parse_partition(t) for t in data["pi"])
        linking = tuple(frozenset(int(i) for i in row) for row in data["linking"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IdealError(f"malformed ideal description: {exc}") from exc
    ideal = SpanOneIdeal(pi=pi, linking=linking, S=S)
    validate(ideal)
    return ideal


def ideal_to_json(ideal: SpanOneIdeal) -> dict:
    return {
        "S": ideal.S,
        "pi": [format_partition(p) for p in ideal.pi],
        "linking": [sorted(linked) for linked in ideal.linking],
    }


def load_ideal(path: str | Path) -> SpanOneIdeal:
    with open(path) as fh:
        return ideal_from_json(json.load(fh))
