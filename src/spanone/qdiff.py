"""The q-difference system attached to a vertex-weighted digraph.

With A the adjacency matrix, W(x) the diagonal of vertex monomials and S
the shift, the vector F(x) = A G(x) of walk generating functions satisfies

    F(x) = A W(x) F(x q^S),        F_k(0) = 1.

Comparing coefficients of x^n turns this into a recurrence on the series
f_k(n) in Z[[q]]: writing the vertex monomials as x^(m_j) q^(s_j) (with
m_1 = s_1 = 0 and m_j >= 1 otherwise),

    f_k(n) = q^(nS) f_1(n) + sum_{j >= 2} A[k][j] q^(s_j + (n - m_j) S) f_j(n - m_j).

The j >= 2 terms only involve strictly smaller x-degrees, so within each n
only f_1(n) is implicit; its own equation has the shape
(1 - q^(nS)) f_1(n) = known, and 1/(1 - q^(nS)) is a unit in Z[[q]].  That
makes the solution with integer coefficients unique.  When every weight has
s_j >= m_j the coefficient of x^n sits at q-order >= n, since each x picked
up along a walk comes with at least one q; that holds for the system of
every ideal (a link pi has |pi| >= len(pi)), but a weight such as x^2 q
breaks it, so solve works through every x-degree up to x_max.

QDiffSystem is the package's one system type: ideals.associated_graph
builds it from an ideal, and a proved factorization F(x) = U V F(xq^S) is
the same data with A = U and weights = V.  Two helpers take plain
(A, weights), so they also serve matrices that QDiffSystem rejects.
_weigh_sum builds the walk products of ideals and f_from_g; _rows_hold is
the one check of F = A W(x) F(xq^S), on the series' own x-rows, for
check_system and the prover's verify_numeric.  Both weigh by a monomial
as an exponent shift, not a series product, and treat each distinct row of
A once: a factorization's rows repeat (ex3 has 23 rows but 4 distinct ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Sequence

from . import jsonin
from .series import Series, _check_orders, _trim, series_sum


@dataclass(frozen=True)
class QDiffSystem:
    """Adjacency matrix, vertex monomial exponents (m, s) per vertex, shift."""

    A: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[int, int], ...]
    S: int

    def __post_init__(self):
        K = len(self.A)
        if K == 0:
            raise ValueError("A is empty: the system needs at least one vertex")
        if len(self.weights) != K:
            raise ValueError("need one weight pair per vertex")
        for row in self.A:
            if len(row) != K:
                raise ValueError("adjacency matrix must be square")
            if any(e not in (0, 1) for e in row):
                raise ValueError("adjacency entries must be 0 or 1")
            if row[0] != 1:
                raise ValueError("first adjacency column must be all ones")
        if any(e != 1 for e in self.A[0]):
            raise ValueError("first adjacency row must be all ones")
        if self.weights[0] != (0, 0):
            raise ValueError("vertex 1 must be weightless")
        for k in range(1, K):
            if self.weights[k][0] < 1:
                raise ValueError(f"vertex {k + 1} needs x-degree >= 1 in its weight")
            if self.weights[k][1] < 1:
                raise ValueError(f"vertex {k + 1} needs q-degree >= 1 in its weight")
        if self.S < 1:
            raise ValueError(f"shift must be >= 1, got {self.S}")

    @property
    def K(self) -> int:
        return len(self.A)


def _weigh_sum(
    A: Sequence[Sequence[int]],
    weights: Sequence[tuple[int, int]],
    vec: Sequence[Series],
    shift: int = 0,
) -> list[Series]:
    """A W(x q^shift) vec: entry j times x^(m_j) q^(s_j + m_j shift), then
    summed along each row of A (entries read by truthiness, an empty row
    gives zero).  The result lives on the smallest rectangle of vec, and
    equal rows share one (immutable) Series.
    """
    x_max = min(s.x_max for s in vec)
    q_max = min(s.q_max for s in vec)
    weighed = [s.times_xq(m, n + m * shift) for s, (m, n) in zip(vec, weights)]
    sums = {
        row: series_sum((weighed[j] for j, e in enumerate(row) if e), x_max, q_max)
        for row in dict.fromkeys(map(tuple, A))
    }
    return [sums[row] for row in map(tuple, A)]


def solve(sys: QDiffSystem, x_max: int, q_max: int) -> list[Series]:
    """The unique solution of F(x) = A W(x) F(xq^S) with F_k(0) = 1.

    Works x-degree by x-degree on dense q-rows: for each n the known j >= 2
    terms are scattered into one row per component, row 1 is divided in
    place by the unit 1 - q^(nS), and q^(nS) f_1(n) is added to the others.
    Every x-degree up to x_max is solved: a weight with m_j > s_j puts x^n
    below q-order n.
    """
    _check_orders(x_max, q_max)
    K, S = sys.K, sys.S
    # f[k][n][d]: coefficient of x^n q^d in F_{k+1}
    f = [[[1] + [0] * q_max] for _ in range(K)]
    for n in range(1, x_max + 1):
        rows = [[0] * (q_max + 1) for _ in range(K)]
        for j in range(1, K):
            m, s = sys.weights[j]
            e = s + (n - m) * S
            if n < m or e > q_max:
                continue
            src = f[j][n - m]
            for k in range(K):
                if sys.A[k][j]:
                    row = rows[k]
                    for d in range(q_max + 1 - e):
                        row[e + d] += src[d]
        step = n * S
        f1 = rows[0]
        for i in range(step, q_max + 1):
            f1[i] += f1[i - step]
        for row in rows[1:]:
            for i in range(step, q_max + 1):
                row[i] += f1[i - step]
        for fk, row in zip(f, rows):
            fk.append(row)
    # f[k] holds x_max + 1 fresh rows of q_max + 1 ints that nothing else keeps
    return [Series._of_rows(fk, x_max, q_max) for fk in f]


def f_from_g(sys: QDiffSystem, G: list[Series]) -> list[Series]:
    """F = A G: sum the walk generating functions along adjacency rows."""
    if len(G) != sys.K:
        raise ValueError(f"expected {sys.K} component series, got {len(G)}")
    return _weigh_sum(sys.A, ((0, 0),) * sys.K, G)


def _rows_hold(A: Sequence[Sequence[int]], weights: Sequence[tuple[int, int]], S: int,
               F: Sequence[Series]) -> list[bool]:
    """Per row k of A: does F_k = sum_j A_kj x^(m_j) q^(n_j) F_j(x q^S) hold on
    the common rectangle of F?  Each distinct series' x-rows are read as they
    are, cut to that rectangle only when the rectangles differ; x^m q^n sends
    F_j(x q^S)'s x^a q^d to x^(a + m) q^(n + a S + d), so a right side is a sum
    of row slices, built once per distinct row of A and compared once per
    distinct (row of A, F_k) pair."""
    # Laurent weights are refused, also where all their terms would fall off
    if S < 0:
        raise ValueError(f"shift amount must be >= 0, got {S}")
    for m, n in weights:
        if m < 0 or n < 0:
            raise ValueError(f"monomial degrees must be >= 0, got x^{m} q^{n}")
    distinct = {id(s): s for s in F}
    x_max = min((s.x_max for s in distinct.values()), default=0)
    q_max = min((s.q_max for s in distinct.values()), default=0)
    dense = {i: s._rows for i, s in distinct.items()}
    if any((s.x_max, s.q_max) != (x_max, q_max) for s in distinct.values()):
        dense = {i: _trim([row[:q_max + 1] for row in rows[:x_max + 1]]) for i, rows in dense.items()}
    cols = [dense[id(s)] for s in F]
    # each row of A is hashed once: a row is named by the index of its first
    # copy, and a (row, F_k) pair by the first index k where it occurs
    row_first: dict[tuple[int, ...], int] = {}
    pair_first: dict[tuple[int, int], int] = {}
    firsts = [pair_first.setdefault((row_first.setdefault(tuple(row), k), id(s)), k)
              for k, (row, s) in enumerate(zip(A, F))]
    rhs = {}
    for row, r in row_first.items():
        js = [j for j, e in enumerate(row) if e]
        # x^m F_j(x q^S) has no x-row past len(cols[j]) - 1 + m
        height = min(x_max + 1, max((len(cols[j]) + weights[j][0] for j in js), default=0))
        out = rhs[r] = [[0] * (q_max + 1) for _ in range(height)]
        for j in js:
            m, n = weights[j]
            for a, src in enumerate(cols[j]):
                d = n + a * S
                if a + m > x_max or d > q_max:
                    break
                dst = out[a + m]
                dst[d:] = map(add, dst[d:], src)
        _trim(out)
    ok = {k: rhs[r] == dense[i] for (r, i), k in pair_first.items()}
    return [ok[k] for k in firsts]


def check_system(sys: QDiffSystem, F: list[Series]) -> bool:
    """Does F satisfy F(x) = A W(x) F(xq^S) on the shared truncation region?"""
    if len(F) != sys.K:
        raise ValueError(f"expected {sys.K} component series, got {len(F)}")
    return all(_rows_hold(sys.A, sys.weights, sys.S, F))


# -- JSON interface ------------------------------------------------------


def system_from_json(data: dict) -> QDiffSystem:
    where = "malformed q-difference system description: "
    A = jsonin.rows(jsonin.field(data, "A", where), where + "A")
    weights = jsonin.rows(jsonin.field(data, "weights", where), where + "weights", 2)
    return QDiffSystem(A, weights, jsonin.integer(jsonin.field(data, "S", where), where + "S"))


def system_to_json(sys: QDiffSystem) -> dict:
    return {
        "A": [list(row) for row in sys.A],
        "weights": [list(w) for w in sys.weights],
        "S": sys.S,
    }
