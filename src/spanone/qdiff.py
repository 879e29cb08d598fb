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
makes the solution with integer coefficients unique, and it gives equal rows
of A equal components: row k's equation reads only row k, lower x-degrees
and f_1(n), so solve works once per distinct row.  When every weight has
s_j >= m_j the coefficient of x^n sits at q-order >= n, since each x picked
up along a walk comes with at least one q; that holds for the system of
every ideal (a link pi has |pi| >= len(pi)), but a weight such as x^2 q
breaks it, so solve works through every x-degree up to x_max.

QDiffSystem is the package's one system type: ideals.associated_graph
builds it from an ideal, and a proved factorization F(x) = U V F(xq^S) is
the same data with A = U and weights = V.  Every right side
A W(x) F(xq^S) comes from the one weighing kernel in series, which takes
plain (A, weights), so it also serves matrices that QDiffSystem rejects:
the ideal walk products run it as their A W(x q^(mS)) steps, f_from_g
sums G along the rows of A with it, and check_system compares F with it,
as the prover's verify_numeric does.  Of this module only solve knows the
x-row layout of a series: it hands its rows to Series._of_rows.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add

from . import jsonin
from .series import Series, _check_orders, _rows_hold, _weigh


class QDiffSystem(namedtuple("QDiffSystem", "A weights S")):
    """Adjacency matrix, vertex monomial exponents (m, s) per vertex, shift."""

    __slots__ = ()

    def __new__(cls, A: tuple[tuple[int, ...], ...], weights: tuple[tuple[int, int], ...], S: int):
        self = super().__new__(cls, A, weights, S)
        K = len(self.A)
        if K == 0:
            raise ValueError("A is empty: the system needs at least one vertex")
        if len(self.weights) != K:
            raise ValueError(f"need one weight pair per vertex, got {len(self.weights)} weights for {K} vertices")
        for k, row in enumerate(self.A):
            if len(row) != K:
                raise ValueError(f"adjacency matrix must be square, got {len(row)} entries in A row {k + 1} "
                                 f"for {K} vertices")
            for j, e in enumerate(row):
                if e not in (0, 1):
                    raise ValueError(f"adjacency entries must be 0 or 1, got {e} in A row {k + 1}, column {j + 1}")
            if row[0] != 1:
                raise ValueError(f"first adjacency column must be all ones, got {row[0]} in A row {k + 1}")
        for j, e in enumerate(self.A[0]):
            if e != 1:
                raise ValueError(f"first adjacency row must be all ones, got {e} in A row 1, column {j + 1}")
        if self.weights[0] != (0, 0):
            raise ValueError("vertex 1 must be weightless")
        for k in range(1, K):
            if self.weights[k][0] < 1:
                raise ValueError(f"vertex {k + 1} needs x-degree >= 1 in its weight")
            if self.weights[k][1] < 1:
                raise ValueError(f"vertex {k + 1} needs q-degree >= 1 in its weight")
        if self.S < 1:
            raise ValueError(f"shift must be >= 1, got {self.S}")
        return self

    @property
    def K(self) -> int:
        return len(self.A)


def solve(sys: QDiffSystem, x_max: int, q_max: int) -> list[Series]:
    """The unique solution of F(x) = A W(x) F(xq^S) with F_k(0) = 1.

    Equal rows of A give equal components: at x-degree n the j >= 2 terms
    of row k read only row k and lower degrees, and every row k >= 2 adds
    q^(nS) f_1(n), which row 1's equation fixes; so a row equal to row 1
    yields f_1, and two equal rows yield equal f.  Works x-degree by
    x-degree on one dense q-row per distinct row of A, row 1's first: the
    known j >= 2 terms are scattered into them, row 1's is divided in place
    by the unit 1 - q^(nS), q^(nS) f_1(n) is added to the others, and each
    vertex gets the series of its row (ex3's 23 are 4 distinct series).
    """
    _check_orders(x_max, q_max)
    rows_A = list(dict.fromkeys(map(tuple, sys.A)))
    of = [rows_A.index(tuple(row)) for row in sys.A]
    # f[c][n][d]: coefficient of x^n q^d in the components of class c
    f = [[[1] + [0] * q_max] for _ in rows_A]
    for n in range(1, x_max + 1):
        rows = [[0] * (q_max + 1) for _ in rows_A]
        for j in range(1, sys.K):
            m, s = sys.weights[j]
            e = s + (n - m) * sys.S
            if n < m or e > q_max:
                continue
            src = f[of[j]][n - m]
            for row, a in zip(rows, rows_A):
                if a[j]:
                    row[e:] = map(add, row[e:], src)
        step = n * sys.S
        f1 = rows[0]
        for i in range(step, q_max + 1):
            f1[i] += f1[i - step]
        for row in rows[1:]:
            row[step:] = map(add, row[step:], f1)
        for fc, row in zip(f, rows):
            fc.append(row)
    # f[c] holds x_max + 1 fresh rows of q_max + 1 ints that nothing else keeps
    F = [Series._of_rows(fc, x_max, q_max) for fc in f]
    return [F[c] for c in of]


def f_from_g(sys: QDiffSystem, G: list[Series]) -> list[Series]:
    """F = A G: sum the walk generating functions along adjacency rows."""
    if len(G) != sys.K:
        raise ValueError(f"expected {sys.K} component series, got {len(G)}")
    return _weigh(sys.A, ((0, 0),) * sys.K, 0, G)


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
