"""Truncated bivariate formal power series over the integers.

Everything downstream (walk generating functions, q-difference solutions,
multi-sum evaluations, certificate verification) reduces to exact arithmetic
on elements of  Z[[x, q]]  truncated to a rectangle  0 <= m <= x_max,
0 <= n <= q_max  (inclusive).  Coefficients are ordinary Python ints, so all
arithmetic is exact; there is no floating point anywhere.

A series is stored as x-rows: _rows[m][n] is the coefficient of x^m q^n,
every row is a dense list of exactly q_max + 1 ints, and trailing all-zero
rows are dropped, so a missing row means zero and equal series have equal
rows.  The hot producers (the multi-sum walk, the q-difference solver)
build such rows themselves and hand them over through Series._of_rows; the
rows of a series are never mutated afterwards, so series may share them.
No other module reads them: every right side A W(x) F(x q^S) the package
builds comes from _weigh, and every check of F against one from _rows_hold.

_weigh is the one kernel of the arithmetic.  It reads A's entries as
integer coefficients, so each operator is a one-row system handed to it:
a + b is the row (1, 1), a - b the row (1, -1), -a the row (-1),
a.shift_x(s) the row (1) with shift s, series_sum one all-ones row, and
a * b one row holding b's coefficients, with b's monomials as the weights.

A series only ever *knows* coefficients inside its truncation rectangle.
Asking for a coefficient outside the rectangle is a programming error and
raises IndexError rather than returning 0, because a truncated series
carries no information out there.  Operations on series with different
rectangles are fine: _common, the one rule that picks a rectangle, puts
the result on the intersection (componentwise minimum of the orders),
which is exactly the region where every operand is meaningful.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from operator import add


def _check_orders(x_max: int, q_max: int) -> None:
    if x_max < 0 or q_max < 0:
        raise ValueError(f"truncation orders must be >= 0, got x_max={x_max} q_max={q_max}")


def _trim(rows: list[list[int]]) -> list[list[int]]:
    """Drop trailing all-zero rows in place; returns rows."""
    while rows and not any(rows[-1]):
        rows.pop()
    return rows


class Series:
    """An element of Z[[x, q]] known up to x^x_max and q^q_max.

    Instances are immutable; every operation returns a fresh series.
    """

    __slots__ = ("_rows", "x_max", "q_max")

    def __new__(cls, coeffs: Mapping[tuple[int, int], int], x_max: int, q_max: int) -> "Series":
        _check_orders(x_max, q_max)
        rows: list[list[int]] = []
        for (m, n), c in coeffs.items():
            if m < 0 or n < 0:
                raise ValueError(f"negative exponent in series term x^{m} q^{n}")
            if c and m <= x_max and n <= q_max:
                while len(rows) <= m:
                    rows.append([0] * (q_max + 1))
                rows[m][n] = c
        # rows of q_max + 1 ints, one per m up to the largest kept, all fresh
        return cls._of_rows(rows, x_max, q_max)

    @classmethod
    def _of_rows(cls, rows: list[list[int]], x_max: int, q_max: int) -> "Series":
        """A series taking over rows, with only trailing zero rows dropped.

        Only for at most x_max + 1 rows of exactly q_max + 1 ints each, which
        no one mutates afterwards; each caller says why its rows are such.
        """
        s = object.__new__(cls)
        # the slots' own setters, which the immutability guard does not see
        Series._rows.__set__(s, _trim(rows))
        Series.x_max.__set__(s, x_max)
        Series.q_max.__set__(s, q_max)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @classmethod
    def zero(cls, x_max: int, q_max: int) -> "Series":
        return cls({}, x_max, q_max)

    @classmethod
    def one(cls, x_max: int, q_max: int) -> "Series":
        return cls({(0, 0): 1}, x_max, q_max)

    # -- queries ---------------------------------------------------------

    def coeff(self, m: int, n: int) -> int:
        """Exact coefficient of x^m q^n; error if (m, n) is outside the rectangle."""
        if not (0 <= m <= self.x_max and 0 <= n <= self.q_max):
            raise IndexError(
                f"coefficient x^{m} q^{n} outside truncation region "
                f"[0..{self.x_max}] x [0..{self.q_max}]"
            )
        return self._rows[m][n] if m < len(self._rows) else 0

    def terms(self) -> list[tuple[tuple[int, int], int]]:
        """Nonzero terms ((m, n), c) in graded-lex order: by q-degree, then x-degree."""
        return [((m, n), c) for n, col in enumerate(zip(*self._rows)) for m, c in enumerate(col) if c]

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return _weigh(((1, 1),), ((0, 0),) * 2, 0, (self, other))[0]

    def __neg__(self) -> "Series":
        return _weigh(((-1,),), ((0, 0),), 0, (self,))[0]

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return _weigh(((1, -1),), ((0, 0),) * 2, 0, (self, other))[0]

    def __mul__(self, other: "Series") -> "Series":
        """The sum of c x^m q^n self over other's terms c x^m q^n, on the
        common rectangle.  Both operands are cut to it first, once: self
        enters _weigh once per term of other.  other leads, weighed by 0,
        so that the rectangle holds even when other has no terms."""
        if not isinstance(other, Series):
            return NotImplemented
        x_max, q_max, cut = _common((self, other))
        a, b = (Series._of_rows(rows, x_max, q_max) for rows in cut)
        terms = b.terms()
        return _weigh(((0, *(c for _, c in terms)),), ((0, 0), *(mn for mn, _ in terms)), 0,
                      (b, *(a,) * len(terms)))[0]

    def shift_x(self, s: int) -> "Series":
        """Substitute x -> x q^s, sending x^m q^n to x^m q^(n + m s).

        Terms pushed past q_max fall off the rectangle.  s = 0 is the
        identity; negative s would create Laurent terms and is rejected.
        """
        return _weigh(((1,),), ((0, 0),), s, (self,))[0]

    # -- comparison ------------------------------------------------------

    def eq_upto(self, other: "Series") -> bool:
        """Equality on the shared rectangle [0..min x_max] x [0..min q_max]."""
        a, b = _common((self, other))[2]
        return a == b

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.x_max == other.x_max
            and self.q_max == other.q_max
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.x_max, self.q_max, tuple(map(tuple, self._rows))))

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        if not self._rows:
            return "0"
        pieces: list[str] = []
        for (m, n), c in self.terms():
            body = _term_body(abs(c), m, n)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Series({self.render()!r}, x_max={self.x_max}, q_max={self.q_max})"


def _term_body(c: int, m: int, n: int) -> str:
    factors: list[str] = []
    if c != 1 or (m == 0 and n == 0):
        factors.append(str(c))
    if m == 1:
        factors.append("x")
    elif m > 1:
        factors.append(f"x^{m}")
    if n == 1:
        factors.append("q")
    elif n > 1:
        factors.append(f"q^{n}")
    return "*".join(factors)


def series_sum(terms: Iterable[Series], x_max: int, q_max: int) -> Series:
    """Sum a (possibly empty) collection of series.  The result lives on the
    intersection of the given rectangle with every term's: the zero series
    on the given rectangle is one more term."""
    F = (Series.zero(x_max, q_max), *terms)
    return _weigh(((1,) * len(F),), ((0, 0),) * len(F), 0, F)[0]


def _common(F: Sequence[Series]) -> tuple[int, int, list[list[list[int]]]]:
    """The common rectangle of F and each entry's x-rows on it.  Rows are
    read as they are; an entry on a larger rectangle is cut (and trimmed)
    to it."""
    x_max = min((s.x_max for s in F), default=0)
    q_max = min((s.q_max for s in F), default=0)
    return x_max, q_max, [s._rows if (s.x_max, s.q_max) == (x_max, q_max)
                          else _trim([row[:q_max + 1] for row in s._rows[:x_max + 1]]) for s in F]


def _check_weighing(weights: Sequence[tuple[int, int]], S: int) -> None:
    """_weigh's check of its arguments: a negative shift is refused, then the
    first Laurent weight, also where all of its terms would fall off."""
    if S < 0:
        raise ValueError(f"shift amount must be >= 0, got {S}")
    for m, n in weights:
        if m < 0 or n < 0:
            raise ValueError(f"monomial degrees must be >= 0, got x^{m} q^{n}")


def _weigh(A: Sequence[Sequence[int]], weights: Sequence[tuple[int, int]], S: int,
           F: Sequence[Series]) -> list[Series]:
    """Per row k of A, sum_j A_kj x^(m_j) q^(n_j) F_j(x q^S) on the common
    rectangle of F, A's entries being integer coefficients (a bool counts as
    0 or 1).  x^m q^n sends F_j(x q^S)'s x^a q^d to x^(a + m) q^(n + a S + d),
    so a right side is a sum of row slices, built once per distinct row of A
    and shared by equal rows: a factorization's rows repeat (ex3 has 23
    rows, 4 distinct).  This is the one loop that sums x-rows: every
    operator of Series, and series_sum, is one call to it."""
    _check_weighing(weights, S)
    x_max, q_max, cols = _common(F)
    keys = list(map(tuple, A))
    sums: dict[tuple[int, ...], Series] = {}
    for row in dict.fromkeys(keys):
        js = [j for j, e in enumerate(row) if e]
        # x^m F_j(x q^S) has no x-row past len(cols[j]) - 1 + m
        height = min(x_max + 1, max((len(cols[j]) + weights[j][0] for j in js), default=0))
        out = [[0] * (q_max + 1) for _ in range(height)]
        for j in js:
            m, n = weights[j]
            # an entry other than 1 scales F_j's rows as the loop reaches them
            e = row[j]
            for a, src in enumerate(cols[j] if e == 1 else ([e * c for c in r] for r in cols[j])):
                d = n + a * S
                if a + m > x_max or d > q_max:
                    break
                dst = out[a + m]
                dst[d:] = map(add, dst[d:], src)
        # height <= x_max + 1 fresh rows of q_max + 1 ints
        sums[row] = Series._of_rows(out, x_max, q_max)
    return [sums[row] for row in keys]


def _rows_hold(A: Sequence[Sequence[int]], weights: Sequence[tuple[int, int]], S: int,
               F: Sequence[Series]) -> list[bool]:
    """Per row k of A: does F_k equal _weigh's right side k on the common
    rectangle of F?"""
    return [r._rows == col for r, col in zip(_weigh(A, weights, S, F), _common(F)[2])]
