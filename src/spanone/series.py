"""Truncated bivariate formal power series over the integers.

Everything downstream (walk generating functions, q-difference solutions,
multi-sum evaluations, certificate verification) reduces to exact arithmetic
on elements of  Z[[x, q]]  truncated to a rectangle  0 <= m <= x_max,
0 <= n <= q_max  (inclusive).  Coefficients are ordinary Python ints, so all
arithmetic is exact; there is no floating point anywhere.

A series only ever *knows* coefficients inside its truncation rectangle.
Asking for a coefficient outside the rectangle is a programming error and
raises :class:`TruncationRangeError` rather than returning 0, because a
truncated series carries no information out there.  Binary operations on
series with different rectangles are fine: the result lives on the
intersection (componentwise minimum of the orders), which is exactly the
region where both operands are meaningful.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping


class TruncationRangeError(LookupError):
    """Coefficient query outside a series' truncation rectangle."""


def _check_orders(x_max: int, q_max: int) -> None:
    if x_max < 0 or q_max < 0:
        raise ValueError(f"truncation orders must be >= 0, got x_max={x_max} q_max={q_max}")


class Series:
    """An element of Z[[x, q]] known up to x^x_max and q^q_max.

    Instances are immutable; every operation returns a fresh series.  Zero
    coefficients are never stored, so ``not s._coeffs`` means s == 0 on its
    rectangle.
    """

    __slots__ = ("_coeffs", "x_max", "q_max")

    def __init__(self, coeffs: Mapping[tuple[int, int], int], x_max: int, q_max: int):
        _check_orders(x_max, q_max)
        clean: dict[tuple[int, int], int] = {}
        for (m, n), c in coeffs.items():
            if m < 0 or n < 0:
                raise ValueError(f"negative exponent in series term x^{m} q^{n}")
            if c and m <= x_max and n <= q_max:
                clean[(m, n)] = c
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "x_max", x_max)
        object.__setattr__(self, "q_max", q_max)

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
            raise TruncationRangeError(
                f"coefficient x^{m} q^{n} outside truncation region "
                f"[0..{self.x_max}] x [0..{self.q_max}]"
            )
        return self._coeffs.get((m, n), 0)

    def terms(self) -> list[tuple[tuple[int, int], int]]:
        """Nonzero terms ((m, n), c) in graded-lex order: by q-degree, then x-degree."""
        return sorted(self._coeffs.items(), key=lambda t: (t[0][1], t[0][0]))

    def support(self) -> Iterator[tuple[int, int]]:
        return iter(self._coeffs)

    def rows(self) -> list[list[int]]:
        """Every coefficient of the rectangle as dense rows: rows[m][n] is that of x^m q^n."""
        rows = [[0] * (self.q_max + 1) for _ in range(self.x_max + 1)]
        for (m, n), c in self._coeffs.items():
            rows[m][n] = c
        return rows

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return series_sum((self, other), self.x_max, self.q_max)

    def __neg__(self) -> "Series":
        return Series({k: -c for k, c in self._coeffs.items()}, self.x_max, self.q_max)

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        x_max = min(self.x_max, other.x_max)
        q_max = min(self.q_max, other.q_max)
        out: dict[tuple[int, int], int] = {}
        for (m1, n1), c1 in self._coeffs.items():
            if m1 > x_max or n1 > q_max:
                continue
            for (m2, n2), c2 in other._coeffs.items():
                m, n = m1 + m2, n1 + n2
                if m > x_max or n > q_max:
                    continue
                k = (m, n)
                out[k] = out.get(k, 0) + c1 * c2
        return Series(out, x_max, q_max)

    def shift_x(self, s: int) -> "Series":
        """Substitute x -> x q^s, sending x^m q^n to x^m q^(n + m s).

        Terms pushed past q_max fall off the rectangle.  s = 0 is the
        identity; negative s would create Laurent terms and is rejected.
        """
        if s < 0:
            raise ValueError(f"shift amount must be >= 0, got {s}")
        out: dict[tuple[int, int], int] = {}
        for (m, n), c in self._coeffs.items():
            n2 = n + m * s
            if n2 <= self.q_max:
                out[(m, n2)] = c
        return Series(out, self.x_max, self.q_max)

    def times_xq(self, m: int, n: int) -> "Series":
        """Multiply by x^m q^n: every term's exponents shift by (m, n), with
        no series product.  Terms pushed off the rectangle fall off."""
        if m < 0 or n < 0:
            raise ValueError(f"monomial degrees must be >= 0, got x^{m} q^{n}")
        return Series({(a + m, b + n): c for (a, b), c in self._coeffs.items()}, self.x_max, self.q_max)

    # -- comparison ------------------------------------------------------

    def eq_upto(self, other: "Series") -> bool:
        """Equality on the shared rectangle [0..min x_max] x [0..min q_max]."""
        x_max = min(self.x_max, other.x_max)
        q_max = min(self.q_max, other.q_max)

        def restrict(s: "Series") -> dict[tuple[int, int], int]:
            return {k: c for k, c in s._coeffs.items() if k[0] <= x_max and k[1] <= q_max}

        return restrict(self) == restrict(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.x_max == other.x_max
            and self.q_max == other.q_max
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self.x_max, self.q_max, frozenset(self._coeffs.items())))

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        if not self._coeffs:
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
    """Sum a (possibly empty) collection of series in one pass.  The result
    lives on the intersection of the given rectangle with every term's."""
    out: dict[tuple[int, int], int] = {}
    for t in terms:
        x_max, q_max = min(x_max, t.x_max), min(q_max, t.q_max)
        for k, c in t._coeffs.items():
            out[k] = out.get(k, 0) + c
    return Series(out, x_max, q_max)
