"""Integer partitions and the predicates that carve out our partition classes.

A partition is a plain tuple of parts, weakly decreasing and positive, with
() the empty partition.  Part lists from outside the package are checked
where they enter: parse_partition for literals, and the ideal constructor
and contains in ideals; the package's own constructions build valid tuples
and pass them on unchecked.  A brute-force generating function over all
partitions of n <= q_max, filtered by an arbitrary predicate, serves as the
reference count that the structured constructions elsewhere in the package
are checked against.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator

from .series import Series, _check_orders

Parts = tuple[int, ...]

# the most partitions oracle_genfun walks; the full window q^63 x^63 holds
# 10,566,509 and is refused, q^62 x^62 is walked
ORACLE_MAX_PARTITIONS = 10**7


def _check_parts(parts: Parts) -> None:
    """Raise ValueError unless parts is weakly decreasing and positive."""
    for i, p in enumerate(parts):
        if p < 1:
            raise ValueError(f"parts must be positive, got {p}")
        if i and parts[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing, got {parts}")


def parse_partition(text: str) -> Parts:
    """Parse the literal syntax ``a+b+c`` (weakly decreasing) or ``empty``, no spaces."""
    if text == "empty":
        return ()
    if not re.fullmatch(r"[0-9]+(\+[0-9]+)*", text):
        raise ValueError(f"bad partition literal {text!r}")
    parts = tuple(int(tok) for tok in text.split("+"))
    _check_parts(parts)
    return parts


def format_partition(p: Parts) -> str:
    return "empty" if not p else "+".join(map(str, p))


def satisfies_gap(p: Parts, d: int, k: int) -> bool:
    """True when every pair of parts at distance k >= 1 differs by at least d."""
    if k < 1:
        raise ValueError(f"gap distance k must be >= 1, got {k}")
    # a plain loop: the oracle calls this once per partition in its window,
    # and a generator under all() costs about twice as much per call
    for a, b in zip(p, p[k:]):
        if a - b < d:
            return False
    return True


def kr_i1_predicate(p: Parts) -> bool:
    """Difference at least 3 at distance 2, and any two consecutive parts
    that differ by at most 1 must sum to a multiple of 3."""
    if not satisfies_gap(p, 3, 2):
        return False
    for a, b in zip(p, p[1:]):
        if a - b <= 1 and (a + b) % 3 != 0:
            return False
    return True


def partitions_of(n: int) -> Iterator[Parts]:
    """All partitions of n, in lexicographic order of their part lists."""

    def gen(remaining: int, cap: int) -> Iterator[Parts]:
        if remaining == 0:
            yield ()
            return
        for first in range(1, min(cap, remaining) + 1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return gen(n, n)


def window_partitions(x_max: int, q_max: int, bound: int) -> int:
    """The number of partitions of size <= q_max with at most x_max parts,
    or some larger number once that passes bound.

    q_max + 1 partitions have at most one part, and (q_max // 2) *
    ((q_max + 1) // 2) more have two, so a large q_max passes the bound
    before anything is counted.  Otherwise, by conjugation, count the
    partitions of each n <= q_max into parts no larger than x_max, adding
    one part size at a time until the total passes bound.
    """
    k = min(x_max, q_max)
    if k < 2:
        return q_max + 1 if k else 1
    total = (q_max // 2) * ((q_max + 1) // 2) + q_max + 1
    if total > bound:
        return total
    counts = [1] * (q_max + 1)
    for part in range(2, k + 1):
        for n in range(part, q_max + 1):
            counts[n] += counts[n - part]
        total = sum(counts)
        if total > bound:
            break
    return total


def oracle_genfun(pred: Callable[[Parts], bool], x_max: int, q_max: int) -> Series:
    """Sum of x^(number of parts) q^(size) over all partitions of n <= q_max
    that satisfy pred.  Exhaustive, hence slow but authoritative.

    One depth-first walk visits every partition of size <= q_max with at
    most x_max parts exactly once: each step appends a part no larger than
    the last one and no larger than what is left of q_max.  Each visited
    part tuple is passed to pred as it is.

    A window of more than ORACLE_MAX_PARTITIONS partitions is refused
    before the walk starts.  A window within it cannot reach the recursion
    limit: with m = min(x_max, q_max) it holds every partition of n <= m,
    and those alone pass the bound at m = 63, so the walk, one level per
    part, stays below 63 levels.
    """
    _check_orders(x_max, q_max)
    if window_partitions(x_max, q_max, ORACLE_MAX_PARTITIONS) > ORACLE_MAX_PARTITIONS:
        raise ValueError(
            f"the oracle window q_max={q_max} x_max={x_max} holds more than {ORACLE_MAX_PARTITIONS:,} "
            "partitions; lower --qmax or --xmax"
        )
    coeffs: dict[tuple[int, int], int] = {}

    def walk(parts: Parts, size: int, cap: int) -> None:
        if pred(parts):
            key = (len(parts), size)
            coeffs[key] = coeffs.get(key, 0) + 1
        if len(parts) < x_max:
            for a in range(1, min(cap, q_max - size) + 1):
                walk(parts + (a,), size + a, a)

    walk((), 0, q_max)
    return Series(coeffs, x_max, q_max)
