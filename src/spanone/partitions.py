"""Integer partitions and the predicates that carve out our partition classes.

Partitions are weakly decreasing tuples of positive parts.  A brute-force
generating function over all partitions of n <= q_max, filtered by an
arbitrary predicate, serves as the reference count that the structured
constructions elsewhere in the package are checked against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator

from .series import Series, _check_orders


@dataclass(frozen=True, slots=True)
class Partition:
    """Weakly decreasing tuple of positive integer parts; () is the empty partition.

    The constructor checks both conditions.  Code that builds part lists
    valid by construction wraps them with _trusted instead.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        for i, p in enumerate(self.parts):
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if i and self.parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {self.parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return format_partition(self)

    def __repr__(self) -> str:
        return f"Partition({format_partition(self)!r})"


def _trusted(parts: tuple[int, ...]) -> Partition:
    """A Partition built without the constructor's checks.  Only for part
    lists that are weakly decreasing and positive by construction; its two
    callers, partitions_of and oracle_genfun's walk, each say why."""
    p = object.__new__(Partition)
    Partition.parts.__set__(p, parts)  # the slot's own setter, unguarded by frozen
    return p


EMPTY = Partition()


def parse_partition(text: str) -> Partition:
    """Parse the literal syntax ``a+b+c`` (weakly decreasing) or ``empty``."""
    text = text.strip()
    if text == "empty":
        return EMPTY
    if not re.fullmatch(r"[0-9]+(\+[0-9]+)*", text):
        raise ValueError(f"bad partition literal {text!r}")
    return Partition(tuple(int(tok) for tok in text.split("+")))


def format_partition(p: Partition) -> str:
    return "empty" if not p.parts else "+".join(map(str, p.parts))


def satisfies_gap(p: Partition, d: int, k: int) -> bool:
    """True when every pair of parts at distance k >= 1 differs by at least d."""
    if k < 1:
        raise ValueError(f"gap distance k must be >= 1, got {k}")
    parts = p.parts
    return all(parts[i] - parts[i + k] >= d for i in range(len(parts) - k))


def kr_i1_predicate(p: Partition) -> bool:
    """Difference at least 3 at distance 2, and any two consecutive parts
    that differ by at most 1 must sum to a multiple of 3."""
    if not satisfies_gap(p, 3, 2):
        return False
    parts = p.parts
    for i in range(len(parts) - 1):
        if parts[i] - parts[i + 1] <= 1 and (parts[i] + parts[i + 1]) % 3 != 0:
            return False
    return True


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, in lexicographic order of their part lists."""

    def gen(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(1, min(cap, remaining) + 1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    for parts in gen(n, n):
        # gen appends only parts in 1..cap, each at most the one before it
        yield _trusted(parts)


def oracle_genfun(pred: Callable[[Partition], bool], x_max: int, q_max: int) -> Series:
    """Sum of x^(number of parts) q^(size) over all partitions of n <= q_max
    that satisfy pred.  Exhaustive, hence slow but authoritative.

    One depth-first walk visits every partition of size <= q_max with at
    most x_max parts exactly once: each step appends a part no larger than
    the last one and no larger than what is left of q_max.  Each visited
    part list is passed to pred as a Partition.
    """
    _check_orders(x_max, q_max)
    coeffs: dict[tuple[int, int], int] = {}

    def walk(parts: tuple[int, ...], size: int, cap: int) -> None:
        # every appended part is in 1..cap, at most the one before it
        if pred(_trusted(parts)):
            key = (len(parts), size)
            coeffs[key] = coeffs.get(key, 0) + 1
        if len(parts) < x_max:
            for a in range(1, min(cap, q_max - size) + 1):
                walk(parts + (a,), size + a, a)

    walk((), 0, q_max)
    return Series(coeffs, x_max, q_max)
