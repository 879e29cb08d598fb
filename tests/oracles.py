"""Independent reference implementations used only by the tests.

Each oracle recomputes something the library also computes, by a different
route: a per-coefficient gather over the whole window instead of the
row slices of the one weighing kernel behind every Series operator (for
products, sums and the shift x -> x q^s alike), a product and a sum for
every row instead of row slices summed once per distinct row,
explicit walk enumeration instead of matrix products, a bijective partition
counter instead of filtering, a full-box multi-sum enumeration instead of the
pruned walk, a memoless certificate search instead of the memoized one, a
recursive memoized certificate search instead of the bottom-up one, and a
recursive chain expansion of an ideal's members instead of the level-wise
walk.  Agreement between the routes is the point.

One helper is not a second route: walk_genfun_matrix lays the library's
walk products out as the full walk-matrix, a form only the tests need, so
that enumerate_walks can check every entry of it.  Nor are the partition
moves phi, oplus and s_tail: they are the definitions the paper builds
members from, which the tests use to rebuild and split partitions.  Like
the library, they take and return partitions as plain part tuples.  The
predicates gap_reference and kr_i1_reference restate the library's two
predicates over indices, where the library loops over zipped pairs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from spanone.ideals import SpanOneIdeal, _walk_product
from spanone.multisum import Beta, MultisumProfile, rec_children
from spanone.partitions import Parts, _check_parts
from spanone.prover import Expand, Leaf, Node, SearchExhausted
from spanone.series import Series


def naive_mul(a: Series, b: Series) -> Series:
    """Cauchy product via the gather-style double loop over the dense window."""
    x_max = min(a.x_max, b.x_max)
    q_max = min(a.q_max, b.q_max)
    coeffs = {}
    for m in range(x_max + 1):
        for n in range(q_max + 1):
            c = 0
            for m1 in range(m + 1):
                for n1 in range(n + 1):
                    c += a.coeff(m1, n1) * b.coeff(m - m1, n - n1)
            if c:
                coeffs[(m, n)] = c
    return Series(coeffs, x_max, q_max)


def naive_add(*terms: Series) -> Series:
    """The sum of terms, coefficient by coefficient, over their common window."""
    x_max = min(s.x_max for s in terms)
    q_max = min(s.q_max for s in terms)
    coeffs: dict[tuple[int, int], int] = {}
    for s in terms:
        for (m, n), c in s.terms():
            if m <= x_max and n <= q_max:
                coeffs[m, n] = coeffs.get((m, n), 0) + c
    return Series(coeffs, x_max, q_max)


def naive_shift_x(a: Series, s: int) -> Series:
    """a(x q^s) for s >= 0, gathering each coefficient of x^m q^n from a's
    x^m q^(n - m s)."""
    return Series({(m, n): a.coeff(m, n - m * s)
                   for m in range(a.x_max + 1) for n in range(m * s, a.q_max + 1)}, a.x_max, a.q_max)


@lru_cache(maxsize=1024)
def _naive_weigh(s: Series, c: int, m: int, n: int) -> Series:
    return naive_mul(s, Series({(m, n): c}, s.x_max, s.q_max))


def naive_weigh_rows(A, weights, vec, shift: int = 0) -> list[Series]:
    """A W(x q^shift) vec with every row summed on its own.

    A nonzero entry c in column j is weighed by a naive_mul product with
    c x^(m_j) q^(s_j + m_j shift), and the products are summed by naive_add;
    no row sum is shared, not even between equal rows.  The products are
    cached by (series, monomial), so that checking many mutants of one
    system stays quick.
    """
    x_max = min(s.x_max for s in vec)
    q_max = min(s.q_max for s in vec)
    zero = Series({}, x_max, q_max)
    out = []
    for row in A:
        weighed = []
        for j, e in enumerate(row):
            if e:
                m, n = weights[j]
                weighed.append(_naive_weigh(vec[j], int(e), m, n + m * shift))
        out.append(naive_add(zero, *weighed))
    return out


def naive_eval_H(p: MultisumProfile, beta: Beta, x_max: int, q_max: int) -> Series:
    """H(beta) summed over the whole box gamma . n <= x_max, with no pruning.

    Each E(n) is computed from the definition and each reciprocal
    Pochhammer is multiplied out factor by factor with naive_mul.  The box
    is walked in lexicographic order, so the first summand with a negative
    q-exponent raises the same error as eval_H.
    """
    R = p.R
    coeffs: dict[tuple[int, int], int] = {}
    for n in product(*(range(x_max // g + 1) for g in p.gamma)):
        xdeg = sum(g * k for g, k in zip(p.gamma, n))
        if xdeg > x_max:
            continue
        e = sum(
            p.alpha[r][s] * n[r] * n[s] for r in range(R) for s in range(r + 1, R)
        ) + sum(p.alpha[r][r] * n[r] * (n[r] - 1) // 2 + beta[r] * n[r] for r in range(R))
        if e < 0:
            raise ValueError(f"summand n={n} of H(beta={beta}) has negative q-exponent {e}")
        if e > q_max:
            continue
        poch = Series({(0, 0): 1}, 0, q_max)
        for r in range(R):
            for j in range(1, n[r] + 1):
                step = p.A[r] * j
                geom = Series({(0, d): 1 for d in range(0, q_max + 1, step)}, 0, q_max)
                poch = naive_mul(poch, geom)
        for d in range(q_max - e + 1):
            coeffs[(xdeg, e + d)] = coeffs.get((xdeg, e + d), 0) + poch.coeff(0, d)
    return Series(coeffs, x_max, q_max)


def recursive_enumerate_members(ideal: SpanOneIdeal, q_max: int) -> tuple[Series, list[Parts]]:
    """Members of size <= q_max by one recursive call per chain, each member
    checked to be weakly decreasing and positive: the same generating
    function and members as enumerate_members, down to the order of the
    member list (by size, then part list).
    """
    S = ideal.S
    seeds = [(p, sum(p), len(p)) for p in ideal.pi]
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(q_max + 1)]
    buckets[0].append(())
    coeffs: dict[tuple[int, int], int] = {(0, 0): 1}

    def extend(j: int, level: int, parts: tuple[int, ...], size: int) -> None:
        shift = level * S
        if size + shift + 1 > q_max:
            return  # even the smallest nonempty link no longer fits
        for i in ideal.linking[j - 1]:
            link, link_size, n = seeds[i - 1]
            if not n:
                # a chain may pass through an empty window and resume higher up
                extend(i, level + 1, parts, size)
                continue
            grown_size = size + link_size + shift * n
            if grown_size > q_max:
                continue
            grown = tuple([a + shift for a in link]) + parts
            buckets[grown_size].append(grown)
            key = (len(grown), grown_size)
            coeffs[key] = coeffs.get(key, 0) + 1
            extend(i, level + 1, grown, grown_size)

    extend(1, 0, (), 0)
    members: list[Parts] = []
    for bucket in buckets:
        bucket.sort()
        for parts in bucket:
            _check_parts(parts)
        members += bucket
    return Series(coeffs, q_max, q_max), members


def phi(p: Parts, k: int = 1) -> Parts:
    """Add k to every part (k >= 0).  The empty partition is fixed."""
    if k < 0:
        raise ValueError(f"phi exponent must be >= 0, got {k}")
    return tuple(a + k for a in p)


def oplus(p: Parts, r: Parts) -> Parts:
    """Multiset union of the parts of p and r."""
    return tuple(sorted(p + r, reverse=True))


def s_tail(p: Parts, s: int) -> Parts:
    """The sub-partition of parts that are <= s."""
    return tuple(a for a in p if a <= s)


def gap_reference(p: Parts, d: int, k: int) -> bool:
    """Every pair of parts at distance k >= 1 differs by at least d."""
    if k < 1:
        raise ValueError(f"gap distance k must be >= 1, got {k}")
    return all(p[i] - p[i + k] >= d for i in range(len(p) - k))


def kr_i1_reference(p: Parts) -> bool:
    """Difference at least 3 at distance 2, and any two consecutive parts
    that differ by at most 1 must sum to a multiple of 3."""
    if not gap_reference(p, 3, 2):
        return False
    for i in range(len(p) - 1):
        if p[i] - p[i + 1] <= 1 and (p[i] + p[i + 1]) % 3 != 0:
            return False
    return True


def walk_genfun_matrix(A, weights, M: int, S: int, x_max: int, q_max: int) -> list[list[Series]]:
    """Entry (i, j): sum over M-step walks i -> j of the product of vertex
    monomials, the vertex at position m taken at x -> x q^(mS).

    A is a square 0/1 adjacency matrix and weights[j] = (m_j, s_j) the
    exponents of vertex j's monomial x^(m_j) q^(s_j); neither needs to meet
    the QDiffSystem rules.  result[i][j] sums walks starting at vertex i+1
    and ending at vertex j+1.  With every monomial set to 1 this collapses
    to the M-th power of the adjacency matrix.  Column j is the library's
    walk product started at vertex j, so the tests reach its matrix form
    without the library carrying one.
    """
    cols = [_walk_product(A, weights, j, M, S, x_max, q_max) for j in range(len(A))]
    return [list(row) for row in zip(*cols)]


def enumerate_walks(adjacency, lengths, sizes, M: int, S: int):
    """All M-step walks with their weight exponents.

    Yields (start, end, x_exponent, q_exponent), one tuple per walk, where
    the vertex at position m contributes (x q^(mS))^length * q^size.
    Vertices are 0-based here.
    """
    K = len(adjacency)
    for path in product(range(K), repeat=M + 1):
        if any(not adjacency[path[m]][path[m + 1]] for m in range(M)):
            continue
        xe = sum(lengths[v] for v in path)
        qe = sum(sizes[v] + lengths[v] * m * S for m, v in enumerate(path))
        yield path[0], path[-1], xe, qe


@lru_cache(maxsize=None)
def p_exact(n: int, m: int) -> int:
    """Partitions of n into exactly m parts, by the standard recurrence."""
    if n == 0 and m == 0:
        return 1
    if n <= 0 or m <= 0:
        return 0
    return p_exact(n - 1, m - 1) + p_exact(n - m, m)


def count_gap2(n: int, m: int) -> int:
    """Partitions of n into m parts with consecutive differences >= 2.

    Subtracting 2(m - i) from the i-th largest part is a bijection onto
    partitions of n - m(m-1) into exactly m parts.
    """
    return p_exact(n - m * (m - 1), m) if n >= m * (m - 1) else 0


def naive_min_expansions(
    p: MultisumProfile, root, targets: frozenset, depth_cap: int = 40
) -> int | None:
    """Minimal expansion count by plain recursion, no memoization.

    Subtree costs are independent, so the free-per-occurrence minimum
    coincides with the minimum over per-beta choice functions; this is the
    cross-check that memoization in the real search is cost-transparent.
    """
    R = p.R

    def best(beta, depth) -> int | None:
        if beta in targets:
            return 0
        if depth == 0 or all(any(beta[i] > t[i] for i in range(R)) for t in targets):
            return None
        found = None
        for r in range(1, R + 1):
            left, _, right = rec_children(p, beta, r)
            lb = best(left, depth - 1)
            if lb is None:
                continue
            rb = best(right, depth - 1)
            if rb is None:
                continue
            cost = 1 + lb + rb
            if found is None or cost < found:
                found = cost
        return found

    return best(tuple(root), depth_cap)


def recursive_derive_row(
    p: MultisumProfile,
    root: Beta,
    targets: frozenset[Beta] | set[Beta],
    max_expansions: int = 64,
) -> Node:
    """Expansion-minimal certificate tree, by a recursive memoized search.

    A beta on the call stack reads as infeasible, which breaks the only
    cycle, a right move along an all-zero alpha row.  A beta beyond every
    target in some coordinate is discarded, and the budget is compared only
    once the whole reachable set is solved.
    """
    targets = frozenset(targets)
    if not targets:
        raise ValueError("target set must be nonempty")
    R = p.R
    in_progress = object()
    memo: dict[Beta, tuple[int, Node] | None] = {}

    def best(beta: Beta) -> tuple[int, Node] | None:
        if beta in targets:
            return 0, Leaf(beta)
        if all(any(beta[i] > t[i] for i in range(R)) for t in targets):
            return None  # beyond every target: no leaf reachable
        if beta in memo:
            entry = memo[beta]
            return None if entry is in_progress else entry
        memo[beta] = in_progress
        found: tuple[int, Node] | None = None
        for r in range(1, R + 1):
            left, _, right = rec_children(p, beta, r)
            lb = best(left)
            if lb is None:
                continue
            rb = best(right)
            if rb is None:
                continue
            cost = 1 + lb[0] + rb[0]
            if found is None or cost < found[0]:
                found = (cost, Expand(beta, r, lb[1], rb[1]))
        memo[beta] = found
        return found

    try:
        entry = best(root)
    except RecursionError:
        raise SearchExhausted(
            f"the search for {root} went deeper than the recursion limit"
        ) from None
    if entry is None or entry[0] > max_expansions:
        raise SearchExhausted(
            f"no certificate for {root} within {max_expansions} expansions"
        )
    return entry[1]
