"""Multi-dimensional q-series of Nahm type and their contiguous relations.

A profile fixes a symmetric matrix alpha of nonnegative integers, a vector
gamma of positive x-exponents, and a vector A of Pochhammer moduli, all of
rank R.  For a linear-shift vector beta in Z^R the attached series is

    H(beta) = sum over n in N^R of
        q^E(n) x^(gamma . n) / prod_r (q^(A_r); q^(A_r))_{n_r},

    E(n) = sum_r alpha_rr n_r (n_r - 1) / 2
         + sum_{i < j} alpha_ij n_i n_j
         + sum_r beta_r n_r.

Splitting the n_r-sum at the range of its Pochhammer factor gives, for each
coordinate r, the two-term relation

    H(beta) = H(beta + A_r e_r) + x^(gamma_r) q^(beta_r) H(beta + alpha_r)

with alpha_r the r-th row of alpha; these relations are the edges of the
certificate trees built in the prover.  The relation holds for every
integer beta and every A, because

    1/(q^A;q^A)_n = q^(An)/(q^A;q^A)_n + 1/(q^A;q^A)_(n-1),

so a certificate's soundness needs none of check_additional's
divisibility conditions.  Substituting x -> x q^S simply shifts beta by
S gamma.

eval_H truncates H to x^x_max q^q_max one coordinate at a time.  Before
coordinate r, the rest of the sum reads a prefix (n_1, ..., n_(r-1)) only
through its key: its x-degree, its energy, and the slopes
beta_t + sum_(s < r) alpha_st n_s of the coordinates t >= r.  So a level of
the walk maps each key to one dense q-row of ints, the sum of the
reciprocal Pochhammers of the prefixes with that key, and prefixes with one
key are added together once.  Raising n_r from k - 1 to k divides a row
by (1 - q^(A_r k)) and adds alpha_rr (k - 1) + slope_r to the energy.
alpha >= 0, so E(n) < 0 somewhere in the window exactly when some
beta_r < 0 has gamma_r <= x_max; such a beta is refused before the walk,
and otherwise no step lowers the energy, so the k-loop stops at the first
step past q_max and a row keeps only the q_max + 1 - energy orders left.
After the last coordinate each row is added at offset energy into its
x-row.  Memory is the states of two levels, each a row of at most
q_max + 1 ints and a key of at most R + 2, with no stack frame per
coordinate; with alpha = 0 the slopes never change, so a level has at most
(x_max + 1)(q_max + 1) states whatever the rank.

A batch of checks in one process (the acceptance suite, a run over many
mutated factorizations) asks for the same H and the same identities again
and again, so two bounded LRU memos keep them.  eval_H keeps _MEMO_SIZE
series, keyed on (profile, tuple(beta), x_max, q_max).  _row_holds keeps
_ROW_MEMO_SIZE bools, each the check of one identity H(root) = sum of
e x^m q^n H(beta)(x q^S), keyed on every value it reads: the profile, S,
the root, its terms (beta, e, (m, n)) and the window.  A factorization row
is such an identity, so a system with one entry changed checks only the
rows that read it; a two-term relation is one at S = 0.  Handing one
result to many callers is safe: a Series and its rows are never mutated
once built, the series row check only reads rows and copies any it cuts,
and MultisumProfile is an immutable namedtuple, hashed and compared as the
tuple of its fields.  A call that raises stores nothing, so a negative
summand raises again on every call.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import add

from . import jsonin
from .series import Series, _check_orders, _rows_hold

Beta = tuple[int, ...]

# distinct (profile, beta, x_max, q_max) whose H eval_H keeps
_MEMO_SIZE = 256

# distinct (profile, S, root, terms, x_max, q_max) whose check _row_holds keeps
_ROW_MEMO_SIZE = 512


class MultisumProfile(namedtuple("MultisumProfile", "alpha gamma A")):
    __slots__ = ()

    def __new__(cls, alpha: tuple[tuple[int, ...], ...], gamma: tuple[int, ...], A: tuple[int, ...]):
        self = super().__new__(cls, alpha, gamma, A)
        R = len(self.alpha)
        if len(self.gamma) != R or len(self.A) != R:
            raise ValueError("alpha, gamma and A must share one rank")
        # every row is checked for its length first, so alpha[j][i] exists
        for i, row in enumerate(self.alpha):
            if len(row) != R:
                raise ValueError(f"alpha must be square, got {len(row)} entries in alpha row {i + 1} for rank {R}")
        for i, row in enumerate(self.alpha):
            for j, e in enumerate(row):
                if e < 0:
                    raise ValueError(f"alpha entries must be >= 0, got {e} in alpha row {i + 1}, column {j + 1}")
                if self.alpha[j][i] != e:
                    raise ValueError(f"alpha must be symmetric, got {e} in alpha row {i + 1}, column {j + 1} "
                                     f"and {self.alpha[j][i]} in row {j + 1}, column {i + 1}")
        for r, g in enumerate(self.gamma):
            if g < 1:
                raise ValueError(f"gamma entries must be >= 1, got {g} in gamma entry {r + 1}")
        for r, a in enumerate(self.A):
            if a < 1:
                raise ValueError(f"A entries (Pochhammer moduli) must be >= 1, got {a} in A entry {r + 1}")
        return self

    @property
    def R(self) -> int:
        return len(self.alpha)


def _check_beta(p: MultisumProfile, beta: Beta) -> None:
    if len(beta) != p.R:
        raise ValueError(f"beta has rank {len(beta)}, profile has rank {p.R}")


def check_positivity(p: MultisumProfile, beta: Beta) -> bool:
    """Is E(n) > 0 for every nonzero n in N^R?  Exactly when every beta_r >= 1:
    E(e_r) = beta_r, so a beta_r <= 0 fails at n = e_r; when every beta_r >= 1,
    each diagonal term alpha_rr k(k-1)/2 + beta_r k is positive for k >= 1
    and the cross terms are >= 0.  Positivity makes H(beta) a q-series: only
    finitely many n have E(n) <= any given order.
    """
    _check_beta(p, beta)
    return all(b >= 1 for b in beta)


def eval_H(p: MultisumProfile, beta: Beta, x_max: int, q_max: int) -> Series:
    """Truncated evaluation of H(beta), enumerated by x-degree gamma . n.

    beta may be any integer vector, but a summand whose q-exponent E(n)
    would be negative cannot live in a power series and raises ValueError.
    Such a summand exists exactly when some beta_r < 0 has gamma_r <= x_max,
    and the error names the lexicographically least, e_r for the largest
    such r, before any row is built: E(e_r) = beta_r, and a summand n with
    E(n) < 0 has n_s >= 1 at some such s <= r, so n is nonzero at or before
    coordinate r and comes at or after e_r.

    Each (p, beta, x_max, q_max) is walked once per process while it stays
    among the last _MEMO_SIZE distinct ones asked for; see the module
    docstring for the walk and the memo.
    """
    _check_beta(p, beta)
    _check_orders(x_max, q_max)
    return _walk_H(p, tuple(beta), x_max, q_max)


@lru_cache(maxsize=_MEMO_SIZE)
def _walk_H(p: MultisumProfile, beta: Beta, x_max: int, q_max: int) -> Series:
    """eval_H's walk, on checked arguments and a tuple beta."""
    alpha, gamma, A = p.alpha, p.gamma, p.A
    # the lexicographically least negative summand is e_r for the last r that reaches one
    for r in reversed(range(p.R)):
        if beta[r] < 0 and gamma[r] <= x_max:
            n = (0,) * r + (1,) + (0,) * (p.R - 1 - r)
            raise ValueError(f"summand n={n} of H(beta={beta}) has negative q-exponent {beta[r]}")
    # before coordinate r: (x-degree, energy, slopes of coordinates r..R-1) -> summed
    # q-row of prod_{s < r} 1/(q^A_s; q^A_s)_{n_s} over the prefixes with that key
    level = {(0, 0, beta): [1] + [0] * q_max}
    for r in range(p.R):
        a, g, mod, later = alpha[r][r], gamma[r], A[r], alpha[r][r + 1:]
        nxt: dict[tuple[int, int, Beta], list[int]] = {}
        for (xdeg, e, slopes), c in level.items():
            rest = slopes[1:]
            for k in range((x_max - xdeg) // g + 1):
                if k:
                    e += a * (k - 1) + slopes[0]
                    if e > q_max:
                        break
                    # a new row (stored rows are shared, never mutated), cut to the q-orders
                    # left and divided by (1 - q^(A_r k))
                    c = c[:q_max + 1 - e]
                    step = mod * k
                    for i in range(step, len(c)):
                        c[i] += c[i - step]
                    rest = tuple(map(add, rest, later))
                key = (xdeg + k * g, e, rest)
                old = nxt.get(key)
                nxt[key] = c if old is None else list(map(add, old, c))
        level = nxt
    # rows[m][d]: coefficient of x^m q^d, up to the highest x-degree a summand reaches;
    # built here and never mutated again, whichever callers the memo hands this series to
    rows = [[0] * (q_max + 1) for _ in range(1 + max(xdeg for xdeg, _, _ in level))]
    for (xdeg, e, _), c in level.items():
        rows[xdeg][e:] = map(add, rows[xdeg][e:], c)
    return Series._of_rows(rows, x_max, q_max)


def rec_children(
    p: MultisumProfile, beta: Beta, r: int
) -> tuple[Beta, tuple[int, int], Beta]:
    """Left child, right-edge weight exponents (gamma_r, beta_r), right child
    of the coordinate-r relation at beta.  r is 1-based."""
    _check_beta(p, beta)
    if not 1 <= r <= p.R:
        raise ValueError(f"coordinate must be in 1..{p.R}, got {r}")
    left, right = _children(p, tuple(beta), r - 1)
    return left, (p.gamma[r - 1], beta[r - 1]), right


def _children(p: MultisumProfile, beta: Beta, i: int) -> tuple[Beta, Beta]:
    """Left and right child of the relation at the 0-based coordinate i,
    unchecked: beta must be a tuple of the profile's rank."""
    return beta[:i] + (beta[i] + p.A[i],) + beta[i + 1:], tuple(map(add, beta, p.alpha[i]))


def shift_beta(p: MultisumProfile, beta: Beta, S: int) -> Beta:
    """The parameter vector of H after substituting x -> x q^S."""
    _check_beta(p, beta)
    if S < 0:
        raise ValueError(f"shift must be >= 0, got {S}")
    return tuple(b + S * g for b, g in zip(beta, p.gamma))


def check_additional(p: MultisumProfile, S: int) -> bool:
    """Divisibility conditions tying the profile to a shift S: each modulus
    A_s must divide gamma_s * S and every alpha column entry alpha_rs."""
    if S < 0:
        raise ValueError(f"shift must be >= 0, got {S}")
    for s in range(p.R):
        if (p.gamma[s] * S) % p.A[s] != 0:
            return False
        for r in range(p.R):
            if p.alpha[r][s] % p.A[s] != 0:
                return False
    return True


def verify_recurrence_numeric(p: MultisumProfile, beta: Beta, r: int, x_max: int, q_max: int) -> bool:
    """Check H(beta) = H(left) + x^gamma_r q^beta_r H(right) to truncation:
    the identity of _row_holds at S = 0, with its check kept in that memo.
    A negative q-exponent beta_r is refused first, by name."""
    left, (xe, qe), right = rec_children(p, beta, r)
    if qe < 0:
        raise ValueError(f"weight exponent q^{qe} is negative; not a power series identity")
    return _row_holds(p, 0, tuple(beta), ((left, 1, (0, 0)), (right, 1, (xe, qe))), x_max, q_max)


@lru_cache(maxsize=_ROW_MEMO_SIZE)
def _row_holds(p: MultisumProfile, S: int, root: Beta, terms: tuple[tuple[Beta, int, tuple[int, int]], ...],
               x_max: int, q_max: int) -> bool:
    """Does H(root) equal the sum over terms (beta, e, (m, n)) of
    e x^m q^n H(beta)(x q^S)?  A one-row system through series' row check;
    see the module docstring for the memo."""
    betas = (root, *(b for b, _, _ in terms))
    H = {b: eval_H(p, b, x_max, q_max) for b in dict.fromkeys(betas)}
    return _rows_hold(((0, *(e for _, e, _ in terms)),), ((0, 0), *(w for _, _, w in terms)), S,
                      [H[b] for b in betas])[0]


# -- JSON interface ------------------------------------------------------


def profile_from_json(data: dict, where: str = "malformed profile description: ") -> MultisumProfile:
    """The profile in data; where prefixes the names of its fields in errors."""
    alpha = jsonin.rows(jsonin.field(data, "alpha", where), where + "alpha")
    gamma = jsonin.integers(jsonin.field(data, "gamma", where), where + "gamma")
    A = jsonin.integers(jsonin.field(data, "A", where), where + "A")
    try:
        return MultisumProfile(alpha=alpha, gamma=gamma, A=A)
    except ValueError as exc:  # its checks name the fields, and where the profile inside a document
        raise ValueError(f"{where}{exc}") from None


def profile_to_json(p: MultisumProfile) -> dict:
    return {"alpha": [list(r) for r in p.alpha], "gamma": list(p.gamma), "A": list(p.A)}


def load_profile(path: str) -> MultisumProfile:
    return profile_from_json(jsonin.load(path))
