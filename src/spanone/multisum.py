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

eval_H truncates H to x^x_max q^q_max by walking n one coordinate at a
time and pruning on energy: the cross terms alpha_ij n_i n_j are never
negative, so a prefix whose energy plus the smallest energy each remaining
coordinate can add on its own exceeds q_max has no live completion.  That
bound uses no sign of beta, so it is exact for any integer beta, and since a
pruned summand has E(n) > q_max >= 0, a summand with negative E(n) is still
met, in the same order, and still raises ValueError.  Reciprocal
Pochhammers are kept as dense q-rows of ints, each step of n_r one in-place
division by (1 - q^(A_r n_r)).

A batch of checks in one process (the acceptance suite, a run over many
mutated factorizations) asks for the same few H again and again, so eval_H
keeps a bounded LRU memo keyed on (profile, tuple(beta), x_max, q_max).
Handing one result to many callers is safe: a Series and its rows are
never mutated once built, the series row check only reads rows and copies
any it cuts, and MultisumProfile is an immutable namedtuple, hashed and
compared as the tuple of its fields.  A walk that raises stores nothing, so
a negative summand raises again on every call.  The memo holds at most
_MEMO_SIZE series; a miss runs the walk above.
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
                raise ValueError(f"Pochhammer moduli must be >= 1, got {a} in A entry {r + 1}")
        return self

    @property
    def R(self) -> int:
        return len(self.alpha)


def _check_beta(p: MultisumProfile, beta: Beta) -> None:
    if len(beta) != p.R:
        raise ValueError(f"beta has rank {len(beta)}, profile has rank {p.R}")


def energy(p: MultisumProfile, beta: Beta, n: tuple[int, ...]) -> int:
    """The q-exponent E(n) of the summand indexed by n."""
    _check_beta(p, beta)
    e = 0
    for r in range(p.R):
        e += p.alpha[r][r] * n[r] * (n[r] - 1) // 2 + beta[r] * n[r]
        for s in range(r + 1, p.R):
            e += p.alpha[r][s] * n[r] * n[s]
    return e


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

    The walk fixes n_1, n_2, ... in turn and carries the energy of the
    prefix.  Cross terms alpha_sr n_s n_r are >= 0, so every completion of a
    prefix has energy >= prefix energy + the sum over the remaining r of
    lb_r = min over 0 <= k <= x_max // gamma_r of alpha_rr k(k-1)/2 + beta_r k.
    That bound holds for any integer beta.  The k-loop stops at the first k
    whose bound exceeds q_max: a later k could come back under it only if
    beta_r < 0, and then the walk has already raised at n = e_r.  Every
    pruned summand has E(n) > q_max >= 0, so the first negative summand in
    traversal order, and the error it raises, is the same as for the full
    enumeration.

    Each (p, beta, x_max, q_max) is walked once per process while it stays
    among the last _MEMO_SIZE distinct ones asked for; see the module
    docstring.
    """
    _check_beta(p, beta)
    _check_orders(x_max, q_max)
    return _walk_H(p, tuple(beta), x_max, q_max)


@lru_cache(maxsize=_MEMO_SIZE)
def _walk_H(p: MultisumProfile, beta: Beta, x_max: int, q_max: int) -> Series:
    """eval_H's walk, on checked arguments and a tuple beta."""
    R = p.R
    alpha, gamma, A = p.alpha, p.gamma, p.A
    # tail[r]: lower bound on the energy that coordinates r.. can add
    tail = [0] * (R + 1)
    for r in range(R - 1, -1, -1):
        a, b = alpha[r][r], beta[r]
        tail[r] = tail[r + 1] + min(
            a * k * (k - 1) // 2 + b * k for k in range(x_max // gamma[r] + 1)
        )
    # rows[m][d]: coefficient of x^m q^d, grown to the highest x-degree a
    # summand reaches
    rows: list[list[int]] = []

    def walk(r: int, n: tuple[int, ...], xdeg: int, e: int, part: list[int]) -> None:
        # part: dense q-row of prod_{s < r} 1/(q^A_s; q^A_s)_{n_s}
        if r == R:
            if e < 0:
                raise ValueError(
                    f"summand n={n} of H(beta={beta}) has negative q-exponent {e}"
                )
            while len(rows) <= xdeg:
                rows.append([0] * (q_max + 1))
            row = rows[xdeg]
            for d in range(q_max + 1 - e):
                row[e + d] += part[d]
            return
        a, b, g, mod = alpha[r][r], beta[r], gamma[r], A[r]
        slope = b + sum(alpha[s][r] * n[s] for s in range(r))
        rest = tail[r + 1]
        c = part[:]
        for k in range((x_max - xdeg) // g + 1):
            if k:
                # divide by (1 - q^(A_r k)) in place
                step = mod * k
                for i in range(step, q_max + 1):
                    c[i] += c[i - step]
                e += a * (k - 1) + slope
            if e + rest > q_max:
                break
            walk(r + 1, n + (k,), xdeg + k * g, e, c)

    walk(0, (), 0, 0, [1] + [0] * q_max)
    # rows: at most x_max + 1 rows of q_max + 1 ints, built here and never mutated
    # again, whichever callers the memo hands this series to
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
    the one-row system with A = ((0, 1, 1),) and S = 0 on (H(beta), H(left),
    H(right))."""
    left, (xe, qe), right = rec_children(p, beta, r)
    if qe < 0:
        raise ValueError(f"weight exponent q^{qe} is negative; not a power series identity")
    H = [eval_H(p, b, x_max, q_max) for b in (beta, left, right)]
    return _rows_hold(((0, 1, 1),), ((0, 0), (0, 0), (xe, qe)), 0, H)[0]


# -- JSON interface ------------------------------------------------------


def profile_from_json(data: dict, where: str = "malformed profile description: ") -> MultisumProfile:
    """The profile in data; where prefixes the names of its fields in errors."""
    alpha = jsonin.rows(jsonin.field(data, "alpha", where), where + "alpha")
    gamma = jsonin.integers(jsonin.field(data, "gamma", where), where + "gamma")
    A = jsonin.integers(jsonin.field(data, "A", where), where + "A")
    return MultisumProfile(alpha=alpha, gamma=gamma, A=A)


def profile_to_json(p: MultisumProfile) -> dict:
    return {"alpha": [list(r) for r in p.alpha], "gamma": list(p.gamma), "A": list(p.A)}


def load_profile(path: str) -> MultisumProfile:
    return profile_from_json(jsonin.load(path))
