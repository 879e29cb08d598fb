"""Binary certificate trees for factorizations F(x) = U V F(xq^S).

Given a profile and a shift S, each component of the unknown vector is an
H(beta).  Repeatedly applying the two-term contiguous relation

    H(beta) = H(beta + A_r e_r) + x^(gamma_r) q^(beta_r) H(beta + alpha_r)

unfolds H(root) into a binary tree: left edges carry weight 1, right edges
carry the monomial x^(gamma_r) q^(beta_r) of the node they leave.  A tree
certifies a row of the factorization when every leaf lies in the target set
{beta_j + S gamma}, because collecting leaves then expresses H(root) as a
0/1 combination of monomial multiples of the H(beta_j + S gamma), i.e. of
the components of F(xq^S).

Each beta value expands through the same coordinate at every occurrence,
so a certificate is a choice function on beta vectors and the tree is its
unfolding.  We pick one minimizing the expansions of the unfolded tree (ties
to the smallest coordinate) by dynamic programming over the betas collected
from the roots.  A beta is in reach when some target lies a run of at most
max_expansions left moves away: a tree's leftmost leaf is such a run, and
a tree within the budget has no subtree over it.  A root is expanded only
when it is in reach, a coordinate is offered at a beta only when both its
children are, and only the children of offered coordinates are expanded in
turn, so a beta out of reach is never expanded.  Both moves are
componentwise non-decreasing and a left move raises one coordinate, so
descending coordinate sum solves every child before its parent, except for
a right move along an all-zero alpha row: a self-loop, never counted.
derive_row collects the betas of all of a system's roots in one pass, so
each beta is expanded and solved once per system, whichever roots reach it.

verify_numeric checks a system row by row to a truncation order, each row
through multisum's memoized check of one H identity, so a batch of checks
in one process checks each distinct row once while the memo keeps it.
Checking the certificate trees is check_certs' work; assemble_system reads
its trees with the same leaf_combination and rec_children, so the trees it
derives need no second check.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from . import jsonin
from .multisum import (Beta, MultisumProfile, _check_beta, _children, _row_holds, eval_H, profile_from_json,
                       profile_to_json, rec_children, shift_beta)
from .series import _check_weighing


# the default expansion budget of a certificate search, on the command line too
MAX_EXPANSIONS = 64


class SearchExhausted(RuntimeError):
    """No factorization found: no certificate within the expansion budget,
    or certificates that do not assemble into U and V (not a refutation)."""


Leaf = namedtuple("Leaf", "beta")
# coord: the 1-based coordinate of the relation applied at this node
Expand = namedtuple("Expand", "beta coord left right")
Node = Leaf | Expand


def expansions(tree: Node) -> int:
    """Number of relation applications in the unfolded tree."""
    if isinstance(tree, Leaf):
        return 0
    return 1 + expansions(tree.left) + expansions(tree.right)


def derive_row(p: MultisumProfile, roots: list[Beta] | tuple[Beta, ...], targets: frozenset[Beta] | set[Beta],
               max_expansions: int = MAX_EXPANSIONS) -> dict[Beta, Node | None]:
    """Expansion-minimal certificate tree from each root into targets, as
    root -> tree, or None when no choice function yields a finite tree
    within max_expansions relation applications.

    One pass serves every root: a beta's tree depends only on its
    children's, so it is the same whichever root reached the beta.  The
    target set, the budget and the rank of every target and root are
    checked before anything is expanded: ValueError for an empty target
    set, a negative budget or a rank that is not the profile's.
    """
    targets = frozenset(targets)
    if not targets:
        raise ValueError("target set must be nonempty")
    if max_expansions < 0:
        raise ValueError(f"max_expansions must be >= 0, got {max_expansions}")
    # a target of another rank would be compared on a truncated prefix
    for t in targets:
        if len(t) != p.R:
            raise ValueError(f"target {t} has rank {len(t)}, profile has rank {p.R}")
    roots = dict.fromkeys(roots)
    # every beta below is built from a root by the relation, so it has the root's rank
    for root in roots:
        _check_beta(p, root)
    # beta -> (expansions, tree) for a solved beta, None for one with no tree
    best: dict[Beta, tuple[int, Node] | None] = {t: (0, Leaf(t)) for t in targets}
    # beta -> its options (r, left, right): the coordinates whose children
    # both have a target in reach, as only those can end in a tree; every
    # beta pushed is such a child, or a root
    children: dict[Beta, list[tuple[int, Beta, Beta]]] = {}

    def in_reach(beta: Beta) -> bool:
        # a beta in best or children was in reach when it got there
        return beta in best or beta in children or _reaches_target(p, beta, targets, max_expansions)

    stack = [root for root in roots if _reaches_target(p, root, targets, max_expansions)]
    while stack:
        beta = stack.pop()
        if beta in children or beta in best:
            continue
        options = children[beta] = []
        for i in range(p.R):
            left, right = _children(p, beta, i)
            if in_reach(left) and in_reach(right):
                options.append((i + 1, left, right))
                stack += left, right

    for beta in sorted(children, key=sum, reverse=True):
        # beta is not in best yet, so its self-loop (a right move along a
        # zero alpha row) never counts; ties go to the smallest coordinate
        options = [
            (1 + best[left][0] + best[right][0], r, left, right)
            for r, left, right in children[beta]
            if best.get(left) is not None and best.get(right) is not None
        ]
        if options:
            cost, r, left, right = min(options)
            best[beta] = (cost, Expand(beta, r, best[left][1], best[right][1]))
        else:
            best[beta] = None
    found = {root: best.get(root) for root in roots}
    return {root: f[1] if f is not None and f[0] <= max_expansions else None for root, f in found.items()}


def _reaches_target(p: MultisumProfile, beta: Beta, targets: frozenset[Beta], max_expansions: int) -> bool:
    """Does a run of at most max_expansions left moves take beta to a target?"""
    for t in targets:
        moves = 0
        for b, c, a in zip(beta, t, p.A):
            if b > c or (c - b) % a:
                break
            moves += (c - b) // a
        else:
            if moves <= max_expansions:
                return True
    return False


def leaf_combination(p: MultisumProfile, tree: Node) -> list[tuple[Beta, tuple[int, int]]]:
    """Leaves with their accumulated edge-weight monomials, as (beta, (xe, qe)).

    Sorted by target beta then exponents; duplicates are meaningful (one
    entry per leaf occurrence in the unfolded tree).  The first node, in
    preorder, whose children are not those of its coordinate's relation
    raises a ValueError naming it.
    """
    out: list[tuple[Beta, tuple[int, int]]] = []

    def walk(node: Node, xe: int, qe: int) -> None:
        if isinstance(node, Leaf):
            out.append((node.beta, (xe, qe)))
            return
        left, (wx, wq), right = rec_children(p, node.beta, node.coord)
        if node.left.beta != left or node.right.beta != right:
            raise ValueError(f"children of {node.beta} do not match coordinate {node.coord}")
        walk(node.left, xe, qe)
        walk(node.right, xe + wx, qe + wq)

    walk(tree, 0, 0)
    return sorted(out)


class FactorizationSystem(namedtuple("FactorizationSystem", "profile S betas U V certs")):
    """A proved factorization F(x) = U V F(xq^S) for F_k = H(betas[k]), with
    certs mapping each root beta to its certificate tree."""

    __slots__ = ()

    @property
    def K(self) -> int:
        return len(self.betas)


def assemble_system(
    p: MultisumProfile,
    S: int,
    betas: list[Beta] | tuple[Beta, ...],
    max_expansions: int = MAX_EXPANSIONS,
) -> FactorizationSystem:
    """Derive certificates for every distinct root and pin down U and V.

    SearchExhausted means the search found no factorization: no tree
    within the budget, or trees that do not assemble into U and V (neither
    is a refutation).  One derive_row call searches from every root; the
    first root, in the order of betas, that has no tree within
    max_expansions raises it.  Each root's tree is read once into its
    leaves, counted by (shifted beta, weight).  Row 1 fixes V: each group
    of columns sharing one shifted beta takes row 1's leaf weights on that
    target in sorted order.  Row k sets, for a leaf it holds c times, the
    first c columns with that (shifted beta_j, V_j); too few such columns
    raises it, naming the row.

    No check is needed after that: row 1 selects every column, since V is
    its own leaves, and every row selects column 1, since a right edge adds
    x-degree gamma_r >= 1, so a tree's all-left leaf is its only leaf of
    weight 1 and column 1 is the only column of weight 1.
    """
    betas = tuple(tuple(b) for b in betas)
    if not betas:
        raise ValueError("need at least one component")
    shifted = [shift_beta(p, b, S) for b in betas]
    rank = {t: i for i, t in enumerate(dict.fromkeys(shifted))}  # targets in column order
    certs = derive_row(p, betas, frozenset(rank), max_expansions)
    for root, tree in certs.items():
        if tree is None:
            raise SearchExhausted(f"no certificate for {root} within {max_expansions} expansions")
    leaves = {  # ((target, weight), count) by target in column order, then weight
        root: sorted(Counter(leaf_combination(p, tree)).items(), key=lambda leaf: rank[leaf[0][0]])
        for root, tree in certs.items()
    }

    weights = {t: [w for (b, w), c in leaves[betas[0]] if b == t for _ in range(c)] for t in rank}
    for t, ws in weights.items():
        if len(ws) != shifted.count(t):
            raise SearchExhausted(
                f"row 1 produces {len(ws)} leaves for target {t}, "
                f"but {shifted.count(t)} components shift onto it"
            )
    V = [weights[t].pop(0) for t in shifted]
    if V[0] != (0, 0):
        raise SearchExhausted(f"leading diagonal entry must be 1, got exponents {V[0]}")

    columns: dict[tuple[Beta, tuple[int, int]], list[int]] = {}
    for j, key in enumerate(zip(shifted, V)):
        columns.setdefault(key, []).append(j)
    U = []
    for k, root in enumerate(betas):
        row = [0] * len(betas)
        for (t, w), c in leaves[root]:
            js = columns.get((t, w), [])
            if len(js) < c:
                raise SearchExhausted(
                    f"row {k + 1}: no unmatched column with weight "
                    f"x^{w[0]} q^{w[1]} left for target {t}"
                )
            for j in js[:c]:
                row[j] = 1
        U.append(tuple(row))
    return FactorizationSystem(profile=p, S=S, betas=betas, U=tuple(U), V=tuple(V), certs=certs)


def verify_numeric(fs: FactorizationSystem, x_max: int, q_max: int) -> list[bool]:
    """Row-by-row truncated check of H(beta_k) = sum_j U_kj V_j H(beta_j + S gamma).

    Each distinct H is evaluated first and S and V are checked as series'
    row check checks them, so a refused system raises what the check of the
    whole system at once would raise first.  Row k is the identity
    H(beta_k) = sum of U_kj V_j H(beta_j)(x q^S) over the columns it
    selects, so each distinct (beta_k, U row) is checked once per call by
    multisum._row_holds, whose memo keeps the result for later calls; see
    multisum's module docstring.  The certificate trees are not read.
    """
    p, S, V = fs.profile, fs.S, fs.V
    for b in dict.fromkeys(fs.betas):
        try:
            eval_H(p, b, x_max, q_max)
        except ValueError as exc:
            raise ValueError(f"evaluating betas row {fs.betas.index(b) + 1}: {exc}") from None
    _check_weighing(V, S)
    keys = list(zip(fs.betas, map(tuple, fs.U)))
    checked = {
        (b, row): _row_holds(p, S, b, tuple((fs.betas[j], e, V[j]) for j, e in enumerate(row) if e),
                             x_max, q_max)
        for b, row in dict.fromkeys(keys)
    }
    return [checked[key] for key in keys]


def check_certs(fs: FactorizationSystem) -> tuple[dict[Beta, str], set[int]]:
    """Exact check of the certificate trees in fs.certs: root -> why its
    tree fails, and the 0-based rows k that fail.

    A tree that does not start at its root, breaks the relation at a node
    (leaf_combination names the first) or has a leaf outside the shifted
    betas fails every row k with betas[k] == root.  Any other tree fails
    only the rows whose {(beta_j + S gamma, V_j) : U_kj = 1} are not its
    leaves; each distinct (root, U row) is compared once and the root's
    first failing row is named.  A passing tree proves its rows as
    identities of formal series, with no truncation.
    """
    if not fs.certs:
        return {}, set()
    p = fs.profile
    shifted = [shift_beta(p, b, fs.S) for b in fs.betas]
    failures: dict[Beta, str] = {}
    leaves = {}  # root -> its tree's leaves, for each tree that failures does not name
    for root, tree in fs.certs.items():
        if tree.beta != root:
            failures[root] = f"tree starts at {tree.beta}"
            continue
        try:
            found = leaf_combination(p, tree)
        except ValueError as exc:
            failures[root] = str(exc)
            continue
        stray = next((b for b, _ in found if b not in shifted), None)
        if stray is None:
            leaves[root] = found
        else:
            failures[root] = f"leaf {stray} is not a target"
    failed = {k for k, b in enumerate(fs.betas) if b in failures}
    matches: dict[tuple[Beta, tuple[int, ...]], bool] = {}  # (root, U row) -> are its entries the leaves
    for k, (root, row) in enumerate(zip(fs.betas, map(tuple, fs.U))):
        if root not in leaves:
            continue
        if (root, row) not in matches:
            matches[root, row] = leaves[root] == sorted((shifted[j], fs.V[j]) for j, u in enumerate(row) if u)
        if not matches[root, row]:
            failed.add(k)
            failures.setdefault(root, f"its leaves are not row {k + 1} of U and V")
    return failures, failed


def equivalent_systems(
    betas: tuple[Beta, ...],
    U1, V1, U2, V2,
) -> bool:
    """Equality of two factorizations up to permuting columns within groups
    of equal beta.  Columns are compared as (diagonal monomial, U column)
    pairs, so duplicate monomials inside a group are handled correctly."""
    K = len(betas)

    def column_multisets(U, V):
        groups: dict[Beta, list] = {}
        for j in range(K):
            col = tuple(U[k][j] for k in range(K))
            groups.setdefault(betas[j], []).append((tuple(V[j]), col))
        return {b: sorted(cols) for b, cols in groups.items()}

    return column_multisets(U1, V1) == column_multisets(U2, V2)


# -- serialization -------------------------------------------------------


def tree_to_json(tree: Node) -> dict:
    if isinstance(tree, Leaf):
        return {"beta": list(tree.beta)}
    return {
        "beta": list(tree.beta),
        "coord": tree.coord,
        "left": tree_to_json(tree.left),
        "right": tree_to_json(tree.right),
    }


def tree_from_json(data: dict, R: int, where: str = "malformed certificate tree: ") -> Node:
    """Inverse of tree_to_json for a profile of rank R; where prefixes
    every error about the tree."""
    beta = jsonin.integers(jsonin.field(data, "beta", where), where + "beta", R)
    if "coord" not in data:
        return Leaf(beta)
    coord = jsonin.integer(data["coord"], where + "coord")
    left = tree_from_json(jsonin.field(data, "left", where), R, where)
    return Expand(beta, coord, left, tree_from_json(jsonin.field(data, "right", where), R, where))


def cert_to_json(p: MultisumProfile, S: int, tree: Node) -> dict:
    return {
        "profile": profile_to_json(p),
        "S": S,
        "root": list(tree.beta),
        "tree": tree_to_json(tree),
    }


def cert_from_json(data: dict) -> tuple[MultisumProfile, int, Node]:
    where = "malformed certificate document: "
    p = profile_from_json(jsonin.field(data, "profile", where), where + "profile.")
    S = jsonin.integer(jsonin.field(data, "S", where), where + "S", 0)
    root = jsonin.integers(jsonin.field(data, "root", where), where + "root", p.R)
    tree = tree_from_json(jsonin.field(data, "tree", where), p.R, where + "tree: ")
    if root != tree.beta:
        raise ValueError(f"{where}root {list(root)} is not the tree's root {list(tree.beta)}")
    try:
        leaf_combination(p, tree)
    except ValueError as exc:
        raise ValueError(f"{where}tree does not fit the profile: {exc}") from None
    return p, S, tree


def load_cert(path: str) -> tuple[MultisumProfile, int, Node]:
    return cert_from_json(jsonin.load(path))


def _beta_label(beta: Beta) -> str:
    return "H(" + ",".join(map(str, beta)) + ")"


def _weight_label(xe: int, qe: int) -> str:
    if xe == 0 and qe == 0:
        return "1"
    xs = "" if xe == 0 else ("x" if xe == 1 else f"x^{xe}")
    qs = "" if qe == 0 else ("q" if qe == 1 else f"q^{qe}")
    return " ".join(s for s in (xs, qs) if s)


def tree_to_dot(p: MultisumProfile, tree: Node) -> str:
    """GraphViz rendering; node ids follow preorder, so output is stable."""
    lines = ["digraph certificate {", "  node [shape=box];"]
    counter = [0]

    def walk(node: Node) -> int:
        nid = counter[0]
        counter[0] += 1
        lines.append(f'  n{nid} [label="{_beta_label(node.beta)}"];')
        if isinstance(node, Expand):
            _, (wx, wq), _ = rec_children(p, node.beta, node.coord)
            lid = walk(node.left)
            lines.append(f'  n{nid} -> n{lid} [label="1"];')
            rid = walk(node.right)
            lines.append(f'  n{nid} -> n{rid} [label="{_weight_label(wx, wq)}"];')
        return nid

    walk(tree)
    lines.append("}")
    return "\n".join(lines) + "\n"


def system_result_to_json(fs: FactorizationSystem) -> dict:
    return {
        "profile": profile_to_json(fs.profile),
        "S": fs.S,
        "betas": [list(b) for b in fs.betas],
        "U": [list(r) for r in fs.U],
        "V": [list(v) for v in fs.V],
        "certs": [
            {"root": list(root), "tree": tree_to_json(tree)}
            for root, tree in sorted(fs.certs.items())
        ],
    }


def system_spec_from_json(data: dict) -> tuple[MultisumProfile, int, list[Beta]]:
    """The profile, S and betas keys shared by system specs and proved systems."""
    where = "malformed system description: "
    p = profile_from_json(jsonin.field(data, "profile", where), where + "profile.")
    S = jsonin.integer(jsonin.field(data, "S", where), where + "S", 0)
    betas = list(jsonin.rows(jsonin.field(data, "betas", where), where + "betas", p.R))
    if not betas:
        raise ValueError(where + "betas is empty")
    return p, S, betas


def load_system_spec(path: str) -> tuple[MultisumProfile, int, list[Beta]]:
    return system_spec_from_json(jsonin.load(path))


def _certs_from_json(data: dict, betas: list, R: int) -> dict:
    """data["certs"] as {root: tree}, each root one of betas, of rank R."""
    entries = data.get("certs", [])
    if not isinstance(entries, list):
        raise ValueError("certs must be a list of {root, tree} objects")
    certs = {}
    for i, entry in enumerate(entries, 1):
        for key in ("root", "tree"):
            if type(entry) is not dict or key not in entry:
                raise ValueError(f"certs entry {i} has no {key}")
        root = jsonin.integers(entry["root"], f"certs entry {i} root")
        if root not in betas:
            raise ValueError(f"certs entry {i} has root {list(root)}, not one of betas")
        if root in certs:
            raise ValueError(f"certs entry {i} repeats root {list(root)}")
        certs[root] = tree_from_json(entry["tree"], R, f"certs entry {i} tree: ")
    return certs


def factorization_from_json(data: dict) -> FactorizationSystem:
    """A proved system (U, V and optional certs beside the spec), or a bare
    spec, which is assembled here and returned without its trees: they were
    read into U and V by the relation code check_certs runs.  A document
    holding any of U, V or certs is a proved system, so it needs both U and V."""
    p, S, betas = system_spec_from_json(data)
    if not {"U", "V", "certs"} & data.keys():
        return assemble_system(p, S, betas)._replace(certs={})
    K = len(betas)
    U, V = (jsonin.field(data, key, "a proved system needs both U and V, but ") for key in "UV")
    for key, rows in (("U", U), ("V", V)):
        if type(rows) is not list or len(rows) != K:
            raise ValueError(f"{key} must be a list of K={K} rows, one per row of betas")
    U, V = jsonin.rows(U, "U", K, 0, 1), jsonin.rows(V, "V", 2, 0)
    certs = _certs_from_json(data, betas, p.R)
    return FactorizationSystem(profile=p, S=S, betas=tuple(betas), U=U, V=V, certs=certs)


def load_factorization(path: str) -> FactorizationSystem:
    return factorization_from_json(jsonin.load(path))
