"""Output gate: each check takes an op's exit code and stdout and returns None
when the output matches the stored reference, or a one-line reason when not.

The checks read only the CLI's documented output (exit code plus the JSON
object on the last line), so they keep working when the library changes
inside.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from typing import Callable, Optional

Check = Callable[[object, str], Optional[str]]


def payload(out: str) -> dict:
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def terms(series: dict) -> dict:
    """{(m, n): c} from a CLI series payload."""
    return {(m, n): c for m, n, c in series["terms"]}


def ref_terms(triples: list, x_max: int | None = None, q_max: int | None = None) -> dict:
    return {
        (m, n): c
        for m, n, c in triples
        if (x_max is None or m <= x_max) and (q_max is None or n <= q_max)
    }


def _guard(body: Callable[[dict], Optional[str]], code_ok: int) -> Check:
    def check(code, out: str) -> Optional[str]:
        if code != code_ok:
            return f"exit code {code!r}, expected {code_ok}"
        try:
            return body(payload(out))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    return check


def same_system(betas: list, U1: list, V1: list, U2: list, V2: list) -> bool:
    """Equality up to permuting columns inside a group of equal beta."""
    K = len(betas)

    def columns(U, V):
        groups = defaultdict(list)
        for j in range(K):
            groups[tuple(betas[j])].append((tuple(V[j]), tuple(U[k][j] for k in range(K))))
        return {b: sorted(cols) for b, cols in groups.items()}

    if len(U1) != K or len(V1) != K or any(len(row) != K for row in U1):
        return False
    return columns(U1, V1) == columns(U2, V2)


def prove(system: dict) -> Check:
    K = len(system["betas"])

    def body(p):
        if p["rows_verified"] != [True] * K:
            return f"rows_verified {p['rows_verified']}"
        got = p["result"]
        if not same_system(system["betas"], got["U"], got["V"], system["U"], system["V"]):
            return "U/V differ from the reference factorization"
        return None

    return _guard(body, 0)


def verify_holds(K: int) -> Check:
    def body(p):
        if p["rows"] != [True] * K or p["ok"] is not True:
            return f"rows {p['rows']} ok {p['ok']}"
        return None

    return _guard(body, 0)


def verify_rejects(K: int, row: int) -> Check:
    """A mutant must fail, with the mutated row (0-based) among the false rows."""

    def body(p):
        if len(p["rows"]) != K or p["rows"][row] is not False or p["ok"] is not False:
            return f"mutant accepted or wrong row: rows {p['rows']} ok {p['ok']}"
        return None

    return _guard(body, 1)


def ideal_genfun(ref: dict) -> Check:
    def body(p):
        if terms(p["total"]) != ref_terms(ref["total"]):
            return "total differs from the enumerated reference"
        if [terms(s) for s in p["components"]] != [ref_terms(g) for g in ref["G"]]:
            return "components differ from the per-first-link reference"
        return None

    return _guard(body, 0)


def ideal_members(ref: dict) -> Check:
    def body(p):
        if p["count"] != ref["count"]:
            return f"count {p['count']}, reference {ref['count']}"
        if terms(p["genfun"]) != ref_terms(ref["total"]):
            return "genfun differs from the reference"
        digest = hashlib.sha256("\n".join(p["members"]).encode()).hexdigest()
        if digest != ref["members_sha256"]:
            return "member list differs from the reference"
        return None

    return _guard(body, 0)


def components(expected: list[dict]) -> Check:
    """qdiff solve: component k must equal the k-th reference series."""

    def body(p):
        got = [terms(s) for s in p["components"]]
        if got != expected:
            bad = [k + 1 for k, (g, e) in enumerate(zip(got, expected)) if g != e]
            return f"components {bad or 'count'} differ from the reference"
        return None

    return _guard(body, 0)


def qdiff_check(with_routes: bool) -> Check:
    def body(p):
        if p["solve_satisfies_system"] is not True or p["ok"] is not True:
            return f"check failed: {p}"
        if with_routes and p.get("routes_agree") is not True:
            return "solve and walk-product routes disagree"
        return None

    return _guard(body, 0)


def contains(member: bool, chain: list[str]) -> Check:
    def body(p):
        if p["member"] is not member:
            return f"member {p['member']}, expected {member}"
        if member and p["chain"] != chain:
            return f"chain {p['chain']}, expected {chain}"
        return None

    return _guard(body, 0 if member else 1)


def oracle(expected: dict) -> Check:
    def body(p):
        if terms(p["series"]) != expected:
            return "oracle series differs from the reference"
        return None

    return _guard(body, 0)
