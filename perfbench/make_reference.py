"""Regenerate perfbench/reference.json, the expected outputs the gate checks.

Run from the repository root:  python3 perfbench/make_reference.py

Each reference comes from a different route than the op it checks:

* ideal series (``rr``, ``kr_i1`` at q^60) come from a pruned enumeration
  of the partitions that satisfy the ideal's defining difference
  conditions, implemented here without the library.  They check
  ``ideal genfun`` (matrix products), ``ideal members`` (chain expansion),
  ``qdiff solve`` (q-difference recurrence) and ``oracle`` (exhaustive scan).
* factorizations are the reference matrices frozen in the acceptance
  tests; they check ``prove``.
* H(beta) for every component of the three systems at q^40 comes from the
  library's multi-sum evaluation; it checks ``qdiff solve`` run on a
  factorization read as a q-difference system.

The generated file is cross-checked against the library's own routes before
it is written, so a disagreement stops generation instead of freezing it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

IDEAL_Q = 60
FACTOR_Q = 40


def gap_ok(parts: tuple[int, ...]) -> bool:
    """Rogers-Ramanujan condition: consecutive parts differ by at least 2."""
    return all(parts[i] - parts[i + 1] >= 2 for i in range(len(parts) - 1))


def kr_ok(parts: tuple[int, ...]) -> bool:
    """Difference >= 3 at distance 2; parts at difference <= 1 sum to 0 mod 3."""
    if any(parts[i] - parts[i + 2] < 3 for i in range(len(parts) - 2)):
        return False
    return all(
        parts[i] - parts[i + 1] > 1 or (parts[i] + parts[i + 1]) % 3 == 0
        for i in range(len(parts) - 1)
    )


PREDICATES = {"rr": gap_ok, "kr_i1": kr_ok}


def members(pred, q_max: int) -> list[tuple[int, ...]]:
    """Partitions of size <= q_max satisfying pred, largest part first.

    Both predicates only constrain nearby parts, so a prefix that fails can
    never be completed and the search prunes there.
    """
    out: list[tuple[int, ...]] = [()]

    def grow(parts: tuple[int, ...], room: int) -> None:
        cap = min(parts[-1], room) if parts else room
        for nxt in range(1, cap + 1):
            cand = parts + (nxt,)
            if pred(cand):
                out.append(cand)
                grow(cand, room - nxt)

    grow((), q_max)
    out.sort(key=lambda p: (sum(p), p))
    return out


def fmt(parts: tuple[int, ...]) -> str:
    return "+".join(map(str, parts)) if parts else "empty"


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"reference disagrees with the library: {what}")


def series_terms(coeffs: Counter) -> list[list[int]]:
    return [[m, n, c] for (m, n), c in sorted(coeffs.items(), key=lambda t: (t[0][1], t[0][0])) if c]


def ideal_reference(name: str, spec: dict) -> dict:
    S = spec["S"]
    index = {p: j for j, p in enumerate(spec["pi"])}
    found = members(PREDICATES[name], IDEAL_Q)
    G = [Counter() for _ in spec["pi"]]
    for parts in found:
        first = tuple(a for a in parts if a <= S)
        G[index[fmt(first)]][(len(parts), sum(parts))] += 1
    F = []
    for linked in spec["linking"]:
        acc = Counter()
        for j in linked:
            acc.update(G[j - 1])
        F.append(series_terms(acc))
    total = Counter()
    for g in G:
        total.update(g)
    listing = "\n".join(fmt(p) for p in found)
    return {
        "q_max": IDEAL_Q,
        "total": series_terms(total),
        "G": [series_terms(g) for g in G],
        "F": F,
        "count": len(found),
        "members_sha256": hashlib.sha256(listing.encode()).hexdigest(),
    }


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import spanone
    import test_acceptance as known
    from spanone import ideals, multisum, partitions, prover, qdiff

    fixtures = Path(spanone.fixture_path("rr.json")).parent
    ref: dict = {"ideals": {}, "systems": {}}
    for name in ("rr", "kr_i1"):
        spec = json.loads((fixtures / f"{name}.json").read_text())
        r = ideal_reference(name, spec)
        ideal = ideals.load_ideal(fixtures / f"{name}.json")
        by_chain, listed = ideals.enumerate_members(ideal, IDEAL_Q)
        expect(by_chain.terms() == [((m, n), c) for m, n, c in r["total"]], name)
        expect(len(listed) == r["count"], name)
        G = ideals.ideal_genfun_vec(ideal, IDEAL_Q, IDEAL_Q)
        expect([[[m, n, c] for (m, n), c in g.terms()] for g in G] == r["G"], name)
        pred = partitions.kr_i1_predicate if name == "kr_i1" else (
            lambda p: partitions.satisfies_gap(p, 2, 1))
        oracle = partitions.oracle_genfun(pred, 20, 20)
        small = [[m, n, c] for m, n, c in r["total"] if m <= 20 and n <= 20]
        expect([[m, n, c] for (m, n), c in oracle.terms()] == small, name)
        ref["ideals"][name] = r

    frozen = {
        "ex1": (known.KNOWN_EX1_U, known.KNOWN_EX1_V),
        "kr": (known.KNOWN_KR_U, known.KNOWN_KR_V),
        "ex3": (known.KNOWN_EX3_U, known.KNOWN_EX3_V),
    }
    for name, (U, V) in frozen.items():
        p, S, betas = prover.load_system_spec(fixtures / f"{name}_system.json")
        fs = prover.assemble_system(p, S, betas)
        expect(prover.equivalent_systems(fs.betas, fs.U, fs.V, U, V), name)
        H = {}
        for beta in dict.fromkeys(fs.betas):
            h = multisum.eval_H(p, beta, FACTOR_Q, FACTOR_Q)
            H[",".join(map(str, beta))] = [[m, n, c] for (m, n), c in h.terms()]
        F = qdiff.solve(qdiff.QDiffSystem(A=fs.U, weights=fs.V, S=S), FACTOR_Q, FACTOR_Q)
        for beta, f in zip(fs.betas, F):
            expect([[m, n, c] for (m, n), c in f.terms()] == H[",".join(map(str, beta))], name)
        ref["systems"][name] = {
            "profile": multisum.profile_to_json(p),
            "S": S,
            "betas": [list(b) for b in fs.betas],
            "U": [list(r) for r in fs.U],
            "V": [list(v) for v in fs.V],
            "H_q_max": FACTOR_Q,
            "H": H,
        }

    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {out} ({out.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
