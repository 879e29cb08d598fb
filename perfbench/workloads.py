"""The three workloads: the ops of one pass, their output checks, and the
input files generated from the seed before anything is timed.

Every op is one ``spanone.cli.main(argv)`` call.  A run repeats the pass;
``stop_every`` is the granularity at which it may stop (a whole pass where
the pass mixes very different ops, one op where the pass is a shuffled
sample of similar ones) and ``min_ops`` keeps enough whole blocks (below)
in every run.

``session`` is how many ops share one import of the package, which is all an
in-process cache could reuse: one op on ``certify`` (each job a separate CLI
process, so a cache gains nothing there), one pass on ``genfun``, and the
whole run on ``mutants`` (one batch of checks, as the acceptance suite runs
them, where a cache may reuse nearly every H).

``block`` is how many consecutive ops make one block for ``op_s.p50`` and
``op_s.tail``, the means of the blocks' median and ``tail_rank``-th largest
latencies: one pass where the pass mixes very different ops, so every block
holds the same mix and its slowest op is of the slowest kind, and about two
seconds of ops on ``mutants``.  There the tail is each block's p90: the very
highest latencies of its small, similar ops spread about twice as much from
run to run as the rest.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import gate
from make_reference import PREDICATES, fmt

NAMES = ("certify", "genfun", "mutants")


@dataclass(frozen=True)
class Op:
    kind: str
    argv: list[str]
    check: gate.Check


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    warmups: list[list[str]]
    stop_every: int
    min_ops: int
    session: int | None
    block: int
    tail_rank: int


def build(name: str, root: Path, work: Path, seed: int, ref: dict) -> Workload:
    """Write the workload's inputs under ``work`` (emptied first) and list its ops."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    fixtures = root / "src" / "spanone" / "fixtures"
    make = {"certify": _certify, "genfun": _genfun, "mutants": _mutants}[name]
    return make(fixtures, work, random.Random(seed), ref)


def _certify(fixtures: Path, work: Path, rng: random.Random, ref: dict) -> Workload:
    # kr runs twice per pass so the pass has ex1 < kr < ex3 in 2:4:2 proportion:
    # the median then sits inside the kr ops instead of on the gap between
    # the fast ex1 ops and the slow ex3 ops.
    order = ["ex1", "kr", "kr", "ex3"]
    rng.shuffle(order)
    ops = []
    for i, name in enumerate(order):
        system = ref["systems"][name]
        out = work / f"out-{i}-{name}"
        ops.append(Op(f"prove {name}", ["prove", str(fixtures / f"{name}_system.json"),
                                        "--qmax", "40", "--out", str(out)], gate.prove(system)))
        ops.append(Op(f"verify {name}", ["verify", str(out / "system.json"), "--qmax", "40"],
                      gate.verify_holds(len(system["betas"]))))
    warm = work / "warm"
    warmups = [["prove", str(fixtures / "ex1_system.json"), "--qmax", "12", "--out", str(warm)],
               ["verify", str(warm / "system.json"), "--qmax", "12"]]
    return Workload(ops, warmups, stop_every=len(ops), min_ops=8 * len(ops), session=1,
                    block=len(ops), tail_rank=1)


def _chain(parts: tuple[int, ...], S: int) -> list[str]:
    """Window-by-window links of a member, as ``ideal contains`` prints them."""
    if not parts:
        return []
    depth = (parts[0] - 1) // S
    return [fmt(tuple(a - k * S for a in parts if k * S < a <= (k + 1) * S))
            for k in range(depth + 1)]


def _contains_batch(rng: random.Random, pred, per_side: int, q_max: int) -> list[tuple[int, ...]]:
    """per_side distinct members and per_side distinct non-members of size <= q_max."""
    found: dict[bool, list[tuple[int, ...]]] = {True: [], False: []}
    while min(len(v) for v in found.values()) < per_side:
        part = rng.randint(1, 4)
        parts = [part]
        for _ in range(rng.randint(0, 7)):
            part += rng.choice((0, 1, 2, 3, 3, 4, 5))
            parts.append(part)
        cand = tuple(reversed(parts))
        side = found[pred(cand)]
        if sum(cand) <= q_max and cand not in side and len(side) < per_side:
            side.append(cand)
    return found[True] + found[False]


def _genfun(fixtures: Path, work: Path, rng: random.Random, ref: dict) -> Workload:
    ops = []
    for name in ("rr", "kr_i1"):
        r = ref["ideals"][name]
        f = str(fixtures / f"{name}.json")
        q = ["--qmax", str(r["q_max"])]
        ops += [
            Op(f"ideal members {name}", ["ideal", "members", f, *q], gate.ideal_members(r)),
            Op(f"ideal genfun {name}", ["ideal", "genfun", f, *q], gate.ideal_genfun(r)),
            Op(f"qdiff solve {name}", ["qdiff", "solve", f, *q],
               gate.components([gate.ref_terms(t) for t in r["F"]])),
            Op(f"qdiff check {name}", ["qdiff", "check", f, *q], gate.qdiff_check(True)),
        ]
        S = json.loads(Path(f).read_text())["S"]
        pred = PREDICATES[name]
        for parts in _contains_batch(rng, pred, 6, r["q_max"]):
            ops.append(Op(f"ideal contains {name}", ["ideal", "contains", f, fmt(parts)],
                          gate.contains(pred(parts), _chain(parts, S))))
    ops.append(Op("oracle gap", ["oracle", "gap", "--d", "2", "--k", "1", "--qmax", "30"],
                  gate.oracle(gate.ref_terms(ref["ideals"]["rr"]["total"], 30, 30))))
    ops.append(Op("oracle kr-i1", ["oracle", "kr-i1", "--qmax", "30"],
                  gate.oracle(gate.ref_terms(ref["ideals"]["kr_i1"]["total"], 30, 30))))
    for name, system in ref["systems"].items():
        f = work / f"{name}-qdiff.json"
        f.write_text(json.dumps({"A": system["U"], "weights": system["V"], "S": system["S"]}))
        H = [gate.ref_terms(system["H"][",".join(map(str, b))]) for b in system["betas"]]
        q = ["--qmax", str(system["H_q_max"])]
        ops.append(Op(f"qdiff solve {name}", ["qdiff", "solve", str(f), *q], gate.components(H)))
        ops.append(Op(f"qdiff check {name}", ["qdiff", "check", str(f), *q], gate.qdiff_check(False)))
    rng.shuffle(ops)
    warmups = [["ideal", "genfun", str(fixtures / "rr.json"), "--qmax", "12"],
               ["qdiff", "check", str(fixtures / "kr_i1.json"), "--qmax", "12"],
               ["ideal", "contains", str(fixtures / "rr.json"), "5+3+1"],
               ["oracle", "gap", "--d", "2", "--k", "1", "--qmax", "10"]]
    return Workload(ops, warmups, stop_every=len(ops), min_ops=10 * len(ops),
                    session=len(ops), block=len(ops), tail_rank=1)


def _mutants(fixtures: Path, work: Path, rng: random.Random, ref: dict) -> Workload:
    """Every single-entry mutant of U (flip one entry) and of V (move one
    exponent by one), as the acceptance suite builds them, plus the
    unmutated systems."""
    ops = []
    warmups = []
    for name in ("kr", "ex3"):
        system = ref["systems"][name]
        K = len(system["betas"])
        spec = {k: system[k] for k in ("profile", "S", "betas")}

        def add(label: str, U: list, V: list, check: gate.Check) -> str:
            f = work / f"{name}-{label}.json"
            f.write_text(json.dumps({**spec, "U": U, "V": V}))
            ops.append(Op(f"verify {name}", ["verify", str(f), "--qmax", "12"], check))
            return str(f)

        base = add("base", system["U"], system["V"], gate.verify_holds(K))
        warmups.append(["verify", base, "--qmax", "12"])
        for i in range(K):
            for j in range(K):
                U = [list(row) for row in system["U"]]
                U[i][j] ^= 1
                add(f"U{i}-{j}", U, system["V"], gate.verify_rejects(K, i))
        for j, (m, n) in enumerate(system["V"]):
            for dm, dn in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if m + dm >= 0 and n + dn >= 0:
                    V = [list(v) for v in system["V"]]
                    V[j] = [m + dm, n + dn]
                    add(f"V{j}-{dm}{dn}", system["U"], V, gate.verify_rejects(K, 0))
    rng.shuffle(ops)
    return Workload(ops, warmups, stop_every=1, min_ops=300, session=None, block=100,
                    tail_rank=10)
