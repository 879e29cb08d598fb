"""Self-tests of the benchmark: the gate accepts the program's real outputs
and rejects them against a deliberately wrong reference.

    python3 -m pytest -q perfbench/test_gate.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import workloads  # noqa: E402
from run import call, fresh_cli, with_units  # noqa: E402
from spans import Tracer  # noqa: E402

REF = json.loads((HERE / "reference.json").read_text())
FIXTURES = ROOT / "src" / "spanone" / "fixtures"


@pytest.fixture(scope="module")
def cli_main():
    return fresh_cli().main


def run(cli_main, argv):
    code, out, _, _ = call(cli_main, argv)
    return code, out


def bump_first(triples: list) -> list:
    wrong = copy.deepcopy(triples)
    wrong[0][2] += 1
    return wrong


def test_ideal_genfun_and_members(cli_main):
    ref = REF["ideals"]["rr"]
    f = str(FIXTURES / "rr.json")
    out = run(cli_main, ["ideal", "genfun", f, "--qmax", "60"])
    assert gate.ideal_genfun(ref)(*out) is None
    assert gate.ideal_genfun({**ref, "total": bump_first(ref["total"])})(*out) is not None
    out = run(cli_main, ["ideal", "members", f, "--qmax", "60"])
    assert gate.ideal_members(ref)(*out) is None
    assert gate.ideal_members({**ref, "members_sha256": "0" * 64})(*out) is not None
    out = run(cli_main, ["oracle", "gap", "--d", "2", "--k", "1", "--qmax", "30"])
    assert gate.oracle(gate.ref_terms(ref["total"], 30, 30))(*out) is None
    assert gate.oracle(gate.ref_terms(bump_first(ref["total"]), 30, 30))(*out) is not None


def test_qdiff_solve_on_a_factorization(cli_main, tmp_path):
    system = REF["systems"]["kr"]
    f = tmp_path / "kr-qdiff.json"
    f.write_text(json.dumps({"A": system["U"], "weights": system["V"], "S": system["S"]}))
    out = run(cli_main, ["qdiff", "solve", str(f), "--qmax", "40"])
    H = [system["H"][",".join(map(str, b))] for b in system["betas"]]
    assert gate.components([gate.ref_terms(h) for h in H])(*out) is None
    H[-1] = bump_first(H[-1])
    assert gate.components([gate.ref_terms(h) for h in H])(*out) is not None


def test_prove_against_reference_matrices(cli_main, tmp_path):
    system = REF["systems"]["kr"]
    out = run(cli_main, ["prove", str(FIXTURES / "kr_system.json"), "--qmax", "12",
                         "--out", str(tmp_path)])
    assert gate.prove(system)(*out) is None
    wrong = copy.deepcopy(system)
    wrong["U"][6][1] ^= 1
    assert gate.prove(wrong)(*out) is not None


def test_a_verifier_accepting_a_mutant_fails_the_gate(cli_main, tmp_path):
    system = REF["systems"]["kr"]
    spec = copy.deepcopy({k: system[k] for k in ("profile", "S", "betas", "U", "V")})
    f = tmp_path / "base.json"
    f.write_text(json.dumps(spec))
    out = run(cli_main, ["verify", str(f), "--qmax", "12"])
    assert gate.verify_holds(7)(*out) is None
    assert gate.verify_rejects(7, 3)(*out) is not None
    spec["U"][3][0] ^= 1
    f.write_text(json.dumps(spec))
    out = run(cli_main, ["verify", str(f), "--qmax", "12"])
    assert gate.verify_rejects(7, 3)(*out) is None
    assert gate.verify_holds(7)(*out) is not None


def test_contains_expectation_comes_from_the_predicate(cli_main):
    f = str(FIXTURES / "kr_i1.json")
    out = run(cli_main, ["ideal", "contains", f, "9+6+3"])
    assert gate.contains(True, ["3", "3", "3"])(*out) is None
    assert gate.contains(True, ["3"])(*out) is not None
    assert gate.contains(False, [])(*out) is not None


def kr_spec_file(tmp_path: Path) -> Path:
    system = REF["systems"]["kr"]
    f = tmp_path / "kr.json"
    f.write_text(json.dumps({k: system[k] for k in ("profile", "S", "betas", "U", "V")}))
    return f


def test_traced_run_reports_every_declared_layer_metric(cli_main, tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        out = run(cli_main, ["verify", str(kr_spec_file(tmp_path)), "--qmax", "12"])
    finally:
        tracer.uninstall()
    assert gate.verify_holds(7)(*out) is None
    metrics = with_units(tracer.metrics(1, len(out[1]), 1.0, 1.0), "per_layer")
    assert metrics["multisum.eval_H.calls"]["value"] > 0
    assert metrics["prover.verify_numeric.rows"]["value"] == 7


def test_a_hook_that_no_longer_fits_fails_the_op(cli_main, tmp_path, monkeypatch):
    multisum, prover = sys.modules["spanone.multisum"], sys.modules["spanone.prover"]
    original = multisum.eval_H

    def eval_H(profile, beta, x_max=None, q_max=30):  # first parameter renamed from p
        return original(profile, beta, x_max, q_max)

    eval_H.__module__ = multisum.__name__
    monkeypatch.setattr(multisum, "eval_H", eval_H)
    monkeypatch.setattr(prover, "eval_H", eval_H)
    tracer = Tracer()
    tracer.install()
    try:
        out = run(cli_main, ["verify", str(kr_spec_file(tmp_path)), "--qmax", "12"])
    finally:
        tracer.uninstall()
    assert out[0] != 0
    assert gate.verify_holds(7)(*out) is not None


def test_a_traced_function_that_is_gone_fails_install(cli_main, monkeypatch):
    monkeypatch.delattr(sys.modules["spanone.partitions"], "oracle_genfun")
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="partitions.oracle_genfun"):
        tracer.install()
    tracer.uninstall()


def test_workload_inputs_follow_the_seed(tmp_path):
    for name in workloads.NAMES:
        a = workloads.build(name, ROOT, tmp_path / "a", 7, REF)
        b = workloads.build(name, ROOT, tmp_path / "b", 7, REF)
        c = workloads.build(name, ROOT, tmp_path / "c", 8, REF)
        kinds = [op.kind for op in a.ops]
        assert kinds == [op.kind for op in b.ops]
        assert sorted(kinds) == sorted(op.kind for op in c.ops)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
