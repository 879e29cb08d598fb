"""End-to-end command line behavior, exit codes, and output determinism."""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

import spanone
from spanone import cli, ideals, multisum, partitions, prover, qdiff
from spanone.cli import _series_payload, build_parser, main
from spanone.multisum import eval_H
from spanone.partitions import kr_i1_predicate, oracle_genfun
from spanone.series import Series


def fx(name: str) -> str:
    return str(spanone.fixture_path(name))


def test_oracle_gap_qmax_zero(run_cli):
    code, out, payload = run_cli(["oracle", "gap", "--d", "2", "--k", "1", "--qmax", "0"])
    assert code == 0
    assert "genfun = 1" in out
    assert payload["series"]["terms"] == [[0, 0, 1]]


def test_oracle_kr_matches_library(run_cli):
    code, out, payload = run_cli(["oracle", "kr-i1", "--qmax", "8"])
    assert code == 0
    expect = oracle_genfun(kr_i1_predicate, 8, 8)
    assert payload["series"]["text"] == str(expect)


def test_oracle_gap_requires_parameters(run_cli):
    code, out, _ = run_cli(["oracle", "gap", "--qmax", "4"])
    assert code == 2


@pytest.mark.parametrize("k", ["-1", "0"])
def test_oracle_gap_rejects_distance_below_one(k, capsys):
    code = main(["oracle", "gap", "--d", "2", "--k", k, "--qmax", "6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--k must be >= 1" in captured.err


@pytest.mark.parametrize("argv", [
    ["gap", "--d", "2", "--k", "1", "--qmax", "1000"],
    ["kr-i1", "--qmax", "1000", "--xmax", "5"],
    ["kr-i1", "--qmax", "100000000"],
], ids=" ".join)
def test_oracle_refuses_a_window_past_its_bound(argv, capsys):
    # a large window used to end in a RecursionError reported as nested input
    code = main(["oracle", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "holds more than 10,000,000 partitions; lower --qmax or --xmax" in captured.err
    assert "nested too deeply" not in captured.err


def test_parser_reuse_leaks_nothing_between_calls(run_cli, capsys):
    assert build_parser() is build_parser()
    code, _, _ = run_cli(["oracle", "gap", "--d", "2", "--k", "1", "--qmax", "4"])
    assert code == 0
    code = main(["oracle", "gap", "--qmax", "4"])
    assert code == 2
    assert "gap oracle needs --d and --k" in capsys.readouterr().err
    code, _, payload = run_cli(["ideal", "genfun", fx("rr.json"), "--qmax", "6", "--xmax", "3"])
    assert code == 0 and payload["total"]["x_max"] == 3
    code, out, payload = run_cli(["ideal", "genfun", fx("rr.json"), "--qmax", "6"])
    assert code == 0 and payload["total"]["x_max"] == 6
    assert "qmax=6 xmax=6" in out
    # back on the first path after another one, nothing of the other shows
    code, out, payload = run_cli(["oracle", "kr-i1", "--qmax", "4"])
    assert code == 0 and payload["series"]["x_max"] == 4
    expect = {"command": "oracle", "predicate": "kr-i1", "d": None, "k": None,
              "qmax": 25, "xmax": None, "func": cli.cmd_oracle}
    assert vars(build_parser().parse_args(["oracle", "kr-i1"])) == expect
    assert vars(cli._read_argv(["oracle", "kr-i1"])) == expect


def _leaf_paths(table=cli.COMMANDS, prefix=()):
    for name, (_, spec, *_) in table.items():
        if isinstance(spec, dict):
            yield from _leaf_paths(spec, prefix + (name,))
        else:
            yield prefix + (name,)


# one argv per command path, with every required argument
SAMPLE_ARGVS = {
    ("oracle",): ["oracle", "gap", "--d", "2", "--k", "1", "--xmax", "3"],
    ("ideal", "genfun"): ["ideal", "genfun", "f.json", "--qmax", "6"],
    ("ideal", "members"): ["ideal", "members", "f.json"],
    ("ideal", "contains"): ["ideal", "contains", "f.json", "6+4+1"],
    ("qdiff", "solve"): ["qdiff", "solve", "f.json", "--xmax", "2"],
    ("qdiff", "check"): ["qdiff", "check", "f.json"],
    ("multisum", "eval"): ["multisum", "eval", "f.json", "--beta", "1,3"],
    ("multisum", "rec"): ["multisum", "rec", "f.json", "--beta", "1,3", "--coord", "2"],
    ("multisum", "shift"): ["multisum", "shift", "f.json", "--beta", "1,3", "--shift", "4"],
    ("multisum", "check"): ["multisum", "check", "f.json", "--beta", "1,3"],
    ("prove",): ["prove", "f.json", "--max-expansions", "9", "--out", "d"],
    ("verify",): ["verify", "f.json", "--qmax", "12"],
    ("export",): ["export", "f.json", "--format", "dot"],
}

# argvs that name no complete command path, and so get the full tree
UNROUTED = [[], ["-h"], ["bogus"], ["ideal", "bogus"], ["ideal"]]
USAGE_ERRORS = UNROUTED + [["prove", "--bogus", "x"], ["multisum", "eval", "f.json"]]


def _parse(parse, argv, capsys):
    """(namespace or exit code, stdout, stderr) of parse(argv)."""
    capsys.readouterr()
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def test_sample_argvs_cover_every_command_path():
    assert set(SAMPLE_ARGVS) == set(_leaf_paths())
    for path, argv in SAMPLE_ARGVS.items():
        assert cli._command(argv)[0] == path
    for argv in UNROUTED:
        assert cli._command(argv) is None


@pytest.mark.parametrize(
    "argv",
    [argv for path in SAMPLE_ARGVS for argv in ([*path, "--help"], [*path, "--bogus"])] + USAGE_ERRORS,
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_main_parses_as_the_full_tree(argv, capsys, monkeypatch):
    # help and usage errors are printed and raise SystemExit before any work is done
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse(build_parser().parse_args, argv, capsys)
    assert isinstance(full[0], int)
    assert _parse(main, argv, capsys) == full
    monkeypatch.setattr(sys, "argv", ["spanone", *argv])
    assert _parse(main, None, capsys) == full


TOP_USAGE = "usage: spanone [-h] {oracle,ideal,qdiff,multisum,prove,verify,export} ...\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        # the choice list after this is quoted differently from one python version to another
        (["bogus"], TOP_USAGE + "spanone: error: argument command: invalid choice: 'bogus'"),
        (["prove", "--bogus", "x"], TOP_USAGE + "spanone: error: unrecognized arguments: --bogus\n"),
        (["ideal"], "usage: spanone ideal [-h] {genfun,members,contains} ...\n"
         "spanone ideal: error: the following arguments are required: subcommand\n"),
    ],
    ids=["bogus", "prove --bogus x", "ideal"],
)
def test_usage_errors_name_every_command(argv, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, printed = _parse(main, argv, capsys)
    assert (code, out) == (2, "")
    assert printed.startswith(err)


@pytest.mark.parametrize("path", [(), *((name,) for name, (_, spec, *_) in cli.COMMANDS.items()
                                        if isinstance(spec, dict))], ids=lambda path: " ".join(path) or "top")
def test_help_at_the_top_and_at_each_group_exits_zero(path, capsys):
    # each command's own --help is run by test_each_path_builds_one_chain_with_the_full_tree_namespace
    with pytest.raises(SystemExit) as exc:
        main([*path, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: spanone", *path]) + " ")


@pytest.mark.parametrize("path", list(SAMPLE_ARGVS), ids=" ".join)
def test_each_path_builds_one_chain_with_the_full_tree_namespace(path, capsys, monkeypatch):
    # the reader builds no parser and returns the full tree's namespace; help
    # builds the full tree, once
    argv = SAMPLE_ARGVS[path]
    assert vars(cli._read_argv(argv)) == _parse(build_parser().parse_args, argv, capsys)[0]
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(path) or build_parser())
    assert _parse(main, [*path, "--help"], capsys)[0] == 0
    assert built == [path]


def test_sample_argvs_build_no_parser(capsys, monkeypatch, tmp_path):
    # f.json does not exist, so each command but the oracle stops at its first read
    monkeypatch.chdir(tmp_path)
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(True) or build_parser())
    codes = [main(argv) for argv in SAMPLE_ARGVS.values()]
    assert codes == [0] + [2] * (len(SAMPLE_ARGVS) - 1)
    assert "usage:" not in capsys.readouterr().err
    assert built == []


def _arguments(path):
    table = cli.COMMANDS
    for name in path[:-1]:
        table = table[name][1]
    return table[path[-1]][2]


# values for the drawn arguments: mostly ones argparse takes, and some it
# refuses or that start with - (-1,3 is a beta argparse reads as a value)
INTS = st.sampled_from([*map(str, range(-3, 13)), "x", "1.5", "", " 7", "1_0", "--"])
TEXTS = st.sampled_from(["f.json", "no/such.json", "1,3", "-1,3", "6+4+1", "", "a=b", "a b", "-", "--"])
EXTRAS = st.sampled_from(["f.json", "-h", "--help", "--", "--bogus", "-1", "--qmax", "--qmax=3", "--beta", "--out"])


@st.composite
def argvs(draw):
    """An argv down a drawn COMMANDS path: its arguments in any order, a
    flag as two tokens or with =, sometimes abbreviated, left out or
    repeated, a value sometimes refused, and extra tokens inserted."""
    path = draw(st.sampled_from(list(SAMPLE_ARGVS)))
    chunks = []
    for name, keywords in _arguments(path):
        if "choices" in keywords:
            value = draw(st.sampled_from([*keywords["choices"], "bogus"]))
        else:
            value = draw(INTS if "type" in keywords else TEXTS)
        if not name.startswith("-"):
            chunks.append([value])
        elif keywords.get("required") or draw(st.booleans()):
            flag = name[:-1] if draw(st.integers(0, 9)) == 0 else name
            chunks.append(draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])))
    chunks = draw(st.permutations(chunks))
    if chunks and draw(st.integers(0, 9)) == 0:
        del chunks[draw(st.integers(0, len(chunks) - 1))]
    if chunks and draw(st.integers(0, 9)) == 0:
        chunks.append(chunks[draw(st.integers(0, len(chunks) - 1))])
    tokens = [token for chunk in chunks for token in chunk]
    if draw(st.integers(0, 6)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(EXTRAS))
    return [*path, *tokens]


def _outcome(run, argv):
    """(result or exit code, stdout, stderr) of run(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = run(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=500)
@given(argv=argvs())
@example(argv=["verify", "f.json", "--qmax=12"])
@example(argv=["verify", "f.json", "--qm", "12"])
@example(argv=["verify", "f.json", "--qmax", "-1"])
@example(argv=["multisum", "eval", "f.json", "--beta=-1,3", "--qmax", "4"])
@example(argv=["prove", "f.json", "--out=--"])
@example(argv=["prove", "f.json", "--out="])
@example(argv=["export", "f.json", "--format", "dot", "--out"])
@example(argv=["oracle", "gap", "--d", "2", "--k", "1", "--xmax=--"])
@example(argv=["multisum", "eval", "f.json", "--beta=--"])
@example(argv=["export", "f.json", "--format=dot"])
def test_reader_returns_the_full_tree_namespace_or_leaves_argv_to_it(argv):
    read = cli._read_argv(argv)
    if any("=" in token for token in argv):
        # argparse is the one reader of --flag=value
        assert read is None
    full = _outcome(lambda a: vars(build_parser().parse_args(a)), argv)
    if read is not None:
        assert full == (vars(read), "", "")
    elif not isinstance(full[0], dict):
        # help or a usage error: main prints and exits as the full tree does
        assert _outcome(main, argv) == full


def test_an_abbreviated_flag_prints_what_the_full_flag_prints(capsys):
    # --qmax 12 is read from the command table, --qm 12 is left to argparse
    runs = [(main(["verify", fx("kr_system.json"), flag, "12"]), capsys.readouterr()) for flag in ("--qmax", "--qm")]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1].err == ""


def test_ideal_genfun_report(run_cli):
    code, out, payload = run_cli(["ideal", "genfun", fx("rr.json"), "--qmax", "10"])
    assert code == 0
    assert payload["K"] == 3 and payload["S"] == 2
    assert "G_1 =" in out and "total =" in out
    total = payload["total"]["terms"]
    assert [1, 4, 1] in total  # one gap-2 partition of 4 into one part... and x^2 q^4
    assert [2, 4, 1] in total


def test_ideal_members_report(run_cli):
    code, out, payload = run_cli(["ideal", "members", fx("kr_i1.json"), "--qmax", "3"])
    assert code == 0
    assert payload["members"] == ["empty", "1", "2", "2+1", "3"]
    # each member is listed once, in the JSON: the report is a header, the
    # genfun line, a blank line and the JSON, whatever the number of members
    header, genfun, blank, _ = out.splitlines()
    assert header.endswith("members of size <= 3: 5")
    assert (genfun, blank) == (f"genfun = {payload['genfun']['text']}", "")
    code, out, payload = run_cli(["ideal", "members", fx("kr_i1.json"), "--qmax", "40"])
    assert (code, payload["count"], len(out.splitlines())) == (0, 5461, 4)


@pytest.mark.parametrize("ideal, oracle, qmax", [
    ("kr_i1.json", ["kr-i1"], "30"),
    ("rr.json", ["gap", "--d", "2", "--k", "1"], "40"),
], ids=["kr_i1", "rr"])
def test_members_are_as_many_as_the_oracle_counts_in_size_then_parts_order(ideal, oracle, qmax, run_cli):
    # the level-wise member walk and the oracle's pruned walk count the same partitions,
    # and the member walk lists them by (size, parts) without sorting them
    code, out, members = run_cli(["ideal", "members", fx(ideal), "--qmax", qmax])
    assert (code, len(out.splitlines())) == (0, 4)
    code, _, counted = run_cli(["oracle", *oracle, "--qmax", qmax])
    assert code == 0
    assert members["count"] == sum(c for _, _, c in counted["series"]["terms"]) == len(members["members"])
    keys = [(sum(p), p) for p in map(partitions.parse_partition, members["members"])]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize(
    "ideal, row",
    [
        ({"S": 1, "pi": ["empty"], "linking": [[1, 1]]}, "linking row 1 repeats an index, got [1, 1]"),
        ({"S": 2, "pi": ["empty", "1", "2"], "linking": [[1, 2, 3], [1, 3, 2, 3], [1, 3]]},
         "linking row 2 repeats an index, got [1, 3, 2, 3]"),
    ],
    ids=["empty-seed", "middle-row"],
)
def test_ideal_members_rejects_a_repeated_linking_index(tmp_path, capsys, ideal, row):
    # a frozenset used to merge the repeat, and the ideal was written back without it
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(ideal))
    code = main(["ideal", "members", str(path), "--qmax", "6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: malformed ideal description: {row}\n"


def test_ideal_members_rejects_negative_qmax(capsys):
    code = main(["ideal", "members", fx("rr.json"), "--qmax", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "truncation orders must be >= 0" in captured.err


def test_ideal_contains_member_and_chain(run_cli):
    code, out, payload = run_cli(["ideal", "contains", fx("rr.json"), "6+4+1"])
    assert code == 0
    assert payload["member"] is True
    assert payload["chain"] == ["1", "2", "2"]


def test_ideal_contains_nonmember_exit_one(run_cli):
    code, out, payload = run_cli(["ideal", "contains", fx("rr.json"), "2+1"])
    assert code == 1
    assert payload["member"] is False


def test_ideal_contains_refuses_a_part_beyond_its_window_bound(run_cli, capsys):
    # rr's span is 2: the part 2 * bound lies in the last window allowed, one more is refused
    bound = ideals.CONTAINS_MAX_WINDOWS
    code, out, payload = run_cli(["ideal", "contains", fx("rr.json"), f"{2 * bound}+1"])
    assert code == 0
    assert payload["chain"] == ["1", *["empty"] * (bound - 2), "2"]
    assert main(["ideal", "contains", fx("rr.json"), f"{2 * bound + 1}+1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"the largest part {2 * bound + 1} is in window {bound + 1:,} of at most {bound:,}" in captured.err


@pytest.mark.parametrize("literal, message", [
    ("1+3", "parts must be weakly decreasing, got (1, 3)"),
    ("0", "parts must be positive, got 0"),
])
def test_ideal_contains_rejects_a_literal_that_is_no_partition(literal, message, capsys):
    assert main(["ideal", "contains", fx("rr.json"), literal]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("literal", [" 1", "1 "])
def test_a_partition_literal_is_plain_digits(literal, tmp_path, capsys):
    # a literal used to be stripped first, so " 1" was read as 1
    assert main(["ideal", "contains", fx("rr.json"), literal]) == 2
    assert capsys.readouterr() == ("", f"error: bad partition literal {literal!r}\n")
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"S": 2, "pi": ["empty", literal], "linking": [[1, 2], [1, 2]]}))
    assert main(["ideal", "members", str(path), "--qmax", "6"]) == 2
    assert capsys.readouterr() == (
        "", f"error: malformed ideal description: pi entry 2: bad partition literal {literal!r}\n")


def test_a_seed_that_is_no_partition_is_named_by_its_entry(tmp_path, capsys):
    path = _written(tmp_path, json.dumps({"S": 2, "pi": ["empty", "1+2"], "linking": [[1, 2], [1, 2]]}))
    assert main(["ideal", "members", path]) == 2
    assert capsys.readouterr() == (
        "", "error: malformed ideal description: pi entry 2: parts must be weakly decreasing, got (1, 2)\n")


@pytest.mark.parametrize("content", [b'{"profile": 1}\n#junk\n', b"\xff{}"], ids=["trailing-junk", "not-utf-8"])
def test_a_file_that_is_not_json_is_named(content, tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_bytes(content)
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and "Traceback" not in captured.err


def _fresh_env(**extra):
    """The environment of a fresh process that imports the spanone these tests import."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spanone.__file__)), **extra)


def test_a_utf8_file_is_read_whatever_the_locale(tmp_path):
    # a fresh process under the C locale, where open() without an encoding reads ASCII
    data = json.loads(open(fx("rr.json")).read())
    data["note"] = "\u0663"
    path = tmp_path / "rr.json"
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    env = _fresh_env(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    proc = subprocess.run([sys.executable, "-m", "spanone.cli", "ideal", "genfun", str(path), "--qmax", "4"],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_verify_loads_no_module_that_only_help_or_annotations_need():
    # a fresh process without site, so every module loaded is one the package imported
    unused = ("dataclasses", "inspect", "typing", "pathlib", "importlib.resources", "argparse")
    script = ("import sys; from spanone.cli import main; code = main(sys.argv[1:]); "
              f"print(code, [m for m in {unused!r} if m in sys.modules], file=sys.stderr)")
    env = _fresh_env()
    run = lambda *argv: subprocess.run([sys.executable, "-S", "-c", script, *argv],
                                       env=env, capture_output=True, text=True)
    proc = run("verify", fx("kr_system.json"), "--qmax", "12")
    assert (proc.returncode, proc.stderr) == (0, "0 []\n")
    proc = run("verify", "--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: spanone verify")


def test_a_layer_loads_only_the_layers_it_imports():
    # a fresh process without site, so every module loaded is one the package imported
    script = "import sys, spanone.{}; print(sorted(m for m in sys.modules if m.startswith('spanone')))"
    env = _fresh_env()
    loaded = lambda layer: subprocess.run([sys.executable, "-S", "-c", script.format(layer)],
                                          env=env, capture_output=True, text=True, check=True).stdout
    multisum_layers = ["spanone", "spanone.jsonin", "spanone.multisum", "spanone.series"]
    assert loaded("multisum") == f"{multisum_layers}\n"
    assert loaded("prover") == f"{sorted([*multisum_layers, 'spanone.prover'])}\n"


def _cli_process(*argv, run=subprocess.run, **kwargs):
    """A fresh `python -m spanone.cli` process for argv, importing the spanone these tests import."""
    return run([sys.executable, "-m", "spanone.cli", *argv], env=_fresh_env(), **kwargs)


def test_a_proved_system_written_by_one_process_is_verified_by_another(tmp_path):
    outdir = tmp_path / "kr"
    proved = _cli_process("prove", fx("kr_system.json"), "--qmax", "12", "--out", str(outdir),
                          capture_output=True, text=True)
    assert (proved.returncode, proved.stderr) == (0, "")
    checked = _cli_process("verify", str(outdir / "system.json"), "--qmax", "12", capture_output=True, text=True)
    assert (checked.returncode, checked.stderr) == (0, "")
    assert "result: PASS" in checked.stdout.splitlines()


@pytest.mark.parametrize("argv, code, err", [
    (["qdiff", "solve", fx("rr.json"), "--qmax", "5", "--xmax", "10000000"], 0, ""),
    (["multisum", "eval", fx("kr_profile.json"), "--beta", "1,3", "--qmax", "5", "--xmax", "10000000"], 0, ""),
    (["verify", fx("kr_system.json"), "--qmax", "5", "--xmax", "10000000"], 0, ""),
    # every (0, k) has energy 0, so a walk to n = (1, 0) would build one row per x-degree first
    (["multisum", "eval", "@", "--beta=-1,0", "--qmax", "5", "--xmax", "100000000"], 2,
     "error: summand n=(1, 0) of H(beta=(-1, 0)) has negative q-exponent -1\n"),
    (["ideal", "contains", fx("rr.json"), "100000000000"], 2,
     "error: the largest part 100000000000 is in window 50,000,000,000 of at most 100,000\n"),
], ids=["qdiff-solve", "multisum-eval", "verify", "negative-summand", "contains"])
def test_a_huge_order_or_part_costs_what_the_live_terms_cost(argv, code, err, tmp_path):
    # a large --xmax costs what the live x-degrees cost, and a negative summand or a part
    # beyond contains' window bound is refused before any walk: each ends within seconds
    path = _written(tmp_path, json.dumps({"alpha": [[1, 0], [0, 0]], "gamma": [1, 1], "A": [1, 1]}))
    proc = _cli_process(*[path if a == "@" else a for a in argv], capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stderr) == (code, err)


def test_a_reader_that_closes_the_pipe_early_ends_the_command_quietly():
    # as under | head -c 10: the 74 KB of members are more than a pipe holds, so the command
    # is still writing when the read end closes; the input was fine, so no error line
    with _cli_process("ideal", "members", fx("kr_i1.json"), "--qmax", "40", run=subprocess.Popen,
                      stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")


@pytest.mark.parametrize("argv, code, line", [
    (["oracle", "gap", "--d", "2", "--k", "1", "--qmax", "8"], 0, "oracle gap(d=2, k=1)  qmax=8 xmax=8"),
    (["ideal", "members", fx("rr.json"), "--qmax", "6"], 0, f"ideal {fx('rr.json')}  members of size <= 6: 11"),
    (["qdiff", "check", fx("rr.json"), "--qmax", "30"], 0, "solve agrees with the walk-product route: True"),
    # a beta with a leading minus is joined to its option and reaches the positivity check
    (["multisum", "check", fx("kr_profile.json"), "--beta=-1,3"], 1, "positivity of beta (-1, 3): False"),
], ids=["oracle-gap", "ideal-members", "qdiff-check", "multisum-check-negative-beta"])
def test_a_report_prints_its_verdict(argv, code, line, run_cli):
    got, out, _ = run_cli(argv)
    assert (got, line in out.splitlines()) == (code, True)


def test_qdiff_solve_and_check(run_cli):
    code, _, payload = run_cli(["qdiff", "solve", fx("rr.json"), "--qmax", "10"])
    assert code == 0
    assert len(payload["components"]) == 3
    code, out, payload = run_cli(["qdiff", "check", fx("rr.json"), "--qmax", "10"])
    assert code == 0
    assert payload["ok"] is True
    assert payload["routes_agree"] is True


def test_qdiff_check_system_with_more_x_than_q(run_cli, tmp_path):
    # the weight x^2 q puts a term x^2 q inside the window, at an x-degree above qmax
    spec = tmp_path / "system.json"
    spec.write_text(json.dumps({"A": [[1, 1], [1, 1]], "weights": [[0, 0], [2, 1]], "S": 1}))
    code, out, payload = run_cli(["qdiff", "check", str(spec), "--xmax", "3", "--qmax", "1"])
    assert code == 0
    assert payload["solve_satisfies_system"] is True
    assert payload["independent_route"] is False


def test_bare_qdiff_check_says_no_independent_route_ran(run_cli, tmp_path):
    # kr's proved system with one U entry flipped is no factorization of the
    # H vector, yet a bare file can only be checked against itself: it still
    # passes, and the output says that nothing independent was compared
    fs = prover.assemble_system(*prover.load_system_spec(spanone.fixture_path("kr_system.json")))
    U = [list(row) for row in fs.U]
    U[3][1] ^= 1
    flipped = prover.FactorizationSystem(fs.profile, fs.S, fs.betas, tuple(map(tuple, U)), fs.V, {})
    assert not all(prover.verify_numeric(flipped, 12, 12))
    spec = tmp_path / "flipped.json"
    spec.write_text(json.dumps({"A": U, "weights": [list(v) for v in fs.V], "S": fs.S}))
    code, out, payload = run_cli(["qdiff", "check", str(spec), "--qmax", "12"])
    assert code == 0
    assert payload["ok"] is True and payload["solve_satisfies_system"] is True
    assert payload["independent_route"] is False and "routes_agree" not in payload
    lines = out.splitlines()
    assert lines[lines.index("result: PASS") - 1] == (
        "no independent route ran: a bare system is checked only against itself"
    )
    # an ideal file runs the walk-product route and carries no such key
    code, out, payload = run_cli(["qdiff", "check", fx("rr.json"), "--qmax", "10"])
    assert "independent_route" not in payload and "no independent route" not in out


def test_qdiff_check_compares_a_system_with_betas_with_its_h_vector(run_cli, tmp_path):
    # prove's system.json and the spec it proves are F(x) = U V F(xq^S) with
    # F_k = H(beta_k): check compares solve with that vector, so one flipped
    # U entry fails it, while the same U, V and S as a bare file still pass
    outdir = tmp_path / "ex3"
    assert run_cli(["prove", fx("ex3_system.json"), "--qmax", "40", "--out", str(outdir)])[0] == 0
    for f in (str(outdir / "system.json"), fx("ex3_system.json")):
        code, out, payload = run_cli(["qdiff", "check", f, "--qmax", "40"])
        assert (code, payload) == (0, {"command": "qdiff-check", "ok": True, "routes_agree": True,
                                       "solve_satisfies_system": True})
        assert out.splitlines()[2:4] == ["solve agrees with H(beta_k) of the system: True", "result: PASS"]
    doc = json.loads((outdir / "system.json").read_text())
    doc["U"][3][1] ^= 1
    flipped, bare = tmp_path / "flipped.json", tmp_path / "bare.json"
    flipped.write_text(json.dumps(doc))
    bare.write_text(json.dumps({"A": doc["U"], "weights": doc["V"], "S": doc["S"]}))
    code, out, payload = run_cli(["qdiff", "check", str(flipped), "--qmax", "40"])
    assert (code, payload["routes_agree"], payload["solve_satisfies_system"]) == (1, False, True)
    assert "result: FAIL" in out.splitlines()
    code, _, payload = run_cli(["qdiff", "check", str(bare), "--qmax", "40"])
    assert (code, payload["independent_route"]) == (0, False) and "routes_agree" not in payload
    # solve reads a file with betas too, and its components are the H(beta_k)
    fs = prover.load_factorization(str(outdir / "system.json"))
    code, _, payload = run_cli(["qdiff", "solve", str(outdir / "system.json"), "--qmax", "12"])
    assert code == 0
    assert [c["terms"] for c in payload["components"]] == [
        [[m, n, c] for (m, n), c in eval_H(fs.profile, b, 12, 12).terms()] for b in fs.betas
    ]


def test_a_proved_ex3_system_prints_the_verdict_of_each_check(run_cli, tmp_path):
    outdir = tmp_path / "ex3"
    assert run_cli(["prove", fx("ex3_system.json"), "--qmax", "40", "--out", str(outdir)])[0] == 0
    doc = json.loads((outdir / "system.json").read_text())
    indented, bare, flipped = tmp_path / "indented.json", tmp_path / "bare.json", tmp_path / "flipped.json"
    # the indented layout earlier versions wrote still verifies
    indented.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    bare.write_text(json.dumps({"A": doc["U"], "weights": doc["V"], "S": doc["S"]}))
    doc["U"][3][1] ^= 1
    flipped.write_text(json.dumps(doc))
    for argv, code, line in [
        (["verify", indented], 0, "result: PASS"),
        (["qdiff", "check", bare], 0, "result: PASS"),
        (["verify", flipped], 1, "result: FAIL"),
        (["qdiff", "check", flipped], 1, "solve agrees with H(beta_k) of the system: False"),
    ]:
        got, out, _ = run_cli([*map(str, argv), "--qmax", "40"])
        assert (got, line in out.splitlines()) == (code, True), argv


def test_multisum_eval_matches_library(run_cli):
    code, _, payload = run_cli(
        ["multisum", "eval", fx("kr_profile.json"), "--beta", "1,3", "--qmax", "9"]
    )
    assert code == 0
    kr = multisum.load_profile(spanone.fixture_path("kr_profile.json"))
    assert payload["series"]["text"] == str(eval_H(kr, (1, 3), 9, 9))


def test_multisum_rec_and_shift(run_cli):
    code, out, payload = run_cli(
        ["multisum", "rec", fx("kr_profile.json"), "--beta", "1,3", "--coord", "2", "--qmax", "10"]
    )
    assert code == 0
    assert payload["left"] == [1, 6] and payload["right"] == [4, 9]
    assert payload["weight"] == [2, 3] and payload["verified"] is True
    code, _, payload = run_cli(
        ["multisum", "shift", fx("kr_profile.json"), "--beta", "1,3", "--shift", "3"]
    )
    assert code == 0
    assert payload["shifted"] == [4, 9]


def test_multisum_check_exit_codes(run_cli):
    code, _, payload = run_cli(
        ["multisum", "check", fx("kr_profile.json"), "--beta", "1,3", "--shift", "3"]
    )
    assert code == 0 and payload["ok"] is True
    code, _, payload = run_cli(
        ["multisum", "check", fx("kr_profile.json"), "--beta", "0,3"]
    )
    assert code == 1 and payload["positivity"] is False
    code, _, payload = run_cli(
        ["multisum", "check", fx("kr_profile.json"), "--beta", "1,3", "--shift", "2"]
    )
    assert code == 1 and payload["additional"] is False


def test_a_negative_beta_is_written_with_an_equals_sign(capsys):
    # --beta=-1,3 reaches eval_H, which refuses H(-1,3)'s summand n = (1, 0)
    code = main(["multisum", "eval", fx("kr_profile.json"), "--beta=-1,3", "--qmax", "6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: summand n=(1, 0) of H(beta=(-1, 3)) has negative q-exponent -1\n"
    # with a space argparse reads -1,3 as an option, which the --beta help warns of
    with pytest.raises(SystemExit) as exc:
        main(["multisum", "eval", fx("kr_profile.json"), "--beta", "-1,3"])
    assert exc.value.code == 2
    assert "argument --beta: expected one argument" in capsys.readouterr().err


def test_multisum_check_rejects_negative_shift(capsys):
    # as multisum shift does; a negative shift used to pass the divisibility check
    code = main(["multisum", "check", fx("kr_profile.json"), "--beta", "1,3", "--shift", "-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --shift must be >= 0, got -3\n"


def test_prove_small_system(run_cli):
    code, out, payload = run_cli(["prove", fx("ex1_system.json"), "--qmax", "12"])
    assert code == 0
    result = payload["result"]
    assert result["U"] == [[1, 1, 1], [1, 1, 1], [1, 0, 1]]
    assert result["V"] == [[0, 0], [1, 1], [1, 2]]
    assert payload["rows_verified"] == [True, True, True]
    assert "all rows ok" in out


def test_prove_writes_artifacts_and_verify_reloads(run_cli, tmp_path):
    outdir = tmp_path / "kr"
    code, out, payload = run_cli(
        ["prove", fx("kr_system.json"), "--qmax", "12", "--out", str(outdir)]
    )
    assert code == 0
    sysfile = outdir / "system.json"
    assert sysfile.exists()
    certs = sorted(f.name for f in outdir.glob("*.cert.json"))
    assert certs == ["cert_1_3.cert.json", "cert_2_6.cert.json", "cert_3_6.cert.json"]
    assert sorted(f.name for f in outdir.glob("*.dot")) == [
        "cert_1_3.dot",
        "cert_2_6.dot",
        "cert_3_6.dot",
    ]
    # verifying the written result (with U, V embedded) skips the search
    code, out, payload = run_cli(["verify", str(sysfile), "--qmax", "12"])
    assert code == 0
    assert payload["ok"] is True


def test_verify_detects_broken_matrix(run_cli, tmp_path):
    outdir = tmp_path / "kr"
    run_cli(["prove", fx("kr_system.json"), "--qmax", "8", "--out", str(outdir)])
    sysfile = outdir / "system.json"
    data = json.loads(sysfile.read_text())
    data["U"][3][1] ^= 1
    sysfile.write_text(json.dumps(data))
    code, out, payload = run_cli(["verify", str(sysfile), "--qmax", "12"])
    assert code == 1
    assert payload["ok"] is False
    assert "MISMATCH" in out


@pytest.mark.parametrize("system, flip, qmaxes, failing", [
    ("kr", (5, 1), ("12",), [5]),
    ("ex3", (3, 1), ("12", "40"), [3]),
])
def test_a_certificate_fails_only_the_rows_its_leaves_differ_from(system, flip, qmaxes, failing, run_cli, tmp_path):
    # one U entry flipped in a row whose root has other rows: the root's tree
    # still matches those, so with certs the rows are those without certs
    outdir = tmp_path / system
    run_cli(["prove", fx(f"{system}_system.json"), "--qmax", "12", "--out", str(outdir)])
    data = json.loads((outdir / "system.json").read_text())
    i, j = flip
    data["U"][i][j] ^= 1
    with_certs, without = tmp_path / "certs.json", tmp_path / "bare.json"
    with_certs.write_text(json.dumps(data))
    del data["certs"]
    without.write_text(json.dumps(data))
    K, root = len(data["betas"]), ",".join(map(str, data["betas"][i]))
    for qmax in qmaxes:
        code, out, payload = run_cli(["verify", str(with_certs), "--qmax", qmax])
        code_bare, _, bare = run_cli(["verify", str(without), "--qmax", qmax])
        assert code == code_bare == 1
        assert payload["rows"] == bare["rows"] == [k not in failing for k in range(K)]
        assert out.count("MISMATCH") == 1
        assert payload["certs_rejected"] == {root: f"its leaves are not row {i + 1} of U and V"}
        assert f"rejected: its leaves are not row {i + 1} of U and V" in out


@pytest.mark.parametrize("system", ["kr", "ex3"])
def test_verify_checks_a_system_without_certificates(system, run_cli, tmp_path):
    # {profile, S, betas, U, V}, as every mutants op of the benchmark reads: only the rows are checked
    outdir = tmp_path / system
    run_cli(["prove", fx(f"{system}_system.json"), "--qmax", "8", "--out", str(outdir)])
    proved = json.loads((outdir / "system.json").read_text())
    del proved["certs"]
    K = len(proved["betas"])

    def flip_u(d):
        d["U"][1][0] ^= 1

    def move_v(d):
        d["V"][1][1] += 1

    for edit, failing in ((lambda d: None, set()), (flip_u, {1}), (move_v, None)):
        data = json.loads(json.dumps(proved))
        edit(data)
        path = tmp_path / "uv.json"
        path.write_text(json.dumps(data))
        code, out, payload = run_cli(["verify", str(path), "--qmax", "12"])
        assert "certs_rejected" not in payload and "rejected" not in out
        if failing is None:
            # V_2 moved: row 1, which selects every column, fails among others
            assert code == 1 and payload["rows"][0] is False
        else:
            assert code == (1 if failing else 0)
            assert payload["rows"] == [k not in failing for k in range(K)]


def test_verify_batch_is_the_same_with_a_warm_memo(tmp_path, capsys):
    """Every U-mutant and V-mutant of kr verified in one process: the memos
    of H(beta) and of row checks carried from op to op change no exit code
    and no byte of stdout."""
    outdir = tmp_path / "kr"
    assert main(["prove", fx("kr_system.json"), "--qmax", "12", "--out", str(outdir)]) == 0
    capsys.readouterr()
    data = json.loads((outdir / "system.json").read_text())
    mutants = []
    for i, row in enumerate(data["U"]):
        for j in range(len(row)):
            U = [list(r) for r in data["U"]]
            U[i][j] ^= 1
            mutants.append((f"u_{i}_{j}", {**data, "U": U}))
    for j, v in enumerate(data["V"]):
        for e in range(2):
            for step in (1, -1):
                if v[e] + step >= 0:
                    V = [list(w) for w in data["V"]]
                    V[j][e] += step
                    mutants.append((f"v_{j}_{e}_{step}", {**data, "V": V}))
    files = []
    for name, mutant in mutants:
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(mutant))
        files.append(str(f))

    def clear() -> None:
        multisum._walk_H.cache_clear()
        multisum._row_holds.cache_clear()

    def run(cold: bool) -> list[tuple[int, str]]:
        results = []
        for f in files:
            if cold:
                clear()
            code = main(["verify", f, "--qmax", "12"])
            results.append((code, capsys.readouterr().out))
        return results

    passes = []
    for _ in range(2):
        clear()
        passes.append(run(cold=False))
    assert multisum._row_holds.cache_info().hits > 0
    cold = run(cold=True)
    assert passes[0] == passes[1] == cold
    assert len(cold) == 49 + 26
    assert all(code == 1 and "result: FAIL" in out for code, out in cold)


def _proof_digests(system: str, tmp_path, capsys) -> dict[str, str]:
    """sha256 of every file prove --qmax 40 --out writes, and of the stdout of
    prove and of verify on its system.json, with both directories as tokens."""
    outdir = tmp_path / system
    fixtures = str(spanone.fixture_path(""))
    digests = {}
    for name, argv in (("prove", ["prove", fx(f"{system}_system.json"), "--qmax", "40", "--out", str(outdir)]),
                       ("verify", ["verify", str(outdir / "system.json"), "--qmax", "40"])):
        assert main(argv) == 0
        out = capsys.readouterr().out.replace(str(outdir), "<OUT>").replace(fixtures, "<FIXTURES>")
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
    for f in sorted(outdir.iterdir()):
        digests[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    return digests


# one changed byte in a proof, a certificate, a drawing or a report fails here
PROOF_DIGESTS = {
    "ex1": {
        "cert_1.cert.json": "f50fc0c06443d7a0423cf50a8e48efd62fccb4d7171643c96cdbea2743d9dcc6",
        "cert_1.dot": "21d693d4faeba500567e817ccf0872b2541d609aa1a0a7be018f68972333fded",
        "cert_2.cert.json": "b6cada535048922695483b1276210fc132cefe437bc8f0a1dd422fdad9a6ac43",
        "cert_2.dot": "3a0c1742c55a85507691ef3311d23a0827cd23ed380104ea1523231345c5cf74",
        "prove": "49e215b24b79b5750c511adc15423fa7e925efa3a4bf364bb35f119f15dea065",
        "system.json": "fc93db0e3b32ce3ff8916bec5f0aac2d82e0a0c4f8daa75ff4b9a8253f66b857",
        "verify": "25b23cfb9f891176cb7a829d6bb477ec03ca573d4bea0ecb19362ac55044f384",
    },
    "kr": {
        "cert_1_3.cert.json": "b41660497c6931f0342f19480efcf6617e5a277bdc8deb3b80ed1a751bcab52b",
        "cert_1_3.dot": "c7ae8ab68336e69d45f21d777cb7721146d6812f8609b60c2bea96298335d942",
        "cert_2_6.cert.json": "c4b05f5b7cb5fc975f9cc888582475d223030626c4734a52826f250b5eb90ae5",
        "cert_2_6.dot": "0af16f4f63c772e44f47b925eec8cd3374cfab4ee5f85d6eac4fb0f42e9f437b",
        "cert_3_6.cert.json": "9d2c9aaec577bc01b237130e24f94c3cf473de7a4162eadeddbed0edc0a981f5",
        "cert_3_6.dot": "48b5e6190ec20d2f580f9ec71cfffeb9bb90ea3fcc8586b07157d20b091201cd",
        "prove": "67e16113976b11b4ca71f519499a79ea2048e12a9c93f2abc5f27039203850b1",
        "system.json": "c8d4243d7197843e8f4f4409562864b3cb6e3e51848b78787b45d786de4c14fc",
        "verify": "0dd43b74dd9e2da6565e91cd43ca73180efcf9e8c1eb318405d8ab0ef53e9c16",
    },
    "ex3": {
        "cert_1_2_4.cert.json": "64a56d598a0c981bba4503fbe48d3f34e028fdcbda616b105c82257cac9c6ff2",
        "cert_1_2_4.dot": "b525c7f2555f5a0de018ac4191301d9aae31deb6a0ad55e06d9f3b2d0e5ec1ce",
        "cert_2_4_7.cert.json": "1f5b13b69abc02bc31e3d92dc3e3e83bec4c7806b8c83e56de2b87fc6cd0d29e",
        "cert_2_4_7.dot": "e79cf50ae5e82eb4d71f220653eba75a4028d6fcff7834c828f1799b4cf84ca5",
        "cert_2_6_10.cert.json": "2900c3b1410e7d6dc252d9d077ef239d0622d22d685ed58d6fca62a761a81268",
        "cert_2_6_10.dot": "3916d8d4f090cf2fc7f29a0fc49de84d3268e84aca353e6a497ee6b7cd4a7e73",
        "cert_3_6_10.cert.json": "032f59e4ad82f2917d0921bbbbcbdd64807b2ee61ce575f0823a173cd1ceef03",
        "cert_3_6_10.dot": "14a44b2e019993e2c7aadaabf05c5c9f6d51597c9328cd6cb9c93cb68fcd0833",
        "prove": "5b50a79b579a954ce1940985c4cf64728d546da5cd6b4dc8ee5635b0d8c1f4cb",
        "system.json": "30eed2b88c173096bf8c55ba260bc4ea982aa3e7d539817c80175a08bbe78b9f",
        "verify": "251fe8cdcf150e3d6c3463fbe2bd5c3ae2dd64578fff49b6afee0b3567cd7103",
    },
}


@pytest.mark.parametrize("system", ["ex1", "kr", "ex3"])
def test_proof_outputs_are_byte_identical(system, tmp_path, capsys):
    assert _proof_digests(system, tmp_path, capsys) == PROOF_DIGESTS[system]


# one changed byte in a member list, a brute-force count or a rendered
# series of the matrix routes fails here
ENUMERATION_DIGESTS = {
    ("ideal", "members", "<FIXTURES>/rr.json", "--qmax", "40"):
        "f63426e87e0c3463089c8b1f972d1c711fd1d01f5c9ea8587ab6525cbb09c1d9",
    ("ideal", "members", "<FIXTURES>/kr_i1.json", "--qmax", "40"):
        "d95432488684c5537b6102e68968a4010b01f031de393be8df0f56f0664f5879",
    ("ideal", "members", "<FIXTURES>/rr.json", "--qmax", "60"):
        "7df9da34c26996cc3a749fe54a37c1dd1a62ce9bc55f75ee88abf7d245be7095",
    ("ideal", "members", "<FIXTURES>/kr_i1.json", "--qmax", "60"):
        "95eb72bb48045f24edc8fb3d8bfde17b832d2f65e189470efd1c47442ac9efac",
    ("oracle", "gap", "--d", "2", "--k", "1", "--qmax", "30"):
        "73156f29db4d20ed45a08d64c86d5868d261a4ac24569614b7ddca2dc18ec694",
    ("oracle", "kr-i1", "--qmax", "30"):
        "d0b147ffc6d5f2c8de52f6d6fdc6cf12477670a8089d64e10c93122f71708063",
    ("ideal", "genfun", "<FIXTURES>/rr.json", "--qmax", "40"):
        "79eef3bee2972ef0ca1cd902939669d40feaa580173428eda7f28736bb58b9cf",
    ("ideal", "genfun", "<FIXTURES>/kr_i1.json", "--qmax", "40"):
        "ddd2f16f45cf9a6b69b5bf213eb5f0900b9fe185b0bead70934487677fe7b0c3",
    ("qdiff", "solve", "<FIXTURES>/kr_i1.json", "--qmax", "40"):
        "340e67b706ae8d71db578ffee8d73e3e21a65c82817c8b5fafb88c1db2531fbf",
    ("multisum", "eval", "<FIXTURES>/ex3_profile.json", "--beta", "1,2,4", "--qmax", "30"):
        "b44bac9480251f2cd82a6a998c37dc00a4ff6a430d08a98e3f5f2579792d7403",
    ("qdiff", "check", "<FIXTURES>/kr_i1.json", "--qmax", "40"):
        "7b3c4f7057e3b4829c95e8f35ee7ce8957344c684eb338ac50c699691749efe4",
    ("multisum", "rec", "<FIXTURES>/kr_profile.json", "--beta", "1,3", "--coord", "1", "--qmax", "30"):
        "77977d05ccadf36d159e0e10a543ac78258bf028b182a2383068baa9d2097a96",
    ("multisum", "rec", "<FIXTURES>/kr_profile.json", "--beta", "1,3", "--coord", "2", "--qmax", "30"):
        "d60d883443d5b33af8fbfcb977dd07c27c85d173a670734f6917248a537c6e9f",
}


@pytest.mark.parametrize("argv", ENUMERATION_DIGESTS, ids=" ".join)
def test_enumeration_outputs_are_byte_identical(argv, capsys):
    """sha256 of stdout, with the fixture directory as a token."""
    fixtures = str(spanone.fixture_path(""))
    assert main([a.replace("<FIXTURES>", fixtures) for a in argv]) == 0
    out = capsys.readouterr().out.replace(fixtures, "<FIXTURES>")
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATION_DIGESTS[argv]


# exit code and sha256 of stdout of ideal contains on each fixture ideal:
# members with their chains (one through an empty window), a non-member
# and the empty partition
CONTAINS_DIGESTS = {
    ("ideal", "contains", "<FIXTURES>/rr.json", "12+9+7+4+1"):
        (0, "3d3b2b3e8d8cbc8c76bcf81cb3c61b3bf7abbf922a23185dbb44fe99f5fd56e4"),
    ("ideal", "contains", "<FIXTURES>/rr.json", "6+1"):
        (0, "aedbd59afee0897d036446805d0b2cf1609538db593788866e147fc25efd1dc0"),
    ("ideal", "contains", "<FIXTURES>/rr.json", "2+1"):
        (1, "8162db5be48b28d4633241cf10e727e2966daa5b8a421ad00fbfd005fc896001"),
    ("ideal", "contains", "<FIXTURES>/rr.json", "empty"):
        (0, "f7011405b70677f7233ef5b8b5008c6c4663b71c1d720dff95ade99b3247447c"),
    ("ideal", "contains", "<FIXTURES>/kr_i1.json", "12+9+7+4+1"):
        (0, "097f90021b2c0ac23726ef82e40d527f4b9e6f8340b28d9b992044f5b00b522c"),
    ("ideal", "contains", "<FIXTURES>/kr_i1.json", "2+1"):
        (0, "51d051ccfdbf26d5dcb4519ebbf44b06beb07a11cda19da2ba9241fd75452b29"),
    ("ideal", "contains", "<FIXTURES>/kr_i1.json", "4+3"):
        (1, "f1f58ace0c9ad5f809b452ab679a2e55da7b9fb390a5520f805eb305b696bbae"),
    ("ideal", "contains", "<FIXTURES>/kr_i1.json", "empty"):
        (0, "f7011405b70677f7233ef5b8b5008c6c4663b71c1d720dff95ade99b3247447c"),
}


@pytest.mark.parametrize("argv", CONTAINS_DIGESTS, ids=" ".join)
def test_ideal_contains_outputs_are_byte_identical(argv, capsys):
    fixtures = str(spanone.fixture_path(""))
    code = main([a.replace("<FIXTURES>", fixtures) for a in argv])
    out = capsys.readouterr().out.replace(fixtures, "<FIXTURES>")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CONTAINS_DIGESTS[argv]


# perfbench's tracer wraps these by name; the library reaches its series
# arithmetic through series._weigh and series_sum only
TRACED_ONLY = ("__mul__", "__add__", "__sub__", "__neg__", "shift_x", "eq_upto")


def test_no_pinned_command_calls_the_traced_only_operators(tmp_path, capsys, monkeypatch):
    for name in TRACED_ONLY:
        def refuse(*args, name=name):
            raise AssertionError(f"Series.{name} called")
        monkeypatch.setattr(Series, name, refuse)
    # a memo hit would skip the walk behind eval_H or a row check
    multisum._walk_H.cache_clear()
    multisum._row_holds.cache_clear()
    for system, digests in PROOF_DIGESTS.items():
        assert _proof_digests(system, tmp_path, capsys) == digests
    fixtures = str(spanone.fixture_path(""))
    for argv, pin in [*((a, (0, d)) for a, d in ENUMERATION_DIGESTS.items()), *CONTAINS_DIGESTS.items()]:
        code = main([a.replace("<FIXTURES>", fixtures) for a in argv])
        out = capsys.readouterr().out.replace(fixtures, "<FIXTURES>")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == pin


# a runnable argv for each command path that takes --qmax
ORDER_ARGVS = {
    ("oracle",): ["oracle", "kr-i1"],
    ("ideal", "genfun"): ["ideal", "genfun", fx("rr.json")],
    ("ideal", "members"): ["ideal", "members", fx("rr.json")],
    ("qdiff", "solve"): ["qdiff", "solve", fx("rr.json")],
    ("qdiff", "check"): ["qdiff", "check", fx("rr.json")],
    ("multisum", "eval"): ["multisum", "eval", fx("kr_profile.json"), "--beta", "1,3"],
    ("multisum", "rec"): ["multisum", "rec", fx("kr_profile.json"), "--beta", "1,3", "--coord", "1"],
    ("prove",): ["prove", fx("kr_system.json")],
    ("verify",): ["verify", fx("kr_system.json")],
}


def _flags(path) -> set[str]:
    table = cli.COMMANDS
    for name in path[:-1]:
        table = table[name][1]
    return {flag for flag, _ in table[path[-1]][2]}


def test_order_argvs_cover_every_command_with_qmax():
    assert set(ORDER_ARGVS) == {path for path in _leaf_paths() if "--qmax" in _flags(path)}


@pytest.mark.parametrize("path, flag", [(path, flag) for path in ORDER_ARGVS
                                        for flag in ("--qmax", "--xmax") if flag in _flags(path)],
                         ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_a_negative_order_is_refused_by_its_flag(path, flag, capsys):
    code = main([*ORDER_ARGVS[path], "--qmax", "4", flag, "-1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {flag}: truncation orders must be >= 0, got -1\n"


def _kr_spec(edit) -> dict:
    d = json.loads(open(fx("kr_system.json")).read())
    edit(d["profile"])
    return d


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["qdiff", "solve", "@"], {"A": [[1, 1], [2, 0]], "weights": [[0, 0], [1, 1]], "S": 1},
         "adjacency entries must be 0 or 1, got 2 in A row 2, column 1"),
        (["qdiff", "solve", "@"], {"A": [[1, 1], [1]], "weights": [[0, 0], [1, 1]], "S": 1},
         "adjacency matrix must be square, got 1 entries in A row 2 for 2 vertices"),
        (["qdiff", "solve", "@"], {"A": [[1, 1], [0, 1]], "weights": [[0, 0], [1, 1]], "S": 1},
         "first adjacency column must be all ones, got 0 in A row 2"),
        (["qdiff", "solve", "@"], {"A": [[1, 0], [1, 1]], "weights": [[0, 0], [1, 1]], "S": 1},
         "first adjacency row must be all ones, got 0 in A row 1, column 2"),
        (["prove", "@"], _kr_spec(lambda p: p["A"].__setitem__(1, 0)),
         "malformed system description: profile.A entries (Pochhammer moduli) must be >= 1, got 0 in A entry 2"),
        (["prove", "@"], _kr_spec(lambda p: p["gamma"].__setitem__(0, 0)),
         "malformed system description: profile.gamma entries must be >= 1, got 0 in gamma entry 1"),
        (["multisum", "eval", "@", "--beta", "1,3"], _kr_spec(lambda p: p["alpha"][0].__setitem__(1, 5))["profile"],
         "malformed profile description: alpha must be symmetric, got 5 in alpha row 1, column 2 and 3 in row 2, column 1"),
        (["multisum", "eval", "@", "--beta", "1,3"], _kr_spec(lambda p: p["alpha"][1].__setitem__(1, -1))["profile"],
         "malformed profile description: alpha entries must be >= 0, got -1 in alpha row 2, column 2"),
        # an empty row used to end in an index error, read before its length was checked
        (["multisum", "eval", "@", "--beta", "1,3"], _kr_spec(lambda p: p["alpha"][1].clear())["profile"],
         "malformed profile description: alpha must be square, got 0 entries in alpha row 2 for rank 2"),
        (["ideal", "genfun", "@"], {"S": 1, "pi": ["empty", "1"], "linking": [[1, 2]]},
         "need one linking set per seed, got 1 for the 2 seeds of pi"),
        (["ideal", "genfun", "@"], {"S": 1, "pi": ["empty", "1", "1"], "linking": [[1, 2, 3], [1], [1]]},
         "seed partitions must be distinct, got pi_3 repeats pi_2"),
        (["ideal", "genfun", "@"], {"S": 1, "pi": ["empty", "1"], "linking": [[1, 2], [1, 3]]},
         "linking set of pi_2 mentions index 3 outside 1..2"),
        (["qdiff", "solve", "@"], {"A": [[1, 1], [1, 0]], "weights": [[0, 0]], "S": 1},
         "need one weight pair per vertex, got 1 weights for the 2 rows of A"),
        (["qdiff", "solve", "@"], {"A": [[1, 1], [1, 0]], "weights": [[0, 0], [1, 0]], "S": 1},
         "vertex 2 needs q-degree >= 1, got 0 in weights entry 2"),
        (["qdiff", "solve", "@"], {"A": [[1, 1], [1, 0]], "weights": [[0, 0], [0, 1]], "S": 1},
         "vertex 2 needs x-degree >= 1, got 0 in weights entry 2"),
        (["qdiff", "solve", "@"], {"A": [[1, 1], [1, 0]], "weights": [[0, 5], [1, 1]], "S": 1},
         "vertex 1 must be weightless, got [0, 5] in weights entry 1"),
        (["qdiff", "solve", "@"], {"A": 5, "weights": [[0, 0]], "S": 1},
         "malformed q-difference system description: A must be a list of rows, got 5"),
        (["verify", "@", "--qmax", "6"],
         {**_kr_spec(lambda p: None), "U": [[1] * 7] * 7, "V": [[0, 0]] * 7,
          "certs": [{"root": [1, 3], "tree": {"beta": [1, 3]}}] * 2},
         "certs entry 2 repeats root [1, 3]"),
        # a flag's value out of range is named by its flag, not by the library's parameter
        (["prove", "@", "--max-expansions", "-1"], _kr_spec(lambda p: None),
         "--max-expansions must be >= 0, got -1"),
        (["multisum", "shift", "@", "--beta", "1,3", "--shift", "-1"], _kr_spec(lambda p: None)["profile"],
         "--shift must be >= 0, got -1"),
        (["multisum", "check", "@", "--beta", "1,3", "--shift", "-1"], _kr_spec(lambda p: None)["profile"],
         "--shift must be >= 0, got -1"),
        (["multisum", "rec", "@", "--beta", "1,3", "--coord", "0"], _kr_spec(lambda p: None)["profile"],
         "--coord must be in 1..2, got 0"),
        (["multisum", "rec", "@", "--beta", "1,3", "--coord", "3"], _kr_spec(lambda p: None)["profile"],
         "--coord must be in 1..2, got 3"),
        # the relation at beta_1 = -1 weighs its right child by q^-1
        (["multisum", "rec", "@", "--beta=-1,3", "--coord", "1"], _kr_spec(lambda p: None)["profile"],
         "weight exponent q^-1 is negative; not a power series identity"),
        # the kr-i1 oracle has no use for --d and --k, so it refuses them rather than ignore them
        (["oracle", "kr-i1", "--d", "3", "--qmax", "3"], {}, "the kr-i1 oracle takes no --d"),
        (["oracle", "kr-i1", "--k", "1"], {}, "the kr-i1 oracle takes no --k"),
    ],
    ids=["adjacency-2", "adjacency-not-square", "first-column", "first-row", "zero-modulus", "zero-gamma",
         "asymmetric-alpha", "negative-alpha", "alpha-not-square", "linking-count", "repeated-seed",
         "linking-index", "weights-count", "zero-q-degree", "zero-x-degree", "weighed-vertex-1", "rows-not-a-list", "repeated-cert-root",
         "negative-max-expansions", "negative-shift", "negative-check-shift", "coord-0", "coord-3", "negative-weight",
         "kr-i1-d", "kr-i1-k"],
)
def test_structural_errors_name_the_entry(tmp_path, capsys, argv, data, message):
    path = _written(tmp_path, json.dumps(data))
    code = main([path if a == "@" else a for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no limit on integer strings")
@pytest.mark.parametrize("argv, name", [
    (["ideal", "contains", fx("rr.json"), "1" * 700], "partition"),
    (["multisum", "eval", fx("kr_profile.json"), "--beta", "1," + "1" * 700], "--beta"),
], ids=["partition", "beta"])
def test_an_integer_past_the_digit_limit_is_named_by_its_argument(argv, name, capsys):
    # python refuses to convert a string of more digits than its limit, with a message naming nothing
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: {name}: Exceeds the limit (640 digits) for integer string conversion")


def _verify_edited(tmp_path, capsys, edit) -> tuple[int, str]:
    """Prove kr, apply edit to the written system, verify it; (exit code, stderr)."""
    outdir = tmp_path / "kr"
    main(["prove", fx("kr_system.json"), "--qmax", "8", "--out", str(outdir)])
    sysfile = outdir / "system.json"
    data = json.loads(sysfile.read_text())
    edit(data)
    sysfile.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["verify", str(sysfile), "--qmax", "12"])
    return code, capsys.readouterr().err


def test_verify_rejects_non_binary_u_entry(tmp_path, capsys):
    # read by truthiness, a 2 in place of a 1 used to pass
    code, err = _verify_edited(tmp_path, capsys, lambda d: d["U"][1].__setitem__(0, 2))
    assert code == 2
    assert "U row 2" in err


def test_verify_rejects_misshapen_u(tmp_path, capsys):
    code, err = _verify_edited(tmp_path, capsys, lambda d: d["U"].pop())
    assert code == 2
    assert "U must be a list of K=7 rows" in err
    code, err = _verify_edited(tmp_path, capsys, lambda d: d["U"][2].pop())
    assert code == 2
    assert "U row 3" in err


def test_verify_rejects_negative_v_exponent(tmp_path, capsys):
    code, err = _verify_edited(tmp_path, capsys, lambda d: d["V"].__setitem__(2, [1, -1]))
    assert code == 2
    assert "V row 3" in err


def test_verify_rejects_malformed_spec_field(tmp_path, capsys):
    code, err = _verify_edited(tmp_path, capsys, lambda d: d.__setitem__("S", [2]))
    assert code == 2
    assert "malformed system description" in err


def test_verify_rejects_certs_not_a_list(tmp_path, capsys):
    code, err = _verify_edited(tmp_path, capsys, lambda d: d.__setitem__("certs", 5))
    assert code == 2
    assert "certs must be a list" in err


def test_verify_rejects_cert_entry_without_root(tmp_path, capsys):
    code, err = _verify_edited(tmp_path, capsys, lambda d: d["certs"][1].pop("root"))
    assert code == 2
    assert "certs entry 2 has no root" in err


def test_verify_rejects_cert_root_outside_betas(tmp_path, capsys):
    code, err = _verify_edited(tmp_path, capsys, lambda d: d["certs"][0].__setitem__("root", [9, 9]))
    assert code == 2
    assert "certs entry 1 has root [9, 9], not one of betas" in err


def test_verify_rejects_u_without_v(tmp_path, capsys):
    # a lone U must not be set aside for a fresh proof from the spec
    def edit(d):
        d.pop("V")
        d["U"][3][1] ^= 1

    code, err = _verify_edited(tmp_path, capsys, edit)
    assert code == 2
    assert "V is missing" in err


def test_verify_reads_certs_beside_a_bare_spec_as_a_proved_system(tmp_path, capsys):
    # certs with neither U nor V used to be set aside, and the spec proved afresh
    path = _written(tmp_path, json.dumps({**_kr_spec(lambda p: None), "certs": "garbage"}))
    code = main(["verify", path, "--qmax", "6"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: a proved system needs both U and V, but U is missing\n"


def test_verify_rejects_empty_betas(tmp_path, capsys):
    def edit(d):
        d["betas"], d["U"], d["V"], d["certs"] = [], [], [], []

    code, err = _verify_edited(tmp_path, capsys, edit)
    assert code == 2
    assert "betas is empty" in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("beta", "13", 'beta must be a list of 2 integers, got "13"'),
        ("beta", [1.4, 3.4], "beta must be a list of 2 integers, got [1.4, 3.4]"),
        ("coord", 1.5, "coord must be an integer, got 1.5"),
    ],
    ids=["beta-string", "beta-floats", "coord-float"],
)
def test_verify_rejects_tree_numbers_that_are_not_integers(tmp_path, capsys, key, value, message):
    # read with int(), "13" would become (1, 3) and floats would be truncated
    code, err = _verify_edited(
        tmp_path, capsys, lambda d: d["certs"][0]["tree"].__setitem__(key, value)
    )
    assert code == 2
    assert "certs entry 1" in err and message in err


def _proved_kr(tmp_path, name: str, edit) -> str:
    """A file written by prove kr --out, with edit applied to its JSON."""
    outdir = tmp_path / "kr"
    main(["prove", fx("kr_system.json"), "--qmax", "8", "--out", str(outdir)])
    path = outdir / name
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return str(path)


def _written(tmp_path, text: str) -> str:
    path = tmp_path / "input.json"
    path.write_text(text)
    return str(path)


def _false_alpha_and_shift(d):
    d["profile"]["alpha"] = [[2.9, "3"], [3, 6]]
    d["S"] = 3.7


@pytest.mark.parametrize(
    "argv, make, field",
    [
        (["verify", "@", "--qmax", "12"],
         lambda t: _proved_kr(t, "system.json", _false_alpha_and_shift),
         'profile.alpha row 1 must be a list of integers, got [2.9, "3"]'),
        (["multisum", "eval", "@", "--beta", "1", "--qmax", "4"],
         lambda t: _written(t, '{"alpha": [[1e400]], "gamma": [1], "A": [1]}'),
         "alpha row 1 must be a list of integers, got [Infinity]"),
        (["verify", "@", "--qmax", "12"],
         lambda t: _proved_kr(t, "system.json", lambda d: d.__setitem__("S", True)),
         "S must be an integer, got true"),
        (["ideal", "genfun", "@", "--qmax", "6"],
         lambda t: _written(t, '{"S": 2, "pi": ["empty", 5, "2"], "linking": [[1, 2, 3], [1, 2, 3], [1, 3]]}'),
         'pi must be a list of partition strings, got ["empty", 5, "2"]'),
        (["ideal", "genfun", "@", "--qmax", "6"],
         lambda t: _written(t, '{"S": 2.5, "pi": ["empty", "1", "2"], "linking": [[1, 2, 3], [1, 2, 3], [1, 3]]}'),
         "S must be an integer, got 2.5"),
        (["qdiff", "solve", "@", "--qmax", "6"],
         lambda t: _written(t, '{"A": [[1, 1], [1.5, 1]], "weights": [[0, 0], [1, 1]], "S": 1}'),
         "A row 2 must be a list of integers, got [1.5, 1]"),
        (["qdiff", "solve", "@", "--qmax", "6"],
         lambda t: _written(t, "5"),
         "the top level must be a JSON object, got 5"),
        (["export", "@", "--format", "json"],
         lambda t: _proved_kr(t, "cert_1_3.cert.json", lambda d: d.__setitem__("S", 3.5)),
         "S must be an integer, got 3.5"),
        (["prove", "@"],
         lambda t: _written(t, json.dumps({**json.loads(open(fx("kr_system.json")).read()),
                                          "betas": [[1, 3], [2]]})),
         "malformed system description: betas row 2 must be a list of 2 integers, got [2]"),
    ],
    ids=["verify-alpha-and-S", "profile-1e400", "verify-S-true", "ideal-pi-number",
         "ideal-S-float", "qdiff-A-float", "qdiff-top-level", "export-S-float", "prove-beta-rank"],
)
def test_every_reader_rejects_what_is_not_a_json_integer(tmp_path, capsys, argv, make, field):
    # read with int(), each of these used to pass, crash, or check another statement
    path = make(tmp_path)
    capsys.readouterr()
    code = main([path if a == "@" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert field in captured.err
    assert "Traceback" not in captured.err


def _leftmost_leaf(tree: dict) -> dict:
    while "coord" in tree:
        tree = tree["left"]
    return tree


def _swap_root_children(d):
    tree = d["tree"]
    tree["left"], tree["right"] = tree["right"], tree["left"]


@pytest.mark.parametrize(
    "argv, name, edit, message",
    [
        (["verify", "@", "--qmax", "8"], "system.json", lambda d: d.__setitem__("S", -3),
         "malformed system description: S must be >= 0, got -3"),
        (["verify", "@", "--qmax", "8"], "system.json", lambda d: d.update(S=-3, certs=[]),
         "malformed system description: S must be >= 0, got -3"),
        (["prove", "@", "--qmax", "8"], "system.json", lambda d: d.__setitem__("S", -3),
         "malformed system description: S must be >= 0, got -3"),
        (["export", "@", "--format", "json"], "cert_1_3.cert.json", lambda d: d.__setitem__("S", -3),
         "malformed certificate document: S must be >= 0, got -3"),
        (["export", "@", "--format", "json"], "cert_1_3.cert.json", lambda d: d.__setitem__("root", [9, 9]),
         "malformed certificate document: root [9, 9] is not the tree's root [1, 3]"),
        (["export", "@", "--format", "dot"], "cert_1_3.cert.json", lambda d: d.__setitem__("root", [9, 9]),
         "malformed certificate document: root [9, 9] is not the tree's root [1, 3]"),
        (["export", "@", "--format", "json"], "cert_1_3.cert.json",
         lambda d: _leftmost_leaf(d["tree"]).__setitem__("beta", [7]),
         "malformed certificate document: tree: beta must be a list of 2 integers, got [7]"),
        (["verify", "@", "--qmax", "8"], "system.json",
         lambda d: _leftmost_leaf(d["certs"][0]["tree"]).__setitem__("beta", [7]),
         "certs entry 1 tree: beta must be a list of 2 integers, got [7]"),
        (["export", "@", "--format", "json"], "cert_1_3.cert.json", _swap_root_children,
         "malformed certificate document: tree does not fit the profile: children of (1, 3) do not match coordinate 2"),
        (["export", "@", "--format", "dot"], "cert_1_3.cert.json", _swap_root_children,
         "malformed certificate document: tree does not fit the profile: children of (1, 3) do not match coordinate 2"),
        (["export", "@", "--format", "json"], "cert_1_3.cert.json", lambda d: d["tree"].__setitem__("coord", 9),
         "malformed certificate document: tree does not fit the profile: coordinate must be in 1..2, got 9"),
        (["export", "@", "--format", "dot"], "cert_1_3.cert.json", lambda d: d["tree"].__setitem__("coord", 9),
         "malformed certificate document: tree does not fit the profile: coordinate must be in 1..2, got 9"),
        # a profile inside a document is named by its key, also where its own checks refuse it
        (["export", "@", "--format", "json"], "cert_1_3.cert.json", lambda d: d["profile"]["gamma"].__setitem__(0, 0),
         "malformed certificate document: profile.gamma entries must be >= 1, got 0 in gamma entry 1"),
        (["verify", "@", "--qmax", "8"], "system.json", lambda d: d["profile"]["A"].__setitem__(0, -1),
         "malformed system description: profile.A entries (Pochhammer moduli) must be >= 1, got -1 in A entry 1"),
        # a tree that another profile's relations unfold
        (["export", "@", "--format", "json"], "cert_1_3.cert.json", lambda d: d["profile"].__setitem__("A", [1, 4]),
         "malformed certificate document: tree does not fit the profile: children of (1, 3) do not match coordinate 2"),
        (["verify", "@", "--qmax", "8"], "system.json", lambda d: d["betas"].append([1, 3]),
         "U must be a list of K=8 rows, one per row of betas"),
        # H(-2, 3) is no power series: its summand n = (1, 0) has q-exponent -2
        (["verify", "@", "--qmax", "8"], "system.json", lambda d: d["betas"].__setitem__(3, [-2, 3]),
         "evaluating betas row 4: summand n=(1, 0) of H(beta=(-2, 3)) has negative q-exponent -2"),
    ],
    ids=["verify-S", "verify-S-no-certs", "prove-S", "export-S", "export-json-root",
         "export-dot-root", "export-leaf-rank", "verify-leaf-rank", "export-json-swapped",
         "export-dot-swapped", "export-json-coord", "export-dot-coord", "export-profile-gamma",
         "verify-profile-A", "export-other-profile", "verify-betas-past-U", "verify-negative-summand"],
)
def test_malformed_shift_and_certificates_are_named_where_read(tmp_path, capsys, argv, name, edit, message):
    # each used to exit 0, exit 1, or fail deep in the work without naming the field
    path = _proved_kr(tmp_path, name, edit)
    capsys.readouterr()
    code = main([path if a == "@" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


X_MAX, Q_MAX = 4, 12
KR_PROFILE = multisum.load_profile(spanone.fixture_path("kr_profile.json"))


@pytest.mark.parametrize(
    "argv, expect",
    [
        (["oracle", "gap", "--d", "2", "--k", "1"], lambda: {"series": _series_payload(
            partitions.oracle_genfun(lambda p: partitions.satisfies_gap(p, 2, 1), X_MAX, Q_MAX))}),
        (["oracle", "kr-i1"], lambda: {"series": _series_payload(
            partitions.oracle_genfun(kr_i1_predicate, X_MAX, Q_MAX))}),
        (["multisum", "eval", fx("kr_profile.json"), "--beta", "1,3"], lambda: {"series": _series_payload(
            eval_H(KR_PROFILE, (1, 3), X_MAX, Q_MAX))}),
        (["multisum", "rec", fx("kr_profile.json"), "--beta", "1,3", "--coord", "2"], lambda: {
            "verified": multisum.verify_recurrence_numeric(KR_PROFILE, (1, 3), 2, X_MAX, Q_MAX)}),
        (["qdiff", "solve", fx("rr.json")], lambda: {"components": [_series_payload(s) for s in qdiff.solve(
            ideals.associated_graph(ideals.load_ideal(fx("rr.json"))), X_MAX, Q_MAX)]}),
        (["prove", fx("kr_system.json")], lambda: {"xmax": X_MAX, "qmax": Q_MAX, "rows_verified": prover.verify_numeric(
            prover.assemble_system(*prover.load_system_spec(fx("kr_system.json"))), X_MAX, Q_MAX)}),
        (["verify", fx("kr_system.json")], lambda: {"xmax": X_MAX, "qmax": Q_MAX, "rows": prover.verify_numeric(
            prover.load_factorization(fx("kr_system.json")), X_MAX, Q_MAX)}),
    ],
    ids=["oracle-gap", "oracle-kr-i1", "multisum-eval", "multisum-rec", "qdiff-solve", "prove", "verify"],
)
def test_unequal_orders_reach_the_library_in_order(run_cli, argv, expect):
    # x_max < q_max, so swapping the two orders anywhere on the way changes the result
    code, out, payload = run_cli([*argv, "--xmax", str(X_MAX), "--qmax", str(Q_MAX)])
    assert code == 0
    assert f"qmax={Q_MAX} xmax={X_MAX}" in out
    want = expect()
    assert {key: payload[key] for key in want} == want


def test_qdiff_system_without_vertices_exits_two(tmp_path, capsys):
    path = _written(tmp_path, '{"A": [], "weights": [], "S": 1}')
    capsys.readouterr()
    code = main(["qdiff", "solve", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: A is empty" in captured.err


@pytest.mark.parametrize("edit, fault", [
    (lambda d: d["U"][1].__setitem__(0, 0), "first adjacency column must be all ones, got 0 in A row 2"),
    (lambda d: d.__setitem__("S", 0), "shift must be >= 1, got 0"),
], ids=["U_first_column", "S_zero"])
@pytest.mark.parametrize("command", ["solve", "check"])
def test_qdiff_names_the_fields_of_a_system_with_betas(tmp_path, capsys, command, edit, fault):
    # the system's own checks name A and weights, which a file with betas calls U and V
    path = _proved_kr(tmp_path, "system.json", edit)
    capsys.readouterr()
    code = main(["qdiff", command, path, "--qmax", "8"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {path}: U, V and S as the system A = U, weights = V: {fault}\n"


def test_verify_rejects_deeply_nested_tree(tmp_path, capsys):
    # json.dumps recurses too, so the nested tree is spliced in as text
    outdir = tmp_path / "kr"
    main(["prove", fx("kr_system.json"), "--qmax", "8", "--out", str(outdir)])
    sysfile = outdir / "system.json"
    data = json.loads(sysfile.read_text())
    data["certs"][0]["tree"] = "@TREE@"
    node = '{"beta": [1, 3], "coord": 1, "left": {"beta": [1, 3]}, "right": '
    tree = node * 1300 + '{"beta": [1, 3]}' + "}" * 1300
    sysfile.write_text(json.dumps(data).replace('"@TREE@"', tree))
    capsys.readouterr()
    code = main(["verify", str(sysfile), "--qmax", "12"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {sysfile}: input is nested too deeply for the recursion limit\n")


def test_a_profile_of_a_rank_past_the_recursion_limit_is_evaluated(tmp_path, capsys):
    # the walk of H(beta) takes no stack frame per coordinate, so the rank meets no recursion limit
    rank = 3000
    assert rank > sys.getrecursionlimit()
    path = _written(tmp_path, json.dumps({"alpha": [[0] * rank] * rank, "gamma": [1] * rank, "A": [1] * rank}))
    beta = ",".join(["1"] * rank)
    code = main(["multisum", "eval", path, "--beta", beta, "--qmax", "2"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    # H(1, ..., 1) = prod_r 1/(1 - x q) to q^2: R x q and R x q^2 from one coordinate,
    # R (R + 1) / 2 x^2 q^2 from the pairs and squares
    assert captured.out.splitlines()[1] == f"H({beta}) = 1 + 3000*x*q + 3000*x*q^2 + 4501500*x^2*q^2"


def _verify_cert_edited(tmp_path, run_cli, edit) -> tuple[int, str, dict]:
    """Prove kr, apply edit to the written system, verify it; run_cli's triple."""
    outdir = tmp_path / "kr"
    run_cli(["prove", fx("kr_system.json"), "--qmax", "8", "--out", str(outdir)])
    sysfile = outdir / "system.json"
    data = json.loads(sysfile.read_text())
    edit(data)
    sysfile.write_text(json.dumps(data))
    return run_cli(["verify", str(sysfile), "--qmax", "12"])


def test_verify_rejects_tree_that_is_not_a_certificate(tmp_path, run_cli):
    # the first tree, for root (1,3), becomes a lone leaf outside the targets
    code, out, payload = _verify_cert_edited(
        tmp_path, run_cli, lambda d: d["certs"][0].__setitem__("tree", {"beta": [9, 9]})
    )
    assert code == 1
    assert payload["ok"] is False
    assert payload["rows"][0] is False
    assert "certificate for H(1,3) rejected" in out


def test_verify_rejects_tree_with_swapped_children(tmp_path, run_cli):
    def swap(d):
        tree = d["certs"][0]["tree"]
        tree["left"], tree["right"] = tree["right"], tree["left"]

    code, out, payload = _verify_cert_edited(tmp_path, run_cli, swap)
    assert code == 1
    assert payload["rows"][0] is False
    assert "certificate for H(1,3) rejected" in out


@pytest.mark.parametrize("edit, rejection", [
    (lambda d: d["V"][1].__setitem__(1, d["V"][1][1] + 1), "its leaves are not row 1 of U and V"),
    # the first certificate cut to a bare leaf at its root
    (lambda d: d["certs"][0].__setitem__("tree", {"beta": [1, 3]}), "leaf (1, 3) is not a target"),
], ids=["V-moved", "bare-leaf"])
def test_verify_names_the_rejection_and_fails_the_rows(edit, rejection, tmp_path, run_cli):
    code, out, payload = _verify_cert_edited(tmp_path, run_cli, edit)
    lines = out.splitlines()
    assert (code, payload["rows"]) == (1, [False, False, False, True, False, True, True])
    assert lines[1] == "row 1: H(1,3) == selected combination: MISMATCH"
    assert lines[8:10] == [f"certificate for H(1,3) rejected: {rejection}", "result: FAIL"]


def test_verify_from_system_spec(run_cli):
    code, _, payload = run_cli(["verify", fx("kr_system.json"), "--qmax", "14"])
    assert code == 0
    assert payload["rows"] == [True] * 7


def test_export_dot_and_json(run_cli, tmp_path):
    outdir = tmp_path / "kr"
    run_cli(["prove", fx("kr_system.json"), "--qmax", "8", "--out", str(outdir)])
    cert = outdir / "cert_1_3.cert.json"
    dotfile = tmp_path / "tree.dot"
    code, _, _ = run_cli(["export", str(cert), "--format", "dot", "--out", str(dotfile)])
    assert code == 0
    dot = dotfile.read_text()
    assert dot.startswith("digraph certificate {") and dot.count("->") == 12
    # json export of the exported file reproduces it byte for byte
    again = tmp_path / "again.json"
    code, _, _ = run_cli(["export", str(cert), "--format", "json", "--out", str(again)])
    assert code == 0
    assert again.read_text() == cert.read_text()


@pytest.mark.parametrize("fmt, name", [("dot", "cert_1_3.dot"), ("json", "cert_1_3.cert.json")])
def test_export_without_out_prints_the_document_prove_wrote(fmt, name, tmp_path, capsys):
    outdir = tmp_path / "kr"
    assert main(["prove", fx("kr_system.json"), "--qmax", "8", "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert main(["export", str(outdir / "cert_1_3.cert.json"), "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ((outdir / name).read_text(), "")
    # earlier versions wrote each document as json.dumps(..., sort_keys=True, indent=1):
    # verify reads such a system.json to the same report, and export turns such a
    # certificate into what it prints for the document prove writes now
    system, cert = outdir / "system.json", outdir / "cert_1_3.cert.json"
    for doc in (system, cert):
        assert doc.read_text() == json.dumps(json.loads(doc.read_text()), sort_keys=True) + "\n"
    assert main(["verify", str(system), "--qmax", "8"]) == 0
    report = capsys.readouterr().out
    for doc in (system, cert):
        doc.write_text(json.dumps(json.loads(doc.read_text()), sort_keys=True, indent=1) + "\n")
    assert main(["verify", str(system), "--qmax", "8"]) == 0
    assert capsys.readouterr().out == report
    assert main(["export", str(cert), "--format", fmt]) == 0
    assert capsys.readouterr().out == captured.out


@pytest.mark.parametrize("old", [b"#" * 100_000, b"#"], ids=["shrink", "grow"])
def test_prove_rewrites_existing_files_to_their_new_bytes(old, tmp_path, capsys):
    # prove writes over the old bytes in place: a longer file is cut to the
    # new text, a shorter one grows to it
    outdir = tmp_path / "ex1"
    outdir.mkdir()
    for name in ("system.json", "cert_1.cert.json", "cert_1.dot"):
        (outdir / name).write_bytes(old)
    assert _proof_digests("ex1", tmp_path, capsys) == PROOF_DIGESTS["ex1"]


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_export_writes_to_dev_null(tmp_path, capsys):
    # /dev/null cannot be truncated, and is not asked to be
    assert main(["prove", fx("ex1_system.json"), "--qmax", "8", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["export", str(tmp_path / "cert_1.cert.json"), "--format", "dot", "--out", "/dev/null"]) == 0
    assert capsys.readouterr().out.startswith("wrote /dev/null\n")


def test_written_files_get_the_mode_write_text_gives(tmp_path, capsys):
    umask = os.umask(0o022)
    try:
        (tmp_path / "reference").write_text("")
        assert main(["prove", fx("ex1_system.json"), "--qmax", "8", "--out", str(tmp_path / "out")]) == 0
        assert main(["export", str(tmp_path / "out" / "cert_1.cert.json"), "--format", "json",
                     "--out", str(tmp_path / "cert.json")]) == 0
    finally:
        os.umask(umask)
    capsys.readouterr()
    mode = (tmp_path / "reference").stat().st_mode
    assert mode & 0o777 == 0o644
    written = [*(tmp_path / "out").iterdir(), tmp_path / "cert.json"]
    assert len(written) == 6 and all(f.stat().st_mode == mode for f in written)


@pytest.mark.parametrize("case", ["prove-file", "prove-dir", "export-dir"])
def test_unwritable_out_is_named_by_its_flag(case, tmp_path, capsys):
    assert main(["prove", fx("ex1_system.json"), "--qmax", "8", "--out", str(tmp_path / "ex1")]) == 0
    capsys.readouterr()
    cert = str(tmp_path / "ex1" / "cert_1.cert.json")
    if case == "prove-file":
        # the directory named by --out is a regular file
        out, errno = tmp_path / "file", "[Errno 17] File exists"
        out.write_text("x")
    else:
        # the file to write is a directory
        out, errno = tmp_path / "dir", "[Errno 21] Is a directory"
        (out / "system.json").mkdir(parents=True)
    argv = (["prove", fx("ex1_system.json"), "--qmax", "8", "--out", str(out)] if case.startswith("prove")
            else ["export", cert, "--format", "dot", "--out", str(out)])
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: --out: {errno}: ")
    assert "Traceback" not in captured.err


def test_prove_exhaustion_exit_code(capsys):
    code = main(["prove", fx("kr_system.json"), "--max-expansions", "2"])
    assert code == 3
    assert capsys.readouterr().err == "search exhausted: no certificate for (1, 3) within 2 expansions\n"


def test_prove_reports_a_leaf_no_column_can_take(tmp_path, capsys):
    # row 4's root (4,) has its weight-1 leaf on target (5,), but only column 1 has weight 1
    spec = json.loads(open(fx("ex1_system.json")).read())
    spec["betas"] = [[1], [1], [3], [4]]
    path = tmp_path / "ex1_bad_row.json"
    path.write_text(json.dumps(spec))
    # the search found no factorization, which is inconclusive; verify assembles a bare spec the same way
    for command in ("prove", "verify"):
        assert main([command, str(path)]) == 3
        assert capsys.readouterr().err == (
            "search exhausted: row 4: no unmatched column with weight x^0 q^0 left for target (5,)\n"
        )


def test_prove_and_verify_exit_three_when_the_trees_do_not_assemble(tmp_path, capsys):
    # a well-formed kr spec whose first alpha entry is 3: every root has a tree,
    # but row 1's tree has too few leaves on one target to fill its columns
    spec = json.loads(open(fx("kr_system.json")).read())
    spec["profile"]["alpha"][0][0] = 3
    path = tmp_path / "kr_alpha3.json"
    path.write_text(json.dumps(spec))
    for command in ("prove", "verify"):
        assert main([command, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "search exhausted: row 1 produces 3 leaves for target (4, 9), but 4 components shift onto it\n"
        )


def test_prove_rejects_negative_budget(capsys):
    assert main(["prove", fx("kr_system.json"), "--max-expansions", "-1"]) == 2
    assert capsys.readouterr().err == "error: --max-expansions must be >= 0, got -1\n"


def test_prove_search_exhausts_its_budget_exits_three(tmp_path, capsys):
    # with S = 3000 the targets lie thousands of relation steps from the roots
    spec = json.loads(open(fx("ex1_system.json")).read())
    spec["S"] = 3000
    path = tmp_path / "ex1_s3000.json"
    path.write_text(json.dumps(spec))
    code = main(["prove", str(path)])
    assert code == 3
    assert capsys.readouterr().err == "search exhausted: no certificate for (1,) within 64 expansions\n"


def test_malformed_input_exit_code(run_cli, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"S": 2, "pi": ["empty"]}')
    code, _, _ = run_cli(["ideal", "genfun", str(bad)])
    assert code == 2
    for beta in ("one,three", "1_0", "+1,3", " 1,3"):
        code, _, _ = run_cli(["multisum", "eval", fx("kr_profile.json"), "--beta", beta])
        assert code == 2


def test_missing_file_exit_code(run_cli):
    code, _, _ = run_cli(["ideal", "genfun", "/nonexistent/nowhere.json"])
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (["oracle", "gap", "--d", "2", "--k", "1", "--xmax=--"], "--xmax"),
    (["multisum", "eval", fx("kr_profile.json"), "--beta=--"], "--beta"),
    (["prove", fx("kr_system.json"), "--out=--"], "--out"),
], ids=["xmax", "beta", "out"])
def test_a_flag_given_a_bare_separator_is_a_usage_error(argv, flag, tmp_path, monkeypatch):
    # python 3.10-3.12 used to store [] and end in a traceback or write nothing
    # with exit 0, and 3.13 stored "--" and wrote a directory named --
    monkeypatch.chdir(tmp_path)
    code, out, err = _outcome(main, argv)
    assert (code, out) == (2, "")
    assert f"error: argument {flag}: " in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_output_is_deterministic(run_cli):
    argv = ["prove", fx("kr_system.json"), "--qmax", "10"]
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    assert first == second


def _fuzz_documents() -> dict:
    """kind -> (document, argv with @ for its file): one fixture document for
    each reader a command runs."""
    def doc(name: str) -> dict:
        return json.loads(open(fx(name)).read())

    fs = prover.assemble_system(*prover.load_system_spec(fx("kr_system.json")))
    proved = json.loads(json.dumps(prover.system_result_to_json(fs)))
    root = min(fs.certs)
    cert = json.loads(json.dumps(prover.cert_to_json(fs.profile, fs.S, fs.certs[root])))
    ex1 = prover.assemble_system(*prover.load_system_spec(fx("ex1_system.json")))
    bare = {"A": [list(r) for r in ex1.U], "weights": [list(v) for v in ex1.V], "S": ex1.S}
    return {
        "ideal": (doc("rr.json"), ["ideal", "genfun", "@"]),
        "profile": (doc("kr_profile.json"), ["multisum", "eval", "@", "--beta", "1,3"]),
        "spec": (doc("kr_system.json"), ["prove", "@"]),
        "proved": (proved, ["verify", "@"]),
        "proved-uv": ({k: v for k, v in proved.items() if k != "certs"}, ["verify", "@"]),
        "cert": (cert, ["export", "@", "--format", "json"]),
        "bare": (bare, ["qdiff", "solve", "@"]),
    }


FUZZ_DOCUMENTS = _fuzz_documents()
# the words the docs use for a top-level key, beside the key itself
FUZZ_KEY_WORDS = {("ideal", "S"): ("span",), ("spec", "S"): ("shift",), ("proved", "S"): ("shift",),
                  ("proved-uv", "S"): ("shift",), ("cert", "S"): ("shift",), ("bare", "S"): ("shift",)}


def _negated(v):
    """v with every number negated, every bool flipped and every string signed."""
    if type(v) is bool:
        return not v
    if type(v) is int:
        return -v
    if type(v) is str:
        return "-" + v
    if type(v) is list:
        return [_negated(e) for e in v]
    if type(v) is dict:
        return {k: _negated(e) for k, e in v.items()}
    return v


@st.composite
def _fuzzed_document(draw):
    """(kind, document, path, value): one field of a fixture document,
    reached along path, replaced by a value of another type, by its
    negation, by a larger value of its kind or by the value nested deeper."""
    kind = draw(st.sampled_from(sorted(FUZZ_DOCUMENTS)))
    doc = json.loads(json.dumps(FUZZ_DOCUMENTS[kind][0]))
    node, path = doc, []
    while True:
        key = draw(st.sampled_from(sorted(node)) if type(node) is dict else st.integers(0, len(node) - 1))
        path.append(key)
        child = node[key]
        if type(child) in (dict, list) and child and draw(st.booleans()):
            node = child
            continue
        break
    old = node[key]
    how = draw(st.sampled_from(["type", "negate", "grow", "nest"]))
    if how == "type":
        new = draw(st.sampled_from([None, True, 1.5, "1", [], {}, 7]).filter(lambda v: type(v) is not type(old)))
    elif how == "negate":
        new = _negated(old)
    elif how == "grow":
        if type(old) is int:
            new = draw(st.integers(abs(old), 10**6))
        elif type(old) is list:
            new = old + draw(st.lists(st.sampled_from(old) if old else st.integers(0, 10**6),
                                      min_size=1, max_size=max(1, 20 - len(old))))
        elif type(old) is str:
            new = "+".join([old] * draw(st.integers(2, 20)))
        elif type(old) is dict:
            new = {**old, **{f"{k}{i}": v for i in range(1, draw(st.integers(2, 4))) for k, v in old.items()}}
        else:
            new = old
    else:
        new = old
        for wrap in draw(st.lists(st.booleans(), min_size=1, max_size=3)):
            new = [new] if wrap else {"beta": new}
    node[key] = new
    return kind, doc, path, new


@settings(max_examples=400)
@given(_fuzzed_document())
def test_every_reader_survives_a_fuzzed_field(case):
    # each command returns one of its exit codes, and a refusal names the file or the field's top-level key
    kind, doc, path, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "input.json")
        with open(file, "w") as fh:
            json.dump(doc, fh)
        argv = [file if a == "@" else a for a in FUZZ_DOCUMENTS[kind][1]]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--qmax", "6"] if argv[0] != "export" else argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        message = err.getvalue()
        assert message.startswith("error: ")
        words = (str(path[0]), *FUZZ_KEY_WORDS.get((kind, path[0]), ()))
        assert file in message or any(re.search(rf"\b{re.escape(w)}(_\d+)?\b", message) for w in words), message
