"""The command line's argument surface, pinned as plain data.

For the top parser, each group and each command: every argparse action's
option strings, dest, default, type name, choices, required flag and help,
with a subcommand action's choices given as its (name, help) pairs.  The
pin was written from the parser before its commands became table rows, so
it checks the table against what the adder functions built, on every
python version: the help text argparse prints around these values changes
between versions, these values do not.
"""

from __future__ import annotations

import argparse

import pytest

from spanone import cli

HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, None, False, "show this help message and exit")

SURFACE = {
    (): [
        HELP,
        ((), "command", None, None, (
            ("oracle", "brute-force partition generating functions"),
            ("ideal", "span-one linked partition ideals"),
            ("qdiff", "q-difference systems of ideals and digraphs"),
            ("multisum", "Nahm-type multi-sum series"),
            ("prove", "derive certificates and assemble U, V"),
            ("verify", "numeric check of a (proved) factorization"),
            ("export", "certificate tree to DOT or JSON"),
        ), True, None),
    ],
    ("oracle",): [
        HELP,
        ((), "predicate", None, None, ("gap", "kr-i1"), True, None),
        (("--d",), "d", None, "int", None, False, "minimum difference"),
        (("--k",), "k", None, "int", None, False, "distance at which the difference applies"),
        (("--qmax",), "qmax", 25, "int", None, False, "q truncation order"),
        (("--xmax",), "xmax", None, "int", None, False, "x truncation order (default: qmax)"),
    ],
    ("ideal",): [
        HELP,
        ((), "subcommand", None, None, (
            ("genfun", "matrix-product generating function vector"),
            ("members", "enumerate members up to a size bound"),
            ("contains", "membership test with chain decomposition"),
        ), True, None),
    ],
    ("ideal", "genfun"): [
        HELP,
        ((), "file", None, None, None, True, None),
        (("--qmax",), "qmax", 25, "int", None, False, "q truncation order"),
        (("--xmax",), "xmax", None, "int", None, False, "x truncation order (default: qmax)"),
    ],
    ("ideal", "members"): [
        HELP,
        ((), "file", None, None, None, True, None),
        (("--qmax",), "qmax", 25, "int", None, False, None),
    ],
    ("ideal", "contains"): [
        HELP,
        ((), "file", None, None, None, True, None),
        ((), "partition", None, None, None, True, "partition literal, e.g. 6+4+1 or empty"),
    ],
    ("qdiff",): [
        HELP,
        ((), "subcommand", None, None, (
            ("solve", "unique power-series solution"),
            ("check", "consistency of solve and the walk product (ideal files);"
             " on a bare {A, weights, S} file it cannot fail"),
        ), True, None),
    ],
    ("qdiff", "solve"): [
        HELP,
        ((), "file", None, None, None, True, "ideal json or {A, weights, S} json"),
        (("--qmax",), "qmax", 25, "int", None, False, "q truncation order"),
        (("--xmax",), "xmax", None, "int", None, False, "x truncation order (default: qmax)"),
    ],
    ("qdiff", "check"): [
        HELP,
        ((), "file", None, None, None, True, None),
        (("--qmax",), "qmax", 25, "int", None, False, "q truncation order"),
        (("--xmax",), "xmax", None, "int", None, False, "x truncation order (default: qmax)"),
    ],
    ("multisum",): [
        HELP,
        ((), "subcommand", None, None, (
            ("eval", "truncated evaluation of H(beta)"),
            ("rec", "two-term relation at a coordinate"),
            ("shift", "beta after substituting x -> x q^S"),
            ("check", "positivity and divisibility conditions"),
        ), True, None),
    ],
    ("multisum", "eval"): [
        HELP,
        ((), "file", None, None, None, True, None),
        (("--beta",), "beta", None, None, None, True, "comma-separated integers; write -1,3 as --beta=-1,3"),
        (("--qmax",), "qmax", 25, "int", None, False, "q truncation order"),
        (("--xmax",), "xmax", None, "int", None, False, "x truncation order (default: qmax)"),
    ],
    ("multisum", "rec"): [
        HELP,
        ((), "file", None, None, None, True, None),
        (("--beta",), "beta", None, None, None, True, "comma-separated integers; write -1,3 as --beta=-1,3"),
        (("--coord",), "coord", None, "int", None, True, None),
        (("--qmax",), "qmax", 25, "int", None, False, "q truncation order"),
        (("--xmax",), "xmax", None, "int", None, False, "x truncation order (default: qmax)"),
    ],
    ("multisum", "shift"): [
        HELP,
        ((), "file", None, None, None, True, None),
        (("--beta",), "beta", None, None, None, True, "comma-separated integers; write -1,3 as --beta=-1,3"),
        (("--shift",), "shift", None, "int", None, True, None),
    ],
    ("multisum", "check"): [
        HELP,
        ((), "file", None, None, None, True, None),
        (("--beta",), "beta", None, None, None, True, "comma-separated integers; write -1,3 as --beta=-1,3"),
        (("--shift",), "shift", None, "int", None, False, None),
    ],
    ("prove",): [
        HELP,
        ((), "file", None, None, None, True, "json with profile, S and betas"),
        (("--max-expansions",), "max_expansions", 64, "int", None, False, None),
        (("--out",), "out", None, None, None, False, "directory for certificates and matrices"),
        (("--qmax",), "qmax", 25, "int", None, False, "q truncation order"),
        (("--xmax",), "xmax", None, "int", None, False, "x truncation order (default: qmax)"),
    ],
    ("verify",): [
        HELP,
        ((), "file", None, None, None, True, "system spec or prove output json"),
        (("--qmax",), "qmax", 25, "int", None, False, "q truncation order"),
        (("--xmax",), "xmax", None, "int", None, False, "x truncation order (default: qmax)"),
    ],
    ("export",): [
        HELP,
        ((), "file", None, None, None, True, "certificate json written by prove --out"),
        (("--format",), "format", None, None, ("dot", "json"), True, None),
        (("--out",), "out", None, None, None, False, None),
    ],
}


def _surface(parser: argparse.ArgumentParser) -> list[tuple]:
    rows = []
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            choices = tuple((c.dest, c.help) for c in a._choices_actions)
        else:
            choices = None if a.choices is None else tuple(a.choices)
        rows.append((tuple(a.option_strings), a.dest, a.default, getattr(a.type, "__name__", a.type),
                     choices, a.required, a.help))
    return rows


def _parsers(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """(path, parser) for parser and every parser below it."""
    yield path, parser
    if parser._subparsers is not None:
        (sub,) = parser._subparsers._group_actions
        for name, child in sub.choices.items():
            yield from _parsers(child, path + (name,))


def test_full_tree_matches_the_pin():
    assert {path: _surface(p) for path, p in _parsers(cli.build_parser())} == SURFACE


@pytest.mark.parametrize("path", [path for path in SURFACE if cli._command(path) is not None], ids=" ".join)
def test_each_chain_ends_in_the_pinned_command(path):
    # the full tree's parser at the end of path
    leaf = dict(_parsers(cli.build_parser()))[path]
    assert _surface(leaf) == SURFACE[path]
    assert leaf.get_default("func") is getattr(cli, "cmd_" + "_".join(path))
