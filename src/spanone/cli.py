"""Command line access to every layer of the package.

Subcommands mirror the library: ``oracle`` (brute-force partition counts),
``ideal`` (membership, enumeration, matrix-product generating functions),
``qdiff`` (solve and check the attached q-difference system), ``multisum``
(evaluate H, apply a relation, shift, run side-condition checks), ``prove``
(derive certificate trees and assemble the factorization), ``verify``
(numeric re-check of a proved factorization, plus an exact check of the
certificate trees it carries) and ``export`` (certificate trees to DOT or
JSON).

Each command is one row of the table COMMANDS: its help, the function that
runs it and its arguments, as (name or flag, add_argument keywords) pairs.
A group row holds its help and a table of its subcommands.  An argv of
positionals and --flag value pairs is read straight from its command's
row, with no parser built; argparse, with every command, is imported and
built only for help, usage errors, --flag=value and the other forms the
reader leaves to it, and pathlib only for prove --out.

Every report is plain text followed by a blank line and one JSON object, so
output is both readable and machine-parsable.  Exit codes: 0 success or a
check that came back true, 1 a check that came back false, 2 usage or input
errors, 3 certificate search exhaustion.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from types import SimpleNamespace

from . import ideals, jsonin, multisum, partitions, prover, qdiff
from .series import Series, series_sum

CLI_Q_MAX = 25


def _write_text(path: str | os.PathLike, text: str) -> None:
    """Write text to path, creating the file with mode 0o666 less the umask:
    the bytes and mode Path.write_text gives, written over the old bytes.

    The file is opened without O_TRUNC.  Truncating a file that holds data
    to zero frees its blocks, so writing it again allocates them anew, and
    prove rewrites the same files on every rerun into the same directory.
    Only a file left longer than the text is cut to the text's length
    after the write: ftruncate fails with EINVAL on a device such as
    /dev/null, whose size reads 0.  A write interrupted part way leaves
    the new text followed by the tail of the old file, where an O_TRUNC
    write would leave a cut-off file; read back as JSON, either is
    refused with exit 2.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _emit(lines: list[str], payload: dict) -> None:
    print("\n".join([*lines, "", json.dumps(payload, sort_keys=True)]))


def _series_payload(s: Series) -> dict:
    return {
        "x_max": s.x_max,
        "q_max": s.q_max,
        "terms": [[m, n, c] for (m, n), c in s.terms()],
        "text": s.render(),
    }


def _parse_beta(text: str) -> tuple[int, ...]:
    if not re.fullmatch(r"-?[0-9]+(,-?[0-9]+)*", text):
        raise ValueError(f"bad beta {text!r}, expected comma-separated integers")
    return tuple(int(tok) for tok in text.split(","))


def _order(flag: str, value: int) -> int:
    # the library checks its orders too, but its message cannot name the flag
    if value < 0:
        raise ValueError(f"{flag}: truncation orders must be >= 0, got {value}")
    return value


def _nonnegative(flag: str, value: int) -> int:
    # as _order: the library's message names its parameter, not the flag
    if value < 0:
        raise ValueError(f"{flag} must be >= 0, got {value}")
    return value


def _orders(args) -> tuple[int, int]:
    q_max = _order("--qmax", args.qmax)
    x_max = q_max if args.xmax is None else _order("--xmax", args.xmax)
    return x_max, q_max


# -- oracle ---------------------------------------------------------------


def cmd_oracle(args) -> int:
    x_max, q_max = _orders(args)
    if args.predicate == "gap":
        if args.d is None or args.k is None:
            raise ValueError("gap oracle needs --d and --k")
        if args.k < 1:
            raise ValueError(f"--k must be >= 1, got {args.k}")
        d, k = args.d, args.k
        pred = lambda p: partitions.satisfies_gap(p, d, k)
        name = f"gap(d={d}, k={k})"
    else:
        for flag, value in (("--d", args.d), ("--k", args.k)):
            if value is not None:
                raise ValueError(f"the kr-i1 oracle takes no {flag}")
        pred = partitions.kr_i1_predicate
        name = "kr-i1"
    series = _series_payload(partitions.oracle_genfun(pred, x_max, q_max))
    _emit(
        [f"oracle {name}  qmax={q_max} xmax={x_max}", f"genfun = {series['text']}"],
        {"command": "oracle", "predicate": name, "series": series},
    )
    return 0


# -- ideal ----------------------------------------------------------------


def cmd_ideal_genfun(args) -> int:
    x_max, q_max = _orders(args)
    ideal = ideals.load_ideal(args.file)
    vec = ideals.ideal_genfun_vec(ideal, x_max, q_max)
    components = [_series_payload(s) for s in vec]
    total = _series_payload(series_sum(vec, x_max, q_max))
    lines = [f"ideal {args.file}  K={ideal.K} S={ideal.S}  qmax={q_max} xmax={x_max}"]
    lines += [f"G_{k + 1} = {s['text']}" for k, s in enumerate(components)]
    lines.append(f"total = {total['text']}")
    _emit(
        lines,
        {"command": "ideal-genfun", "K": ideal.K, "S": ideal.S, "components": components, "total": total},
    )
    return 0


def cmd_ideal_members(args) -> int:
    ideal = ideals.load_ideal(args.file)
    series, members = ideals.enumerate_members(ideal, _order("--qmax", args.qmax))
    genfun = _series_payload(series)
    # format_partition on part tuples, through one text per part: a part is
    # at most its member's size, so at most q_max
    part_text = [str(a) for a in range(args.qmax + 1)].__getitem__
    rendered = ["+".join(map(part_text, parts)) if parts else "empty" for parts in members]
    # the members are listed once, in the JSON
    _emit(
        [f"ideal {args.file}  members of size <= {args.qmax}: {len(members)}", f"genfun = {genfun['text']}"],
        {"command": "ideal-members", "count": len(members), "members": rendered, "genfun": genfun},
    )
    return 0


def cmd_ideal_contains(args) -> int:
    ideal = ideals.load_ideal(args.file)
    lam = partitions.parse_partition(args.partition)
    chain = ideals.contains(ideal, lam)
    if chain is None:
        _emit(
            [f"{partitions.format_partition(lam)} is not a member"],
            {"command": "ideal-contains", "member": False},
        )
        return 1
    rendered = [partitions.format_partition(p) for p in chain]
    _emit(
        [
            f"{partitions.format_partition(lam)} is a member",
            "chain: " + (" -> ".join(rendered) if rendered else "(empty)"),
        ],
        {"command": "ideal-contains", "member": True, "chain": rendered},
    )
    return 0


# -- qdiff ----------------------------------------------------------------


def _load_qdiff_input(path: str) -> tuple[qdiff.QDiffSystem, ideals.SpanOneIdeal | None]:
    data = jsonin.load(path)
    if "pi" in data:
        ideal = ideals.ideal_from_json(data)
        return ideals.associated_graph(ideal), ideal
    return qdiff.system_from_json(data), None


def cmd_qdiff_solve(args) -> int:
    x_max, q_max = _orders(args)
    system, _ = _load_qdiff_input(args.file)
    F = qdiff.solve(system, x_max, q_max)
    # one payload per distinct component: vertices with equal rows of A share one
    payloads = {s: _series_payload(s) for s in dict.fromkeys(F)}
    components = [payloads[s] for s in F]
    lines = [f"system {args.file}  K={system.K} S={system.S}  qmax={q_max} xmax={x_max}"]
    lines += [f"F_{k + 1} = {s['text']}" for k, s in enumerate(components)]
    _emit(lines, {"command": "qdiff-solve", "K": system.K, "S": system.S, "components": components})
    return 0


def cmd_qdiff_check(args) -> int:
    """Check solve against the system it solved and, for an ideal file, against
    the walk-product route.  On a bare {A, weights, S} file only the first
    check runs, which cannot fail: it passes for every valid system, so it
    proves nothing about where the system came from, and the output says
    so (independent_route false)."""
    x_max, q_max = _orders(args)
    system, ideal = _load_qdiff_input(args.file)
    F = qdiff.solve(system, x_max, q_max)
    ok_solve = qdiff.check_system(system, F)
    lines = [
        f"system {args.file}  K={system.K} S={system.S}  qmax={q_max} xmax={x_max}",
        f"solve satisfies the system: {ok_solve}",
    ]
    payload = {
        "command": "qdiff-check",
        "solve_satisfies_system": ok_solve,
    }
    ok_routes = None
    if ideal is not None:
        G = ideals.ideal_genfun_vec(ideal, x_max, q_max)
        F2 = qdiff.f_from_g(system, G)
        # both routes live on (x_max, q_max)
        ok_routes = F == F2
        lines.append(f"solve agrees with the walk-product route: {ok_routes}")
        payload["routes_agree"] = ok_routes
    else:
        lines.append("no independent route ran: a bare system is checked only against itself")
        payload["independent_route"] = False
    ok = ok_solve and ok_routes is not False
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    payload["ok"] = ok
    _emit(lines, payload)
    return 0 if ok else 1


# -- multisum -------------------------------------------------------------


def cmd_multisum_eval(args) -> int:
    x_max, q_max = _orders(args)
    p = multisum.load_profile(args.file)
    beta = _parse_beta(args.beta)
    series = _series_payload(multisum.eval_H(p, beta, x_max, q_max))
    _emit(
        [f"profile {args.file}  qmax={q_max} xmax={x_max}", f"{prover._beta_label(beta)} = {series['text']}"],
        {"command": "multisum-eval", "beta": list(beta), "series": series},
    )
    return 0


def cmd_multisum_rec(args) -> int:
    x_max, q_max = _orders(args)
    p = multisum.load_profile(args.file)
    beta = _parse_beta(args.beta)
    if not 1 <= args.coord <= p.R:
        raise ValueError(f"--coord must be in 1..{p.R}, got {args.coord}")
    left, (xe, qe), right = multisum.rec_children(p, beta, args.coord)
    ok = multisum.verify_recurrence_numeric(p, beta, args.coord, x_max, q_max)
    lab, weight = prover._beta_label, prover._weight_label(xe, qe)
    lines = [
        f"{lab(beta)} = {lab(left)} + {weight} * {lab(right)}   [coordinate {args.coord}]",
        f"verified to qmax={q_max} xmax={x_max}: {ok}",
    ]
    _emit(
        lines,
        {
            "command": "multisum-rec",
            "beta": list(beta),
            "coord": args.coord,
            "left": list(left),
            "weight": [xe, qe],
            "right": list(right),
            "verified": ok,
        },
    )
    return 0 if ok else 1


def cmd_multisum_shift(args) -> int:
    _nonnegative("--shift", args.shift)
    p = multisum.load_profile(args.file)
    beta = _parse_beta(args.beta)
    shifted = multisum.shift_beta(p, beta, args.shift)
    _emit(
        [f"beta {beta} shifted by S={args.shift} -> {shifted}"],
        {
            "command": "multisum-shift",
            "beta": list(beta),
            "S": args.shift,
            "shifted": list(shifted),
        },
    )
    return 0


def cmd_multisum_check(args) -> int:
    if args.shift is not None:
        _nonnegative("--shift", args.shift)
    p = multisum.load_profile(args.file)
    beta = _parse_beta(args.beta)
    pos = multisum.check_positivity(p, beta)
    lines = [f"positivity of beta {beta}: {pos}"]
    payload = {"command": "multisum-check", "beta": list(beta), "positivity": pos}
    ok = pos
    if args.shift is not None:
        add = multisum.check_additional(p, args.shift)
        lines.append(f"divisibility conditions at S={args.shift}: {add}")
        payload["additional"] = add
        ok = ok and add
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    payload["ok"] = ok
    _emit(lines, payload)
    return 0 if ok else 1


# -- prove / verify / export ----------------------------------------------


def _checked_rows(fs: prover.FactorizationSystem, x_max: int, q_max: int) -> tuple[dict, list[bool]]:
    """Rejected certificates, and per row: no rejected certificate and a numeric match."""
    bad_certs = prover.check_certs(fs)
    rows_ok = prover.verify_numeric(fs, x_max, q_max)
    return bad_certs, [ok and b not in bad_certs for ok, b in zip(rows_ok, fs.betas)]


def cmd_prove(args) -> int:
    x_max, q_max = _orders(args)
    budget = _nonnegative("--max-expansions", args.max_expansions)
    p, S, betas = prover.load_system_spec(args.file)
    fs = prover.assemble_system(p, S, betas, budget)
    _, rows_ok = _checked_rows(fs, x_max, q_max)

    positivity = {b: multisum.check_positivity(p, b) for b in sorted(set(fs.betas))}
    additional = multisum.check_additional(p, S)
    result = prover.system_result_to_json(fs)

    lines = [f"system {args.file}  K={fs.K} S={S}  max expansions={args.max_expansions}"]
    for root, tree in sorted(fs.certs.items()):
        n = prover.expansions(tree)
        lines.append(f"certificate for {prover._beta_label(root)}: {n} expansions, {n + 1} leaves")
    lines += [f"positivity of beta {b}: {ok}" for b, ok in positivity.items()]
    lines.append(f"divisibility conditions at S={S}: {additional}")
    lines.append("U =")
    lines += ["  " + " ".join(str(e) for e in row) for row in fs.U]
    lines.append("V = " + ", ".join(prover._weight_label(xe, qe) for xe, qe in fs.V))
    lines.append(f"verification at qmax={q_max} xmax={x_max}: " +
                 ("all rows ok" if all(rows_ok) else f"failures in rows {[i + 1 for i, r in enumerate(rows_ok) if not r]}"))

    payload = {
        "command": "prove",
        "result": result,
        "positivity": {",".join(map(str, b)): ok for b, ok in positivity.items()},
        "additional": additional,
        "rows_verified": rows_ok,
        "qmax": q_max,
        "xmax": x_max,
    }

    if args.out:
        from pathlib import Path

        outdir = Path(args.out)
        docs = {outdir / "system.json": prover.json_text(result)}
        for root, tree in sorted(fs.certs.items()):
            base = outdir / f"cert_{'_'.join(map(str, root))}"
            docs[base.with_suffix(".cert.json")] = prover.json_text(prover.cert_to_json(p, S, tree))
            docs[base.with_suffix(".dot")] = prover.tree_to_dot(p, tree)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            for path, text in docs.items():
                _write_text(path, text)
        except OSError as exc:
            raise ValueError(f"--out: {exc}") from None
        written = [str(path) for path in docs]
        lines += [f"wrote {w}" for w in written]
        payload["written"] = written

    _emit(lines, payload)
    return 0 if all(rows_ok) else 1


def cmd_verify(args) -> int:
    x_max, q_max = _orders(args)
    fs = prover.load_factorization(args.file)
    bad_certs, rows_ok = _checked_rows(fs, x_max, q_max)
    lines = [f"system {args.file}  K={fs.K} S={fs.S}  qmax={q_max} xmax={x_max}"]
    for k, ok in enumerate(rows_ok):
        lines.append(f"row {k + 1}: {prover._beta_label(fs.betas[k])} == selected combination: {'ok' if ok else 'MISMATCH'}")
    for root, why in sorted(bad_certs.items()):
        lines.append(f"certificate for {prover._beta_label(root)} rejected: {why}")
    good = all(rows_ok)
    lines.append(f"result: {'PASS' if good else 'FAIL'}")
    payload = {"command": "verify", "qmax": q_max, "xmax": x_max, "rows": rows_ok, "ok": good}
    if bad_certs:
        payload["certs_rejected"] = {",".join(map(str, r)): why for r, why in bad_certs.items()}
    _emit(lines, payload)
    return 0 if good else 1


def cmd_export(args) -> int:
    p, S, tree = prover.load_cert(args.file)
    if args.format == "dot":
        text = prover.tree_to_dot(p, tree)
    else:
        text = prover.json_text(prover.cert_to_json(p, S, tree))
    if args.out:
        try:
            _write_text(args.out, text)
        except OSError as exc:
            raise ValueError(f"--out: {exc}") from None
        _emit(
            [f"wrote {args.out}"],
            {"command": "export", "format": args.format, "out": args.out},
        )
    else:
        sys.stdout.write(text)
    return 0


# -- parser ----------------------------------------------------------------


# arguments are (name or flag, add_argument keywords) pairs; these two
# groups are spliced into the commands that take them
ORDERS = (
    ("--qmax", dict(type=int, default=CLI_Q_MAX, help="q truncation order")),
    ("--xmax", dict(type=int, default=None, help="x truncation order (default: qmax)")),
)
PROFILE_AND_BETA = (
    ("file", {}),
    ("--beta", dict(required=True, help="comma-separated integers; write -1,3 as --beta=-1,3")),
)

# name -> (help, function, arguments) for a command, (help, table of its subcommands) for a group
COMMANDS = {
    "oracle": ("brute-force partition generating functions", cmd_oracle, (
        ("predicate", dict(choices=["gap", "kr-i1"])),
        ("--d", dict(type=int, default=None, help="minimum difference")),
        ("--k", dict(type=int, default=None, help="distance at which the difference applies")),
        *ORDERS,
    )),
    "ideal": ("span-one linked partition ideals", {
        "genfun": ("matrix-product generating function vector", cmd_ideal_genfun, (("file", {}), *ORDERS)),
        "members": ("enumerate members up to a size bound", cmd_ideal_members, (
            ("file", {}),
            ("--qmax", dict(type=int, default=CLI_Q_MAX)),
        )),
        "contains": ("membership test with chain decomposition", cmd_ideal_contains, (
            ("file", {}),
            ("partition", dict(help="partition literal, e.g. 6+4+1 or empty")),
        )),
    }),
    "qdiff": ("q-difference systems of ideals and digraphs", {
        "solve": ("unique power-series solution", cmd_qdiff_solve, (
            ("file", dict(help="ideal json or {A, weights, S} json")),
            *ORDERS,
        )),
        "check": ("consistency of solve and the walk product (ideal files); "
                  "on a bare {A, weights, S} file it cannot fail", cmd_qdiff_check, (("file", {}), *ORDERS)),
    }),
    "multisum": ("Nahm-type multi-sum series", {
        "eval": ("truncated evaluation of H(beta)", cmd_multisum_eval, (*PROFILE_AND_BETA, *ORDERS)),
        "rec": ("two-term relation at a coordinate", cmd_multisum_rec, (
            *PROFILE_AND_BETA,
            ("--coord", dict(type=int, required=True)),
            *ORDERS,
        )),
        "shift": ("beta after substituting x -> x q^S", cmd_multisum_shift, (
            *PROFILE_AND_BETA,
            ("--shift", dict(type=int, required=True)),
        )),
        "check": ("positivity and divisibility conditions", cmd_multisum_check, (
            *PROFILE_AND_BETA,
            ("--shift", dict(type=int, default=None)),
        )),
    }),
    "prove": ("derive certificates and assemble U, V", cmd_prove, (
        ("file", dict(help="json with profile, S and betas")),
        ("--max-expansions", dict(type=int, default=prover.MAX_EXPANSIONS)),
        ("--out", dict(default=None, help="directory for certificates and matrices")),
        *ORDERS,
    )),
    "verify": ("numeric check of a (proved) factorization", cmd_verify, (
        ("file", dict(help="system spec or prove output json")),
        *ORDERS,
    )),
    "export": ("certificate tree to DOT or JSON", cmd_export, (
        ("file", dict(help="certificate json written by prove --out")),
        ("--format", dict(choices=["dot", "json"], required=True)),
        ("--out", dict(default=None)),
    )),
}


# the namespace keys that name a command path's first and second command
PATH_DESTS = ("command", "subcommand")


def _command(argv) -> tuple | None:
    """The command names leading argv down to a leaf of COMMANDS, with that
    row's function, its flags as {flag: (namespace key, keywords)} and its
    positionals in order; None when argv does not start with a complete,
    known path."""
    table, path = COMMANDS, ()
    for token in argv:
        if token not in table:
            return None
        path += (token,)
        _, spec, *rest = table[token]
        if not isinstance(spec, dict):
            (arguments,) = rest
            flags = {name: (name.lstrip("-").replace("-", "_"), keywords)
                     for name, keywords in arguments if name.startswith("-")}
            return path, spec, flags, [(name, keywords) for name, keywords in arguments if not name.startswith("-")]
        table = spec
    return None


def _read_argv(argv) -> SimpleNamespace | None:
    """A namespace with the attributes build_parser() gives argv, read
    straight from the COMMANDS row argv names, when argv is positionals and
    --flag value pairs.  It is None wherever argparse must decide: a token holding =,
    -h or --, an unknown, abbreviated or repeated flag, a token or separate
    value starting with -, a missing or extra positional, a missing
    required flag, or a value its type or choices refuse.  So help, every
    usage error and every --flag=value come from argparse."""
    command = _command(argv)
    if command is None or any("=" in token for token in argv):
        return None
    path, func, flags, positionals = command
    values = dict(zip(PATH_DESTS, path), func=func, **{dest: keywords.get("default") for dest, keywords in flags.values()})
    seen = set()
    tokens = iter(argv[len(path):])
    for token in tokens:
        if token.startswith("-"):
            if token not in flags or token in seen:
                return None
            seen.add(token)
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            dest, keywords = flags[token]
        elif positionals:
            (dest, keywords), value = positionals.pop(0), token
        else:
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
    if positionals or any(keywords.get("required") and flag not in seen for flag, (_, keywords) in flags.items()):
        return None
    return SimpleNamespace(**values)


def _add_commands(parser, table, dests=PATH_DESTS) -> None:
    """A subparser under parser for each row of table, with a group's
    subcommands below its own."""
    sub = parser.add_subparsers(dest=dests[0], required=True)
    for name, (help_text, spec, *rest) in table.items():
        sp = sub.add_parser(name, help=help_text)
        if isinstance(spec, dict):
            _add_commands(sp, spec, dests[1:])
        else:
            (arguments,) = rest
            for flag, keywords in arguments:
                sp.add_argument(flag, **keywords)
            sp.set_defaults(func=spec)


@functools.cache
def build_parser():
    """The argument parser for every command of COMMANDS, built once per
    process and only for the argvs _read_argv leaves to argparse: help,
    usage errors, --flag=value and forms such as an abbreviated or repeated
    flag.  Its help and errors list every command.  argparse is imported
    here and nowhere else: with what it imports it costs a cold process
    about as much as the rest of the package, and an argv the reader takes
    never needs it, so only help, usage errors and the forms left to
    argparse pay for it.  parse_args starts every call from a fresh
    namespace, so nothing carries over between calls.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="spanone",
        description="generating functions and factorization certificates "
        "for span-one linked partition ideals",
    )
    _add_commands(parser, COMMANDS)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        path = [vars(args)[dest] for dest in PATH_DESTS if dest in vars(args)]
        for flag, (dest, _) in _command(path)[2].items():
            # --flag=-- is stored as [] by python 3.10-3.12 and as "--" by 3.13;
            # argparse refuses the bare flag: "expected one argument", exit 2
            if getattr(args, dest) in ([], "--"):
                build_parser().parse_args([*path, flag])
    try:
        return args.func(args)
    except prover.SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        # jsonin.load, its error messages and the tree walks recurse once per level of
        # nesting; the oracle's walk, the one other recursion, is bounded by its window
        print(f"error: {args.file}: input is nested too deeply for the recursion limit", file=sys.stderr)
        return 2
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
