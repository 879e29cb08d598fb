"""spanone benchmark: one closed-loop client making in-process CLI calls.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Each op is one ``spanone.cli.main(argv)`` call with stdout captured; the
next op starts when the previous one returns.  Inputs are the bundled
fixtures plus files generated from ``--seed`` before timing.  Every op's
output is checked against ``reference.json`` outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
op sequence twice, untraced and then with span wrappers installed (see
spans.py), and reports per-layer metrics plus the tracing overhead; the
spans of the latest traced run are written to
``.perfbench-run/spans-<workload>.tsv.gz``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it starting with
``#`` carry the machine stamp and details.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import typing
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-run"
SRC = ROOT / "src"
SETUP_REPS = 15


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{label}: {reason}")


@dataclass
class Phase:
    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    stdout_bytes: int = 0

    @property
    def ops_per_s(self) -> float:
        return len(self.walls) / sum(self.walls)


def call(main, argv: list[str]) -> tuple[object, str, float, float]:
    """One op: (exit code or failure text, stdout, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = "exception " + traceback.format_exc().strip().splitlines()[-1]
    t1 = time.perf_counter()
    c1 = time.process_time()
    return code, out.getvalue(), t1 - t0, c1 - c0


def package_modules() -> list[str]:
    return [m for m in sys.modules if m == "spanone" or m.startswith("spanone.")]


def drop_package() -> None:
    """Drop any earlier import of spanone, so the next import executes the
    package's module code again."""
    for name in package_modules():
        del sys.modules[name]
    # typing caches Union[...] over the library's classes, which would keep up
    # to 128 earlier imports alive and let peak RSS grow with the session count.
    for clear in getattr(typing, "_cleanups", ()):
        clear()


def import_cli():
    cli = importlib.import_module("spanone.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"imported spanone from {cli.__file__}, not from {SRC}")
    return cli


def fresh_cli():
    """Import spanone.cli from this checkout afresh."""
    drop_package()
    return import_cli()


def collect_and_freeze() -> None:
    """Untimed: free what the previous import or op left, then freeze the
    survivors, so the timed region starts with empty collector generations,
    as it would in a fresh process, and when a full collection strikes does
    not depend on what ran before it."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def set_up(warmups: list[list[str]], tally: Tally) -> float:
    """One timed set-up: a fresh import of the package and the warm-up ops.
    The running session's modules, if any, are set aside untimed and put
    back afterwards, so that the session goes on with its own state."""
    saved = {name: sys.modules[name] for name in package_modules()}
    drop_package()
    # the dropped modules' function/globals cycles are freed here, untimed
    collect_and_freeze()
    t0 = time.perf_counter()
    cli = import_cli()
    codes = [call(cli.main, argv)[0] for argv in warmups]
    elapsed = time.perf_counter() - t0
    for argv, code in zip(warmups, codes):
        tally.record("warm-up " + " ".join(argv[:2]), None if code == 0 else f"exit code {code!r}")
    drop_package()
    sys.modules.update(saved)
    return elapsed


def new_session(tracer=None):
    """Untimed: a fresh import of the package.  The collection before the
    next op frees the previous session.  Returns the new ``cli.main``."""
    if tracer is not None:
        tracer.uninstall()
    cli = fresh_cli()
    if tracer is not None:
        tracer.install()
    return cli.main


def run_ops(wl, tally: Tally, seconds: float, min_ops: int = 0, limit: int | None = None,
            tracer=None, op_log: list | None = None, setups: list[float] | None = None) -> Phase:
    """Run ops in pass order until ``limit`` ops, or until ``seconds`` have
    passed and ``min_ops`` are done at a ``stop_every`` boundary.  A new
    session starts every ``wl.session`` ops (only at the first op if None).
    Given ``setups``, more set-ups are timed between ops, spread evenly over
    ``seconds``, until it holds SETUP_REPS times."""
    phase = Phase()
    n = len(wl.ops)
    start = time.perf_counter()
    i = 0
    while True:
        if i == 0 or (wl.session and i % wl.session == 0):
            main = new_session(tracer)
        collect_and_freeze()
        op = wl.ops[i % n]
        if tracer is not None:
            tracer.op_id = len(op_log)
            op_log.append(op.argv)
        code, out, wall, cpu = call(main, op.argv)
        phase.walls.append(wall)
        phase.cpus.append(cpu)
        phase.stdout_bytes += len(out.encode())
        tally.record(op.kind, op.check(code, out))
        i += 1
        if limit is not None:
            if i >= limit:
                return phase
            continue
        elapsed = time.perf_counter() - start
        if setups is not None and len(setups) < SETUP_REPS and elapsed >= len(setups) * seconds / SETUP_REPS:
            setups.append(set_up(wl.warmups, tally))
        # the 4x cap keeps a run that is far slower than expected inside its time limit
        if i % wl.stop_every == 0 and elapsed >= seconds and (i >= min_ops or elapsed >= 4 * seconds):
            return phase


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "spanone").rglob("*")):
        if f.suffix in (".py", ".json"):
            h.update(str(f.relative_to(SRC)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def by_kind(ops, walls: list[float]) -> str:
    """Median latency and count of each op kind, slowest first."""
    kinds: dict[str, list[float]] = {}
    for i, wall in enumerate(walls):
        kinds.setdefault(ops[i % len(ops)].kind, []).append(wall)
    rows = sorted(((statistics.median(v), k, len(v)) for k, v in kinds.items()), reverse=True)
    return "median s by op kind: " + ", ".join(f"{k} {m:.4g} ({n})" for m, k, n in rows)


def with_units(values: dict[str, float], kind: str) -> dict:
    """The ``kind`` metrics BENCHMARK.json declares, with its units; each must
    have been measured."""
    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    missing = sorted(declared.keys() - values.keys())
    if missing:
        raise RuntimeError(f"{kind} metrics in BENCHMARK.json but not measured: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def e2e_metrics(setup_s: float, phase: Phase, wl) -> tuple[dict[str, float], list[str]]:
    walls = sorted(phase.walls)
    n = len(walls)
    # The host switches between a fast and a slow speed for seconds at a time,
    # and any one order statistic of a whole run jumps between the two as
    # their shares cross its rank.  An order statistic of each block of
    # consecutive ops follows the speed of its moment, and their mean moves
    # smoothly with the shares.
    blocks = [sorted(phase.walls[i:i + wl.block]) for i in range(0, n - wl.block + 1, wl.block)]
    values = {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s,
        "cpu_ms_per_op": 1000.0 * sum(phase.cpus) / n,
        "op_s.p50": statistics.fmean(statistics.median(b) for b in blocks),
        "op_s.tail": statistics.fmean(b[-wl.tail_rank] for b in blocks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, [
        f"op_s.p50 and op_s.tail are the means over {len(blocks)} blocks of {wl.block} ops of "
        f"the median and of the latency ranked {wl.tail_rank} from the top "
        f"(the median of all {n} is {statistics.median(walls):.6g} s)"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "spanone" / "cli.py").is_file():
        print(f"error: no spanone sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    stamp = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
             "git_sha": git_sha(), "src_sha256": src_digest(), "loadavg_start": loadavg()}

    ref = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())
    wl = workloads.build(args.workload, ROOT, WORK / args.workload, args.seed, ref)
    tally = Tally()
    setups = [set_up(wl.warmups, tally)]

    notes = []
    if args.trace:
        from spans import Tracer

        untraced = run_ops(wl, tally, args.seconds / 2)
        tracer, op_log = Tracer(), []
        try:
            traced = run_ops(wl, tally, 0, limit=len(untraced.walls), tracer=tracer, op_log=op_log)
        finally:
            tracer.uninstall()
        metrics = with_units(tracer.metrics(len(traced.walls), traced.stdout_bytes,
                                            traced.ops_per_s, untraced.ops_per_s), "per_layer")
        spans_file = WORK / f"spans-{args.workload}.tsv.gz"
        tracer.write(spans_file, op_log)
        notes.append(f"tracing overhead: {traced.ops_per_s:.4g} ops/s traced vs "
                     f"{untraced.ops_per_s:.4g} untraced over the same {len(traced.walls)} ops")
        notes.append(f"{len(tracer.start)} spans written to {spans_file.relative_to(ROOT)}")
    else:
        phase = run_ops(wl, tally, args.seconds, min_ops=wl.min_ops, setups=setups)
        while len(setups) < SETUP_REPS:
            setups.append(set_up(wl.warmups, tally))
        values, e2e_notes = e2e_metrics(statistics.median(setups), phase, wl)
        metrics = with_units(values, "end_to_end")
        notes.extend(e2e_notes)
        notes.append(by_kind(wl.ops, phase.walls))

    stamp["loadavg_end"] = loadavg()
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    for note in notes:
        print("# " + note)
    print(f"# failed_frac {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4g}")
    for err in tally.errors:
        print("# failed: " + err)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
