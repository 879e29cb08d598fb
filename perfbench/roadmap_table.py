"""Re-measure the layer timings tabulated in ROADMAP item 1, by direct calls.

    python3 perfbench/roadmap_table.py

Prints the median of ``REPS`` calls for each row next to the value the
table gives.  These are single calls on fixed inputs, separate from the
benchmark's workloads; use them to check the table, not to judge a change.
"""

from __future__ import annotations

import io
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPS = 3


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from spanone import cli, fixture_path, multisum, partitions, prover

    ex3, S3, b3 = prover.load_system_spec(fixture_path("ex3_system.json"))
    kr, _, _ = prover.load_system_spec(fixture_path("kr_system.json"))
    fs3 = prover.assemble_system(ex3, S3, b3)
    root3, rootkr = (1, 2, 4), (1, 3)
    ex3_file = str(fixture_path("ex3_system.json"))

    def quiet_cli(argv):
        with redirect_stdout(io.StringIO()):
            cli.main(argv)

    rows = [
        ("eval_H ex3 (R=3), q=25", 0.056, lambda: multisum.eval_H(ex3, root3, 25, 25)),
        ("eval_H ex3 (R=3), q=40", 0.45, lambda: multisum.eval_H(ex3, root3, 40, 40)),
        ("eval_H ex3 (R=3), q=60", 2.7, lambda: multisum.eval_H(ex3, root3, 60, 60)),
        ("eval_H kr (R=2), q=60", 0.30, lambda: multisum.eval_H(kr, rootkr, 60, 60)),
        ("verify_numeric ex3, q=25", 0.26, lambda: prover.verify_numeric(fs3, 25, 25)),
        ("assemble_system ex3", 0.014, lambda: prover.assemble_system(ex3, S3, b3)),
        ("oracle_genfun kr-i1, q=30", 0.24,
         lambda: partitions.oracle_genfun(partitions.kr_i1_predicate, 30, 30)),
        ("CLI prove ex3, q=25", 0.47, lambda: quiet_cli(["prove", ex3_file, "--qmax", "25"])),
        ("CLI prove ex3, q=40", 1.96, lambda: quiet_cli(["prove", ex3_file, "--qmax", "40"])),
    ]
    print(f"{'row':30} {'table s':>8} {'median s':>9} {'ratio':>6}")
    for label, table, fn in rows:
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        med = statistics.median(times)
        print(f"{label:30} {table:8.3f} {med:9.3f} {med / table:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
