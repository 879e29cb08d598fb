"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 perfbench/sweep.py --workloads certify genfun mutants --seeds 1-10
    python3 perfbench/sweep.py --workloads genfun --seeds 1-5 --trace 1

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the bound
from BENCHMARK.json.  ``--trajectory LABEL`` appends the medians, with the
machine stamp of the first run, to perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    stamp = next(json.loads(ln[8:]) for ln in lines if ln.startswith("# stamp "))
    return json.loads(lines[-1]), stamp


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trajectory", metavar="LABEL", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary, stamps = {}, []
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in args.seeds:
            result, stamp = run_once(workload, seed, args.seconds, args.trace)
            stamps.append(stamp)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                             if k in bounds)
            print(f"{workload} seed {seed}: correct={result['correct']} load "
                  f"{stamp['loadavg_start'].split()[0]}->{stamp['loadavg_end'].split()[0]} {shown}",
                  flush=True)
        print(f"\n{workload}: {failed} of {attempted} ops failed")
        print(f"  {'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        summary[workload] = {"failed": failed, "attempted": attempted, "metrics": {}}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else ("  OVER" if spread > bound else
                                             ("  >1/3" if spread > bound / 3 else ""))
            print(f"  {name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
            summary[workload]["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "values": vals}

    if args.trajectory:
        path = HERE / "trajectory.json"
        entries = json.loads(path.read_text()) if path.exists() else []
        first = stamps[0]
        entries.append({
            "label": args.trajectory,
            "git_sha": first["git_sha"],
            "src_sha256": first["src_sha256"],
            "python": first["python"],
            "nproc": first["nproc"],
            "seeds": [args.seeds[0], args.seeds[-1]],
            "seconds": args.seconds,
            "trace": args.trace,
            "loadavg": [s["loadavg_start"] for s in stamps],
            "workloads": {w: {"failed": s["failed"], "attempted": s["attempted"],
                              "median": {k: v["median"] for k, v in s["metrics"].items()}}
                          for w, s in summary.items()},
        })
        path.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
