"""Span tracing installed from outside the library.

``Tracer.install`` replaces the public functions of each layer module, and
the arithmetic methods of ``Series``, with wrappers that record a span (name,
op id, parent span, start, end) into flat arrays.  The library is not
edited: the wrappers are swapped into every ``spanone`` module namespace
that refers to the original function and swapped back by ``uninstall``.

Rules that keep the numbers meaningful:

* a call nested in an open span of the same group is not recorded, so a
  recursive function counts once and a Series operation inside another
  Series operation (``-`` calls ``+``) counts once;
* per-element helpers called once per summand or partition are not wrapped
  (``HOT``): a span would cost as much as the work it measures;
* ``cli`` contributes only ``main``, so ``cli.self_s`` is the CLI's own work
  (argument parsing, file reading, rendering, JSON) outside library spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "prover", "multisum", "qdiff", "ideals", "partitions", "series")
HOT = {
    "multisum": {"energy", "rec_children"},
    "partitions": {"satisfies_gap", "kr_i1_predicate", "format_partition", "parse_partition",
                   "phi", "oplus", "s_tail", "partitions_of"},
}
SERIES_METHODS = {"__mul__": "mul", "__add__": "add", "__sub__": "sub", "__neg__": "neg",
                  "shift_x": "shift_x", "eq_upto": "eq_upto"}

# Functions whose calls and times are reported (with ``cli.main``); install
# fails if any is missing, so a renamed function cannot silently read 0.
TIMED = ("multisum.eval_H", "prover.verify_numeric", "prover.assemble_system", "prover.derive_row",
         "qdiff.solve", "qdiff.check_system", "qdiff.f_from_g", "ideals.ideal_genfun_vec",
         "ideals.enumerate_members", "ideals.contains", "partitions.oracle_genfun",
         "series.mul", "series.add", "series.shift_x")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts = {"eval_H.repeats": 0, "verify_numeric.rows": 0,
                       "verify_numeric.rows_rejected": 0, "enumerate_members.members": 0,
                       "oracle_genfun.scanned": 0}
        self._eval_keys: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _span(self, label: str, fn, group: list, before=None, after=None):
        nid = self._ids.setdefault(label, len(self._ids))
        if nid == len(self.names):
            self.names.append(label)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if group[0]:
                return fn(*args, **kwargs)
            if before is not None:
                # a hook that no longer fits the library raises, failing the op
                args, kwargs = before(args, kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.op.append(self.op_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            group[0] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                group[0] -= 1
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    # -- counters read from arguments and results ------------------------

    def _hooks(self, label: str, fn):
        sig = inspect.signature(fn)

        def bound(args, kwargs):
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            return ba.arguments

        if label == "multisum.eval_H":
            def before(args, kwargs):
                a = bound(args, kwargs)
                x_max = a["q_max"] if a["x_max"] is None else a["x_max"]
                key = (a["p"], tuple(a["beta"]), x_max, a["q_max"])
                if key in self._eval_keys:
                    self.counts["eval_H.repeats"] += 1
                self._eval_keys.add(key)
                return args, kwargs
            return before, None
        if label == "prover.verify_numeric":
            def after(rows):
                self.counts["verify_numeric.rows"] += len(rows)
                self.counts["verify_numeric.rows_rejected"] += sum(1 for r in rows if not r)
            return None, after
        if label == "ideals.enumerate_members":
            def after(result):
                self.counts["enumerate_members.members"] += len(result[1])
            return None, after
        if label == "partitions.oracle_genfun":
            def before(args, kwargs):
                a = bound(args, kwargs)
                pred = a.pop("pred")

                def counted(p):
                    self.counts["oracle_genfun.scanned"] += 1
                    return pred(p)

                return (counted,), a
            return before, None
        return None, None

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the currently imported package; a new import is a new
        session, so eval_H repeats are counted within one session."""
        self._eval_keys.clear()
        modules = [m for k, m in sys.modules.items() if k == "spanone" or k.startswith("spanone.")]
        originals: dict[int, object] = {}
        wrapped = {"series." + short for short in SERIES_METHODS.values()}
        series_group = [0]
        for layer in LAYERS:
            mod = sys.modules[f"spanone.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") or attr in HOT.get(layer, ()) or (layer == "cli" and attr != "main"):
                    continue
                label = f"{layer}.{attr}"
                wrapped.add(label)
                group = series_group if layer == "series" else [0]
                originals[id(fn)] = self._span(label, fn, group, *self._hooks(label, fn))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        missing = sorted({"cli.main", *TIMED} - wrapped)
        if missing:
            raise RuntimeError(f"traced functions not found: {', '.join(missing)}")
        cls = sys.modules["spanone.series"].Series
        for attr, short in SERIES_METHODS.items():
            fn = cls.__dict__[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._span(f"series.{short}", fn, series_group))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def totals(self) -> dict[str, list[float]]:
        """name -> [calls, inclusive s, self s], self time being the span's
        duration minus the time covered by its recorded children."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out: dict[str, list[float]] = {}
        for i in range(n):
            t = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            t[0] += 1
            t[1] += dur[i]
            t[2] += dur[i] - child[i]
        return out

    def metrics(self, ops: int, stdout_bytes: int, ops_per_s: float,
                untraced_ops_per_s: float) -> dict[str, float]:
        """Every value the run measured; BENCHMARK.json picks the reported ones."""
        tot = self.totals()

        def get(label: str, k: int) -> float:
            return tot.get(label, (0, 0.0, 0.0))[k] / ops

        values = {"cli.self_s": get("cli.main", 2), "cli.stdout_bytes": stdout_bytes / ops}
        for label in TIMED:
            values[f"{label}.calls"] = get(label, 0)
            values[f"{label}.s"] = get(label, 1)
            values[f"{label}.self_s"] = get(label, 2)
        calls = tot.get("multisum.eval_H", (0,))[0]
        values["multisum.eval_H.repeat_frac"] = self.counts["eval_H.repeats"] / calls if calls else 0.0
        values["prover.verify_numeric.rows"] = self.counts["verify_numeric.rows"] / ops
        values["prover.verify_numeric.rows_rejected"] = self.counts["verify_numeric.rows_rejected"] / ops
        values["ideals.enumerate_members.members"] = self.counts["enumerate_members.members"] / ops
        values["partitions.oracle_genfun.scanned"] = self.counts["oracle_genfun.scanned"] / ops
        values["trace.ops"] = ops
        values["trace.ops_per_s"] = ops_per_s
        values["trace.untraced_ops_per_s"] = untraced_ops_per_s
        values["trace.overhead_frac"] = untraced_ops_per_s / ops_per_s - 1.0
        return values

    def write(self, path: Path, argv_by_op: list[list[str]]) -> None:
        """Gzip-compressed TSV: one ``#op`` line per op (id, argv), then one
        line per span (id, name, op id, parent id or -1, start s, end s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, argv in enumerate(argv_by_op):
                fh.write(f"#op\t{i}\t{json.dumps(argv)}\n")
            fh.write("span\tname\top\tparent\tstart\tend\n")
            for lo in range(0, len(self.start), 10000):
                fh.write("".join(
                    f"{i}\t{self.names[self.name[i]]}\t{self.op[i]}\t{self.parent[i]}\t"
                    f"{self.start[i]!r}\t{self.end[i]!r}\n"
                    for i in range(lo, min(lo + 10000, len(self.start)))))
