"""Span tracer for the per-layer run.

`Tracer.installed()` replaces the public functions of each hybridsim layer,
under the names their callers look them up by, with wrappers that record one
span per call: name, start, end and parent span.  Spans are kept in flat
arrays while the run goes on and written out by `write`.  Wrappers record
nothing outside an operation (`Tracer.op`), so output checks leave no spans.

A layer's self time is the duration of its spans minus the part covered by
their direct children; calls on one thread nest, so children never overlap.
"""
from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import hybridsim
from hybridsim import _eval, linearize, odesolve, semantics, trajectory
from hybridsim.odesolve import RK4
from hybridsim.syntax import expr_vars

_clock = time.perf_counter_ns

# (metric, unit) in output order; Tracer.metrics computes each
PER_LAYER = (
    ("syntax.parse_s", "s"), ("syntax.desugar_s", "s"),
    ("eval.calls", "count"), ("eval.s", "s"),
    ("semantics.steps", "count"), ("semantics.big_step_calls", "count"),
    ("semantics.big_step_s", "s"), ("semantics.run_to_terminal_s", "s"),
    ("semantics.self_s", "s"),
    ("linearize.to_affine_calls", "count"), ("linearize.to_affine_s", "s"),
    ("linearize.distinct_per_call", "ratio"),
    ("odesolve.solutions", "count"), ("odesolve.at_calls", "count"),
    ("odesolve.at_s", "s"), ("odesolve.expm_calls", "count"),
    ("odesolve.expm_s", "s"), ("odesolve.expm_distinct_per_call", "ratio"),
    ("odesolve.rk4_steps", "count"), ("odesolve.rk4_s", "s"),
    ("trajectory.self_s", "s"), ("trajectory.segments", "count"),
    ("trajectory.samples", "count"),
    ("export.csv_s", "s"), ("export.json_s", "s"), ("export.plot_s", "s"),
    ("export.bytes", "B"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    def __init__(self):
        self._names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list = []
        self.active = False
        self.counts: Counter = Counter()
        self._seen: dict = {}
        self._frozen: dict = {}

    # -- spans ---------------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(_clock())
        return i

    def _close(self, i: int):
        self.end[i] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, name: str):
        """One benchmark operation: the root span, and the scope of the
        distinct-input counts."""
        self._seen = {"to_affine": set(), "expm": set()}
        self.active = True
        i = self._open(self._nid("bench." + name))
        try:
            yield
        finally:
            self._close(i)
            self.active = False

    def _wrap(self, name, fn, after=None):
        nid = self._nid(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _wrap_step(self, fn):
        """The machine step recurses down the Seq spine through its own
        module global; only the outermost call is a machine step."""
        nid = self._nid("semantics.step")
        inside = False

        def traced(cfg, mode):
            nonlocal inside
            if inside or not self.active:
                return fn(cfg, mode)
            inside = True
            i = self._open(nid)
            try:
                return fn(cfg, mode)
            finally:
                self._close(i)
                inside = False
        return traced

    # -- counts taken where the work happens ---------------------------------

    def _note(self, key: str, item):
        seen = self._seen[key]
        self.counts[key + ".calls"] += 1
        if item not in seen:
            seen.add(item)
            self.counts[key + ".distinct"] += 1

    def _after_to_affine(self, args, _result):
        diff, env = args
        frozen = self._frozen.get(id(diff))
        if frozen is None:
            bound = {x for x, _ in diff.pairs}
            frozen = tuple(sorted(set().union(*(expr_vars(e) for _, e in diff.pairs)) - bound))
            self._frozen[id(diff)] = frozen
        self._note("to_affine", (id(diff),) + tuple(env.get(v) for v in frozen))

    def _after_expm(self, args, _result):
        m = args[0]
        self._note("expm", (m.shape, m.tobytes()))

    def _after_simulate(self, _args, trajs):
        self.counts["segments"] += sum(len(t.segments) for t in trajs)
        self.counts["samples"] += sum(len(t.samples) for t in trajs)

    def _after_export(self, _args, out):
        self.counts["export_bytes"] += len(out.encode() if isinstance(out, str) else out)

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name; restore them on exit."""
        solution_at = odesolve.Solution.at
        at_exact = self._wrap("odesolve.at_exact", solution_at)
        at_rk4 = self._wrap("odesolve.at_rk4", solution_at)

        def at(sol, t):
            return (at_rk4 if isinstance(sol.mode, RK4) else at_exact)(sol, t)

        def solution(*args, **kwargs):
            if self.active:
                self.counts["solutions"] += 1
            return odesolve.Solution(*args, **kwargs)

        rk4_step = odesolve._rk4_step

        def counted_rk4_step(*args):
            if self.active:
                self.counts["rk4_steps"] += 1
            return rk4_step(*args)

        step = self._wrap_step(semantics._step)
        desugar = self._wrap("syntax.desugar", hybridsim.desugar)
        patches = [
            (hybridsim, "parse", self._wrap("syntax.parse", hybridsim.parse)),
            (hybridsim, "desugar", desugar),
            (trajectory, "desugar", desugar),
            (semantics, "eval_expr", self._wrap("eval.expr", _eval.eval_expr)),
            (semantics, "eval_bool", self._wrap("eval.bool", _eval.eval_bool)),
            (linearize, "eval_expr", self._wrap("eval.expr", _eval.eval_expr)),
            (hybridsim, "big_step", self._wrap("semantics.big_step", hybridsim.big_step)),
            (hybridsim, "run_to_terminal",
             self._wrap("semantics.run_to_terminal", hybridsim.run_to_terminal)),
            (semantics, "_step", step),
            (trajectory, "_step", step),
            (semantics, "to_affine",
             self._wrap("linearize.to_affine", linearize.to_affine, self._after_to_affine)),
            (semantics, "Solution", solution),
            (odesolve.Solution, "at", at),
            (odesolve, "expm", self._wrap("odesolve.expm", odesolve.expm, self._after_expm)),
            (odesolve, "_rk4_step", counted_rk4_step),
            (hybridsim, "simulate",
             self._wrap("trajectory.simulate", hybridsim.simulate, self._after_simulate)),
            (hybridsim, "export_csv",
             self._wrap("export.csv", hybridsim.export_csv, self._after_export)),
            (hybridsim, "export_json",
             self._wrap("export.json", hybridsim.export_json, self._after_export)),
            (hybridsim, "emit_plot_script",
             self._wrap("export.plot", hybridsim.emit_plot_script, self._after_export)),
        ]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        for obj, attr, fn in patches:
            setattr(obj, attr, fn)
        try:
            yield self
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)

    # -- results -------------------------------------------------------------

    def totals(self) -> tuple:
        """Per span name: (calls, total ns, self ns)."""
        n = len(self.start)
        covered = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls, total, own = Counter(), Counter(), Counter()
        for i in range(n):
            name = self._names[self.name[i]]
            d = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += d
            own[name] += d - covered[i]
        return calls, total, own

    def metrics(self, overhead_pct: float) -> dict:
        calls, total, own = self.totals()
        c = self.counts

        def s(*names):
            return sum(total[n] for n in names) / 1e9

        def ratio(key):
            return c[key + ".distinct"] / c[key + ".calls"] if c[key + ".calls"] else 0.0

        values = {
            "syntax.parse_s": s("syntax.parse"),
            "syntax.desugar_s": s("syntax.desugar"),
            "eval.calls": calls["eval.expr"] + calls["eval.bool"],
            "eval.s": s("eval.expr", "eval.bool"),
            "semantics.steps": calls["semantics.step"],
            "semantics.big_step_calls": calls["semantics.big_step"],
            "semantics.big_step_s": s("semantics.big_step"),
            "semantics.run_to_terminal_s": s("semantics.run_to_terminal"),
            "semantics.self_s": sum(own[n] for n in (
                "semantics.big_step", "semantics.run_to_terminal",
                "semantics.step")) / 1e9,
            "linearize.to_affine_calls": calls["linearize.to_affine"],
            "linearize.to_affine_s": s("linearize.to_affine"),
            "linearize.distinct_per_call": ratio("to_affine"),
            "odesolve.solutions": c["solutions"],
            "odesolve.at_calls": calls["odesolve.at_exact"] + calls["odesolve.at_rk4"],
            "odesolve.at_s": s("odesolve.at_exact", "odesolve.at_rk4"),
            "odesolve.expm_calls": calls["odesolve.expm"],
            "odesolve.expm_s": s("odesolve.expm"),
            "odesolve.expm_distinct_per_call": ratio("expm"),
            "odesolve.rk4_steps": c["rk4_steps"],
            "odesolve.rk4_s": s("odesolve.at_rk4"),
            "trajectory.self_s": own["trajectory.simulate"] / 1e9,
            "trajectory.segments": c["segments"],
            "trajectory.samples": c["samples"],
            "export.csv_s": s("export.csv"),
            "export.json_s": s("export.json"),
            "export.plot_s": s("export.plot"),
            "export.bytes": c["export_bytes"],
            "trace.overhead_pct": overhead_pct,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write(self, path):
        """One line per span: id, parent, name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                f.write(f"{i},{self.parent[i]},{self._names[self.name[i]]},"
                        f"{self.start[i]},{self.end[i]}\n")
