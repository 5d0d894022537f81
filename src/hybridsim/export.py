"""Plot-data export: axis specifications, CSV, JSON, and gnuplot scripts.

CSV cells are written with 17 significant digits, so parsing a value back
reproduces the original float bit-for-bit.  The JSON document carries the
whole run (plot spec, solver, limits, per-trajectory segments, samples, and
outcome) under schema version "1"; under RK4 a continuous segment also
says how it was solved ("rk4" and the step used, or "closed-form").  The
module writes JSON with its own writer, byte-identical to
`json.dumps(doc, indent=2)`: any `indent` makes the standard library skip
its C encoder for a pure-Python one, which took as long as simulating.  The
plot script targets gnuplot: one output block per axis group, every
trajectory overlaid, and dedicated start/end markers.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii as _jstr
from math import isfinite
from operator import add, itemgetter

from .errors import ErrorInfo
from .odesolve import Exact, RK4, SolverMode
from .semantics import Err, Limits, Outcome, Skip, Stop
from .trajectory import Continuous, Discrete

__all__ = [
    "Axis", "TimeAxis", "PairAxis", "TripleAxis", "PlotSpec",
    "AxisSyntaxError", "UnknownVariable",
    "parse_axes", "make_plot_spec", "export_csv", "export_json",
    "emit_plot_script",
]


class AxisSyntaxError(ValueError):
    pass


class UnknownVariable(ValueError):
    pass


@dataclass(frozen=True)
class Axis:
    """One axis group: a variable over time, a pair, or a triple, as the
    number of its names says."""

    names: tuple

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not 1 <= len(self.names) <= 3:
            raise AxisSyntaxError(f"an axis group has 1 to 3 variables, got {len(self.names)}")

    @property
    def kind(self) -> str:
        return ("time", "pair", "triple")[len(self.names) - 1]


def TimeAxis(var: str) -> Axis:
    return Axis((var,))


def PairAxis(x: str, y: str) -> Axis:
    return Axis((x, y))


def TripleAxis(x: str, y: str, z: str) -> Axis:
    return Axis((x, y, z))


@dataclass(frozen=True)
class PlotSpec:
    axes: tuple
    graph_type: str  # "scatter" | "scatter3d"
    max_time: float
    max_iterations: int


# one item of an axis list: separators; a parenthesised group (group 2
# empty if unclosed); a bare name, or an empty one before a stray ')'
_AXIS_ITEM = re.compile(r"[\s,]+|\(([^)]*)(\)?)|([^,()]+|(?=\)))")


def parse_axes(text: str) -> list:
    """`[x,y,v]` -> one time-axis group per variable; `[(x,y),(x1,y1)]` ->
    pair groups; `[(x,y,z)]` -> a triple group."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise AxisSyntaxError(f"axis list must be bracketed: {text!r}")
    groups = []
    for m in _AXIS_ITEM.finditer(s[1:-1]):
        inner, closed, name = m.groups()
        if inner is not None:
            if not closed:
                raise AxisSyntaxError(f"unclosed '(' in axis list: {text!r}")
            names = [p.strip() for p in inner.split(",")]
            if not all(p.isidentifier() for p in names):
                raise AxisSyntaxError(f"bad axis group {m.group()!r}")
            if len(names) not in (2, 3):
                raise AxisSyntaxError(
                    f"an axis group needs 2 or 3 variables, got {len(names)}")
            groups.append(Axis(names))
        elif name is not None:
            name = name.strip()
            if not name.isidentifier():
                raise AxisSyntaxError(f"bad axis variable {name!r}")
            groups.append(Axis((name,)))
    if not groups:
        raise AxisSyntaxError("empty axis list")
    return groups


def make_plot_spec(axes, graph_type: str, variables: list,
                   limits: Limits) -> PlotSpec:
    """Validate axis groups against the program's variables and the chosen
    graph type (pairs/time need 'scatter', triples need 'scatter3d')."""
    if graph_type not in ("scatter", "scatter3d"):
        raise AxisSyntaxError(f"unknown graph type {graph_type!r}")
    known = set(variables)
    for g in axes:
        for name in g.names:
            if name not in known:
                raise UnknownVariable(f"axis variable {name!r} does not occur in the program")
        if g.kind == "triple" and graph_type != "scatter3d":
            raise AxisSyntaxError("a 3-variable axis group needs graph type 'scatter3d'")
        if g.kind != "triple" and graph_type != "scatter":
            raise AxisSyntaxError("time and pair axis groups need graph type 'scatter'")
    return PlotSpec(tuple(axes), graph_type, limits.max_time, limits.max_iterations)


# ---------------------------------------------------------------------------
# CSV


def _cell(v: float) -> str:
    return format(v, ".17g")


def export_csv(trajs: list, variables: list) -> bytes:
    """Header `label,time,<vars...>`; one row per sample, ordered by label
    then time; absent variables leave the cell empty."""
    lines = ["label,time," + ",".join(variables)]
    for traj in sorted(trajs, key=lambda tr: tr.label):
        for t, env in traj.samples:
            cells = [traj.label, _cell(t)]
            for name in variables:
                cells.append(_cell(env[name]) if name in env else "")
            lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# JSON


def _outcome_json(out: Outcome) -> dict:
    if isinstance(out, Skip):
        return {"variant": "skip", "early": out.early, "elapsed": out.elapsed,
                "env": out.env}
    if isinstance(out, Stop):
        return {"variant": "stop", "env": out.env}
    if isinstance(out, Err):
        info: ErrorInfo = out.info
        return {"variant": "err",
                "error": {"kind": info.kind.value, "message": info.message,
                          "src": info.src, "line": info.line, "col": info.col}}
    return {"variant": "bound", "kind": out.kind.value, "elapsed": out.elapsed,
            "env": out.env}


def _segment_json(seg) -> dict:
    if isinstance(seg.kind, Continuous):
        sol = seg.kind.solution
        out = {"kind": "continuous", "t_start": seg.t_start, "t_end": seg.t_end,
               "vars": sol.system.vars}
        if isinstance(sol.mode, RK4):
            out.update({"solved": "closed-form"} if sol.closed_form
                       else {"solved": "rk4", "step": sol.step})
        return out
    if isinstance(seg.kind, Discrete):
        return {"kind": "discrete", "t": seg.t_start, "var": seg.kind.var,
                "old": seg.kind.old, "new": seg.kind.new}
    return {"kind": "terminal", "t_start": seg.t_start, "t_end": seg.t_end,
            "outcome": _outcome_json(seg.kind.outcome)}


def export_json(trajs: list, spec: PlotSpec, mode: SolverMode,
                limits: Limits, variables: list) -> bytes:
    doc = {
        "schema_version": "1",
        "solver": ({"mode": "exact"} if isinstance(mode, Exact)
                   else {"mode": "rk4", "step": mode.step}),
        "limits": {"max_time": limits.max_time,
                   "max_iterations": limits.max_iterations},
        "plot": {"graph_type": spec.graph_type,
                 "axes": [[g.kind, *g.names] for g in spec.axes]},
        "variables": list(variables),
        "trajectories": [
            {
                "label": traj.label,
                "outcome": _outcome_json(traj.outcome),
                "segments": [_segment_json(s) for s in traj.segments],
                "samples": traj.samples,
            }
            for traj in trajs
        ],
    }
    return (_dumps(doc) + "\n").encode("utf-8")


def _dumps(doc) -> str:
    """`json.dumps(doc, indent=2)`, byte for byte, for str-keyed documents.

    A dict whose values are all finite floats (every sample's environment)
    is written with one join over C-level maps of its key prefixes, which
    are built once per key tuple and indent.
    """
    prefixes = {}

    def write(o, indent: str) -> str:
        if isinstance(o, str):
            return _jstr(o)
        if o is None or o is True or o is False:
            return "null" if o is None else "true" if o else "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            if isfinite(o):
                return float.__repr__(o)
            return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
        inner = indent + "  "
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            return "[" + ",".join([inner + write(v, inner) for v in o]) + indent + "]"
        if not isinstance(o, dict):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        if not o:
            return "{}"
        vals = o.values()
        if all(map(isinstance, vals, repeat(float))) and all(map(isfinite, vals)):
            keys = tuple(o)
            pre = prefixes.get((inner, keys))
            if pre is None:
                pre = prefixes[inner, keys] = [inner + _jstr(k) + ": " for k in keys]
            return "{" + ",".join(map(add, pre, map(float.__repr__, vals))) + indent + "}"
        return "{" + ",".join([inner + _jstr(k) + ": " + write(v, inner)
                               for k, v in o.items()]) + indent + "}"

    return write(doc, "\n")


# ---------------------------------------------------------------------------
# gnuplot script


def emit_plot_script(trajs: list, spec: PlotSpec) -> str:
    """Self-contained gnuplot script: one png per axis group, all
    trajectories overlaid, start/end points marked with distinct symbols."""
    lines = [
        "# generated by hybridsim; run with: gnuplot <this file>",
        "set terminal pngcairo size 960,640",
        "set key outside",
        "set grid",
    ]
    # each trajectory's sample times, formatted once for every time-axis group
    stamps = [[_cell(t) + " " for t, _ in traj.samples] for traj in trajs]
    plot_cmds = []
    for gi, g in enumerate(spec.axes, start=1):
        names = g.names
        cols = ("time",) + names if g.kind == "time" else names  # plotted columns
        need, get = set(names), itemgetter(*names)
        fmt = " ".join(["%.17g"] * len(names))  # as _cell, one value per column
        series = []
        starts, ends = [], []
        for ti, traj in enumerate(trajs):
            block = f"$g{gi}_t{ti}"
            pre = stamps[ti] if g.kind == "time" else repeat("")
            rows = [p + fmt % get(env) for p, (_, env) in zip(pre, traj.samples)
                    if need <= env.keys()]
            lines.append(f"{block} << EOD")
            lines.extend(rows)
            lines.append("EOD")
            title = traj.label if traj.label else "trajectory"
            series.append((block, title))
            if rows:
                starts.append(rows[0])
                ends.append(rows[-1])
        for mark, pts in (("start", starts), ("end", ends)):
            block = f"$g{gi}_{mark}"
            lines.append(f"{block} << EOD")
            lines.extend(pts)
            lines.append("EOD")
        use = ":".join(str(i + 1) for i in range(len(cols)))
        cmd = "splot" if g.kind == "triple" else "plot"
        plot = [f"set output 'group_{gi}.png'"]
        plot += [f"set {a}label '{c}'" for a, c in zip("xyz", cols)]
        parts = [f"{block} using {use} with linespoints pointsize 0.4 title '{title}'"
                 for block, title in series]
        parts.append(f"$g{gi}_start using {use} with points pointtype 6 pointsize 2.5 title 'start'")
        parts.append(f"$g{gi}_end using {use} with points pointtype 7 pointsize 2.5 title 'end'")
        plot.append(cmd + " " + ", \\\n     ".join(parts))
        plot_cmds.extend(plot)
    return "\n".join(lines + plot_cmds) + "\n"
