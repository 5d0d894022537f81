"""Plot-data export: axis specifications, CSV, JSON, and gnuplot scripts.

CSV cells are written with 17 significant digits, so parsing a value back
reproduces the original float bit-for-bit.  The JSON document carries the
whole run (plot spec, solver, limits, per-trajectory segments, samples, and
outcome) under schema version "1"; under RK4 a continuous segment also
says how it was solved ("rk4" and the step used, or "closed-form").  The
plot script targets gnuplot: one output block per axis group, every
trajectory overlaid, and dedicated start/end markers.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ErrorInfo
from .odesolve import Exact, RK4, SolverMode
from .semantics import Err, Limits, Outcome, Skip, Stop
from .trajectory import Continuous, Discrete, Trajectory

__all__ = [
    "TimeAxis", "PairAxis", "TripleAxis", "PlotSpec",
    "AxisSyntaxError", "UnknownVariable",
    "parse_axes", "make_plot_spec", "export_csv", "export_json",
    "emit_plot_script",
]


class AxisSyntaxError(ValueError):
    pass


class UnknownVariable(ValueError):
    pass


@dataclass(frozen=True)
class TimeAxis:
    var: str


@dataclass(frozen=True)
class PairAxis:
    x: str
    y: str


@dataclass(frozen=True)
class TripleAxis:
    x: str
    y: str
    z: str


@dataclass(frozen=True)
class PlotSpec:
    axes: tuple
    graph_type: str  # "scatter" | "scatter3d"
    max_time: float
    max_iterations: int


def parse_axes(text: str) -> list:
    """`[x,y,v]` -> one time-axis group per variable; `[(x,y),(x1,y1)]` ->
    pair groups; `[(x,y,z)]` -> a triple group."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise AxisSyntaxError(f"axis list must be bracketed: {text!r}")
    inner = s[1:-1].strip()
    groups = []
    i, n = 0, len(inner)
    while i < n:
        if inner[i].isspace() or inner[i] == ",":
            i += 1
            continue
        if inner[i] == "(":
            j = inner.find(")", i)
            if j < 0:
                raise AxisSyntaxError(f"unclosed '(' in axis list: {text!r}")
            names = [p.strip() for p in inner[i + 1:j].split(",")]
            if any(not _ident(p) for p in names):
                raise AxisSyntaxError(f"bad axis group {inner[i:j+1]!r}")
            if len(names) == 2:
                groups.append(PairAxis(*names))
            elif len(names) == 3:
                groups.append(TripleAxis(*names))
            else:
                raise AxisSyntaxError(
                    f"an axis group needs 2 or 3 variables, got {len(names)}")
            i = j + 1
        else:
            j = i
            while j < n and inner[j] not in ",()":
                j += 1
            name = inner[i:j].strip()
            if not _ident(name):
                raise AxisSyntaxError(f"bad axis variable {name!r}")
            groups.append(TimeAxis(name))
            i = j
    if not groups:
        raise AxisSyntaxError("empty axis list")
    return groups


def _ident(s: str) -> bool:
    return s.isidentifier()


def make_plot_spec(axes, graph_type: str, variables: list,
                   limits: Limits) -> PlotSpec:
    """Validate axis groups against the program's variables and the chosen
    graph type (pairs/time need 'scatter', triples need 'scatter3d')."""
    if graph_type not in ("scatter", "scatter3d"):
        raise AxisSyntaxError(f"unknown graph type {graph_type!r}")
    known = set(variables)
    for g in axes:
        names = _group_vars(g)
        for name in names:
            if name not in known:
                raise UnknownVariable(f"axis variable {name!r} does not occur in the program")
        if isinstance(g, TripleAxis) and graph_type != "scatter3d":
            raise AxisSyntaxError("a 3-variable axis group needs graph type 'scatter3d'")
        if isinstance(g, (TimeAxis, PairAxis)) and graph_type != "scatter":
            raise AxisSyntaxError("time and pair axis groups need graph type 'scatter'")
    return PlotSpec(tuple(axes), graph_type, limits.max_time, limits.max_iterations)


def _group_vars(g) -> tuple:
    if isinstance(g, TimeAxis):
        return (g.var,)
    if isinstance(g, PairAxis):
        return (g.x, g.y)
    return (g.x, g.y, g.z)


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
                "env": dict(out.env)}
    if isinstance(out, Stop):
        return {"variant": "stop", "env": dict(out.env)}
    if isinstance(out, Err):
        info: ErrorInfo = out.info
        return {"variant": "err",
                "error": {"kind": info.kind.value, "message": info.message,
                          "src": info.src, "line": info.line, "col": info.col}}
    return {"variant": "bound", "kind": out.kind.value, "elapsed": out.elapsed,
            "env": dict(out.env)}


def _segment_json(seg) -> dict:
    if isinstance(seg.kind, Continuous):
        sol = seg.kind.solution
        out = {"kind": "continuous", "t_start": seg.t_start, "t_end": seg.t_end,
               "vars": list(sol.system.vars)}
        if isinstance(sol.mode, RK4):
            out.update({"solved": "closed-form"} if sol.closed_form
                       else {"solved": "rk4", "step": sol.step})
        return out
    if isinstance(seg.kind, Discrete):
        return {"kind": "discrete", "t": seg.t_start, "var": seg.kind.var,
                "old": seg.kind.old, "new": seg.kind.new}
    return {"kind": "terminal", "t_start": seg.t_start, "t_end": seg.t_end,
            "outcome": _outcome_json(seg.kind.outcome)}


def _axis_json(g) -> list:
    if isinstance(g, TimeAxis):
        return ["time", g.var]
    if isinstance(g, PairAxis):
        return ["pair", g.x, g.y]
    return ["triple", g.x, g.y, g.z]


def export_json(trajs: list, spec: PlotSpec, mode: SolverMode,
                limits: Limits, variables: list) -> bytes:
    doc = {
        "schema_version": "1",
        "solver": ({"mode": "exact"} if isinstance(mode, Exact)
                   else {"mode": "rk4", "step": mode.step}),
        "limits": {"max_time": limits.max_time,
                   "max_iterations": limits.max_iterations},
        "plot": {"graph_type": spec.graph_type,
                 "axes": [_axis_json(g) for g in spec.axes]},
        "variables": list(variables),
        "trajectories": [
            {
                "label": traj.label,
                "outcome": _outcome_json(traj.outcome),
                "segments": [_segment_json(s) for s in traj.segments],
                "samples": [[t, dict(env)] for t, env in traj.samples],
            }
            for traj in trajs
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# gnuplot script


def _rows_for_group(traj: Trajectory, g) -> list:
    names = _group_vars(g)
    rows = []
    for t, env in traj.samples:
        if any(name not in env for name in names):
            continue
        if isinstance(g, TimeAxis):
            rows.append((t, env[g.var]))
        else:
            rows.append(tuple(env[name] for name in names))
    return rows


def emit_plot_script(trajs: list, spec: PlotSpec) -> str:
    """Self-contained gnuplot script: one png per axis group, all
    trajectories overlaid, start/end points marked with distinct symbols."""
    lines = [
        "# generated by hybridsim; run with: gnuplot <this file>",
        "set terminal pngcairo size 960,640",
        "set key outside",
        "set grid",
    ]
    plot_cmds = []
    for gi, g in enumerate(spec.axes, start=1):
        names = _group_vars(g)
        series = []
        starts, ends = [], []
        for ti, traj in enumerate(trajs):
            block = f"$g{gi}_t{ti}"
            rows = _rows_for_group(traj, g)
            lines.append(f"{block} << EOD")
            for row in rows:
                lines.append(" ".join(_cell(v) for v in row))
            lines.append("EOD")
            title = traj.label if traj.label else "trajectory"
            series.append((block, title))
            if rows:
                starts.append(rows[0])
                ends.append(rows[-1])
        for mark, pts in (("start", starts), ("end", ends)):
            block = f"$g{gi}_{mark}"
            lines.append(f"{block} << EOD")
            for row in pts:
                lines.append(" ".join(_cell(v) for v in row))
            lines.append("EOD")
        ncols = 2 if isinstance(g, (TimeAxis, PairAxis)) else 3
        use = ":".join(str(i + 1) for i in range(ncols))
        cmd = "splot" if isinstance(g, TripleAxis) else "plot"
        xlabel = "time" if isinstance(g, TimeAxis) else names[0]
        ylabel = names[0] if isinstance(g, TimeAxis) else names[1]
        plot = [f"set output 'group_{gi}.png'",
                f"set xlabel '{xlabel}'",
                f"set ylabel '{ylabel}'"]
        if isinstance(g, TripleAxis):
            plot.append(f"set zlabel '{names[2]}'")
        parts = [f"{block} using {use} with linespoints pointsize 0.4 title '{title}'"
                 for block, title in series]
        parts.append(f"$g{gi}_start using {use} with points pointtype 6 pointsize 2.5 title 'start'")
        parts.append(f"$g{gi}_end using {use} with points pointtype 7 pointsize 2.5 title 'end'")
        plot.append(cmd + " " + ", \\\n     ".join(parts))
        plot_cmds.extend(plot)
    return "\n".join(lines + plot_cmds) + "\n"
