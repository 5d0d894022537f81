"""Plot-data export: axis specifications, CSV, JSON, and gnuplot scripts.

CSV cells are written with 17 significant digits, so parsing a value back
reproduces the original float bit-for-bit.  The JSON document carries the
whole run (plot spec, solver, limits, per-trajectory segments, samples, and
outcome) under schema version "1"; under RK4 a continuous segment also
says how it was solved ("rk4" and the step used, or "closed-form").  The
plot script targets gnuplot: one output block per axis group, every
trajectory overlaid, and dedicated start/end markers.

The writers work by record shape: they read the chunks the sampler closed
(`trajectory.Chunk`: consecutive samples with one key tuple, their times,
one tuple of values per column, and the columns that hold one object) and
write each by one `%` call over a row template that holds the text of the
chunk's constant columns, so only the cells that vary are formatted.  JSON
text is byte-identical to `json.dumps(doc, indent=2)`; its pure-Python
indenting encoder, which took as long as simulating on the whole document,
writes only what the templates leave: the head, outcomes, terminal
segments, vars, and constant or non-finite cells.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _jstr
from math import isfinite

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
# Samples by record shape


def _cell(name: str, const: dict, slot: str, text) -> str:
    """A row template's cell for a column: the text of its constant, each `%`
    doubled, or `slot` when its values vary."""
    return text(const[name]).replace("%", "%%") if name in const else slot


def _flat(cols: list) -> tuple:
    """The values of `cols`, row by row."""
    return tuple(chain.from_iterable(zip(*cols)))


_g17 = "%.17g".__mod__  # a number's CSV and plot text


# ---------------------------------------------------------------------------
# CSV


def export_csv(trajs: list, variables: list) -> bytes:
    """Header `label,time,<vars...>`; one row per sample, ordered by label
    then time; absent variables leave the cell empty."""
    parts = ["label,time," + ",".join(variables)]
    for traj in sorted(trajs, key=lambda tr: tr.label):
        label = "\n" + traj.label.replace("%", "%%") + ",%.17g"
        for times, columns, const in traj.chunks:
            row = label + "".join(["," + _cell(n, const, "%.17g", _g17) if n in columns else ","
                                   for n in variables])
            varying = [columns[n] for n in variables if n in columns and n not in const]
            parts.append(row * len(times) % _flat([times, *varying]))
    parts.append("\n")
    return "".join(parts).encode("utf-8")


# ---------------------------------------------------------------------------
# JSON
#
# Templates at the depths json.dumps(doc, indent=2) writes a trajectory's
# parts at.  `%%s` marks a value's slot; `%s` takes the shape's own text.

_TRAJ = '\n    {\n      "label": %s,\n      "outcome": %s,\n      "segments": '
_CONT = ('\n        {\n          "kind": "continuous",\n          "t_start": %%s,'
         '\n          "t_end": %%s,\n          "vars": %s%s\n        }')
_CLOSED = ',\n          "solved": "closed-form"'
_STEPPED = ',\n          "solved": "rk4",\n          "step": %s'
_DISC = ('\n        {\n          "kind": "discrete",\n          "t": %%s,\n          "var": %s,'
         '\n          "old": %%s,\n          "new": %%s\n        }')
_SAMPLE = ',\n        [\n          %%s,\n          %s\n        ]'


def _fill(template: str, vals: tuple) -> str:
    """`template % vals`, each value as JSON writes it: `%s` of a finite float
    is its repr, which is JSON's text, and anything else goes through `_dumps`."""
    if not (set(map(type, vals)) <= {float} and all(map(isfinite, vals))):
        vals = tuple(map(_dumps, vals))
    return template % vals


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


def _segments_json(segs: list, shapes: dict, out: list):
    """Append a trajectory's `segments` list to `out`, filled by one `%` call."""
    parts, vals = [], []
    for seg in segs:
        kind = seg.kind
        if isinstance(kind, Continuous):
            sol = kind.solution
            tail = ("" if not isinstance(sol.mode, RK4)
                    else _CLOSED if sol.closed_form else _STEPPED)
            shape = (sol.system.vars, tail)
            if shape not in shapes:
                shapes[shape] = _CONT % (_dumps(shape[0], "\n          ").replace("%", "%%"), tail)
            parts.append(shapes[shape])
            vals += (seg.t_start, seg.t_end)
            if tail is _STEPPED:
                vals.append(sol.step)
        elif isinstance(kind, Discrete):
            parts.append(_DISC % _jstr(kind.var).replace("%", "%%"))
            vals += (seg.t_start, kind.old, kind.new)
        else:
            term = {"kind": "terminal", "t_start": seg.t_start, "t_end": seg.t_end,
                    "outcome": _outcome_json(kind.outcome)}
            parts.append(("\n        " + _dumps(term, "\n        ")).replace("%", "%%"))
    out += ["[", _fill(",".join(parts), tuple(vals)), "\n      ]"] if parts else ["[]"]


def _samples_json(chunks: list, out: list):
    """Append a trajectory's `samples` list to `out`, each chunk filled by
    one `%` call."""
    first = len(out) + 1
    out.append("[")
    for times, columns, const in chunks:
        env = "".join(["\n            " + _jstr(k).replace("%", "%%") + ": "
                       + _cell(k, const, "%s", _dumps) + "," for k in columns])
        row = _SAMPLE % ("{" + env[:-1] + "\n          }" if columns else "{}")
        varying = [col for k, col in columns.items() if k not in const]
        out.append(_fill(row * len(times), _flat([times, *varying])))
    if len(out) > first:
        out[first] = out[first][1:]  # no comma before the first sample
        out.append("\n      ")
    out.append("]")


def export_json(trajs: list, spec: PlotSpec, mode: SolverMode,
                limits: Limits, variables: list) -> bytes:
    head = _dumps({
        "schema_version": "1",
        "solver": ({"mode": "exact"} if isinstance(mode, Exact)
                   else {"mode": "rk4", "step": mode.step}),
        "limits": {"max_time": float(limits.max_time),
                   "max_iterations": limits.max_iterations},
        "plot": {"graph_type": spec.graph_type,
                 "axes": [[g.kind, *g.names] for g in spec.axes]},
        "variables": list(variables),
        "trajectories": [],
    })
    out = [head[:-len("[]\n}")]]  # the head ends with the empty trajectory list
    shapes = {}
    for i, traj in enumerate(trajs):
        out.append(("," if i else "[") + _TRAJ % (
            _jstr(traj.label), _dumps(_outcome_json(traj.outcome), "\n      ")))
        _segments_json(traj.segments, shapes, out)
        out.append(',\n      "samples": ')
        _samples_json(traj.chunks, out)
        out.append("\n    }")
    out.append("\n  ]\n}\n" if trajs else "[]\n}\n")
    text = "".join(out)
    del out  # so that at most the text and its bytes are held at once
    return text.encode("utf-8")


def _dumps(o, indent: str = "\n") -> str:
    """`json.dumps(o, indent=2)` at the depth whose newline and spaces are
    `indent`: JSON escapes each newline in a string, so none of those moves."""
    if isinstance(o, (list, tuple, dict)):
        return json.dumps(o, indent=2).replace("\n", indent)
    return json.dumps(o)


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
    # each trajectory's chunks, with their times formatted once
    runs = [[(("%.17g\n" * len(times) % times).splitlines(), columns, const)
             for times, columns, const in traj.chunks] for traj in trajs]
    plot_cmds = []
    for gi, g in enumerate(spec.axes, start=1):
        names = g.names
        cols = ("time",) + names if g.kind == "time" else names  # plotted columns
        timed = g.kind == "time"  # a row starts with its formatted time
        series = []
        starts, ends = [], []
        for ti, traj in enumerate(trajs):
            block = f"$g{gi}_t{ti}"
            rows = []  # one string a chunk that has the group's variables
            for stamps, columns, const in runs[ti]:
                if set(names).issubset(columns):
                    row = "%s " * timed + " ".join([_cell(n, const, "%.17g", _g17) for n in names])
                    varying = [columns[n] for n in names if n not in const]
                    rows.append(((row + "\n") * len(stamps)
                                 % _flat([stamps] * timed + varying))[:-1])
            lines.append(f"{block} << EOD")
            lines.extend(rows)
            lines.append("EOD")
            title = traj.label if traj.label else "trajectory"
            series.append((block, title))
            if rows:
                starts.append(rows[0].partition("\n")[0])
                ends.append(rows[-1].rpartition("\n")[2])
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
