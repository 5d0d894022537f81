import csv
import io
import json
import math
import tracemalloc
from operator import is_
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import load_core
from hybridsim import corpus_path
from hybridsim.cli import cli_main
from hybridsim.errors import ErrorInfo, ErrorKind
from hybridsim.export import (Axis, AxisSyntaxError, PairAxis, PlotSpec, TimeAxis,
                              TripleAxis, UnknownVariable, _dumps,
                              emit_plot_script, export_csv, export_json,
                              make_plot_spec, parse_axes)
from hybridsim.linearize import AffineSystem
from hybridsim.odesolve import Exact, RK4, Solution, default_rk4_step
from hybridsim.semantics import (BoundKind, BoundReached, Err, Limits, Skip, Stop, big_step,
                                 outcome_bits)
from hybridsim.syntax import desugar, ordered_vars, parse
from hybridsim.trajectory import (_CHUNK, Continuous, Discrete, Segment, TerminalMark,
                                  Trajectory, simulate)

GOLDEN = Path(__file__).parent / "golden"


def test_parse_axes_time_groups():
    assert parse_axes("[x,y,v]") == [TimeAxis("x"), TimeAxis("y"), TimeAxis("v")]


def test_parse_axes_pairs():
    assert parse_axes("[(x,y),(x1,y1)]") == [PairAxis("x", "y"), PairAxis("x1", "y1")]


def test_parse_axes_triple():
    assert parse_axes("[(x,y,z)]") == [TripleAxis("x", "y", "z")]


def test_parse_axes_mixed_and_spaces():
    assert parse_axes("[ x , (y, z) ]") == [TimeAxis("x"), PairAxis("y", "z")]


def test_parse_axes_errors():
    with pytest.raises(AxisSyntaxError):
        parse_axes("x,y")
    with pytest.raises(AxisSyntaxError):
        parse_axes("[(x)]")
    with pytest.raises(AxisSyntaxError):
        parse_axes("[(x,y,z,w)]")
    with pytest.raises(AxisSyntaxError):
        parse_axes("[]")


@pytest.mark.parametrize("text, message", [
    ("[(x,y]", "unclosed '\\('"), ("[(x,1y)]", "bad axis group"),
    ("[1x]", "bad axis variable")])
def test_parse_axes_names_what_is_wrong(text, message):
    with pytest.raises(AxisSyntaxError, match=message):
        parse_axes(text)


def test_an_axis_group_has_one_to_three_names():
    for names in ((), ("a", "b", "c", "d")):
        with pytest.raises(AxisSyntaxError, match=f"1 to 3 variables, got {len(names)}"):
            Axis(names)


def test_a_bad_axis_list_is_a_usage_error(tmp_path, capsys):
    code = cli_main(["simulate", str(corpus_path("eq1")), "--axes", "[1x]",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "bad axis variable '1x'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_plot_spec_validation():
    limits = Limits()
    variables = ["x", "y", "z"]
    with pytest.raises(AxisSyntaxError, match="unknown graph type 'bar'"):
        make_plot_spec([TimeAxis("x")], "bar", variables, limits)
    with pytest.raises(AxisSyntaxError):
        make_plot_spec([TripleAxis("x", "y", "z")], "scatter", variables, limits)
    with pytest.raises(AxisSyntaxError):
        make_plot_spec([TimeAxis("x")], "scatter3d", variables, limits)
    with pytest.raises(UnknownVariable):
        make_plot_spec([TimeAxis("nope")], "scatter", variables, limits)
    spec = make_plot_spec([TripleAxis("x", "y", "z")], "scatter3d", variables, limits)
    assert spec.graph_type == "scatter3d"


def _eq1_trajs(dt=1.0, max_time=2.0):
    unit = desugar(parse(
        "p := 0 ; v := 0 ; p' = v, v' = 2 for 1 ; p' = v, v' = -2 for 1"))
    limits = Limits(max_time=max_time, max_iterations=100)
    return unit, limits, simulate(unit, Exact(), limits, dt=dt)


def test_csv_eq1_rows():
    unit, _, trajs = _eq1_trajs()
    out = export_csv(trajs, ordered_vars(unit)).decode()
    rows = out.strip().split("\n")
    assert rows[0] == "label,time,p,v"
    data = [r for r in rows[1:]]
    assert len(data) == 3  # t = 0, 1, 2
    last = data[-1].split(",")
    assert float(last[2]) == 2.0 and float(last[3]) == 0.0


def test_csv_round_trips_bitwise():
    unit, _, trajs = _eq1_trajs(dt=0.3)
    out = export_csv(trajs, ordered_vars(unit)).decode()
    reader = csv.DictReader(io.StringIO(out))
    rows = list(reader)
    samples = trajs[0].samples
    assert len(rows) == len(samples)
    for row, (t, env) in zip(rows, samples):
        assert float(row["time"]) == t
        assert float(row["p"]) == env["p"]
        assert float(row["v"]) == env["v"]


def test_csv_empty():
    assert export_csv([], ["x"]) == b"label,time,x\n"


def test_csv_nine_labels():
    unit = desugar(parse("x := {0,2,4} ; vx := {4,8,12} ; x' = vx for 1"))
    trajs = simulate(unit, Exact(), Limits(max_time=1.0), dt=0.5)
    out = export_csv(trajs, ordered_vars(unit)).decode()
    labels = {line.split(",")[0] for line in out.strip().split("\n")[1:]}
    assert len(labels) == 9


def test_csv_missing_variable_cell_empty():
    unit = desugar(parse("x := 1 ; x' = -1 for 1 ; late := 2"))
    trajs = simulate(unit, Exact(), Limits(max_time=1.0), dt=0.5)
    out = export_csv(trajs, ordered_vars(unit)).decode()
    first_data = out.strip().split("\n")[1].split(",")
    assert first_data[-1] == ""  # 'late' not yet assigned at t=0


def test_json_golden():
    text = "x := 1 ; x' = -1 for 1 ; x := 5 ; x' = -2 for 1 ; x := 1/0"
    unit = desugar(parse(text))
    limits = Limits(max_time=4.0, max_iterations=50)
    trajs = simulate(unit, Exact(), limits, dt=1.0)
    spec = make_plot_spec([TimeAxis("x")], "scatter", ordered_vars(unit), limits)
    doc = export_json(trajs, spec, Exact(), limits, ordered_vars(unit))
    assert doc == (GOLDEN / "jump_error.json").read_bytes()


def test_json_structure():
    unit, limits, trajs = _eq1_trajs()
    spec = make_plot_spec([TimeAxis("p")], "scatter", ordered_vars(unit), limits)
    doc = json.loads(export_json(trajs, spec, Exact(), limits,
                                 ordered_vars(unit)))
    assert doc["schema_version"] == "1"
    assert doc["solver"] == {"mode": "exact"}
    traj = doc["trajectories"][0]
    assert traj["outcome"]["variant"] == "skip"
    kinds = [s["kind"] for s in traj["segments"]]
    assert kinds == ["discrete", "discrete", "continuous", "continuous", "terminal"]
    assert not any("solved" in s or "step" in s for s in traj["segments"])
    jumps = [s for s in traj["segments"] if s["kind"] == "discrete"]
    assert jumps[0]["var"] == "p" and jumps[0]["new"] == 0.0


def test_json_records_the_rk4_step_used():
    """Under RK4 each continuous segment says how it was solved: the step
    min(1e-3, d/16) for its duration d, or the closed form for a
    constant-rate flow; the top-level step stays the one requested."""
    unit = desugar(parse(
        "p := 0 ; v := 0 ; p' = v, v' = 2 for 1 ; p' = v, v' = -2 for 1 ;"
        " p' = v, v' = 1 for 0.008 ; p' = 3 for 0.5"))
    limits = Limits(max_time=3.0, max_iterations=100)
    trajs = simulate(unit, RK4(), limits, dt=0.5)
    spec = make_plot_spec([TimeAxis("p")], "scatter", ordered_vars(unit), limits)
    doc = json.loads(export_json(trajs, spec, RK4(), limits, ordered_vars(unit)))
    assert doc["solver"] == {"mode": "rk4", "step": None}
    segs = [s for s in doc["trajectories"][0]["segments"] if s["kind"] == "continuous"]
    assert [s["solved"] for s in segs] == ["rk4", "rk4", "rk4", "closed-form"]
    assert [s["step"] for s in segs[:3]] == [default_rk4_step(d) for d in (1, 1, 0.008)]
    assert segs[2]["step"] == 0.0005
    assert "step" not in segs[3]


def test_plot_script_golden():
    unit = desugar(parse("x := {0, 1} ; y := 0 ; x' = 1, y' = 2 for 1"))
    limits = Limits(max_time=2.0, max_iterations=50)
    trajs = simulate(unit, Exact(), limits, dt=0.5)
    spec = make_plot_spec(parse_axes("[(x,y)]"), "scatter", ordered_vars(unit),
                          limits)
    script = emit_plot_script(trajs, spec)
    assert script == (GOLDEN / "pair.gp").read_text()


def test_plot_script_3d_uses_splot():
    unit = desugar(parse("x := 0 ; y := 0 ; z := 0 ; x' = 1, y' = 2, z' = 3 for 1"))
    limits = Limits(max_time=1.0, max_iterations=10)
    trajs = simulate(unit, Exact(), limits, dt=0.25)
    spec = make_plot_spec(parse_axes("[(x,y,z)]"), "scatter3d",
                          ordered_vars(unit), limits)
    script = emit_plot_script(trajs, spec)
    assert "splot " in script
    assert "using 1:2:3" in script
    assert "title 'start'" in script and "title 'end'" in script


def test_plot_script_empty_samples_still_wellformed():
    spec = make_plot_spec([TimeAxis("x")], "scatter", ["x"], Limits())
    from hybridsim.trajectory import Trajectory
    from hybridsim.semantics import Skip
    traj = Trajectory(label="empty", samples=[], outcome=Skip({}, 0.0, False))
    script = emit_plot_script([traj], spec)
    opened = script.count("<< EOD")
    closed = sum(1 for line in script.splitlines() if line == "EOD")
    assert opened == closed == 3  # trajectory block + start/end marker blocks
    assert "$g1_t0 << EOD\nEOD" in script  # empty data block
    assert "plot " in script


def _golden_run(text, mode, limits, dt, axes, graph="scatter"):
    unit = desugar(parse(text))
    trajs = simulate(unit, mode, limits, dt=dt)
    spec = make_plot_spec(parse_axes(axes), graph, ordered_vars(unit), limits)
    return unit, trajs, spec


# Goldens written by the exporter before its rows and JSON text were
# rewritten for speed; every value in them is exact in binary, so no
# platform's rounding can move them.
GOLDEN_PLOTS = {
    # two trajectories; `late` is assigned at t = 1 in one of them and never
    # in the other, so its time-axis and pair groups skip rows and leave an
    # empty block
    "late.gp": ("x := {0, 1} ; x' = 1 for 1 ;"
                " if x <= 1.5 then late := x else x := x ; x' = 1 for 1",
                Limits(max_time=3.0, max_iterations=50), 0.5,
                "[x, late, (x, late)]", "scatter"),
    # the trajectories jump at different instants, so their sample times
    # differ from t = 1 on
    "stagger.gp": ("x := {0, 1} ; x' = 1 for 1 + x/4 ; y := x ; x' = 1, y' = -1 for 1",
                   Limits(max_time=3.0, max_iterations=50), 0.5,
                   "[y, (x, y)]", "scatter"),
    "triple.gp": ("x := 0 ; y := -1 ; z := 0 ; x' = 1, y' = 0.1, z' = -2 for 1",
                  Limits(max_time=1.0, max_iterations=10), 0.25,
                  "[(x,y,z)]", "scatter3d"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PLOTS))
def test_plot_script_goldens(name):
    text, limits, dt, axes, graph = GOLDEN_PLOTS[name]
    _, trajs, spec = _golden_run(text, Exact(), limits, dt, axes, graph)
    assert emit_plot_script(trajs, spec) == (GOLDEN / name).read_text()


def test_json_golden_rk4_bound():
    """Top-level `"step": null`, `rk4` and `closed-form` segments, and a
    run that ends on the iteration bound; steps of 2**-11 keep RK4 exact."""
    limits = Limits(max_time=5.0, max_iterations=2)
    unit, trajs, spec = _golden_run(
        "p := 0 ; v := 1 ;"
        " while p > -100 do { p' = v, v' = 1 for 0.0078125 ; p' = 2 for 0.00390625 }",
        RK4(), limits, 0.00390625, "[(p,v)]")
    doc = export_json(trajs, spec, RK4(), limits, ordered_vars(unit))
    assert doc == (GOLDEN / "rk4_bound.json").read_bytes()


# `json.dumps(o, indent=2)` is the oracle of the module's JSON writer.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0, subnormals
_FLAT = st.dictionaries(st.text(), _FINITE, min_size=1)  # a sample's env
# a flat float dict with one value among its floats that must take it off
# the fast path
_SPOILT = st.builds(lambda before, key, bad, after: {**before, key: bad, **after},
                    _FLAT, st.text(), st.sampled_from(
                        [0, -7, 2**70, True, None, math.nan, math.inf, -math.inf,
                         "x", []]), _FLAT)
_SCALARS = (st.none() | st.booleans() | st.integers(-2**200, 2**200)
            | st.floats() | st.text())
_JSON = st.recursive(
    _SCALARS | _FLAT | _SPOILT,
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(st.text(), kids)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_JSON)
@example({"k": {"x": 1.0, 1: 2.0}})  # an int key, which json writes as "1"
def test_json_writer_matches_json_dumps(o):
    assert _dumps(o) == json.dumps(o, indent=2)
    # and at a depth: a newline inside a string is escaped, so never moved
    assert (json.dumps({"d": [o]}, indent=2)
            == '{\n  "d": [\n    ' + _dumps(o, "\n    ") + "\n  ]\n}")


# the last: a key json cannot write, nested where the fast path looks first
@pytest.mark.parametrize("o", [{1, 2}, {"a": object()}, [1j],
                               {"k": {"x": 1.0, (1, 2): 2.0}}])
def test_json_writer_rejects_what_it_cannot_write(o):
    with pytest.raises(TypeError):
        _dumps(o)


@pytest.mark.parametrize("mode", [Exact(), RK4()], ids=["exact", "rk4"])
@pytest.mark.parametrize("name", ["eq1", "eq2", "ex21", "zeno", "aeb", "aebom",
                                  "rlcs-under", "rlcs-over", "pursuit"])
def test_json_export_of_the_corpus_matches_json_dumps(name, mode):
    unit = load_core(name)
    limits = Limits(max_time=50.0)
    variables = ordered_vars(unit)
    spec = make_plot_spec([TimeAxis(v) for v in variables], "scatter",
                          variables, limits)
    doc = export_json(simulate(unit, mode, limits, dt=0.1), spec, mode, limits,
                      variables)
    assert doc == (json.dumps(json.loads(doc), indent=2) + "\n").encode()


# ---------------------------------------------------------------------------
# The writers against reference writers: the per-sample CSV loop, the JSON
# document through json.dumps, and the per-row plot script the record-shape
# writers replaced.


def _ref_csv(trajs, variables) -> bytes:
    lines = ["label,time," + ",".join(variables)]
    for traj in sorted(trajs, key=lambda tr: tr.label):
        for t, env in traj.samples:
            cells = [traj.label, format(t, ".17g")]
            for name in variables:
                cells.append(format(env[name], ".17g") if name in env else "")
            lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _ref_outcome(out):
    if isinstance(out, Skip):
        return {"variant": "skip", "early": out.early, "elapsed": out.elapsed,
                "env": out.env}
    if isinstance(out, Stop):
        return {"variant": "stop", "env": out.env}
    if isinstance(out, Err):
        info = out.info
        return {"variant": "err",
                "error": {"kind": info.kind.value, "message": info.message,
                          "src": info.src, "line": info.line, "col": info.col}}
    return {"variant": "bound", "kind": out.kind.value, "elapsed": out.elapsed,
            "env": out.env}


def _ref_segment(seg):
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
            "outcome": _ref_outcome(seg.kind.outcome)}


def _ref_json(trajs, spec, mode, limits, variables) -> bytes:
    doc = {
        "schema_version": "1",
        "solver": ({"mode": "exact"} if isinstance(mode, Exact)
                   else {"mode": "rk4", "step": mode.step}),
        "limits": {"max_time": limits.max_time,
                   "max_iterations": limits.max_iterations},
        "plot": {"graph_type": spec.graph_type,
                 "axes": [[g.kind, *g.names] for g in spec.axes]},
        "variables": list(variables),
        "trajectories": [{"label": traj.label, "outcome": _ref_outcome(traj.outcome),
                          "segments": [_ref_segment(s) for s in traj.segments],
                          "samples": list(traj.samples)} for traj in trajs],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _ref_plot(trajs, spec) -> str:
    lines = ["# generated by hybridsim; run with: gnuplot <this file>",
             "set terminal pngcairo size 960,640", "set key outside", "set grid"]
    plot_cmds = []
    for gi, g in enumerate(spec.axes, start=1):
        cols = ("time",) + g.names if g.kind == "time" else g.names
        series, starts, ends = [], [], []
        for ti, traj in enumerate(trajs):
            block = f"$g{gi}_t{ti}"
            rows = [" ".join([format(t, ".17g")] * (g.kind == "time")
                             + [format(env[n], ".17g") for n in g.names])
                    for t, env in traj.samples if set(g.names) <= env.keys()]
            lines += [f"{block} << EOD", *rows, "EOD"]
            series.append((block, traj.label or "trajectory"))
            if rows:
                starts.append(rows[0])
                ends.append(rows[-1])
        for mark, pts in (("start", starts), ("end", ends)):
            lines += [f"$g{gi}_{mark} << EOD", *pts, "EOD"]
        use = ":".join(str(i + 1) for i in range(len(cols)))
        plot_cmds.append(f"set output 'group_{gi}.png'")
        plot_cmds += [f"set {a}label '{c}'" for a, c in zip("xyz", cols)]
        parts = [f"{block} using {use} with linespoints pointsize 0.4 title '{title}'"
                 for block, title in series]
        parts.append(f"$g{gi}_start using {use} with points pointtype 6 pointsize 2.5 title 'start'")
        parts.append(f"$g{gi}_end using {use} with points pointtype 7 pointsize 2.5 title 'end'")
        plot_cmds.append(("splot " if g.kind == "triple" else "plot ")
                         + ", \\\n     ".join(parts))
    return "\n".join(lines + plot_cmds) + "\n"


def _system(names, rate_only):
    n = len(names)
    return AffineSystem(tuple(names), np.zeros((n, n)) if rate_only else np.eye(n),
                        np.ones(n))


# the values the fast paths must write as the references do, and those that
# must take the general path (inf, nan, int, bool)
_EDGES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
_SPOILERS = [math.inf, -math.inf, math.nan, 0, -7, 2**70, True, False]
_VALUE = st.one_of(_FINITE, _FINITE, _FINITE, st.sampled_from(_EDGES),
                   st.sampled_from(_EDGES + _SPOILERS))
_NAME = st.sampled_from(["x", "v", "time", "%", "a%sb", "%%r", 'q"', "b\\s", "é", "ß∂"])
_LABEL = st.sampled_from(["", "x=1", "%", "%s %d", 'say "hi"', "back\\slash", "δ=2"]) | st.text()
# the three ways a continuous segment is solved: Exact, RK4 closed-form, RK4 stepped
_SOLUTIONS = [Solution(_system(names, rate_only), [0.0] * len(names), mode, 0.5)
              for names, rate_only, mode in [(("x", "v"), False, Exact()),
                                             (("%", 'q"'), True, RK4()),
                                             (("é", "x"), False, RK4()),
                                             ((), True, RK4())]]
_INFO = ErrorInfo(ErrorKind.DIVISION_BY_ZERO, 'the divisor of "1/x" is 0%', "1/x", 4, 6)


@st.composite
def _samples(draw):
    """Runs of samples whose environments share key tuples, which come back
    and whose order may differ from one sample to the next."""
    samples = []
    for _ in range(draw(st.integers(0, 4))):
        keys = draw(st.lists(_NAME, unique=True, max_size=4))
        for _ in range(draw(st.integers(1, 5))):
            order = draw(st.permutations(keys)) if draw(st.booleans()) else keys
            samples.append((draw(_VALUE), {k: draw(_VALUE) for k in order}))
    return samples


def _same(got, want) -> bool:
    """Both lists of (t, env) pairs hold the same objects, keys in one order."""
    return len(got) == len(want) and all(
        t is t0 and list(env) == list(env0) and all(map(is_, env.values(), env0.values()))
        for (t, env), (t0, env0) in zip(got, want))


@settings(max_examples=200, deadline=None)
@given(_samples())
def test_a_trajectory_gives_back_the_samples_it_was_built_from(samples):
    traj = Trajectory("", samples=samples)
    view = traj.samples
    n = len(samples)
    assert len(view) == n
    assert _same(list(view), samples)
    assert _same([view[i] for i in range(n)], samples)
    assert _same([view[i] for i in range(-n, 0)], samples)
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    if samples:  # the view is read-only: writing into what it gives changes nothing
        view[0][1]["new"] = 1.0
        samples[0][1]["new"] = 1.0
        assert "new" not in traj.samples[0][1]


@settings(max_examples=200, deadline=None)
@given(_samples())
def test_chunks_are_runs_of_one_key_tuple_with_their_constant_columns(samples):
    chunks = Trajectory("", samples=samples).chunks
    start = 0
    for chunk in chunks:
        run = samples[start:start + len(chunk.times)]
        start += len(chunk.times)
        assert 0 < len(chunk.times) <= _CHUNK
        assert all(list(env) == list(chunk.columns) for _, env in run)
        assert all(len(col) == len(run) for col in chunk.columns.values())
        assert chunk.const.keys() == {k for k, col in chunk.columns.items()
                                      if all(v is col[0] for v in col)}
        assert all(v is chunk.columns[k][0] for k, v in chunk.const.items())
    assert start == len(samples)
    for a, b in zip(chunks, chunks[1:]):  # a run is split only where it is full
        assert list(a.columns) != list(b.columns) or len(a.times) == _CHUNK


_ENV = st.dictionaries(_NAME, _VALUE, max_size=3)
_OUTCOME = st.one_of(
    st.builds(Skip, _ENV, _VALUE, st.booleans()), st.builds(Stop, _ENV),
    st.just(Err(_INFO)), st.builds(BoundReached, st.just(BoundKind.MAX_ITERATIONS), _ENV, _VALUE))
_SEGMENT = st.builds(Segment, _VALUE, _VALUE, st.one_of(
    st.builds(Continuous, st.sampled_from(_SOLUTIONS), _VALUE),
    st.builds(Discrete, _NAME, st.none() | _VALUE, _VALUE),
    st.builds(TerminalMark, _OUTCOME)), st.just({}))
_TRAJECTORY = st.builds(Trajectory, _LABEL, st.lists(_SEGMENT, max_size=6), _samples(), _OUTCOME)


@settings(max_examples=100, deadline=None)
@given(st.lists(_TRAJECTORY, max_size=3), st.lists(_NAME, unique=True),
       st.sampled_from([Exact(), RK4(), RK4(0.125)]))
def test_writers_match_the_reference_writers(trajs, variables, mode):
    used = sorted({k for tr in trajs for _, env in tr.samples for k in env})
    variables = list(dict.fromkeys(variables + used))  # every sample's names, and more
    axes = [Axis((n,)) for n in used[:2]] + [Axis(tuple(used[:k])) for k in (2, 3)
                                             if len(used) >= k]
    spec = PlotSpec(tuple(axes), "scatter", 5.0, 10)
    limits = Limits(max_time=5.0, max_iterations=10)
    assert export_csv(trajs, variables) == _ref_csv(trajs, variables)
    assert export_json(trajs, spec, mode, limits, variables) == _ref_json(
        trajs, spec, mode, limits, variables)
    assert emit_plot_script(trajs, spec) == _ref_plot(trajs, spec)


def _trajectory(samples: list, label: str = "") -> Trajectory:
    return Trajectory(label=label, samples=samples,
                      outcome=Skip(samples[-1][1], len(samples) / 3, False))


def _long_samples(n: int, names: list) -> list:
    """n samples over `names`, each value a distinct 17-digit float; the last
    ten lack `names[-1]`, so the first n - 10 make one run."""
    return [(i / 3, {name: (i * 8 + j) / 7
                     for j, name in enumerate(names[:-1] if i >= n - 10 else names)})
            for i in range(n)]


def _long_trajectory(n: int, names: list, label: str = "") -> Trajectory:
    return _trajectory(_long_samples(n, names), label)


def test_runs_longer_than_a_chunk_match_the_reference_writers():
    samples = _long_samples(2500, ["x", "y%"])
    samples[1300][1]["x"] = math.inf  # one chunk off the fast path
    trajs = [_long_trajectory(2600, ["x", "y%", "z"], "a%b"), _trajectory(samples)]
    assert trajs[1].samples[1300][1]["x"] == math.inf
    # a run of 2590 samples is held, and written, at most _CHUNK samples at a time
    full, rest = divmod(2590, _CHUNK)
    assert full >= 3  # several chunks long
    assert [len(chunk.times) for chunk in trajs[0].chunks] == (
        [_CHUNK] * full + [rest] * (rest > 0) + [10])
    variables = ["x", "y%", "z"]
    spec = PlotSpec((Axis(("z",)), Axis(("x", "y%")), Axis(("x", "y%", "z"))), "scatter", 9e3, 10)
    limits = Limits(max_time=9e3, max_iterations=10)
    assert export_csv(trajs, variables) == _ref_csv(trajs, variables)
    assert export_json(trajs, spec, Exact(), limits, variables) == _ref_json(
        trajs, spec, Exact(), limits, variables)
    assert emit_plot_script(trajs, spec) == _ref_plot(trajs, spec)


# values whose text a template may bake in, each one object held by a column
# through a run: -0.0 beside 0.0, and ints and a bool beside floats they equal
_CONSTANTS = {"neg": -0.0, "zero": 0.0, "nan": math.nan, "inf%": math.inf,
              "-inf": -math.inf, "int": 0, "bool": True, "big": 2**70}


def _constant_samples(n: int) -> list:
    """n samples whose columns hold one object each, but for `half`, which
    holds one in the first and third chunks only; `%s`, whose equal values are
    distinct objects; and `mixed`, which hides an equal value of another
    text in the second chunk and the third."""
    samples = []
    for i in range(n):
        env = dict(_CONSTANTS)
        env["half"] = 0.5 if i // _CHUNK in (0, 2) else i / 7
        env["%s"] = float("1.5")
        env["mixed"] = {_CHUNK + 3: -0.0, 2 * _CHUNK + 1: 1}.get(i, 0.0)
        samples.append((i / 3, env))
    return samples


def test_constant_columns_match_the_reference_writers():
    second = _constant_samples(2 * _CHUNK)
    for i, (_, env) in enumerate(second):  # a second run, with fewer columns
        if i >= _CHUNK + 9:
            del env["big"]
    trajs = [_trajectory(_constant_samples(3 * _CHUNK + 5), "a%b"), _trajectory(second, "%s %d")]
    assert [len(chunk.times) for chunk in trajs[1].chunks] == [_CHUNK, 9, _CHUNK - 9]
    chunks = [chunk.const for chunk in trajs[0].chunks]
    assert len(chunks) == 4
    assert all(const.keys() >= _CONSTANTS.keys() for const in chunks)
    assert [sorted(const.keys() - _CONSTANTS.keys()) for const in chunks] == [
        ["half", "mixed"], [], ["half"], ["mixed"]]
    variables = [*_CONSTANTS, "half", "%s", "mixed"]
    spec = PlotSpec((Axis(("neg",)), Axis(("zero", "neg")), Axis(("nan", "inf%", "-inf")),
                     Axis(("int", "bool", "big")), Axis(("half", "%s", "mixed")), Axis(("%s",))),
                    "scatter", 9e3, 10)
    limits = Limits(max_time=9e3, max_iterations=10)
    assert export_csv(trajs, variables) == _ref_csv(trajs, variables)
    assert export_json(trajs, spec, Exact(), limits, variables) == _ref_json(
        trajs, spec, Exact(), limits, variables)
    assert emit_plot_script(trajs, spec) == _ref_plot(trajs, spec)


def test_json_doubles_each_percent_sign_of_a_baked_constant():
    """No number's text holds a `%`, but a string's does, and JSON writes one."""
    samples = [(i / 3, {"s": "5%", "x": i / 7}) for i in range(_CHUNK + 1)]
    trajs = [Trajectory(label="", samples=samples, outcome=Stop({}))]
    spec = PlotSpec((Axis(("x",)),), "scatter", 9e3, 10)
    limits = Limits(max_time=9e3, max_iterations=10)
    assert export_json(trajs, spec, Exact(), limits, ["s", "x"]) == _ref_json(
        trajs, spec, Exact(), limits, ["s", "x"])


@pytest.mark.parametrize("mode", [Exact(), RK4()], ids=["exact", "rk4"])
@pytest.mark.parametrize("name", ["eq1", "eq2", "ex21", "zeno", "aeb", "aebom",
                                  "rlcs-under", "rlcs-over", "pursuit"])
def test_csv_and_plot_of_the_corpus_match_the_reference_writers(name, mode):
    unit = load_core(name)
    limits = Limits(max_time=50.0)
    variables = ordered_vars(unit)
    axes = [TimeAxis(v) for v in variables] + ([PairAxis(*variables[:2])]
                                               if len(variables) > 1 else [])
    spec = make_plot_spec(axes, "scatter", variables, limits)
    trajs = simulate(unit, mode, limits, dt=0.1)
    assert export_csv(trajs, variables) == _ref_csv(trajs, variables)
    assert emit_plot_script(trajs, spec) == _ref_plot(trajs, spec)


def _peak(write, *args) -> int:
    """The most memory `write(*args)` holds at once beyond what was held before."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    write(*args)
    return tracemalloc.get_traced_memory()[1] - before


def test_export_memory_stays_within_the_reference_writers():
    """A trajectory many chunks long costs each writer no more memory at its
    peak than the reference writer for its format, given the samples as a
    list of pairs built beforehand."""
    names = [f"x{i}" for i in range(8)]
    trajs = [_long_trajectory(10_000, names)]
    held = [SimpleNamespace(label=tr.label, segments=tr.segments, samples=list(tr.samples),
                            outcome=tr.outcome) for tr in trajs]
    spec = PlotSpec((Axis(("x0",)), Axis(("x1", "x2"))), "scatter", 1e6, 10)
    limits = Limits(max_time=1e6, max_iterations=10)
    tracemalloc.start()
    try:
        for new, ref, args in [(export_csv, _ref_csv, (names,)),
                               (export_json, _ref_json, (spec, Exact(), limits, names)),
                               (emit_plot_script, _ref_plot, (spec,))]:
            ref_peak = _peak(ref, held, *args)
            assert _peak(new, trajs, *args) <= 1.1 * ref_peak, new.__name__
    finally:
        tracemalloc.stop()


# -- numpy scalar settings run, and export, as the equal Python floats

OSCILLATOR = "x := 1 ; v := 0 ; x' = v, v' = -x for 3.7"


def _export_all(text, mode, limits, dt):
    """Simulate `text` and write all three exports of it; the trajectories."""
    unit = desugar(parse(text))
    trajs = simulate(unit, mode, limits, dt)
    variables = ordered_vars(unit)
    spec = make_plot_spec([TimeAxis("x")], "scatter", variables, limits)
    export_csv(trajs, variables)
    json.loads(export_json(trajs, spec, mode, limits, variables))
    emit_plot_script(trajs, spec)
    return trajs


@pytest.mark.parametrize("single_first", [True, False], ids=["float32-first", "float-first"])
def test_a_float32_rk4_step_steps_in_double_precision(single_first):
    steps = [np.float32(0.01), float(np.float32(0.01))]
    if not single_first:
        steps.reverse()
    bits = []
    for h in steps:  # two copies parsed apart, so that no memo is shared
        unit = desugar(parse(OSCILLATOR))
        bits.append(outcome_bits(big_step(unit.body, {}, 3.0, RK4(h))))
    assert bits[0] == bits[1]
    assert type(RK4(np.float32(0.01)).step) is float
    _export_all(OSCILLATOR, RK4(np.float32(0.01)), Limits(max_time=5.0), 0.5)


def _times(trajs):
    return [([t for t, _ in traj.samples], [(s.t_start, s.t_end) for s in traj.segments])
            for traj in trajs]


@pytest.mark.parametrize("setting", ["dt", "max_time"])
def test_a_float32_dt_or_max_time_times_samples_in_double_precision(setting):
    def run(convert):
        dt, max_time = (convert(0.1), 5.0) if setting == "dt" else (0.25, convert(4.9))
        return _export_all(OSCILLATOR, Exact(), Limits(max_time=max_time), dt)

    single, double = run(np.float32), run(lambda v: float(np.float32(v)))
    assert _times(single) == _times(double)
    assert all(type(t) is float for times, _ in _times(single) for t in times)
