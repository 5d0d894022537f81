import csv
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_core
from hybridsim.export import (AxisSyntaxError, PairAxis, TimeAxis, TripleAxis,
                              UnknownVariable, _dumps, emit_plot_script,
                              export_csv, export_json, make_plot_spec,
                              parse_axes)
from hybridsim.odesolve import Exact, RK4, default_rk4_step
from hybridsim.semantics import Limits
from hybridsim.syntax import desugar, ordered_vars, parse
from hybridsim.trajectory import simulate

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


def test_plot_spec_validation():
    limits = Limits()
    variables = ["x", "y", "z"]
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
def test_json_writer_matches_json_dumps(o):
    assert _dumps(o) == json.dumps(o, indent=2)


@pytest.mark.parametrize("o", [{1, 2}, {"a": object()}, [1j], {"k": {"x": 1.0, 1: 2.0}}])
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
