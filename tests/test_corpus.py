import math

import pytest

from hybridsim.odesolve import Exact, RK4
from hybridsim.semantics import Config, Limits, Skip, outcome_bits, run_to_terminal
from hybridsim.syntax import parse, pretty_unit
from hybridsim.trajectory import Discrete, simulate
from conftest import load_core, load_corpus

ALL = ("eq1", "eq2", "ex21", "zeno", "aeb", "aebom",
       "rlcs-under", "rlcs-over", "pursuit")


@pytest.mark.parametrize("name", ALL)
def test_pretty_parse_fixpoint(name):
    unit = load_corpus(name)
    again = parse(pretty_unit(unit))
    assert again.body == unit.body
    assert again.declarations == unit.declarations


def test_eq2_reaches_three_meters():
    unit = load_core("eq2")
    out = run_to_terminal(Config(unit.body, {}, 2.0 * math.sqrt(3.0)), Exact())
    assert isinstance(out, Skip) and not out.early
    assert out.env["p"] == pytest.approx(3.0, abs=1e-9)
    assert out.env["v"] == pytest.approx(0.0, abs=1e-9)


def test_aeb_stops_before_obstacle():
    unit = load_core("aeb")
    out = run_to_terminal(Config(unit.body, {}, 20.0), Exact())
    assert isinstance(out, Skip) and out.early
    assert out.env["v"] <= 0.001
    assert out.env["x"] < out.env["obst"]
    assert out.env["x"] > out.env["obst"] - 5.0  # it gets close before stopping


def test_aebom_manoeuvre_shape():
    unit = load_corpus("aebom")
    trajs = simulate(unit, Exact(), Limits(max_time=50.0, max_iterations=1000),
                     dt=0.25)
    assert len(trajs) == 9
    for traj in trajs:
        assert isinstance(traj.outcome, Skip)
        ys = [env["y"] for _, env in traj.samples]
        xs = [env["x"] for _, env in traj.samples]
        assert max(ys) == pytest.approx(3.0, abs=0.05)   # sidestep distance
        assert abs(ys[-1]) <= 0.05                       # back in the lane
        assert xs[-1] > 30.0                             # past the obstacle
        # it never touches the obstacle point (30, 0): when near x=30 the
        # robot is displaced sideways
        for x, y in zip(xs, ys):
            if abs(x - 30.0) < 0.5:
                assert y > 1.0


def test_aebom_rk4_loop_exits_match_exact():
    """The cruise loop's constant-rate steps are closed-form under RK4 too,
    so every trajectory unfolds its loops as often as in exact mode."""
    unit = load_corpus("aebom")
    limits = Limits(max_time=50.0, max_iterations=1000)
    exact = simulate(unit, Exact(), limits, dt=0.1)
    rk4 = simulate(unit, RK4(), limits, dt=0.1)
    for a, b in zip(exact, rk4, strict=True):
        assert len(b.segments) == len(a.segments), a.label
        assert b.outcome.elapsed == a.outcome.elapsed, a.label


def test_rlcs_regulates_towards_ten_volts():
    for name, var in (("rlcs-under", "under"), ("rlcs-over", "over")):
        unit = load_corpus(name)
        traj = simulate(unit, RK4(), Limits(max_time=3.0, max_iterations=1000),
                        dt=0.01)[0]
        values = [env[var] for _, env in traj.samples]
        assert any(9.0 <= v <= 11.0 for v in values)
        switches = [s for s in traj.segments
                    if isinstance(s.kind, Discrete) and s.kind.var == "u"
                    and s.kind.old != s.kind.new]
        assert len(switches) >= 2


def test_pursuit_closes_distance():
    unit = load_corpus("pursuit")
    traj = simulate(unit, RK4(), Limits(max_time=50.0, max_iterations=1000),
                    dt=0.1)[0]

    def dist(env):
        return math.sqrt((env["xe"] - env["xp"]) ** 2
                         + (env["ye"] - env["yp"]) ** 2
                         + (env["ze"] - env["zp"]) ** 2)

    d0 = dist(traj.samples[0][1])
    dmin = min(dist(env) for _, env in traj.samples)
    assert dmin < d0


def test_zeno_paper_variant_agrees_between_semantics():
    unit = load_core("zeno")
    from hybridsim.semantics import big_step
    for t in (0.3, 0.75, 0.96):
        big = big_step(unit.body, {}, t, Exact())
        small = run_to_terminal(Config(unit.body, {}, t), Exact())
        assert outcome_bits(big) == outcome_bits(small), (t, big, small)
