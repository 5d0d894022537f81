import math
import random
import tracemalloc

import pytest

from hybridsim.odesolve import Exact, RK4
from hybridsim.semantics import (BoundKind, BoundReached, Config, Err, Limits,
                                 Skip, Stop, big_step, outcome_bits, run_to_terminal)
from hybridsim.syntax import parse
from hybridsim.trajectory import (_CHUNK, Continuous, Discrete, TerminalMark, Trajectory,
                                  VariabilityCapExceeded, consistency_check,
                                  expand_variability, interp_at, simulate)
from conftest import load_core, load_corpus

EXACT = Exact()


# -- variability expansion

def test_expand_three_by_three():
    u = parse("x := {0, 2, 4} ; vx := {4, 8, 12} ; x' = vx for 1")
    envs = expand_variability(u)
    assert len(envs) == 9
    labels = [label for _, label in envs]
    assert len(set(labels)) == 9
    assert labels[0] == "x=0 vx=4"
    assert envs[0][0] == {"x": 0.0, "vx": 4.0}
    # product order follows declaration order, last listing fastest
    assert labels[1] == "x=0 vx=8"
    assert labels[3] == "x=2 vx=4"


def test_var_grid_accessor():
    from hybridsim.trajectory import var_grid
    u = parse("x := {0, 2, 4} ; y := 1 ; vx := {4, 8} ; x' = vx for 1")
    assert var_grid(u) == [("x", (0.0, 2.0, 4.0)), ("vx", (4.0, 8.0))]


def test_expand_no_listings():
    u = parse("x := 1 ; x' = -1 for 1")
    envs = expand_variability(u)
    assert envs == [({"x": 1.0}, "")]


def test_expand_singleton_label():
    u = parse("x := {1} ; x' = -1 for 1")
    envs = expand_variability(u)
    assert envs == [({"x": 1.0}, "x=1")]


def test_expand_cap():
    u = parse("x := {1,2,3,4,5,6,7,8,9} ; y := {1,2,3,4,5,6,7,8} ; x' = y for 1")
    with pytest.raises(VariabilityCapExceeded):
        expand_variability(u, cap=64)
    assert len(expand_variability(u, cap=72)) == 72


# -- simulation

def test_simulate_eq1_samples(eq1):
    traj = simulate(eq1, EXACT, Limits(max_time=2.0), dt=0.5)[0]
    pts = [(t, env["p"]) for t, env in traj.samples]
    assert pts == [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (1.5, 1.75), (2.0, 2.0)]
    assert isinstance(traj.outcome, Skip) and not traj.outcome.early


def test_simulate_ex21_errs_at_one(ex21):
    traj = simulate(ex21, EXACT, Limits(max_time=2.0), dt=0.25)[0]
    assert isinstance(traj.outcome, Err)
    last = traj.segments[-1]
    assert isinstance(last.kind, TerminalMark)
    assert last.t_start == pytest.approx(1.0, abs=1e-12)
    assert traj.samples[-1][0] == pytest.approx(1.0, abs=1e-12)


def test_simulate_zeno_bound_with_many_segments(zeno):
    limits = Limits(max_time=2.0, max_iterations=1000)
    traj = simulate(zeno, EXACT, limits, dt=0.5)[0]
    assert isinstance(traj.outcome, BoundReached)
    assert traj.outcome.kind == BoundKind.MAX_ITERATIONS
    continuous = [s for s in traj.segments if isinstance(s.kind, Continuous)]
    assert len(continuous) >= limits.max_iterations
    assert traj.segments[-1].t_end <= 1.0 + 1e-9


def test_simulate_holds_values_after_early_skip():
    u = parse("x := 1 ; x' = -1 for 1")
    traj = simulate(u, EXACT, Limits(max_time=3.0), dt=0.5)[0]
    assert isinstance(traj.outcome, Skip) and traj.outcome.early
    tail = [(t, env["x"]) for t, env in traj.samples if t > 1.0]
    assert tail and all(v == tail[0][1] for _, v in tail)
    assert traj.samples[-1][0] == 3.0  # padded to the horizon


def test_simulate_stop_at_horizon():
    u = parse("x := 0 ; x' = 1 for 100")
    traj = simulate(u, EXACT, Limits(max_time=5.0), dt=1.0)[0]
    assert isinstance(traj.outcome, Stop)
    assert traj.samples[-1][0] == 5.0
    assert traj.samples[-1][1]["x"] == pytest.approx(5.0, abs=1e-9)


def test_sample_times_strictly_increasing_and_in_segments():
    for name in ("eq1", "aeb", "aebom"):
        unit = load_corpus(name)
        for traj in simulate(unit, EXACT, Limits(max_time=10.0), dt=0.37):
            times = [t for t, _ in traj.samples]
            assert all(a < b for a, b in zip(times, times[1:]))
            spans = [(s.t_start, s.t_end) for s in traj.segments]
            for t in times:
                assert any(lo <= t <= hi for lo, hi in spans)
            assert times[-1] <= 10.0


def test_segment_continuity():
    """Differential variables are continuous across segment boundaries;
    only the assigned variable may jump at a Discrete segment."""
    for name in ("aeb", "rlcs-under"):
        unit = load_corpus(name)
        traj = simulate(unit, EXACT, Limits(max_time=3.0), dt=0.1)[0]
        segs = traj.segments
        for prev, nxt in zip(segs, segs[1:]):
            if isinstance(prev.kind, Continuous):
                x = prev.kind.solution.at(prev.kind.duration)
                end_env = dict(prev.env_at_start)
                for i, v in enumerate(prev.kind.solution.system.vars):
                    end_env[v] = float(x[i])
            elif isinstance(prev.kind, Discrete):
                end_env = dict(prev.env_at_start)
                end_env[prev.kind.var] = prev.kind.new
            else:
                continue
            for name2, value in nxt.env_at_start.items():
                assert abs(end_env.get(name2, value) - value) <= 1e-9


def test_sampling_refinement_is_superset_bitwise(eq1):
    coarse = simulate(eq1, EXACT, Limits(max_time=2.0), dt=0.5)[0]
    fine = simulate(eq1, EXACT, Limits(max_time=2.0), dt=0.25)[0]
    fine_map = dict(fine.samples)
    for t, env in coarse.samples:
        assert t in fine_map
        assert fine_map[t] == env  # identical values at shared times


CORPUS = ("eq1", "eq2", "ex21", "zeno", "aeb", "aebom", "rlcs-under",
          "rlcs-over", "pursuit")


# at this horizon all four outcome kinds occur: eq1 completes exactly on it
# and ex21 fails, zeno hits the iteration bound, and the rest are still
# running
@pytest.mark.parametrize("mode", [EXACT, RK4()], ids=["exact", "rk4"])
@pytest.mark.parametrize("name", CORPUS)
def test_single_trajectory_outcome_matches_run_to_terminal(name, mode):
    unit = load_core(name)
    limits = Limits(max_time=2.0)
    for traj in simulate(unit, mode, limits, dt=0.5):
        direct = run_to_terminal(
            Config(unit.body, dict(traj.initial_env), limits.max_time),
            mode, limits)
        assert traj.outcome == direct, traj.label


# off the dt grid, so most segments start between two grid instants; zeno's
# last segments are too short to move the clock, and at an instant that
# several steps share the latest state wins
@pytest.mark.parametrize("mode", [EXACT, RK4()], ids=["exact", "rk4"])
@pytest.mark.parametrize("name", CORPUS)
def test_each_continuous_segment_start_has_one_sample_of_its_start_state(name, mode):
    for traj in simulate(load_core(name), mode, Limits(max_time=50.0), dt=0.0997):
        samples = list(traj.samples)  # read once: each read of the view builds every env
        for seg in traj.segments:
            if isinstance(seg.kind, Continuous):
                at_start = [env for t, env in samples if t == seg.t_start]
                assert len(at_start) == 1, (traj.label, seg.t_start)
                if seg.t_end > seg.t_start:
                    assert at_start == [seg.env_at_start], (traj.label, seg.t_start)


# a later sample at an instant replaces the one before it, also across a key
# change (eq2's `t := sqrt(dist/a)` at t = 0), and is never doubled
@pytest.mark.parametrize("dt", [0.1, 0.0997])
@pytest.mark.parametrize("mode", [EXACT, RK4()], ids=["exact", "rk4"])
@pytest.mark.parametrize("name", CORPUS)
def test_sample_times_rise_strictly_from_zero_to_the_trajectory_end(name, mode, dt):
    for traj in simulate(load_core(name), mode, Limits(max_time=50.0), dt=dt):
        times = [t for t, _ in traj.samples]
        assert times[0] == 0.0 and times[-1] == traj.segments[-1].t_end, traj.label
        assert all(a < b for a, b in zip(times, times[1:])), traj.label
        assert all(0 < len(chunk.times) <= _CHUNK for chunk in traj.chunks), traj.label


def test_chunks_hold_aebom_in_at_most_half_the_memory_of_pairs():
    """The samples of aebom at dt = 0.01 (45 027 of them) as column chunks,
    against the same samples as (t, dict) pairs; both hold the same value
    objects, so only what holds them is counted."""
    trajs = simulate(load_core("aebom"), EXACT, Limits(max_time=50.0), dt=0.01)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pairs = [list(traj.samples) for traj in trajs]
        middle = tracemalloc.get_traced_memory()[0]
        chunked = [Trajectory(traj.label, samples=held) for traj, held in zip(trajs, pairs)]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(map(len, pairs)) == 45_027
    assert [chunk.times for traj in chunked for chunk in traj.chunks] == [
        chunk.times for traj in trajs for chunk in traj.chunks]
    assert after - middle <= 0.5 * (middle - before)


@pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -0.5])
def test_simulate_refuses_a_dt_that_is_not_positive_and_finite(eq1, dt):
    limits = Limits(max_time=5.0)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        simulate(eq1, EXACT, limits, dt=dt)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        consistency_check(eq1, EXACT, limits, dt=dt, k=1)


def test_interp_at_discrete_instant_reads_post_value():
    u = parse("x := 1 ; x' = -1 for 1 ; x := 5 ; x' = -1 for 1")
    traj = simulate(u, EXACT, Limits(max_time=2.0), dt=0.5)[0]
    env = interp_at(traj, 1.0)
    assert env["x"] == 5.0


@pytest.mark.parametrize("t", [
    math.nan, math.inf, -math.inf, -0.5,
    pytest.param(1j, id="complex"), pytest.param("1", id="str"), pytest.param(None, id="None"),
    pytest.param([1.0], id="list"), pytest.param(10**400, id="int-beyond-float")])
def test_interp_at_refuses_a_time_that_is_negative_or_not_finite(eq1, t):
    traj = simulate(eq1, EXACT, Limits(max_time=2.0), dt=0.5)[0]
    with pytest.raises(ValueError, match="time must be finite and non-negative"):
        interp_at(traj, t)


def test_interp_at_refuses_a_table_with_no_terminal_segment():
    traj = simulate(parse("x := 0 ; x' = 1 for 1"), EXACT, Limits(max_time=2.0), dt=0.5)[0]
    assert isinstance(traj.segments.pop().kind, TerminalMark)
    assert interp_at(traj, 0.5)["x"] == 0.5
    with pytest.raises(ValueError, match="the trajectory has no terminal segment"):
        interp_at(traj, 1.5)


def test_consistency_check_flags_instants_past_where_the_oracle_has_a_state():
    u = parse("x := 1 ; y := 0 ; x' = 1 for 1 ; x := x / y")
    limits = Limits(max_time=2.0)
    trajs = simulate(u, EXACT, limits, dt=0.5)
    end = trajs[0].segments[-1]
    assert isinstance(end.kind.outcome, Err) and end.t_end == 1.0
    end.t_end = 2.0  # the table now runs past the error
    rep = consistency_check(u, EXACT, limits, dt=0.5, k=40, trajectories=trajs)
    assert not rep.passed and rep.checked == 40
    assert rep.failures and all(why == "oracle did not produce a state" and t >= 1.0
                                for _, t, why in rep.failures)


def test_consistency_check_flags_a_variable_the_table_lacks():
    u = parse("x := 0 ; y := 1 ; x' = 1 for 10")
    limits = Limits(max_time=2.0)
    trajs = simulate(u, EXACT, limits, dt=0.5)
    for seg in trajs[0].segments:  # drop y
        seg.env_at_start = {k: v for k, v in seg.env_at_start.items() if k != "y"}
    rep = consistency_check(u, EXACT, limits, dt=0.5, k=10, trajectories=trajs)
    assert not rep.passed and rep.worst == 0.0
    assert [why for _, _, why in rep.failures] == ["y missing"] * 10


def test_consistency_check_refuses_a_negative_k(eq1):
    with pytest.raises(ValueError, match="k must be non-negative"):
        consistency_check(eq1, EXACT, Limits(max_time=2.0), dt=0.5, k=-3)
    assert consistency_check(eq1, EXACT, Limits(max_time=2.0), dt=0.5, k=0).checked == 0


def test_consistency_check_passes(eq1):
    rep = consistency_check(eq1, EXACT, Limits(max_time=2.0), dt=0.5, k=100)
    assert rep.passed and rep.checked == 100
    assert rep.worst <= 1e-9


def test_consistency_check_aeb_both_modes():
    unit = load_corpus("aeb")
    rep = consistency_check(unit, EXACT, Limits(max_time=20.0), dt=0.2, k=100)
    assert rep.passed
    rep_rk4 = consistency_check(unit, RK4(), Limits(max_time=20.0), dt=0.2, k=50)
    assert rep_rk4.passed


def test_point_query_agrees_with_segment_interpolation():
    """Evaluating at one instant matches the simulated trajectory
    interpolated through its segment at that instant."""
    from hybridsim.semantics import big_step
    unit = load_core("aeb")  # big_step takes desugared programs
    limits = Limits(max_time=10.0)
    traj = simulate(unit, EXACT, limits, dt=0.3)[0]
    for t in (0.05, 1.234, 3.3, 7.77):
        direct = big_step(unit.body, {}, t, EXACT, limits)
        interp = interp_at(traj, t)
        for name, v in direct.env.items():
            assert abs(interp[name] - v) <= 1e-9


def test_consistency_check_detects_corruption(eq1):
    limits = Limits(max_time=2.0)
    trajs = simulate(eq1, EXACT, limits, dt=0.5)
    for seg in trajs[0].segments:
        if isinstance(seg.kind, Continuous):
            seg.kind.solution.x0[0] += 0.75  # corrupt the segment table
            break
    rep = consistency_check(eq1, EXACT, limits, dt=0.5, k=60,
                            trajectories=trajs)
    assert not rep.passed
    assert rep.failures


# the segment table places segments end to end on the time axis; interp_at
# no longer reads that placement, so it is pinned here on its own (dt only
# thins the samples, which this does not look at)
@pytest.mark.parametrize("max_time", [50.0, 7.3])
@pytest.mark.parametrize("mode", [EXACT, RK4()], ids=["exact", "rk4"])
@pytest.mark.parametrize("name", CORPUS)
def test_segments_tile_the_time_axis(name, mode, max_time):
    for traj in simulate(load_core(name), mode, Limits(max_time=max_time), dt=max_time):
        segs = traj.segments
        assert segs[0].t_start == 0.0, traj.label
        for before, seg in zip(segs, segs[1:]):
            assert seg.t_start == before.t_end, (traj.label, before, seg)
        marks = [i for i, seg in enumerate(segs) if isinstance(seg.kind, TerminalMark)]
        assert marks == [len(segs) - 1], traj.label
        if isinstance(traj.outcome, (Skip, Stop)):
            assert segs[-1].t_end == max_time, traj.label


# interp_at replays big-step's clock over the table, so it reaches each
# segment at the local time big-step reaches and reads the same bits
@pytest.mark.parametrize("mode", [EXACT, RK4()], ids=["exact", "rk4"])
@pytest.mark.parametrize("name", CORPUS)
def test_interp_at_equals_big_step_bit_for_bit(name, mode):
    unit = load_core(name)
    limits = Limits(max_time=1.0)
    rng = random.Random(name)
    for traj in simulate(unit, mode, limits, dt=0.1):
        instants = sorted({seg.t_start for seg in traj.segments})
        instants += [rng.uniform(0.0, limits.max_time) for _ in range(20)]
        for t in instants:
            want = big_step(unit.body, traj.initial_env, t, mode, limits)
            if isinstance(want, (Stop, Skip)):
                got = interp_at(traj, t)
                assert outcome_bits(Stop(got)) == outcome_bits(Stop(want.env)), \
                    (traj.label, t)
