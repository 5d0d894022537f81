"""Acceptance suite.

Each test prints one `[criterion N] PASS/FAIL` line (run with `pytest -s
tests/test_acceptance.py` to see them all); tolerances are pinned in each
test body.
"""
import contextlib
import math
import random
import statistics
import time

import numpy as np

from hybridsim import corpus_path, randprog
from hybridsim.linearize import AffineSystem
from hybridsim.odesolve import Exact, RK4, solve_exact, solve_rk4
from hybridsim.semantics import (BoundKind, BoundReached, Config, Err, Limits,
                                 Skip, Stop, applicable_rules, big_step,
                                 machine, outcome_bits, run_to_terminal)
from hybridsim.syntax import desugar, ordered_vars, parse, parse_program
from hybridsim.syntax import desugar_program
from hybridsim.trajectory import Discrete, simulate
from hybridsim.export import (TripleAxis, emit_plot_script, export_csv,
                              make_plot_spec)
from hybridsim.errors import ErrorKind

EXACT = Exact()


@contextlib.contextmanager
def criterion(n: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {n:2d}] FAIL  {text}")
        raise
    print(f"[criterion {n:2d}] PASS  {text}")


def corpus(name: str):
    return desugar(parse(corpus_path(name).read_text(encoding="utf-8")))


def test_criterion_01_symmetric_drive():
    with criterion(1, "sqrt-timed drive covers 3 m and stops"):
        t0 = time.perf_counter()
        body = desugar_program(parse_program(
            "v := 0 ; p := 0 ; t := sqrt(3) ;"
            " p' = v, v' = 1 for t ; p' = v, v' = -1 for t"))
        horizon = 2.0 * math.sqrt(3.0)
        out = big_step(body, {}, horizon, EXACT)
        assert isinstance(out, Skip)
        assert abs(out.env["p"] - 3.0) <= 1e-6
        assert abs(out.env["v"] - 0.0) <= 1e-6
        out_rk4 = big_step(body, {}, horizon, RK4())
        assert abs(out_rk4.env["p"] - 3.0) <= 1e-4
        assert abs(out_rk4.env["v"] - 0.0) <= 1e-4
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_accelerate_then_brake():
    with criterion(2, "drive segment: p=2, v=0 at t=2; v=2 at t=1"):
        unit = corpus("eq1")
        out2 = big_step(unit.body, {}, 2.0, EXACT)
        assert isinstance(out2, Skip)
        assert abs(out2.env["p"] - 2.0) <= 1e-9
        assert abs(out2.env["v"] - 0.0) <= 1e-9
        out1 = big_step(unit.body, {}, 1.0, EXACT)
        assert abs(out1.env["v"] - 2.0) <= 1e-9


def test_criterion_03_inversion_failure_split():
    with criterion(3, "drain-then-invert: state before 1 s, failure after"):
        unit = corpus("ex21")
        rng = random.Random(3)
        good = bad = 0
        for _ in range(20):
            t = rng.uniform(0.0, 0.999999)
            out = big_step(unit.body, {}, t, EXACT)
            assert isinstance(out, Stop)
            assert abs(out.env["x"] - (1.0 - t)) <= 1e-9
            good += 1
        for t in [1.0] + [rng.uniform(1.0, 5.0) for _ in range(19)]:
            out = big_step(unit.body, {}, t, EXACT)
            assert isinstance(out, Err)
            assert out.info.kind == ErrorKind.DIVISION_BY_ZERO
            bad += 1
        assert good == 20 and bad == 20


def test_criterion_04_zeno_loop():
    with criterion(4, "shrinking loop: x=2(1-t) inside, bound at t=1"):
        unit = corpus("zeno")
        limits = Limits(max_time=2.0, max_iterations=1000)
        for t in (0.25, 0.5, 0.9, 0.99):
            out = big_step(unit.body, {}, t, EXACT, limits)
            assert isinstance(out, (Stop, Skip)), out
            assert abs(out.env["x"] - 2.0 * (1.0 - t)) <= 1e-9
        t0 = time.perf_counter()
        out = big_step(unit.body, {}, 1.0, EXACT, limits)
        assert isinstance(out, BoundReached)
        assert out.kind == BoundKind.MAX_ITERATIONS
        assert time.perf_counter() - t0 < 1.0


def test_criterion_05_semantics_equivalence():
    with criterion(5, "1000 random programs x 5 times: big == small"):
        t0 = time.perf_counter()
        disagreements = 0
        for seed in range(1000):
            program, env = randprog.gen_program(seed, depth=5)
            for t in randprog.gen_times(seed, 5):
                big = big_step(program, env, t, EXACT)
                small = run_to_terminal(Config(program, dict(env), t), EXACT)
                if outcome_bits(big) != outcome_bits(small):
                    disagreements += 1
        assert disagreements == 0
        assert time.perf_counter() - t0 < 60.0


def test_criterion_06_machine_determinism():
    with criterion(6, "guards mutually exclusive; reruns bitwise identical"):
        double_applicable = 0
        for seed in range(1000):
            program, env = randprog.gen_program(seed, depth=5)
            t = randprog.gen_times(seed, 1)[0]
            for cfg, *_ in machine(Config(program, dict(env), t), EXACT,
                                   Limits(max_iterations=200)):
                if len(applicable_rules(cfg, EXACT)) > 1:
                    double_applicable += 1
            a = run_to_terminal(Config(program, dict(env), t), EXACT)
            b = run_to_terminal(Config(program, dict(env), t), EXACT)
            assert type(a) is type(b)
            if isinstance(a, (Skip, Stop, BoundReached)):
                assert a.env == b.env  # bitwise
        assert double_applicable == 0


def test_criterion_07_rk4_order():
    with criterion(7, "RK4 order on the oscillator in [3.7, 4.3]"):
        osc = AffineSystem(("x", "v"), np.array([[0.0, 1.0], [-1.0, 0.0]]),
                           np.zeros(2))
        x0 = [1.0, 0.0]
        exact = solve_exact(osc, x0, math.pi)
        for h in (0.1, 0.05, 0.025):
            e1 = np.max(np.abs(solve_rk4(osc, x0, math.pi, h) - exact))
            e2 = np.max(np.abs(solve_rk4(osc, x0, math.pi, h / 2.0) - exact))
            order = math.log2(e1 / e2)
            assert 3.7 <= order <= 4.3, (h, order)


def test_criterion_08_exact_solver_properties():
    with criterion(8, "semigroup and linearity on 200 random systems"):
        rng = random.Random(42)
        for _ in range(200):
            dim = rng.randrange(1, 5)
            A = np.array([[rng.uniform(-2, 2) for _ in range(dim)]
                          for _ in range(dim)])
            rho = max(abs(np.linalg.eigvals(A)), default=0.0)
            if rho > 5.0:
                A *= 5.0 / rho
            b = np.array([rng.uniform(-2, 2) for _ in range(dim)])
            names = tuple("abcd"[:dim])
            sys_ab = AffineSystem(names, A, b)
            x0 = np.array([rng.uniform(-3, 3) for _ in range(dim)])
            s, t = rng.uniform(0, 1.5), rng.uniform(0, 1.5)
            one = solve_exact(sys_ab, x0, s + t)
            two = solve_exact(sys_ab, solve_exact(sys_ab, x0, s), t)
            scale = max(1.0, float(np.max(np.abs(one))))
            assert np.max(np.abs(one - two)) <= 1e-9 * scale
            sys_a = AffineSystem(names, A, np.zeros(dim))
            alpha = rng.uniform(-2.5, 2.5)
            lhs = solve_exact(sys_a, alpha * x0, t)
            rhs = alpha * solve_exact(sys_a, x0, t)
            scale = max(1.0, float(np.max(np.abs(rhs))))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def _rlcs_run(name: str, var: str):
    unit = corpus(name)
    traj = simulate(unit, RK4(), Limits(max_time=5.0, max_iterations=1000),
                    dt=0.01)[0]
    values = [env[var] for _, env in traj.samples]
    switches = [s for s in traj.segments
                if isinstance(s.kind, Discrete) and s.kind.var == "u"
                and s.kind.old != s.kind.new]
    return values, switches


def test_criterion_09_rlcs_regulation():
    with criterion(9, "RLC control: band entry, switching, damping split"):
        under, sw_u = _rlcs_run("rlcs-under", "under")
        over, sw_o = _rlcs_run("rlcs-over", "over")
        assert any(9.0 <= v <= 11.0 for v in under)
        assert any(9.0 <= v <= 11.0 for v in over)
        assert len(sw_u) >= 2 and len(sw_o) >= 2
        # underdamped: pronounced overshoot above the 10 V target
        assert max(under) > 10.0
        # overdamped: no more than a slow approach with mild overshoot
        assert max(over) <= 11.0
        assert max(over) < max(under)


def _timed_rlcs(cycle: float) -> tuple:
    """(median CPU seconds, last wall-clock run) at one sampling time; the
    sampling time drives the controller cycle, the integrator step, and the
    plot sampling, as one knob."""
    text = corpus_path("rlcs-under").read_text(encoding="utf-8")
    text = text.replace("for 0.01", f"for {cycle}")
    unit = desugar(parse(text))
    limits = Limits(max_time=10.0, max_iterations=1000)
    mode = RK4(cycle)
    simulate(unit, mode, limits, dt=cycle)  # warm-up
    cpu_runs = []
    wall = None
    for _ in range(5):
        w0 = time.perf_counter()
        c0 = time.process_time()
        simulate(unit, mode, limits, dt=cycle)
        cpu_runs.append(time.process_time() - c0)
        wall = time.perf_counter() - w0
    return statistics.median(cpu_runs), wall


def test_criterion_10_performance_trend():
    with criterion(10, "runtime < 5 s and non-increasing with sampling time"):
        t_001, wall_001 = _timed_rlcs(0.01)
        t_01, _ = _timed_rlcs(0.1)
        t_1, _ = _timed_rlcs(1.0)
        assert wall_001 < 5.0
        assert t_001 >= t_01 >= t_1, (t_001, t_01, t_1)


def test_criterion_11_variability_grid():
    with criterion(11, "3x3 grid: 9 trajectories, 9 CSV labels"):
        unit = corpus("aebom")
        trajs = simulate(unit, EXACT, Limits(max_time=50.0, max_iterations=1000),
                         dt=0.5)
        assert len(trajs) == 9
        labels = [traj.label for traj in trajs]
        assert len(set(labels)) == 9
        out = export_csv(trajs, ordered_vars(unit)).decode()
        csv_labels = {line.split(",")[0] for line in out.strip().split("\n")[1:]}
        assert len(csv_labels) == 9


def test_criterion_12_pursuit_closes_in():
    with criterion(12, "pursuit: distance shrinks; 3D plot script valid"):
        unit = corpus("pursuit")
        limits = Limits(max_time=50.0, max_iterations=1000)
        trajs = simulate(unit, RK4(), limits, dt=0.1)
        traj = trajs[0]

        def dist(env):
            return math.sqrt((env["xe"] - env["xp"]) ** 2
                             + (env["ye"] - env["yp"]) ** 2
                             + (env["ze"] - env["zp"]) ** 2)

        d0 = dist(traj.samples[0][1])
        dmin = min(dist(env) for _, env in traj.samples)
        assert dmin < d0
        spec = make_plot_spec([TripleAxis("xp", "yp", "zp"),
                               TripleAxis("xe", "ye", "ze")],
                              "scatter3d", ordered_vars(unit), limits)
        script = emit_plot_script(trajs, spec)
        assert "splot" in script
        opened = script.count("<< EOD")
        closed = sum(1 for line in script.splitlines() if line == "EOD")
        assert opened == closed and opened >= 6
        assert "set output 'group_1.png'" in script
        assert "set output 'group_2.png'" in script
