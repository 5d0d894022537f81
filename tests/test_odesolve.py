import math
import random

import numpy as np
import pytest

from hybridsim.linearize import AffineSystem
from hybridsim.odesolve import (Exact, NumericalOverflow, RK4, Solution,
                                default_rk4_step, solve_exact, solve_rk4)
from hybridsim.semantics import Limits
from hybridsim.trajectory import Continuous, simulate
from conftest import load_corpus


def _sys(A, b):
    A = np.asarray(A, dtype=float)
    names = tuple("xyzw"[: A.shape[0]])
    return AffineSystem(names, A, np.asarray(b, dtype=float))


DECAY = _sys([[-1.0]], [0.0])
DOUBLE_INT = _sys([[0.0, 1.0], [0.0, 0.0]], [0.0, 2.0])
OSC = _sys([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0])


def test_exact_decay():
    x = solve_exact(DECAY, [1.0], 1.0)
    assert x[0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_exact_double_integrator():
    x = solve_exact(DOUBLE_INT, [0.0, 0.0], 1.0)
    assert x[0] == pytest.approx(1.0, abs=1e-12)  # p = t^2
    assert x[1] == pytest.approx(2.0, abs=1e-12)  # v = 2t


def test_exact_harmonic_oscillator():
    x = solve_exact(OSC, [1.0, 0.0], math.pi)
    assert abs(x[0] + 1.0) <= 1e-9
    assert abs(x[1]) <= 1e-9


def test_exact_at_zero_returns_x0():
    x = solve_exact(OSC, [0.25, -0.5], 0.0)
    assert list(x) == [0.25, -0.5]


def test_exact_rejects_negative_time():
    with pytest.raises(ValueError):
        solve_exact(DECAY, [1.0], -0.1)


def test_rk4_decay_close_to_exact():
    x = solve_rk4(DECAY, [1.0], 1.0, 0.1)
    assert x[0] == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_rk4_zero_time():
    x = solve_rk4(OSC, [3.0, 4.0], 0.0, 0.1)
    assert list(x) == [3.0, 4.0]


def test_rk4_fourth_order_halving():
    """Halving the step cuts the error by about 2^4."""
    exact = solve_exact(OSC, [1.0, 0.0], math.pi)
    err = {}
    for h in (0.1, 0.05):
        approx = solve_rk4(OSC, [1.0, 0.0], math.pi, h)
        err[h] = np.max(np.abs(approx - exact))
    ratio = err[0.1] / err[0.05]
    assert 16.0 * 0.7 <= ratio <= 16.0 * 1.3


def test_rk4_order_exponent():
    exact = solve_exact(OSC, [1.0, 0.0], math.pi)
    hs = [0.1, 0.05, 0.025, 0.0125]
    errs = [np.max(np.abs(solve_rk4(OSC, [1.0, 0.0], math.pi, h) - exact))
            for h in hs]
    for e1, e2 in zip(errs, errs[1:]):
        order = math.log2(e1 / e2)
        assert 3.7 <= order <= 4.3


def test_overflow_detected():
    growth = _sys([[50.0]], [0.0])
    with pytest.raises(NumericalOverflow):
        solve_exact(growth, [1.0], 50.0)
    with pytest.raises(NumericalOverflow):
        solve_rk4(growth, [1e300], 10.0, 0.5)


def test_solution_exact_mode_matches_solve_exact():
    sol = Solution(OSC, [1.0, 0.0], Exact())
    for t in (0.0, 0.3, 1.7, math.pi):
        assert np.array_equal(sol.at(t), solve_exact(OSC, [1.0, 0.0], t))


def test_solution_rk4_monotone_cache_is_bitwise():
    """Increasing queries through the cache equal one fresh integration."""
    h = 0.03
    sol = Solution(OSC, [1.0, 0.0], RK4(h))
    seen = []
    for t in (0.1, 0.2, 0.45, 0.7, 1.0):
        seen.append(sol.at(t))
    for t, got in zip((0.1, 0.2, 0.45, 0.7, 1.0), seen):
        fresh = solve_rk4(OSC, [1.0, 0.0], t, h)
        assert np.array_equal(got, fresh)


def test_solution_rk4_non_monotone_query_restarts():
    sol = Solution(OSC, [1.0, 0.0], RK4(0.05))
    a = sol.at(1.0)
    b = sol.at(0.25)  # going backwards restarts from x0
    assert np.array_equal(b, solve_rk4(OSC, [1.0, 0.0], 0.25, 0.05))
    assert np.array_equal(sol.at(1.0), a)


def test_default_step_rule():
    assert default_rk4_step(10.0) == 1e-3
    assert default_rk4_step(0.008) == 0.0005
    assert default_rk4_step(None) == 1e-3


def test_rk4_step_validation():
    with pytest.raises(ValueError):
        RK4(0.0)
    with pytest.raises(ValueError):
        RK4(-1e-3)


def test_solution_dimension_validation():
    with pytest.raises(ValueError):
        Solution(OSC, [1.0], Exact())
    with pytest.raises(ValueError):
        Solution(OSC, [1.0, float("inf")], Exact())


def _random_system(rng, dim, radius=5.0):
    A = np.array([[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(dim)])
    eigs = np.linalg.eigvals(A)
    rho = max(abs(eigs)) if len(eigs) else 0.0
    if rho > radius:
        A *= radius / rho
    b = np.array([rng.uniform(-2, 2) for _ in range(dim)])
    return _sys(A, b)


def test_semigroup_property():
    rng = random.Random(7)
    for _ in range(200):
        dim = rng.randrange(1, 5)
        sys = _random_system(rng, dim)
        x0 = np.array([rng.uniform(-3, 3) for _ in range(dim)])
        s, t = rng.uniform(0, 1.5), rng.uniform(0, 1.5)
        two_leg = solve_exact(sys, solve_exact(sys, x0, s), t)
        one_leg = solve_exact(sys, x0, s + t)
        scale = max(1.0, float(np.max(np.abs(one_leg))))
        assert np.max(np.abs(two_leg - one_leg)) <= 1e-9 * scale


def test_linearity_in_x0_without_offset():
    rng = random.Random(11)
    for _ in range(200):
        dim = rng.randrange(1, 5)
        sys = _random_system(rng, dim)
        sys = AffineSystem(sys.vars, sys.A, np.zeros(dim))
        x0 = np.array([rng.uniform(-3, 3) for _ in range(dim)])
        alpha = rng.uniform(-2.5, 2.5)
        t = rng.uniform(0, 2.0)
        lhs = solve_exact(sys, alpha * x0, t)
        rhs = alpha * solve_exact(sys, x0, t)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def test_exact_vs_rk4_on_corpus_segments():
    """|Exact - RK4(h=1e-3)| <= 1e-6 over corpus segments up to 10 s."""
    checked = 0
    for name in ("eq1", "eq2", "aeb", "rlcs-under"):
        unit = load_corpus(name)
        trajs = simulate(unit, Exact(), Limits(max_time=8.0, max_iterations=1000),
                         dt=0.5)
        for traj in trajs:
            for seg in traj.segments:
                if not isinstance(seg.kind, Continuous):
                    continue
                sol = seg.kind.solution
                dur = min(seg.kind.duration, 10.0)
                a = solve_exact(sol.system, sol.x0, dur)
                r = solve_rk4(sol.system, sol.x0, dur, 1e-3)
                assert np.max(np.abs(a - r)) <= 1e-6
                checked += 1
    assert checked >= 20
