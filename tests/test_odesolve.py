import itertools
import math
import random
import struct
import threading
import time
import warnings
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
from scipy.linalg import expm

from hybridsim import odesolve, randprog
from hybridsim.cli import cli_main
from hybridsim.errors import ErrorKind
from hybridsim.linearize import AffineSystem
from hybridsim.odesolve import (FLOW_CACHE_SIZE, STATE_CACHE_SIZE, Exact,
                                NumericalOverflow, RK4, Solution, default_rk4_step,
                                solve_exact, solve_rk4)
from hybridsim.semantics import (Config, Err, Limits, big_step, machine, outcome_bits,
                                 run_to_terminal)
from hybridsim.syntax import desugar, parse
from hybridsim.trajectory import Continuous, expand_variability, simulate
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


def test_overflow_in_one_decoupled_component_is_detected():
    """Only y overflows; the one check on the returned state still sees
    it, from a Solution queried before as well as fresh."""
    sys = _sys([[-1.0, 0.0], [0.0, 50.0]], [0.0, 0.0])
    with pytest.raises(NumericalOverflow):
        solve_rk4(sys, [1.0, 1e300], 10.0, 0.5)
    sol = Solution(sys, [1.0, 1e300], RK4(0.5))
    with pytest.raises(NumericalOverflow):
        sol.at(1.2)
    with pytest.raises(NumericalOverflow):
        sol.at(10.0)


def test_overflow_is_a_solver_failure_under_big_step():
    body = desugar(parse("x := 1 ; y := 10 ; x' = -x, y' = 100*y for 10")).body
    for mode in (Exact(), RK4()):
        out = big_step(body, {}, 10.0, mode)
        assert isinstance(out, Err) and out.info.kind == ErrorKind.SOLVER_FAILURE


def test_a_step_too_small_for_the_time_is_a_solver_failure_in_both_semantics():
    """t/h overflows to inf, so there is no step count and no state."""
    body = desugar(parse("x := 1 ; x' = -x for 1")).body
    big = big_step(body, {}, 1.0, RK4(1e-320))
    small = run_to_terminal(Config(body, {}, 1.0), RK4(1e-320))
    assert isinstance(big, Err) and big.info.kind == ErrorKind.SOLVER_FAILURE
    assert outcome_bits(big) == outcome_bits(small)
    with pytest.raises(NumericalOverflow):
        Solution(DECAY, [1.0], RK4(1e-320)).at(1.0)


def test_backends_agree_on_an_overflow_behind_a_zero():
    """y stays 0, but the flow map's y entries overflow under both backends,
    and inf * 0 = nan: both report a solver failure."""
    body = desugar(parse("x := 1 ; y := 0 ; x' = -x, y' = 100*y for 10")).body
    outs = [big_step(body, {}, 10.0, mode) for mode in (Exact(), RK4())]
    for out in outs:
        assert isinstance(out, Err) and out.info.kind == ErrorKind.SOLVER_FAILURE


def test_constant_rate_flow_is_closed_form_in_both_modes():
    """RK4 is exact on constant-rate flows and answers x0 + b t, without
    the drift of 1000 steps of -1e-3."""
    drain = _sys([[0.0]], [-1.0])
    for mode in (Exact(), RK4(), RK4(1e-3)):
        assert Solution(drain, [1.0], mode).at(1.0)[0] == 0.0


def _four_stage_rk4(sys, x0, t, h):
    """Reference: classic four-stage RK4 on x' = A x + b, ceil(t/h) steps,
    the last shortened to land on t."""
    A, b = sys.A, sys.b
    x = np.asarray(x0, dtype=float)
    n = max(1, math.ceil(t / h))
    for i in range(n):
        s = h if i < n - 1 else t - (n - 1) * h
        k1 = A @ x + b
        k2 = A @ (x + 0.5 * s * k1) + b
        k3 = A @ (x + 0.5 * s * k2) + b
        k4 = A @ (x + s * k3) + b
        x = x + (s / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def test_propagator_matches_four_stage_rk4():
    rng = random.Random(5)
    for _ in range(200):
        dim = rng.randrange(1, 5)
        sys = _random_system(rng, dim)
        shift = max(np.linalg.eigvals(sys.A).real) + rng.uniform(0.1, 1.0)
        sys = AffineSystem(sys.vars, sys.A - shift * np.eye(dim), sys.b)
        x0 = np.array([rng.uniform(-3, 3) for _ in range(dim)])
        h = rng.choice((1e-3, 0.01, 0.05, 0.1))
        sol = Solution(sys, x0, RK4(h))
        for t in sorted(rng.uniform(0, 2.0) for _ in range(3)):
            want = _four_stage_rk4(sys, x0, t, h)
            got = sol.at(t)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_solution_exact_mode_matches_solve_exact():
    sol = Solution(OSC, [1.0, 0.0], Exact())
    for t in (0.0, 0.3, 1.7, math.pi):
        assert np.array_equal(sol.at(t), solve_exact(OSC, [1.0, 0.0], t))


def test_solution_rk4_monotone_cache_is_bitwise():
    """Increasing queries through the memo equal one fresh integration."""
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
    b = sol.at(0.25)  # an earlier instant is solved from x0 too
    assert np.array_equal(b, solve_rk4(OSC, [1.0, 0.0], 0.25, 0.05))
    assert np.array_equal(sol.at(1.0), a)


def _counting_expm(monkeypatch) -> list:
    calls = []
    real = odesolve.expm

    def expm(m):
        calls.append(m.copy())
        return real(m)
    monkeypatch.setattr(odesolve, "expm", expm)
    return calls


def test_expm_is_memoised_per_system_and_tau(monkeypatch):
    calls = _counting_expm(monkeypatch)
    sys = _sys([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.5])
    fresh = Solution(sys, [1.0, 0.0], Exact()).at(0.7)
    again = Solution(sys, [2.0, -1.0], Exact()).at(0.7)
    assert len(calls) == 1 and np.array_equal(calls[0], 0.7 * sys.M)
    E, c = odesolve._flow(sys, None, 0.7)
    assert len(calls) == 1
    # the cache answers with the bits a fresh call gives
    e = expm(0.7 * sys.M)
    assert np.array_equal(E, e[:2, :2]) and np.array_equal(c, e[:2, 2])
    assert np.array_equal(again, E @ np.array([2.0, -1.0]) + c)
    Solution(sys, [1.0, 0.0], Exact()).at(0.7000000000000001)
    assert len(calls) == 2
    other = _sys([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.5])
    assert np.array_equal(Solution(other, [1.0, 0.0], Exact()).at(0.7), fresh)
    assert len(calls) == 3  # keyed on the system's identity, not its value


def test_flow_maps_are_read_only_and_bounded(monkeypatch):
    calls = _counting_expm(monkeypatch)
    sys = _sys([[-1.0, 0.5], [0.0, -2.0]], [1.0, 0.0])
    fresh = itertools.count(1)

    def at(k):
        # an x0 of its own each call, so the state memo misses and `_flow` is asked
        Solution(sys, [1.0, float(next(fresh))], Exact()).at(0.01 * k)
        return len(calls)

    assert odesolve._flow.cache_info().maxsize == FLOW_CACHE_SIZE
    for k in range(1, FLOW_CACHE_SIZE + 1):
        at(k)
    assert odesolve._flow.cache_info().currsize == FLOW_CACHE_SIZE
    n = at(1)  # a hit, which makes t = 0.01 the most recently used
    assert n == FLOW_CACHE_SIZE
    assert at(FLOW_CACHE_SIZE + 1) == n + 1  # a miss drops the least recently used,
    assert at(1) == n + 1                     # which is no longer t = 0.01
    assert at(2) == n + 2                     # but t = 0.02
    assert odesolve._flow.cache_info().currsize == FLOW_CACHE_SIZE
    for E, c in (odesolve._flow(sys, None, 0.01 * k) for k in (1, 2)):
        with pytest.raises(ValueError):
            E[0, 0] = 1.0
        with pytest.raises(ValueError):
            c[0] = 1.0


def test_exp_parts_are_views_of_the_memoised_map():
    """E and c are read-only views of one map, expm(t M) as a fresh call
    gives it."""
    sys = _sys([[-1.0, 0.5], [0.0, -2.0]], [1.0, 0.0])
    for k in range(1, 6):
        E, c = odesolve._flow(sys, None, 0.01 * k)
        e = expm(sys.M * (0.01 * k))
        assert np.array_equal(E, e[:2, :2]) and np.array_equal(c, e[:2, 2])
        assert E.base is c.base and E.base.shape == (3, 3)
        assert not E.base.flags.writeable


def test_closed_form_is_decided_once_per_system():
    assert _sys([[0.0]], [-1.0]).closed_form
    assert not DECAY.closed_form
    assert Solution(DOUBLE_INT, [0.0, 0.0], Exact()).closed_form is False


@pytest.mark.parametrize("sys, x0, t", [
    (_sys([[50.0]], [0.0]), [1.0], 50.0),           # exact: the map overflows
    (_sys([[1.0]], [0.0]), [1e308], 1.0),           # exact: the matvec overflows
    (_sys([[1e-300]], [1.5e308]), [1.5e308], 1.0),  # only E x0 + c overflows
    (_sys([[0.0]], [1e308]), [1e308], 1.0),         # closed form
])
def test_overflow_is_reported_without_a_warning(sys, x0, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflow):
            Solution(sys, x0, Exact()).at(t)


def _double(rng) -> float:
    """A finite double of any exponent or sign, zeros and subnormals too."""
    while True:
        v = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(v):
            return v


EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.0,
         -1.5, 1.7976931348623157e308, -1.7976931348623157e308, 1.8e307, -8.9e307)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_a_constant_rate_state_is_numpys_x0_plus_b_t_bit_for_bit(dim):
    """The closed form runs over Python floats: the same IEEE multiply and
    add as numpy's x0 + b * t, so the same bits, and an overflow is still a
    non-finite state, reported without a warning."""
    rng = random.Random(dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(400):
            x0 = [rng.choice(EDGES) if rng.random() < 0.5 else _double(rng)
                  for _ in range(dim)]
            b = [rng.choice(EDGES) if rng.random() < 0.5 else _double(rng)
                 for _ in range(dim)]
            t = rng.choice((5e-324, 1e-300, 0.5, 1.0, 3.0, 1e10, 1e300, abs(_double(rng))))
            sys = _sys(np.zeros((dim, dim)), b)
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.array(x0) + sys.b * t
            for mode in (Exact(), RK4()):
                sol = Solution(sys, x0, mode)
                if np.isfinite(want).all():
                    got = sol.at(t)
                    assert isinstance(got, np.ndarray) and got.dtype == np.float64
                    assert got.tobytes() == want.tobytes()
                else:
                    with pytest.raises(NumericalOverflow):
                        sol.at(t)


def test_an_overflowing_constant_rate_flow_is_a_solver_failure(tmp_path, capsys):
    text = "x := 1e308 ; x' = 1e308 for 10"
    body = desugar(parse(text)).body
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for mode in (Exact(), RK4()):
            big = big_step(body, {}, 10.0, mode)
            assert isinstance(big, Err) and big.info.kind == ErrorKind.SOLVER_FAILURE
            assert outcome_bits(big) == outcome_bits(
                run_to_terminal(Config(body, {}, 10.0), mode))
        f = tmp_path / "flow.lince"
        f.write_text(text + "\n")
        assert cli_main(["run", str(f), "--time", "10"]) == 1
    assert "the solver failed on 'x' = 1e308 for 10'" in capsys.readouterr().out


def test_states_near_the_largest_double_stay_exact():
    """Near overflow the flow is computed as a fresh map gives it, without a
    warning, and is still finite when it is."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sys, x0 in ((DECAY, [1e307]), (_sys([[0.0]], [-1e307]), [1e307]),
                        (OSC, [1e307, -1e307])):
            x = Solution(sys, x0, Exact()).at(0.5)
            e = expm(sys.M * 0.5)
            n = sys.dim
            want = x0 + sys.b * 0.5 if sys.closed_form \
                else e[:n, :n] @ np.array(x0) + e[:n, n]
            assert np.array_equal(x, want)


def test_solution_refuses_a_non_finite_x0_of_any_kind():
    for bad in ([math.nan], [math.inf], np.array([-math.inf])):
        with pytest.raises(ValueError, match="finite"):
            Solution(DECAY, bad, Exact())


def test_solution_refuses_an_x0_of_the_wrong_shape():
    for system, bad in ((DECAY, [1.0, 2.0]), (DECAY, []), (DOUBLE_INT, [[1.0, 2.0]])):
        with pytest.raises(ValueError, match="shape"):
            Solution(system, bad, RK4())


def test_system_copies_the_arrays_it_is_given():
    A, b = np.array([[1.0]]), np.array([2.0])
    sys = AffineSystem(("x",), A, b)
    A[0, 0] = 5.0  # the caller's arrays stay writable and unshared
    assert sys.A[0, 0] == 1.0
    assert np.array_equal(sys.M, [[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        sys.M[0, 0] = 3.0


def test_rk4_step_map_is_shared_across_solutions(monkeypatch):
    """Every Solution at the same (h, t) reads one propagator entry."""
    seen = []
    rk4_step = odesolve._rk4_step

    def step(parts, x0):
        seen.append(parts)
        return rk4_step(parts, x0)
    monkeypatch.setattr(odesolve, "_rk4_step", step)
    sys = _sys([[-1.0]], [0.5])
    # x0 of their own, so the state memo misses each time; E 0.0 + c and
    # E (-0.0) + c are both c, so a and b still agree
    a = Solution(sys, [0.0], RK4(0.01)).at(0.5)
    b = Solution(sys, [-0.0], RK4(0.01)).at(0.5)
    Solution(sys, [2.0], RK4(0.01), duration=1.0).at(0.5)
    assert len(seen) == 3
    assert seen[0] is seen[1] is seen[2] is odesolve._flow(sys, 0.01, 0.5)
    assert np.array_equal(a, b)


def test_rk4_propagators_are_memoised_read_only_and_bounded():
    sys = _sys([[-1.0, 0.5], [0.0, -2.0]], [1.0, 0.0])
    first = Solution(sys, [1.0, 1.0], RK4(0.01)).at(0.05)
    parts = odesolve._flow(sys, 0.01, 0.05)
    assert np.array_equal(Solution(sys, [1.0, 1.0], RK4(0.01)).at(0.05), first)
    assert odesolve._flow(sys, 0.01, 0.05) is parts
    for k in range(2, FLOW_CACHE_SIZE + 2):
        Solution(sys, [1.0, 1.0], RK4(0.01)).at(0.05 * k)
    assert odesolve._flow.cache_info().currsize == FLOW_CACHE_SIZE
    rebuilt = odesolve._flow(sys, 0.01, 0.05)
    assert rebuilt is not parts  # the least recently used went first
    assert all(map(np.array_equal, rebuilt, parts))  # and comes back bit for bit
    for E, c in (parts, odesolve._flow(sys, 0.01, 0.05 * FLOW_CACHE_SIZE)):
        with pytest.raises(ValueError):
            E[0, 0] = 1.0
        with pytest.raises(ValueError):
            c[0] = 1.0


def test_the_flow_cache_is_safe_to_share_across_threads():
    """Four threads ask for overlapping (system, step, t, x0) keys, exact and
    RK4, from an empty flow cache and state memo: each state has the bits of
    a serial run."""
    systems = (OSC, DOUBLE_INT, _sys([[-1.0, 0.5], [0.0, -2.0]], [1.0, 0.0]))
    jobs = [(sys, mode, 0.05 * k, x0) for sys in systems
            for mode in (Exact(), RK4(0.01), RK4(0.003)) for k in range(1, 15)
            for x0 in ([1.0, -0.5], [-0.0, 0.0])]

    def run(order):
        return {i: Solution(jobs[i][0], jobs[i][3], jobs[i][1]).at(jobs[i][2]).tobytes()
                for i in order}

    serial = run(range(len(jobs)))
    odesolve._flow.cache_clear()
    odesolve._state.cache_clear()
    results = [None] * 4
    start = threading.Barrier(4)

    def worker(n):
        order = list(range(len(jobs)))
        random.Random(n).shuffle(order)
        start.wait()
        results[n] = run(order)

    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        setswitchinterval(interval)
    assert results == [serial] * 4


def _memo_free(sol: Solution, t: float) -> tuple:
    """The state as `_state` computes it on a miss, past the memo."""
    return odesolve._state.__wrapped__(sol.system, sol.step, t, tuple(sol.x0), None)


def _hex(x) -> list:
    return [v.hex() for v in x]  # tells -0.0 from 0.0


@pytest.mark.parametrize("mode", [Exact(), RK4(0.01)], ids=["exact", "rk4"])
@pytest.mark.parametrize("first", [0.0, -0.0])
def test_the_state_memo_keeps_the_sign_of_a_zero(mode, first):
    sys = _sys([[-1.0, 0.5, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, 0.0]], [0.0, 0.0, -1.0])
    before = odesolve._state.cache_info()
    for zero in (first, -first, first):
        sol = Solution(sys, [zero, 1.5, zero], mode)
        assert _hex(sol.state(0.25)) == _hex(_memo_free(sol, 0.25))
    after = odesolve._state.cache_info()
    assert after.misses - before.misses == 2  # 0.0 and -0.0 are two keys
    assert after.hits - before.hits == 1


@pytest.mark.parametrize("mode", [Exact(), RK4(0.01)], ids=["exact", "rk4"])
def test_an_overflowing_state_is_never_memoised(mode):
    sol = Solution(_sys([[50.0]], [0.0]), [1.0], mode)
    size = odesolve._state.cache_info().currsize
    for _ in range(3):
        with pytest.raises(NumericalOverflow):
            sol.state(50.0)
        assert odesolve._state.cache_info().currsize == size


def test_each_state_is_a_fresh_list():
    sol = Solution(OSC, [1.0, -0.5], Exact())
    first = sol.state(0.3)
    want = list(first)
    first[0] = 99.0
    again = sol.state(0.3)
    assert again == want and again is not first
    assert odesolve._state.cache_info().maxsize == STATE_CACHE_SIZE


@pytest.mark.parametrize("mode", [Exact(), RK4()], ids=["exact", "rk4"])
def test_a_query_at_the_horizon_looks_up_the_states_a_run_computed(mode):
    """A point query replays the run from t = 0: after `simulate`, every
    entry but at most the last, partial one (the horizon is not a multiple
    of the loop's period) has a state the run already computed."""
    unit = desugar(load_corpus("rlcs-under"))
    limits = Limits(max_time=4.97)
    traj = simulate(unit, mode, limits, 0.1)[0]
    before = odesolve._state.cache_info()
    big_step(unit.body, traj.initial_env, traj.segments[-1].t_end, mode, limits)
    after = odesolve._state.cache_info()
    assert after.misses - before.misses <= 1
    assert after.hits - before.hits > 100


def test_an_rk4_state_costs_about_the_same_whatever_the_step():
    """5e10 steps: O(log n) matrix products, not n matvecs."""
    start = time.perf_counter()
    x = Solution(OSC, [1.0, 0.0], RK4(1e-9)).at(50.0)
    assert time.perf_counter() - start < 1.0
    assert np.max(np.abs(x - solve_exact(OSC, [1.0, 0.0], 50.0))) <= 1e-6


def test_default_step_rule():
    assert default_rk4_step(10.0) == 1e-3
    assert default_rk4_step(0.008) == 0.0005
    assert default_rk4_step(None) == 1e-3
    # below 4.4e-323 a sixteenth underflows to 0.0
    assert all(default_rk4_step(d) > 0 for d in (5e-324, 3e-323, 7e-323))


def test_rk4_step_validation():
    # an infinite step would make every flow map nan: (n - 1) h = 0 * inf
    for step in (0.0, -1e-3, math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="RK4 step must be positive and finite"):
            RK4(step)


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


# ---------------------------------------------------------------------------
# Solution's public contract, and the float state `at` wraps

CLOSED = _sys([[0.0, 0.0], [0.0, 0.0]], [1.5, -2.0])
KINDS = {  # an exact, an RK4 and a constant-rate flow
    "exact": (OSC, Exact()),
    "rk4": (OSC, RK4(0.01)),
    "constant-rate-exact": (CLOSED, Exact()),
    "constant-rate-rk4": (CLOSED, RK4()),
}


def _bits(values) -> list:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("kind", KINDS)
def test_at_returns_a_fresh_float_array_of_the_system_dimension(kind):
    sys, mode = KINDS[kind]
    sol = Solution(sys, [1.0, 0.5], mode)
    for t in (0.0, 0.3, 2.0):
        x = sol.at(t)
        assert type(x) is np.ndarray and x.dtype == np.float64
        assert x.shape == (sys.dim,) and x.flags.writeable
        want = x.copy()
        x[:] = 99.0  # the caller owns it: nothing the Solution keeps changes
        assert np.array_equal(sol.at(t), want)
        assert sol.at(t) is not sol.at(t)
    assert sol.x0 == [1.0, 0.5]


@pytest.mark.parametrize("kind", KINDS)
def test_at_zero_is_x0_bit_for_bit(kind):
    sys, mode = KINDS[kind]
    x0 = [-0.0, 5e-324]  # a flow map would turn -0.0 + 0.0 into 0.0
    assert _bits(Solution(sys, x0, mode).at(0.0)) == _bits(x0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("t", [
    -1e-300, -1.0, math.inf, -math.inf, math.nan,
    pytest.param(1j, id="complex"), pytest.param("1", id="str"), pytest.param(None, id="None"),
    pytest.param([1.0], id="list"), pytest.param(10**400, id="int-beyond-float")])
def test_at_refuses_a_negative_or_non_finite_time(kind, t):
    sys, mode = KINDS[kind]
    with pytest.raises(ValueError, match="finite and non-negative"):
        Solution(sys, [1.0, 0.5], mode).at(t)


@pytest.mark.parametrize("sys, x0, mode, t", [
    (_sys([[50.0]], [0.0]), [1.0], Exact(), 50.0),
    (_sys([[50.0]], [0.0]), [1.0], RK4(0.5), 50.0),
    (_sys([[0.0]], [1e308]), [1e308], Exact(), 1.0),
    (_sys([[0.0]], [1e308]), [1e308], RK4(), 1.0),
], ids=["exact", "rk4", "constant-rate-exact", "constant-rate-rk4"])
def test_an_overflowing_flow_raises_without_a_runtime_warning(sys, x0, mode, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalOverflow):
            Solution(sys, x0, mode).at(t)


def _entered_solutions(program, env: dict, t: float, mode) -> list:
    """(solution, local time followed) of each differential step a run of
    the machine takes."""
    steps = machine(Config(program, dict(env), t), mode)
    return [det for _, _, rule, det in steps if rule in ("diff-skip", "diff-stop")]


def _assert_state_is_at(sol, t: float):
    """`state(t)` is `at(t).tolist()` bit for bit, or both overflow."""
    try:
        want = sol.at(t).tolist()
    except NumericalOverflow:
        with pytest.raises(NumericalOverflow):
            sol.state(t)
        return
    got = sol.state(t)
    assert type(got) is list and all(type(v) is float for v in got)
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("mode", [Exact(), RK4()], ids=["exact", "rk4"])
def test_the_float_state_is_at_bit_for_bit_on_corpus_and_random_systems(mode):
    runs = []
    for name in ("eq1", "eq2", "ex21", "zeno", "aeb", "aebom", "rlcs-under",
                 "rlcs-over", "pursuit"):
        unit = desugar(load_corpus(name))
        runs += [(unit.body, env, 12.0) for env, _ in expand_variability(unit)]
    for seed in range(300):
        program, env = randprog.gen_program(seed)
        runs += [(program, env, t) for t in randprog.gen_times(seed, 2)]
    seen = {"closed": 0, "flow": 0}
    for program, env, t in runs:
        for sol, advanced in _entered_solutions(program, env, t, mode):
            seen["closed" if sol.closed_form else "flow"] += 1
            for tau in (0.0, advanced, advanced / 3.0, advanced * 1.5 + 0.25):
                _assert_state_is_at(sol, tau)
    assert seen["closed"] > 100 and seen["flow"] > 100


@pytest.mark.parametrize("mode", [Exact(), RK4()], ids=["exact", "rk4"])
@pytest.mark.parametrize("text, t", [("x' = 1 for 0", 0.5), ("x' = 1 for 1", 0.0),
                                     ("x' = 1 for 1", 1.0)],
                         ids=["duration-0", "residual-0", "whole-duration"])
def test_an_int_initial_value_flows_into_a_float(text, t, mode):
    """A Solution built from an environment keeps x0 as read, ints
    included; the state it writes back is a float even at local time 0."""
    program = desugar(parse(text)).body
    for out in (big_step(program, {"x": 2}, t, mode),
                run_to_terminal(Config(program, {"x": 2}, t), mode)):
        assert type(out.env["x"]) is float
        assert outcome_bits(out)  # every value has a .hex()
