"""Differential and metamorphic tests of the two semantics against each
other: equivalence of outcomes, machine determinism, invariance of steps
under time shifts, and compatibility of single steps with full evaluations.
"""
import itertools
import math

from hybridsim import randprog
from hybridsim.odesolve import Exact
from hybridsim.semantics import (BoundReached, Config, Skip, Stop, TErr, TStop,
                                 applicable_rules, big_step, machine,
                                 run_to_terminal, _step)

EXACT = Exact()


def test_big_and_small_agree_on_random_programs():
    for seed in range(250):
        program, env = randprog.gen_program(seed)
        for t in randprog.gen_times(seed, 3):
            big = big_step(program, env, t, EXACT)
            small = run_to_terminal(Config(program, dict(env), t), EXACT)
            assert big == small, (seed, t, big, small)


def test_skip_terminal_residual_zero_iff_not_early():
    """Querying at exactly the measured duration lands on a residual-0 skip
    (exact whenever the duration arithmetic stayed on the dyadic grid)."""
    candidates = 0
    exact_hits = 0
    for seed in range(150):
        program, env = randprog.gen_program(seed)
        t = randprog.gen_times(seed, 1)[0]
        out = run_to_terminal(Config(program, dict(env), t), EXACT)
        if not (isinstance(out, Skip) and out.early):
            continue
        assert out.elapsed < t
        candidates += 1
        again = run_to_terminal(Config(program, dict(env), out.elapsed), EXACT)
        assert isinstance(again, Skip)
        if not again.early:
            assert again.elapsed == out.elapsed
            exact_hits += 1
    assert candidates > 20
    # durations are dyadic literals almost everywhere, so the re-query hits
    # residual 0 exactly in the vast majority of cases
    assert exact_hits >= candidates * 0.8


def _trace_configs(program, env, t, cap=400):
    """The first `cap` configurations the machine steps from."""
    steps = machine(Config(program, dict(env), t), EXACT)
    return [cfg for cfg, *_ in itertools.islice(steps, cap)]


def test_machine_determinism_along_traces():
    """At most one rule ever applies; on reachable non-terminal
    configurations, exactly one does."""
    for seed in range(150):
        program, env = randprog.gen_program(seed)
        t = randprog.gen_times(seed, 1)[0]
        for cfg in _trace_configs(program, env, t):
            rules = applicable_rules(cfg, EXACT)
            assert len(rules) == 1, (seed, rules, cfg.program)


def test_repeated_runs_are_bitwise_identical():
    for seed in range(60):
        program, env = randprog.gen_program(seed)
        t = randprog.gen_times(seed, 1)[0]
        a = run_to_terminal(Config(program, dict(env), t), EXACT)
        b = run_to_terminal(Config(program, dict(env), t), EXACT)
        assert type(a) is type(b)
        if isinstance(a, (Skip, Stop, BoundReached)):
            assert a.env == b.env  # float-exact equality
        if isinstance(a, Skip):
            assert (a.elapsed, a.early) == (b.elapsed, b.early)


def _is_dyadic(v: float) -> bool:
    scaled = v * 1024.0
    return math.isfinite(scaled) and scaled == round(scaled)


def test_time_shift_of_steps():
    """Stepping at t+s mirrors stepping at t: same successor program and
    environment, residual moved by exactly +s (stop steps are excluded;
    their state depends on t).  Checked on the dyadic grid, where the
    residual arithmetic is exact."""
    checked = 0
    for seed in range(120):
        program, env = randprog.gen_program(seed)
        t = randprog.gen_times(seed, 1)[0]
        s = randprog.gen_time(__import__("random").Random(seed + 999), 0.0, 2.0)
        for cfg in _trace_configs(program, env, t)[:40]:
            r1, rule1, _ = _step(cfg, EXACT)
            if rule1 == "diff-stop":
                continue
            shifted = Config(cfg.program, dict(cfg.env), cfg.residual + s)
            r2, rule2, _ = _step(shifted, EXACT)
            if isinstance(r1, TErr):
                assert isinstance(r2, TErr)
                checked += 1
                continue
            if isinstance(r1, TStop):
                continue  # a zero-duration query can stop where t+s does not
            assert type(r2) is type(r1), (seed, rule1, rule2)
            consumed = cfg.residual - r1.residual
            if not (_is_dyadic(cfg.residual) and _is_dyadic(s) and _is_dyadic(consumed)):
                continue
            assert r2.residual == r1.residual + s
            assert r2.env == r1.env
            if isinstance(r1, Config):
                assert r2.program == r1.program
            checked += 1
    assert checked > 300


def test_one_step_then_big_equals_big():
    """A small step followed by big-step evaluation of the successor gives
    the same verdict as big-step evaluation of the original."""
    checked = 0
    for seed in range(120):
        program, env = randprog.gen_program(seed)
        t = randprog.gen_times(seed, 1)[0]
        for cfg in _trace_configs(program, env, t)[:25]:
            r, _, _ = _step(cfg, EXACT)
            if not isinstance(r, Config):
                continue
            whole = big_step(cfg.program, cfg.env, cfg.residual, EXACT)
            rest = big_step(r.program, r.env, r.residual, EXACT)
            if isinstance(whole, BoundReached) or isinstance(rest, BoundReached):
                continue  # the iteration budget breaks step-compatibility
            assert type(whole) is type(rest), (seed, whole, rest)
            if isinstance(whole, (Skip, Stop)):
                assert set(whole.env) == set(rest.env)
                for k in whole.env:
                    assert abs(whole.env[k] - rest.env[k]) <= 1e-9
            checked += 1
    assert checked >= 400
