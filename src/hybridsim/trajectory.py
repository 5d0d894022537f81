"""Full simulations: expand initial-condition listings, run the machine once
per environment, and sample the resulting piecewise trajectory for plotting.

The driver makes one pass of the small-step `semantics.machine` per
environment, recording a Continuous segment per differential statement
(clipped at the time horizon), a Discrete segment per assignment, and a
Terminal segment carrying the outcome the machine returns.  After
an early completion the final values are held constant up to the horizon so
plots span the full time range.  `consistency_check` re-derives sampled
points from the big-step semantics, which serves as the per-instant oracle
for this segment-based sampler.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .semantics import (BoundReached, Config, Env, Err, Limits, Outcome, Skip,
                        Stop, big_step, flow_env, machine)
# unused here; kept because bench/spans.py patches trajectory._step
from .semantics import _step  # noqa: F401
from .odesolve import Solution, SolverMode
from .syntax import Assign, SourceUnit, VarList, desugar

__all__ = [
    "Continuous", "Discrete", "TerminalMark", "Segment", "Trajectory",
    "VariabilityCapExceeded", "ConsistencyReport", "var_grid",
    "expand_variability", "simulate", "consistency_check", "interp_at",
    "DEFAULT_VARIABILITY_CAP",
]

DEFAULT_VARIABILITY_CAP = 64


class VariabilityCapExceeded(ValueError):
    pass


def var_grid(unit: SourceUnit) -> list:
    """The variability grid: ordered (variable, value-list) pairs from the
    unit's listings."""
    return [(d.var, tuple(d.values)) for d in unit.declarations
            if isinstance(d, VarList)]


@dataclass
class Continuous:
    solution: Solution
    duration: float  # local length actually followed (clipped at horizon)


@dataclass
class Discrete:
    var: str
    old: float | None
    new: float


@dataclass
class TerminalMark:
    outcome: Outcome


@dataclass
class Segment:
    t_start: float
    t_end: float
    kind: Continuous | Discrete | TerminalMark
    env_at_start: Env


@dataclass
class Trajectory:
    label: str
    segments: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # [(time, env), ...]
    outcome: Outcome | None = None
    initial_env: Env = field(default_factory=dict)


def fmt_value(v: float) -> str:
    """A value as labels and the command line print it: 12 significant digits."""
    return format(v, ".12g")


def expand_variability(unit: SourceUnit,
                       cap: int = DEFAULT_VARIABILITY_CAP) -> list:
    """One (env, label) per element of the Cartesian product of the
    variability listings, merged with the scalar declarations; product order
    follows declaration order."""
    grid = var_grid(unit)
    size = 1
    for _, values in grid:
        size *= len(values)
    if size > cap:
        raise VariabilityCapExceeded(
            f"{size} initial-condition combinations exceed the cap of {cap}")
    out = []
    pools = [values for _, values in grid]
    for combo in itertools.product(*pools) if pools else [()]:
        chosen = dict(zip((name for name, _ in grid), combo))
        env: Env = {}
        for d in unit.declarations:
            if isinstance(d, VarList):
                env[d.var] = chosen[d.var]
            elif isinstance(d, Assign):
                env[d.var] = d.expr.value
        label = " ".join(f"{name}={fmt_value(chosen[name])}" for name, _ in grid)
        out.append((env, label))
    return out


def _push_sample(samples: list, t: float, env: Env):
    if samples and samples[-1][0] == t:
        samples[-1] = (t, env)  # the latest value at an instant wins
    else:
        samples.append((t, env))


def _sample_continuous(traj: Trajectory, seg: Segment, dt: float, end: Env):
    """Sample at t_start+dt, t_start+2dt, ..., and exactly t_end, where the
    state is `end`, the one the machine advanced to.  The state at t_start
    is the one the segment starts from, which the step that led to it has
    already sampled: the run's start, an assignment or the segment before."""
    sol: Solution = seg.kind.solution
    length = seg.kind.duration
    k = 1
    while True:
        tau = k * dt
        t_abs = seg.t_start + tau
        if tau >= length or t_abs >= seg.t_end:
            break
        _push_sample(traj.samples, t_abs, flow_env(sol, seg.env_at_start, tau))
        k += 1
    _push_sample(traj.samples, seg.t_end, dict(end))


def _run_one(body, env0: Env, label: str, mode: SolverMode, limits: Limits,
             dt: float) -> Trajectory:
    traj = Trajectory(label=label, initial_env=dict(env0))
    horizon = limits.max_time
    _push_sample(traj.samples, 0.0, dict(env0))
    steps = machine(Config(body, dict(env0), horizon), mode, limits)
    while True:
        try:
            cfg, r, rule, det = next(steps)
        except StopIteration as done:
            outcome = done.value
            break
        # absolute position comes from the machine's residual clock, so the
        # final clipped segment lands exactly on the horizon
        now = horizon - cfg.residual
        if rule == "asg":
            var, old, new = det
            traj.segments.append(
                Segment(now, now, Discrete(var, old, new), cfg.env))
            _push_sample(traj.samples, now, dict(r.env))
        elif rule in ("diff-skip", "diff-stop"):
            sol, advanced = det
            # the residual the step left: for a stop, it is 0.0
            seg = Segment(now, horizon - (cfg.residual - advanced),
                          Continuous(sol, advanced), cfg.env)
            traj.segments.append(seg)
            _sample_continuous(traj, seg, dt, r.env)
    traj.outcome = outcome
    if isinstance(outcome, Skip):
        # hold the final values constant up to the horizon
        elapsed = outcome.elapsed
        traj.segments.append(
            Segment(elapsed, horizon, TerminalMark(outcome), outcome.env))
        if outcome.early:
            k = 1
            while elapsed + k * dt < horizon:
                _push_sample(traj.samples, elapsed + k * dt, dict(outcome.env))
                k += 1
            _push_sample(traj.samples, horizon, dict(outcome.env))
    elif isinstance(outcome, Stop):
        traj.segments.append(
            Segment(horizon, horizon, TerminalMark(outcome), outcome.env))
    else:
        # an error or the iteration bound: marked where the last step began
        traj.segments.append(Segment(now, now, TerminalMark(outcome), cfg.env))
    return traj


def simulate(unit: SourceUnit, mode: SolverMode, limits: Limits, dt: float,
             cap: int = DEFAULT_VARIABILITY_CAP) -> list:
    """One Trajectory per initial-condition combination, in listing order."""
    if not 0 < dt < math.inf:  # an infinite dt would time samples at 0 * inf, nan
        raise ValueError("dt must be positive and finite")
    body = desugar(unit).body
    return [_run_one(body, env, label, mode, limits, dt)
            for env, label in expand_variability(unit, cap)]


def interp_at(traj: Trajectory, t: float) -> Env:
    """Environment at time t as told by the segment table (the last segment
    containing t wins, so an instant with a jump reads post-assignment)."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and non-negative, got {t}")
    chosen = None
    for seg in traj.segments:
        if seg.t_start <= t <= seg.t_end:
            chosen = seg
    if chosen is None:
        if traj.segments and t > traj.segments[-1].t_end:
            chosen = traj.segments[-1]
        else:
            raise ValueError(f"time {t} precedes the trajectory")
    kind = chosen.kind
    if isinstance(kind, Continuous):
        return flow_env(kind.solution, chosen.env_at_start, t - chosen.t_start)
    if isinstance(kind, Discrete):
        env = dict(chosen.env_at_start)
        env[kind.var] = kind.new
        return env
    out = kind.outcome
    if isinstance(out, (Skip, Stop, BoundReached)):
        return dict(out.env)
    return dict(chosen.env_at_start)


@dataclass
class ConsistencyReport:
    passed: bool
    worst: float
    checked: int
    failures: list = field(default_factory=list)


def consistency_check(unit: SourceUnit, mode: SolverMode, limits: Limits,
                      dt: float, k: int, seed: int = 0,
                      trajectories: list | None = None) -> ConsistencyReport:
    """Draw k instants per trajectory and compare the segment-table value
    against a fresh big-step evaluation (1e-9 per variable in exact mode,
    1e-6 under RK4)."""
    from .odesolve import Exact
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    tol = 1e-9 if isinstance(mode, Exact) else 1e-6
    body = desugar(unit).body
    trajs = trajectories if trajectories is not None \
        else simulate(unit, mode, limits, dt)
    rng = random.Random(seed)
    worst = 0.0
    checked = 0
    failures = []
    for traj in trajs:
        horizon = traj.segments[-1].t_end if traj.segments else 0.0
        for _ in range(k):
            t = rng.uniform(0.0, horizon)
            expected = big_step(body, traj.initial_env, t, mode, limits)
            checked += 1
            if isinstance(expected, (Err, BoundReached)):
                failures.append((traj.label, t, "oracle did not produce a state"))
                continue
            got = interp_at(traj, t)
            for name, want in expected.env.items():
                have = got.get(name)
                if have is None:
                    failures.append((traj.label, t, f"{name} missing"))
                    continue
                dev = abs(have - want)
                worst = max(worst, dev)
                if dev > tol:
                    failures.append((traj.label, t, f"{name}: |{have} - {want}| = {dev}"))
    return ConsistencyReport(not failures, worst, checked, failures)
