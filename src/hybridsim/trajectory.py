"""Full simulations: expand initial-condition listings, run the machine once
per environment, and sample the resulting piecewise trajectory for plotting.

The driver makes one pass of the small-step `semantics.machine` per
environment, recording a Continuous segment per differential statement
(clipped at the time horizon), a Discrete segment per assignment, and a
Terminal segment carrying the outcome the machine returns.  After
an early completion the final values are held constant up to the horizon so
plots span the full time range.  `interp_at` reads the table at an instant
by big-step's own clock, and `consistency_check` compares it against fresh
big-step evaluations, the per-instant oracle for this segment-based sampler.

The sampler holds a trajectory's samples by record shape, as the writers of
`export` read them: consecutive samples whose environments have one key
tuple are closed, at most `_CHUNK` at a time, into a `Chunk` of their
times, one tuple of values per column, and the columns that hold one object
throughout.  A chunk is closed once, when a sample with other keys
arrives, when one arrives after it is full, or when the run ends, and a
later sample at the same instant replaces the one before it, so a sampled
state costs one `_Chunker.push`.  `Trajectory.samples` is a read-only view
of the chunks as `(t, env)` pairs, each env built afresh on every read, so
writing into one changes nothing.
"""
from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import partial
from operator import is_
from typing import NamedTuple

from .semantics import (BoundReached, Config, Env, Err, Limits, Outcome, Skip,
                        Stop, big_step, flow_env, machine)
# unused here; kept because bench/spans.py patches trajectory._step
from .semantics import _step  # noqa: F401
from .odesolve import Exact, Solution, SolverMode, check_time
from .syntax import Assign, SourceUnit, VarList, desugar

__all__ = [
    "Continuous", "Discrete", "TerminalMark", "Segment", "Trajectory", "Chunk",
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


# the most samples a chunk holds, so that a writer formats a bounded number
# at once; short enough that most chunks hold some columns at one value
_CHUNK = 128


class Chunk(NamedTuple):
    """Consecutive samples whose environments have one key tuple."""

    times: tuple
    columns: dict  # each key, in the environments' order, to its values in time order
    const: dict  # each key whose values are one object (`is`) to that object


def _chunk(keys: tuple, times: list, envs: list) -> Chunk:
    """The chunk of `envs`, whose keys are `keys`, at `times`.  A column is
    constant when it holds one object: `is`, since `-0.0 == 0.0` and
    `1 == 1.0 == True` are written differently."""
    columns = dict(zip(keys, zip(*[env.values() for env in envs])))
    return Chunk(tuple(times), columns, {
        k: col[0] for k, col in columns.items()
        if all(map(is_, col, itertools.repeat(col[0])))})


class _Chunker:
    """Samples closed into chunks as they come.  `push` appends one; with
    `latest`, a sample at the instant of the one before it replaces that
    one, since the latest sample at an instant wins, also across a key
    change.  `close` ends the run and returns its chunks.  A chunk closes
    when a sample with other keys comes, when one comes after it is full,
    or when the run ends, so the last sample is still open to replacement
    (a closed chunk is never reopened: in a run, environments only gain
    keys).  An env is read when its chunk closes: nothing writes into an
    env once it is made."""

    __slots__ = ("chunks", "keys", "times", "envs", "latest")

    def __init__(self, latest: bool):
        self.chunks, self.keys, self.times, self.envs = [], None, [], []
        self.latest = latest

    def push(self, t, env: Env):
        times, envs = self.times, self.envs
        if self.latest and times and times[-1] == t:
            times.pop()
            envs.pop()
        keys = tuple(env)
        if keys != self.keys or len(times) == _CHUNK:
            self._flush()
            self.keys = keys
        times.append(t)
        envs.append(env)

    def close(self) -> list:
        self._flush()
        return self.chunks

    def _flush(self):
        if self.times:
            self.chunks.append(_chunk(self.keys, self.times, self.envs))
            self.times.clear()
            self.envs.clear()


class Samples(Sequence):
    """A trajectory's samples as (t, env) pairs, read from its chunks; each
    env is built afresh, so writing into one changes nothing."""

    __slots__ = ("_chunks", "_starts")

    def __init__(self, chunks: list):
        self._chunks = chunks
        self._starts = list(itertools.accumulate((len(c.times) for c in chunks), initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i: int):
        i = range(len(self))[i]  # a negative index from the end; IndexError past it
        c = bisect_right(self._starts, i) - 1
        chunk, j = self._chunks[c], i - self._starts[c]
        return chunk.times[j], {k: col[j] for k, col in chunk.columns.items()}

    def __iter__(self):
        for chunk in self._chunks:
            keys = tuple(chunk.columns)
            rows = zip(*chunk.columns.values()) if keys else itertools.repeat(())
            for t, row in zip(chunk.times, rows):
                yield t, dict(zip(keys, row))


class Trajectory:
    """One run: its segments, its samples as a list of `Chunk`s in time
    order, and how it ended.  The samples may be given as (t, env) pairs;
    they are chunked as they are."""

    __slots__ = ("label", "segments", "chunks", "outcome", "initial_env")

    def __init__(self, label: str, segments: list | None = None, samples=(),
                 outcome: Outcome | None = None, initial_env: Env | None = None):
        chunker = _Chunker(latest=False)
        for t, env in samples:
            chunker.push(t, env)
        self.label = label
        self.segments = [] if segments is None else segments
        self.chunks = chunker.close()
        self.outcome = outcome
        self.initial_env = {} if initial_env is None else initial_env

    @property
    def samples(self) -> Samples:
        return Samples(self.chunks)

    def __repr__(self):
        return (f"Trajectory(label={self.label!r}, segments={self.segments!r}, "
                f"samples={list(self.samples)!r}, outcome={self.outcome!r}, "
                f"initial_env={self.initial_env!r})")


def fmt_value(v: float) -> str:
    """A value as the command line prints it: 12 significant digits."""
    return format(v, ".12g")


def _label_value(v: float) -> str:
    """A listed value as labels print it: `fmt_value` when that gives it back."""
    return fmt_value(v) if float(fmt_value(v)) == v else repr(v)


def expand_variability(unit: SourceUnit,
                       cap: int = DEFAULT_VARIABILITY_CAP) -> list:
    """One (env, label) per element of the Cartesian product of the
    variability listings, merged with the scalar declarations; product order
    follows declaration order."""
    grid = var_grid(unit)
    size = math.prod(len(values) for _, values in grid)
    if size > cap:
        raise VariabilityCapExceeded(
            f"{size} initial-condition combinations exceed the cap of {cap}")
    out = []
    for combo in itertools.product(*(values for _, values in grid)):
        chosen = dict(zip((name for name, _ in grid), combo))
        env: Env = {}
        for d in unit.declarations:
            if isinstance(d, VarList):
                env[d.var] = chosen[d.var]
            elif isinstance(d, Assign):
                env[d.var] = d.expr.value
        label = " ".join(f"{name}={_label_value(chosen[name])}" for name, _ in grid)
        out.append((env, label))
    return out


def _sample(samples: _Chunker, t_start: float, t_end: float, length: float,
            dt: float, at, end: Env):
    """Sample at(tau) at t_start + tau, tau = dt, 2dt, ... short of `length`
    and of t_end, then `end` at exactly t_end: a flow's states, ending in the
    one the machine advanced to, or the held final state after an early
    skip.  The step that led to t_start has already sampled it."""
    k = 1
    while True:
        tau = k * dt
        t_abs = t_start + tau
        if tau >= length or t_abs >= t_end:
            break
        samples.push(t_abs, at(tau))
        k += 1
    samples.push(t_end, end)


def _run_one(body, env0: Env, label: str, mode: SolverMode, limits: Limits,
             dt: float) -> Trajectory:
    traj = Trajectory(label=label, initial_env=dict(env0))
    horizon = limits.max_time
    samples = _Chunker(latest=True)
    samples.push(0.0, env0)
    steps = machine(Config(body, dict(env0), horizon), mode, limits)
    while True:
        try:
            cfg, r, rule, det = next(steps)
        except StopIteration as done:
            outcome = done.value
            break
        # absolute position comes from the machine's residual clock, so the
        # final clipped segment lands exactly on the horizon
        _, _, env, residual = cfg
        now = horizon - residual
        if rule == "asg":
            var, old, new = det
            traj.segments.append(
                Segment(now, now, Discrete(var, old, new), env))
            samples.push(now, r.env)
        elif rule in ("diff-skip", "diff-stop"):
            sol, advanced = det
            # the residual the step left: for a stop, it is 0.0
            end = horizon - (residual - advanced)
            traj.segments.append(Segment(now, end, Continuous(sol, advanced), env))
            _sample(samples, now, end, advanced, dt,
                    partial(flow_env, sol, env), r.env)
    traj.outcome = outcome
    if isinstance(outcome, Skip):
        # hold the final values constant up to the horizon
        elapsed = outcome.elapsed
        traj.segments.append(
            Segment(elapsed, horizon, TerminalMark(outcome), outcome.env))
        if outcome.early:
            _sample(samples, elapsed, horizon, math.inf, dt,
                    lambda tau: outcome.env, outcome.env)
    elif isinstance(outcome, Stop):
        traj.segments.append(
            Segment(horizon, horizon, TerminalMark(outcome), outcome.env))
    else:
        # an error or the iteration bound: marked where the last step began
        traj.segments.append(Segment(now, now, TerminalMark(outcome), env))
    traj.chunks = samples.close()
    return traj


def simulate(unit: SourceUnit, mode: SolverMode, limits: Limits, dt: float,
             cap: int = DEFAULT_VARIABILITY_CAP) -> list:
    """One Trajectory per initial-condition combination, in listing order."""
    if not 0 < dt < math.inf:  # an infinite dt would time samples at 0 * inf, nan
        raise ValueError("dt must be positive and finite")
    # Python floats, so that numpy scalars time samples and segments in double precision
    dt, limits = float(dt), replace(limits, max_time=check_time(limits.max_time))
    body = desugar(unit).body
    return [_run_one(body, env, label, mode, limits, dt)
            for env, label in expand_variability(unit, cap)]


def interp_at(traj: Trajectory, t: float) -> Env:
    """Environment at time t as told by the segment table, read by big-step's
    clock: each Continuous segment in turn holds t or has its duration
    subtracted from it, as `_atom` does.  Assignments take no time."""
    residual = check_time(t)
    for seg in traj.segments:
        kind = seg.kind
        if isinstance(kind, Continuous):
            if kind.duration > residual:
                return flow_env(kind.solution, seg.env_at_start, residual)
            residual -= kind.duration
        elif isinstance(kind, TerminalMark):
            return dict(seg.env_at_start if isinstance(kind.outcome, Err) else kind.outcome.env)
    raise ValueError("the trajectory has no terminal segment")


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
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    tol = 1e-9 if isinstance(mode, Exact) else 1e-6
    body = desugar(unit).body
    trajs = trajectories if trajectories is not None \
        else simulate(unit, mode, limits, dt)
    rng = random.Random(seed)
    worst = 0.0
    failures = []
    for traj in trajs:
        horizon = traj.segments[-1].t_end if traj.segments else 0.0
        for _ in range(k):
            t = rng.uniform(0.0, horizon)
            expected = big_step(body, traj.initial_env, t, mode, limits)
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
    return ConsistencyReport(not failures, worst, k * len(trajs), failures)
