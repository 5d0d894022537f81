"""Failure-aware operational semantics, in big-step and small-step style.

`big_step(p, env, t, ...)` answers "what does p, started from env, output at
time instant t": Stop(env') when t falls inside the run, Skip(env') when the
run completes at exactly t, Err on an evaluation failure, and BoundReached
when the while-unfolding budget runs out first.  A run that completes before
t is reported as Skip with `early=True` and the actual completion time -- the
rules define no output there, and a caller (e.g. the sampler) wants the
final state rather than an exception.

`small_step` is the single-step machine over configurations (program, env,
residual time); `machine`, the one driver that iterates it, owns the
while-unfolding budget, yields every step and returns the Outcome.
`run_to_terminal` drains it; the trajectory sampler folds its steps into
segments.  Both styles share one differential-statement solver and one
residual-time arithmetic (subtraction only, never re-addition), so the two
styles agree bit-for-bit on every outcome.

Durations are evaluated once, at statement entry.  A negative duration is an
error.  Assignments consume no time.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ._eval import Env, eval_bool, eval_expr
from .errors import ErrorInfo, ErrorKind, HybridError, fail
from .linearize import to_affine
from .odesolve import NumericalOverflow, Solution, SolverMode
from .syntax import Assign, Atom, Diff, If, Loc, Program, Seq, Var

__all__ = [
    "Env", "eval_expr", "eval_bool", "Limits", "BoundKind",
    "Skip", "Stop", "Err", "BoundReached", "Outcome",
    "Config", "TSkip",
    "big_step", "small_step", "machine", "run_to_terminal", "applicable_rules",
    "outcome_bits",
]


@dataclass(frozen=True)
class Limits:
    """Evaluation budgets: `max_time` bounds the sampling horizon (enforced
    by the trajectory driver), `max_iterations` bounds while-unfoldings per
    evaluation (enforced here)."""

    max_time: float = 150.0
    max_iterations: int = 1000


class BoundKind(enum.Enum):
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class Skip:
    """Run completed.  `early` marks completion strictly before the queried
    instant (no rule of the semantics applies there); `elapsed` is the time
    the program actually consumed."""

    env: Env
    elapsed: float = 0.0
    early: bool = False


@dataclass(frozen=True)
class Stop:
    """The queried instant falls inside the run; env is the state then."""

    env: Env


@dataclass(frozen=True)
class Err:
    info: ErrorInfo


@dataclass(frozen=True)
class BoundReached:
    kind: BoundKind
    env: Env
    elapsed: float


Outcome = Skip | Stop | Err | BoundReached


def outcome_bits(o: Outcome) -> tuple:
    """Everything an Outcome says, each float as its exact bits
    (`float.hex`): equal for two outcomes only when they agree bit for bit,
    where `==` takes -0.0 for 0.0.  An error's environment is left out, as
    `ErrorInfo` equality leaves it out."""
    if isinstance(o, Err):
        i = o.info
        return ("err", i.kind, i.message, i.src, i.line, i.col)
    env = tuple(sorted((k, v.hex()) for k, v in o.env.items()))
    if isinstance(o, Stop):
        return ("stop", env)
    if isinstance(o, Skip):
        return ("skip", env, o.elapsed.hex(), o.early)
    return ("bound", o.kind, env, o.elapsed.hex())


@dataclass(frozen=True)
class Config:
    program: Program
    env: Env
    residual: float


@dataclass(frozen=True)
class TSkip:
    env: Env
    residual: float


# ---------------------------------------------------------------------------
# Atomic statements (shared by both semantics)


def _diff_enter(a: Diff, env: Env, mode: SolverMode) -> tuple:
    """Evaluate the duration, freeze the dynamics, and build the flow.
    Returns (duration, Solution); raises HybridError on any failure."""
    d = eval_expr(env, a.duration)
    if d < 0.0:
        raise fail(ErrorKind.NEGATIVE_DURATION, a.duration, env)
    system = to_affine(a, env)
    try:
        x0 = [env[name] for name in system.vars]
    except KeyError:
        for name in system.vars:
            if name not in env:
                # blame the bare name, at the statement's position
                loc = a.loc and Loc(a.loc.line, a.loc.col, 0, len(name), name)
                blamed = Var(name, loc=loc)
                raise fail(ErrorKind.UNINITIALIZED_VARIABLE, blamed, env) from None
    return d, Solution(system, x0, mode, duration=d)


def flow_env(sol: Solution, env: Env, tau: float) -> Env:
    """`env` after following the flow `sol` for local time `tau`."""
    out = dict(env)
    out.update(zip(sol.system.vars, sol.at(tau).tolist()))
    return out


def _atom(a, env: Env, t: float, mode: SolverMode) -> tuple:
    """The atomic rules, shared by both semantics: (terminal, rule, detail),
    detail being (var, old, new) for an assignment and (solution, advanced)
    for a differential statement.  A stopped or failed run ends in its
    Outcome; only a skip carries residual time on to the next statement."""
    if isinstance(a, Assign):
        try:
            v = eval_expr(env, a.expr)
        except HybridError as ex:
            return Err(ex.info), "asg-err", None
        out = dict(env)
        out[a.var] = v
        return TSkip(out, t), "asg", (a.var, env.get(a.var), v)  # no time consumed
    try:
        d, sol = _diff_enter(a, env, mode)
        if d > t:
            return Stop(flow_env(sol, env, t)), "diff-stop", (sol, t)
        return TSkip(flow_env(sol, env, d), t - d), "diff-skip", (sol, d)
    except HybridError as ex:
        return Err(ex.info), "diff-err", None
    except NumericalOverflow:
        return Err(fail(ErrorKind.SOLVER_FAILURE, a, env).info), "diff-err", None


# ---------------------------------------------------------------------------
# Big-step semantics


def _big(p: Program, env: Env, t: float, mode: SolverMode, limits: Limits,
         counter: list):
    """Run `p` to the machine's terminals: TSkip carries the REMAINING
    residual time, computed by the same subtractions the machine performs.
    A run stopped by the iteration budget ends in the Config where it
    tripped."""
    while isinstance(p, Seq):  # a Seq spine: (seq-skip) steps along it
        r = _big(p.first, env, t, mode, limits, counter)
        if not isinstance(r, TSkip):
            return r  # (seq-stop) / (seq-err) / bound
        p, env, t = p.rest, r.env, r.residual
    if isinstance(p, Atom):
        return _atom(p.atomic, env, t, mode)[0]
    if isinstance(p, If):
        try:
            g = eval_bool(env, p.cond)
        except HybridError as ex:
            return Err(ex.info)  # (if-err)
        branch = p.then if g else p.orelse
        return _big(branch, env, t, mode, limits, counter)
    # While: iterate (wh-true) unfoldings without growing the call stack
    cur, rem = env, t
    while True:
        try:
            g = eval_bool(cur, p.cond)
        except HybridError as ex:
            return Err(ex.info)  # (wh-err)
        if not g:
            return TSkip(cur, rem)  # (wh-false)
        counter[0] += 1
        if counter[0] > limits.max_iterations:
            return Config(p, cur, rem)
        r = _big(p.body, cur, rem, mode, limits, counter)
        if not isinstance(r, TSkip):
            return r
        cur, rem = r.env, r.residual


def _outcome(r, t0: float) -> Outcome:
    """The Outcome of a run started with residual time `t0` that ended in
    terminal `r`, or in the Config `r` where the iteration budget tripped."""
    if isinstance(r, TSkip):
        if r.residual == 0.0:
            return Skip(r.env, elapsed=t0, early=False)
        return Skip(r.env, elapsed=t0 - r.residual, early=True)
    if isinstance(r, Config):
        return BoundReached(BoundKind.MAX_ITERATIONS, r.env, t0 - r.residual)
    return r  # Stop or Err: the terminal is the outcome


def _check_start(env: Env, t: float):
    """Refuse a run that cannot start: a time that is negative or not
    finite, or a non-finite initial value, which no evaluation could have
    produced."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time instant must be finite and non-negative, got {t!r}")
    if not all(map(math.isfinite, env.values())):
        name, v = next((k, v) for k, v in env.items() if not math.isfinite(v))
        raise ValueError(f"initial value of {name} must be finite, got {v!r}")


def big_step(p: Program, env: Env, t: float, mode: SolverMode,
             limits: Limits = Limits()) -> Outcome:
    """Evaluate `p` from `env` at time instant `t`.  Never raises on a
    program error: every failure is folded into the Outcome.  A `t` that is
    negative or not finite, or a non-finite value in `env`, is refused up
    front with ValueError."""
    _check_start(env, t)
    return _outcome(_big(p, dict(env), t, mode, limits, [0]), t)


# ---------------------------------------------------------------------------
# Small-step semantics


def _step(cfg: Config, mode: SolverMode) -> tuple:
    """One machine step.  Returns (successor, leaf_rule, detail):
    successor is a Config or a terminal; leaf_rule names the innermost rule
    that fired; detail is `_atom`'s for an atomic step, else None."""
    p, env, t = cfg.program, cfg.env, cfg.residual
    if isinstance(p, Atom):
        return _atom(p.atomic, env, t, mode)
    if isinstance(p, Seq):
        r, rule, det = _step(Config(p.first, env, t), mode)
        if isinstance(r, TSkip):
            return Config(p.rest, r.env, r.residual), rule, det  # (seq-skip)
        if isinstance(r, Config):
            return Config(Seq(r.program, p.rest), r.env, r.residual), rule, det
        return r, rule, det  # (seq-stop) / (seq-err)
    if isinstance(p, If):
        try:
            g = eval_bool(env, p.cond)
        except HybridError as ex:
            return Err(ex.info), "if-err", None
        if g:
            return Config(p.then, env, t), "if-true", None
        return Config(p.orelse, env, t), "if-false", None
    # While
    try:
        g = eval_bool(env, p.cond)
    except HybridError as ex:
        return Err(ex.info), "wh-err", None
    if g:
        return Config(Seq(p.body, p), env, t), "wh-true", None
    return TSkip(env, t), "wh-false", None


def small_step(cfg: Config, mode: SolverMode):
    """Apply the unique applicable rule; returns a Config or a terminal."""
    return _step(cfg, mode)[0]


def machine(cfg: Config, mode: SolverMode, limits: Limits = Limits()):
    """Iterate small steps from `cfg` until a terminal or the iteration
    budget trips.  Yields (pre-step config, successor, rule, detail) for
    every step, the step that exceeds the budget included; returns the
    Outcome.  A differential step's detail is (solution, advanced), the
    local time it followed the flow; an assignment's is (var, old, new).
    Refuses `cfg` up front, before any step, as `big_step` refuses its
    arguments."""
    _check_start(cfg.env, cfg.residual)
    return _machine(cfg, mode, limits)


def _machine(cfg: Config, mode: SolverMode, limits: Limits):
    t0 = cfg.residual
    iterations = 0
    while True:
        r, rule, det = _step(cfg, mode)
        yield cfg, r, rule, det
        if rule == "wh-true":
            iterations += 1
            if iterations > limits.max_iterations:
                return _outcome(cfg, t0)
        if not isinstance(r, Config):
            return _outcome(r, t0)
        cfg = r


def run_to_terminal(cfg: Config, mode: SolverMode,
                    limits: Limits = Limits()) -> Outcome:
    """The Outcome `machine` reaches from `cfg`."""
    steps = machine(cfg, mode, limits)
    try:
        while True:
            next(steps)
    except StopIteration as done:
        return done.value


# ---------------------------------------------------------------------------
# Rule applicability (each guard evaluated independently; used to check
# determinism of the machine)


def _value(evaluate, env: Env, node):
    """evaluate(env, node), or None when it is undefined."""
    try:
        return evaluate(env, node)
    except HybridError:
        return None


def _holding(*guards) -> tuple:
    return tuple(rule for rule, holds in guards if holds)


def applicable_rules(cfg: Config, mode: SolverMode) -> tuple:
    """Names of the machine rules whose guards hold in `cfg`, each guard
    checked on its own (over one evaluation of the expression or condition
    they share).  Determinism = at most one name comes back."""
    p, env, t = cfg.program, cfg.env, cfg.residual
    if isinstance(p, Atom):
        a = p.atomic
        if isinstance(a, Assign):
            v = _value(eval_expr, env, a.expr)
            return _holding(("asg", v is not None), ("asg-err", v is None))
        d = _value(eval_expr, env, a.duration)
        ok = d is not None and d >= 0.0
        return _holding(("diff-stop", ok and d > t), ("diff-skip", ok and d <= t),
                        ("diff-err", not ok))
    if isinstance(p, Seq):
        out = []
        for rule in applicable_rules(Config(p.first, env, t), mode):
            if rule in ("diff-stop", "seq-stop"):
                out.append("seq-stop")
            elif rule in ("asg", "diff-skip", "wh-false"):
                out.append("seq-skip")
            elif rule.endswith("err"):
                out.append("seq-err")
            else:
                # the head steps to a non-terminal configuration
                out.append("seq")
        return tuple(out)
    g = _value(eval_bool, env, p.cond)
    kw = "if" if isinstance(p, If) else "wh"
    return _holding((f"{kw}-true", g is True), (f"{kw}-false", g is False),
                    (f"{kw}-err", g is None))
