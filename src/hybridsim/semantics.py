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
from dataclasses import dataclass

from ._eval import Env, eval_bool, eval_expr
from .errors import (ErrorInfo, HybridError, negative_duration,
                     solver_failure, uninitialized)
from .linearize import to_affine
from .odesolve import NumericalOverflow, Solution, SolverMode
from .syntax import (Assign, Atom, Diff, If, Loc, Program, Seq, pretty,
                     pretty_expr)

__all__ = [
    "Env", "eval_expr", "eval_bool", "Limits", "BoundKind",
    "Skip", "Stop", "Err", "BoundReached", "Outcome",
    "Config", "TSkip", "TStop", "TErr", "Terminal",
    "big_step", "small_step", "machine", "run_to_terminal", "applicable_rules",
]

_NOWHERE = Loc(0, 0, 0, 0)


@dataclass(frozen=True)
class Limits:
    """Evaluation budgets: `max_time` bounds the sampling horizon (enforced
    by the trajectory driver), `max_iterations` bounds while-unfoldings per
    evaluation (enforced here)."""

    max_time: float = 150.0
    max_iterations: int = 1000


class BoundKind(enum.Enum):
    MAX_ITERATIONS = "max_iterations"
    MAX_TIME = "max_time"


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


@dataclass(frozen=True)
class Config:
    program: Program
    env: Env
    residual: float


@dataclass(frozen=True)
class TSkip:
    env: Env
    residual: float


@dataclass(frozen=True)
class TStop:
    env: Env  # residual is 0 by construction


@dataclass(frozen=True)
class TErr:
    info: ErrorInfo


Terminal = TSkip | TStop | TErr


# ---------------------------------------------------------------------------
# Differential statements (shared by both semantics)


def _diff_enter(a: Diff, env: Env, mode: SolverMode) -> tuple:
    """Evaluate the duration, freeze the dynamics, and build the flow.
    Returns (duration, Solution); raises HybridError on any failure."""
    d = eval_expr(env, a.duration)
    if d < 0.0:
        loc = a.duration.loc or _NOWHERE
        src = a.duration.src or pretty_expr(a.duration)
        raise negative_duration(src, loc.line, loc.col, env)
    system = to_affine(a, env)
    x0 = []
    for name, _ in a.pairs:
        if name not in env:
            loc = a.loc or _NOWHERE
            raise uninitialized(name, name, loc.line, loc.col, env)
        x0.append(env[name])
    return d, Solution(system, x0, mode, duration=d)


def _diff_state(a: Diff, sol: Solution, env: Env, tau: float) -> Env:
    """Environment after following the flow for local time tau."""
    loc = a.loc or _NOWHERE
    try:
        x = sol.at(tau)
    except NumericalOverflow:
        src = a.src or pretty(Atom(a))
        raise solver_failure(src, loc.line, loc.col, env) from None
    out = dict(env)
    for i, (name, _) in enumerate(a.pairs):
        out[name] = float(x[i])
    return out


# ---------------------------------------------------------------------------
# Big-step semantics

# internal results: completion carries the REMAINING residual time, computed
# by the same subtractions the machine performs
@dataclass(frozen=True)
class _Fin:
    env: Env
    rem: float


@dataclass(frozen=True)
class _StopR:
    env: Env


@dataclass(frozen=True)
class _ErrR:
    info: ErrorInfo


@dataclass(frozen=True)
class _BoundR:
    kind: BoundKind
    env: Env
    rem: float


def _big(p: Program, env: Env, t: float, mode: SolverMode, limits: Limits,
         counter: list):
    if isinstance(p, Atom):
        a = p.atomic
        if isinstance(a, Assign):
            try:
                v = eval_expr(env, a.expr)
            except HybridError as ex:
                return _ErrR(ex.info)  # (asg-err)
            out = dict(env)
            out[a.var] = v
            return _Fin(out, t)  # (asg-skip): no time consumed
        try:
            d, sol = _diff_enter(a, env, mode)
            if d > t:
                return _StopR(_diff_state(a, sol, env, t))  # (diff-stop)
            return _Fin(_diff_state(a, sol, env, d), t - d)  # (diff-skip)
        except HybridError as ex:
            return _ErrR(ex.info)  # (diff-err)
    if isinstance(p, Seq):
        r = _big(p.first, env, t, mode, limits, counter)
        if not isinstance(r, _Fin):
            return r  # (seq-stop) / (seq-err) / bound
        return _big(p.rest, r.env, r.rem, mode, limits, counter)  # (seq-skip)
    if isinstance(p, If):
        try:
            g = eval_bool(env, p.cond)
        except HybridError as ex:
            return _ErrR(ex.info)  # (if-err)
        branch = p.then if g else p.orelse
        return _big(branch, env, t, mode, limits, counter)
    # While: iterate (wh-true) unfoldings without growing the call stack
    cur, rem = env, t
    while True:
        try:
            g = eval_bool(cur, p.cond)
        except HybridError as ex:
            return _ErrR(ex.info)  # (wh-err)
        if not g:
            return _Fin(cur, rem)  # (wh-false)
        counter[0] += 1
        if counter[0] > limits.max_iterations:
            return _BoundR(BoundKind.MAX_ITERATIONS, cur, rem)
        r = _big(p.body, cur, rem, mode, limits, counter)
        if not isinstance(r, _Fin):
            return r
        cur, rem = r.env, r.rem


def big_step(p: Program, env: Env, t: float, mode: SolverMode,
             limits: Limits = Limits()) -> Outcome:
    """Evaluate `p` from `env` at time instant `t`.  Never raises: every
    failure is folded into the Outcome."""
    if not t >= 0:
        raise ValueError("time instant must be non-negative")
    counter = [0]
    r = _big(p, dict(env), t, mode, limits, counter)
    if isinstance(r, _Fin):
        if r.rem == 0.0:
            return Skip(r.env, elapsed=t, early=False)
        return Skip(r.env, elapsed=t - r.rem, early=True)
    if isinstance(r, _StopR):
        return Stop(r.env)
    if isinstance(r, _ErrR):
        return Err(r.info)
    return BoundReached(r.kind, r.env, t - r.rem)


# ---------------------------------------------------------------------------
# Small-step semantics


def _step(cfg: Config, mode: SolverMode) -> tuple:
    """One machine step.  Returns (successor, leaf_rule, detail):
    successor is a Config or a terminal; leaf_rule names the innermost rule
    that fired; detail is (solution, advanced, duration) for differential
    steps and (var, old, new) for assignments."""
    p, env, t = cfg.program, cfg.env, cfg.residual
    if isinstance(p, Atom):
        a = p.atomic
        if isinstance(a, Assign):
            try:
                v = eval_expr(env, a.expr)
            except HybridError as ex:
                return TErr(ex.info), "asg-err", None
            out = dict(env)
            out[a.var] = v
            return TSkip(out, t), "asg", (a.var, env.get(a.var), v)
        try:
            d, sol = _diff_enter(a, env, mode)
            if d > t:
                return (TStop(_diff_state(a, sol, env, t)), "diff-stop",
                        (sol, t, d))
            return (TSkip(_diff_state(a, sol, env, d), t - d), "diff-skip",
                    (sol, d, d))
        except HybridError as ex:
            return TErr(ex.info), "diff-err", None
    if isinstance(p, Seq):
        r, rule, det = _step(Config(p.first, env, t), mode)
        if isinstance(r, TStop):
            return r, rule, det  # (seq-stop)
        if isinstance(r, TSkip):
            return Config(p.rest, r.env, r.residual), rule, det  # (seq-skip)
        if isinstance(r, TErr):
            return r, rule, det  # (seq-err)
        return Config(Seq(r.program, p.rest), r.env, r.residual), rule, det
    if isinstance(p, If):
        try:
            g = eval_bool(env, p.cond)
        except HybridError as ex:
            return TErr(ex.info), "if-err", None
        if g:
            return Config(p.then, env, t), "if-true", None
        return Config(p.orelse, env, t), "if-false", None
    # While
    try:
        g = eval_bool(env, p.cond)
    except HybridError as ex:
        return TErr(ex.info), "wh-err", None
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
    Outcome."""
    t0 = cfg.residual
    iterations = 0
    while True:
        r, rule, det = _step(cfg, mode)
        yield cfg, r, rule, det
        if rule == "wh-true":
            iterations += 1
            if iterations > limits.max_iterations:
                return BoundReached(BoundKind.MAX_ITERATIONS, cfg.env,
                                    t0 - cfg.residual)
        if isinstance(r, Config):
            cfg = r
            continue
        if isinstance(r, TSkip):
            if r.residual == 0.0:
                return Skip(r.env, elapsed=t0, early=False)
            return Skip(r.env, elapsed=t0 - r.residual, early=True)
        if isinstance(r, TStop):
            return Stop(r.env)
        return Err(r.info)


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


def _defined_expr(env: Env, e) -> bool:
    try:
        eval_expr(env, e)
        return True
    except HybridError:
        return False


def _bool_value(env: Env, b):
    """True/False, or None when the guard is undefined."""
    try:
        return eval_bool(env, b)
    except HybridError:
        return None


def applicable_rules(cfg: Config, mode: SolverMode) -> tuple:
    """Names of the machine rules whose guards hold in `cfg`, each guard
    checked on its own.  Determinism = at most one name comes back."""
    p, env, t = cfg.program, cfg.env, cfg.residual
    out = []
    if isinstance(p, Atom):
        a = p.atomic
        if isinstance(a, Assign):
            if _defined_expr(env, a.expr):
                out.append("asg")
            if not _defined_expr(env, a.expr):
                out.append("asg-err")
            return tuple(out)
        ok = _defined_expr(env, a.duration)
        d = eval_expr(env, a.duration) if ok else None
        if ok and d >= 0.0 and d > t:
            out.append("diff-stop")
        if ok and d >= 0.0 and d <= t:
            out.append("diff-skip")
        if not ok or d < 0.0:
            out.append("diff-err")
        return tuple(out)
    if isinstance(p, Seq):
        inner = applicable_rules(Config(p.first, env, t), mode)
        for rule in inner:
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
    if isinstance(p, If):
        if _bool_value(env, p.cond) is True:
            out.append("if-true")
        if _bool_value(env, p.cond) is False:
            out.append("if-false")
        if _bool_value(env, p.cond) is None:
            out.append("if-err")
        return tuple(out)
    if _bool_value(env, p.cond) is True:
        out.append("wh-true")
    if _bool_value(env, p.cond) is False:
        out.append("wh-false")
    if _bool_value(env, p.cond) is None:
        out.append("wh-err")
    return tuple(out)
