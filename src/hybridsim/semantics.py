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

The machine is refocused (O. Danvy and L. R. Nielsen, "Refocusing in
reduction semantics", BRICS RS-04-26, 2004): a Config keeps its evaluation
context as an explicit stack of the `rest` programs pending after the
statement in focus, so a step pushes and pops there instead of descending
the `Seq` spine by recursion and rebuilding it.  The rules, and so every
step, stay those of the small-step semantics.  `_big` is the same loop
run to its end without building configurations (M. S. Ager et al., "A
functional correspondence between evaluators and abstract machines", PPDP
2003).  Neither semantics recurses, so a program's length and nesting depth
are bounded by memory, not by the recursion limit.

A Config is the 4-tuple (focus, stack, env, residual), a layout internal to
the package: `_step` unpacks its input and builds its successor in one
`tuple.__new__`, and the trajectory driver unpacks the configs it reads.  Of the tuple it exposes `len`, iteration and indexing; it
compares, prints and pickles by (program, env, residual), is unhashable and
unordered, and never equals a plain tuple.

Durations are evaluated once, at statement entry.  A negative duration is an
error.  Assignments consume no time.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from numbers import Rational, Real
from operator import itemgetter
from sys import float_info
from typing import NamedTuple

import numpy as np

from ._eval import Env, eval_bool, eval_expr
from .errors import ErrorInfo, ErrorKind, HybridError, fail
from .linearize import to_affine
from .odesolve import NumericalOverflow, Solution, SolverMode, check_time
from .syntax import Assign, Atom, Diff, If, Loc, Program, Seq, Var, _Frozen

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
    """Everything an Outcome says, the elapsed time and each float value as
    exact bits (`float.hex`), any other value as its `repr`: equal only when
    two outcomes agree bit for bit, where `==` takes -0.0 for 0.0 and 1 for
    1.0.  An error's environment is left out, as `ErrorInfo` equality does."""
    if isinstance(o, Err):
        i = o.info
        return ("err", i.kind, i.message, i.src, i.line, i.col)
    env = tuple(sorted((k, v.hex() if isinstance(v, float) else repr(v))
                       for k, v in o.env.items()))
    if isinstance(o, Stop):
        return ("stop", env)
    if isinstance(o, Skip):
        return ("skip", env, float(o.elapsed).hex(), o.early)
    return ("bound", o.kind, env, float(o.elapsed).hex())


class Config(_Frozen, tuple):
    """A machine configuration (program, env, residual time), held
    refocused as the 4-tuple (focus, stack, env, residual): the statement in
    `focus` and a `stack` of the `rest` programs pending after it, as
    persistent cons cells (rest, below) or None.  `program` rebuilds the
    nested `Seq`s when read.  Immutable, and a value by (program, env,
    residual), not by its tuple (see the module notes)."""

    __slots__ = ()
    _fields = ("program", "env", "residual")
    __hash__ = None
    focus, stack, env, residual = map(property, map(itemgetter, range(4)))

    def __new__(cls, program: Program, env: Env, residual: float):
        return _new(cls, (program, None, env, residual))

    def _unordered(self, other):
        raise TypeError(f"{type(self).__name__} values are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    @property
    def program(self) -> Program:
        p, below = self.focus, self.stack
        while below is not None:
            rest, below = below
            p = Seq(p, rest)
        return p


class TSkip(NamedTuple):
    env: Env
    residual: float


# _new(T, (a, ...)) is T(a, ...) for a Config or a TSkip, in one C-level
# allocation past the Python-level __new__
_new = tuple.__new__


# ---------------------------------------------------------------------------
# Atomic statements (shared by both semantics)


def _diff_enter(a: Diff, env: Env, mode: SolverMode) -> tuple:
    """Evaluate the duration, freeze the dynamics, and build the flow.
    Returns (duration, Solution); raises HybridError on any failure.  Every
    entry point refuses a non-finite start, and evaluation and flows yield
    finite values only, so x0, read from `env`, is finite."""
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
    return d, Solution(system, x0, mode, d, True)  # checked, passed by position


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
        return _new(TSkip, (out, t)), "asg", (a.var, env.get(a.var), v)  # no time consumed
    try:
        d, sol = _diff_enter(a, env, mode)
        out = dict(env)  # flow_env past `at`'s array (flow_env keeps it: bench/spans.py times it)
        out.update(zip(sol.system.vars, sol.state(t if d > t else d)))
        if d > t:
            return Stop(out), "diff-stop", (sol, t)
        return _new(TSkip, (out, t - d)), "diff-skip", (sol, d)
    except HybridError as ex:
        return Err(ex.info), "diff-err", None
    except NumericalOverflow:
        return Err(fail(ErrorKind.SOLVER_FAILURE, a, env).info), "diff-err", None


# ---------------------------------------------------------------------------
# Big-step semantics


def _big(p: Program, env: Env, t: float, mode: SolverMode, limits: Limits):
    """Run `p` to the machine's terminals: TSkip carries the REMAINING
    residual time, computed by the same subtractions the machine performs.
    A run stopped by the iteration budget ends in the Config where it
    tripped.  One loop over a local stack of pending programs, cons cells
    as in a Config, refocused as `_step` is: a `Seq` pushes its rest, `if`
    focuses its branch, and (wh-true) pushes the `while` and focuses its
    body, so nothing recurses however deep the program nests."""
    pending = None
    iterations = 0
    while True:
        while type(p) is Seq:
            pending = (p.rest, pending)
            p = p.first
        if type(p) is Atom:
            r = _atom(p.atomic, env, t, mode)[0]
            if type(r) is not TSkip:
                return r  # (seq-stop) / (seq-err)
            env, t = r
        else:
            try:
                g = eval_bool(env, p.cond)
            except HybridError as ex:
                return Err(ex.info)  # (if-err) / (wh-err)
            if type(p) is If:
                p = p.then if g else p.orelse
                continue
            if g:  # (wh-true)
                iterations += 1
                if iterations > limits.max_iterations:
                    return Config(p, env, t)
                pending = (p, pending)
                p = p.body
                continue
        if pending is None:  # the last statement skipped
            return _new(TSkip, (env, t))
        p, pending = pending  # (seq-skip)


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


def _check_start(env: Env, t: float) -> float:
    """The float a run starts on, the time as `check_time` returns it.
    Refuse a run that cannot start: a time that `check_time` refuses, or
    an initial value that is not a finite real number (a numpy real or bool
    scalar is one; an int beyond float range is not finite)."""
    t = check_time(t)
    values = env.values()  # finite floats pass by C-level sweeps alone
    if all(map(float.__instancecheck__, values)) and all(
            map(float_info.max.__ge__, map(abs, values))):
        return t
    for name, v in env.items():
        if not isinstance(v, (Real, np.bool_)):
            raise ValueError(f"initial value of {name} must be a real number, got {v!r}")
        if not (abs(v) <= float_info.max if isinstance(v, Rational) else math.isfinite(v)):
            shown = f"an int of {v.bit_length()} bits" if isinstance(v, int) else repr(v)
            raise ValueError(f"initial value of {name} must be finite, got {shown}")
    return t


def big_step(p: Program, env: Env, t: float, mode: SolverMode,
             limits: Limits = Limits()) -> Outcome:
    """Evaluate `p` from `env` at time instant `t`.  Never raises on a
    program error: every failure is folded into the Outcome.  A `t` that is
    negative or not finite, or a non-finite value in `env`, is refused up
    front with ValueError."""
    t = _check_start(env, t)
    return _outcome(_big(p, dict(env), t, mode, limits), t)


# ---------------------------------------------------------------------------
# Small-step semantics


def _step(cfg: Config, mode: SolverMode) -> tuple:
    """One refocused machine step (Danvy and Nielsen): push the `rest` of
    each `Seq` down the focus's spine, then apply the one rule at the
    focus.  `if` focuses the chosen branch; (wh-true) pushes the `while`
    and focuses its body; a skip pops the next pending program
    (seq-skip), or is the terminal when the stack is empty.  Returns
    (successor, leaf_rule, detail): successor is a Config or a terminal;
    leaf_rule names the innermost rule that fired; detail is `_atom`'s for
    an atomic step, else None."""
    p, stack, env, t = cfg
    while isinstance(p, Seq):
        stack = (p.rest, stack)
        p = p.first
    if isinstance(p, Atom):
        r, rule, det = _atom(p.atomic, env, t, mode)
    elif isinstance(p, If):
        try:
            g = eval_bool(env, p.cond)
        except HybridError as ex:
            return Err(ex.info), "if-err", None
        if g:
            return _new(Config, (p.then, stack, env, t)), "if-true", None
        return _new(Config, (p.orelse, stack, env, t)), "if-false", None
    else:  # While
        try:
            g = eval_bool(env, p.cond)
        except HybridError as ex:
            return Err(ex.info), "wh-err", None
        if g:
            return _new(Config, (p.body, (p, stack), env, t)), "wh-true", None
        r, rule, det = _new(TSkip, (env, t)), "wh-false", None
    if stack is None or not isinstance(r, TSkip):
        return r, rule, det
    rest, stack = stack  # (seq-skip)
    return _new(Config, (rest, stack, r.env, r.residual)), rule, det


def small_step(cfg: Config, mode: SolverMode):
    """Apply the unique applicable rule; returns a Config or a terminal.
    Refuses `cfg` up front, as `machine` does."""
    focus, stack, env, t = cfg
    t = _check_start(env, t)
    return _step(_new(Config, (focus, stack, env, t)), mode)[0]


def machine(cfg: Config, mode: SolverMode, limits: Limits = Limits()):
    """Iterate small steps from `cfg` until a terminal or the iteration
    budget trips, calling the module's `_step` once per step.  Yields
    (pre-step config, successor, rule, detail) for every step, the step
    that exceeds the budget included; returns the Outcome.  A yielded
    Config builds its `program` only when that is read.  A differential
    step's detail is (solution, advanced), the local time it followed the
    flow; an assignment's is (var, old, new).  Refuses `cfg` up front,
    before any step, as `big_step` refuses its arguments."""
    focus, stack, env, t = cfg
    t = _check_start(env, t)
    return _machine(_new(Config, (focus, stack, env, t)), mode, limits)


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


def _in_seq(rule: str) -> str:
    """The rule a `Seq` fires when its first statement fires `rule`."""
    if rule in ("diff-stop", "seq-stop"):
        return "seq-stop"
    if rule in ("asg", "diff-skip", "wh-false"):
        return "seq-skip"
    if rule.endswith("err"):
        return "seq-err"
    return "seq"  # the head steps to a non-terminal configuration


def applicable_rules(cfg: Config, mode: SolverMode) -> tuple:
    """Names of the machine rules whose guards hold in `cfg`, each guard
    checked on its own (over one evaluation of the expression or condition
    they share).  Determinism = at most one name comes back.  The rules of
    the statement at the head of the `Seq` spine are found first, then
    carried out through each enclosing `Seq`, so the spine is walked, not
    recursed."""
    p, env, t = cfg.program, cfg.env, cfg.residual
    depth = 0
    while isinstance(p, Seq):
        p, depth = p.first, depth + 1
    if isinstance(p, Atom):
        a = p.atomic
        if isinstance(a, Assign):
            v = _value(eval_expr, env, a.expr)
            rules = _holding(("asg", v is not None), ("asg-err", v is None))
        else:
            d = _value(eval_expr, env, a.duration)
            ok = d is not None and d >= 0.0
            rules = _holding(("diff-stop", ok and d > t), ("diff-skip", ok and d <= t),
                             ("diff-err", not ok))
    else:
        g = _value(eval_bool, env, p.cond)
        kw = "if" if isinstance(p, If) else "wh"
        rules = _holding((f"{kw}-true", g is True), (f"{kw}-false", g is False),
                         (f"{kw}-err", g is None))
    for _ in range(depth):
        rules = tuple(map(_in_seq, rules))
    return rules
