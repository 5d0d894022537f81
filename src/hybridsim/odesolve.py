"""Solution of affine systems x' = A x + b, exactly or by fixed-step RK4.

Both backends act on (x, 1) through the system's augmented matrix
M = [[A, b], [0, 0]] (Van Loan, 1978), and answer a state as E x0 + c from
the blocks of one memoised matrix [[E, c], [0, 1]].  The exact backend's
is expm(t M) (scipy's scaling-and-squaring Pade implementation, imported
on the first call).  RK4's is its propagator: one step of size h is
exactly the linear map R(hM) = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24,
so n = ceil(t/h) steps, the last cut short to tau = t - (n-1) h, are
R(tau M) R(hM)^(n-1), whose power takes O(log n) matrix products.
Constant-rate flows (A == 0) take the exact closed form x0 + b t in both
modes, on which RK4 is exact too.

States are computed in one place, `Solution.state`, as Python floats, as
environments hold them: x0 + b t over the rates the system keeps as floats
(numpy's IEEE multiply and add), or E x0 + c under one `np.errstate` in
`_state`, which also covers building any map it needs.  Overflow is checked
once, on the floats: a non-finite entry of the map makes the state
non-finite (0 * inf = nan).  `Solution.at` is its checking wrapper,
returning an array.

Flow maps are memoised in one process-wide cache, `_flow`: the blocks
(E, c) of expm(t M) under the key (system, None, t), and those of the RK4
propagator under (system, h, t), read-only views of one map; times and
steps are positive and finite, so float equality is bit identity, and each
entry is a function of M and its key alone, bit-identical to what a fresh
computation returns.  It keeps the FLOW_CACHE_SIZE most recently used
entries.  Systems are keyed by identity and held by the cache, so an `id`
is never reused while its entries live; they come shared from
`linearize.to_affine`, so an entry serves every Solution of a system, on
any thread.  A Solution holds no mutable state.

States of the other flows are memoised as well, in `_state`: E x0 + c as a
tuple, under the key (system, step, t, x0, zero signs), x0 as a tuple and
the sign of each of its zeros (False when it holds none), since -0.0 == 0.0
as a key but not as bits.  A point query replays its trajectory from t = 0,
so it enters the same statements from the same states again and again:
three rounds of the benchmark's point-query workload, set-up included, hit
112 756 times and missed 3317 times, every round asking for the same states.
A cyclic working set larger than an LRU misses nearly always, so
STATE_CACHE_SIZE holds that set whole; an entry costs 300-450 bytes, the
systems it keeps alive included.  A failure
(NumericalOverflow) is never kept, so a repeat raises again.  A looked-up
state is the tuple a fresh computation gave, bit for bit, and `state`
hands out a fresh list of it.  So the semantics still check each other:
each query still runs every rule from t = 0, and only a state already
computed at the same (system, step, t, x0) is shared; a semantics that
reaches another x0 or t computes its own.  Constant-rate states are not
memoised: x0 + b t costs about as much as a lookup.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linearize import AffineSystem

__all__ = ["Exact", "RK4", "SolverMode", "Solution", "NumericalOverflow",
           "solve_exact", "solve_rk4", "default_rk4_step", "FLOW_CACHE_SIZE",
           "STATE_CACHE_SIZE"]

# The workloads miss as often at 32 entries as unbounded (about 1100 entries
# over 1000 random programs); 1024 entries raised selftest's peak RSS by 2%.
FLOW_CACHE_SIZE = 256
# A point-query round over the corpus cycles through the same ~3300 states:
# 2048 entries lose a fifth of its hits, 8192 hit no more and keep more dead
# systems alive (2.8 MB against 1.7 MB in simulate-exact).
STATE_CACHE_SIZE = 4096
_scipy_expm = None


def expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on the first call, so that RK4 runs and
    checks never load scipy."""
    global _scipy_expm
    if _scipy_expm is None:
        from scipy.linalg import expm as _scipy_expm
    return _scipy_expm(a)


class NumericalOverflow(Exception):
    """A solver produced a non-finite state."""


@dataclass(frozen=True)
class Exact:
    pass


@dataclass(frozen=True)
class RK4:
    """Fixed-step fourth-order Runge-Kutta; step=None picks the default
    min(1e-3, segment duration / 16) when the segment is solved."""

    step: float | None = None

    def __post_init__(self):
        # an infinite step makes every flow map's (n - 1) h = 0 * inf = nan
        if self.step is not None and not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError("RK4 step must be positive and finite")


SolverMode = Exact | RK4


def default_rk4_step(duration: float | None) -> float:
    if duration is None or duration <= 0:
        return 1e-3
    # duration/16 underflows to 0.0 below 4.4e-323: one step over it all
    return min(1e-3, duration / 16.0) or duration


def solve_exact(sys: AffineSystem, x0, t: float) -> np.ndarray:
    """State at time t of x' = A x + b, x(0) = x0, via the augmented-matrix
    exponential."""
    return Solution(sys, x0, Exact()).at(t)


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only float copy of `a`, safe to share through the flow cache."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _rk4_map(m: np.ndarray, h: float) -> np.ndarray:
    """R(hM) = I + hM(I + hM/2(I + hM/3(I + hM/4)))."""
    hm = h * m
    eye = np.eye(len(m))
    r = eye + hm / 4.0
    r = eye + (hm / 3.0) @ r
    r = eye + (hm / 2.0) @ r
    return eye + hm @ r


def _rk4_step(parts: tuple, x0: list) -> np.ndarray:
    """The RK4 state E x0 + c from the propagator's blocks (E, c); called
    once per RK4 state, looked up by name, so that a tracer can count them."""
    e, c = parts
    return e @ x0 + c


@functools.lru_cache(maxsize=FLOW_CACHE_SIZE)
def _flow(sys: AffineSystem, step: float | None, t: float) -> tuple:
    """(E, c): the blocks of expm(t M) = [[E, c], [0, 1]] when `step` is
    None, else of the RK4 propagator R(tau M) R(hM)^(n-1) over [0, t] with
    h = `step`.  Memoised: see the module notes."""
    if step is None:
        e = _read_only(expm(sys.M * t))
        n = sys.dim
        return e[:n, :n], e[:n, n]
    steps = t / step
    if not math.isfinite(steps):
        raise NumericalOverflow(f"no finite RK4 step count t/h for t={t}, h={step}")
    n = max(1, math.ceil(steps))
    r = _rk4_map(sys.M, step)
    p = _read_only(_rk4_map(sys.M, t - (n - 1) * step) @ np.linalg.matrix_power(r, n - 1))
    return p[:-1, :-1], p[:-1, -1]


def _finite(x, t: float):
    """`x`, unless an entry is not finite (NumericalOverflow)."""
    if not all(map(math.isfinite, x)):
        raise NumericalOverflow(f"non-finite state at t={t}")
    return x


@functools.lru_cache(maxsize=STATE_CACHE_SIZE)
def _state(sys: AffineSystem, step: float | None, t: float, x0: tuple,
           zero_signs) -> tuple:
    """E x0 + c from the flow map `_flow(sys, step, t)`, as a tuple of
    floats; `zero_signs` tells -0.0 from 0.0 in x0 (False when x0 holds no
    zero).  Memoised: see the module notes."""
    # overflow surfaces as a non-finite state
    with np.errstate(over="ignore", invalid="ignore"):
        if step is None:
            e, c = _flow(sys, None, t)
            x = e @ x0 + c
        else:
            x = _rk4_step(_flow(sys, step, t), x0)
    return _finite(tuple(x.tolist()), t)


def solve_rk4(sys: AffineSystem, x0, t: float, h: float) -> np.ndarray:
    """Classic RK4 with ceil(t/h) steps, the last shortened to land on t."""
    return Solution(sys, x0, RK4(h)).at(t)


class Solution:
    """The flow of one affine system from one initial state, in one mode."""

    __slots__ = ("system", "x0", "mode", "step")

    def __init__(self, system: AffineSystem, x0, mode: SolverMode,
                 duration: float | None = None, checked: bool = False):
        """`checked` says the caller read x0, a list of one finite value per
        system variable, from an environment (whose values are finite), so
        it is kept as it is; an unchecked x0 is checked, then held so too."""
        self.system = system
        if not checked:
            x0 = np.asarray(x0, dtype=float)
            if x0.shape != (system.dim,):
                raise ValueError(f"x0 has shape {x0.shape}, system is {system.dim}-dimensional")
            x0 = x0.tolist()
            if not all(map(math.isfinite, x0)):
                raise ValueError("x0 entries must be finite")
        self.x0 = x0
        self.mode = mode
        if isinstance(mode, RK4):
            self.step = mode.step if mode.step is not None else default_rk4_step(duration)
        else:
            self.step = None

    @property
    def closed_form(self) -> bool:
        """A constant-rate flow (A == 0), solved as x0 + b t in both modes."""
        return self.system.closed_form

    def state(self, t: float) -> list:
        """The state at local time `t` (finite, >= 0: unchecked) as a list of
        floats; NumericalOverflow when it is not finite."""
        x0 = self.x0
        if t == 0.0:
            return list(map(float, x0))  # an environment may hold ints
        sys = self.system
        if not sys.closed_form:
            signs = 0.0 in x0 and tuple([math.copysign(1.0, v) if v == 0.0 else None
                                         for v in x0])
            return list(_state(sys, self.step, t, tuple(x0), signs))
        # overflow surfaces as a non-finite state
        return _finite([a + b * t for a, b in zip(x0, sys.rate)], t)

    def at(self, t: float) -> np.ndarray:
        if not (math.isfinite(t) and t >= 0):
            raise ValueError(f"time must be finite and non-negative, got {t}")
        return np.array(self.state(t))
