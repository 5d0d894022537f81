"""Solution of affine systems x' = A x + b, exactly or by fixed-step RK4.

Both backends act on (x, 1) through the system's augmented matrix
M = [[A, b], [0, 0]].  The exact one applies expm(M t) (scipy's
scaling-and-squaring Pade implementation).  RK4 is a propagator: one step
of size h is exactly the linear map
R(hM) = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24, so each step is one
matvec; the last step, cut short to land on t, applies R(tau M) to the
state as Horner in tau M, four matvecs and no matrix product.
Constant-rate flows (A == 0) take the exact closed form x0 + b t in both
modes, on which RK4 is exact too.  Overflow is checked once, on the state
returned: a non-finite entry makes all of the next matvec non-finite
(0 * inf = nan).

Flow maps are memoised on the system: e = expm(tau M) keyed by tau
(positive and finite, so float equality is bit identity) in `exp_maps`,
its blocks (E, c) = (e[:n, :n], e[:n, n]), views of e, under the same key
in `exp_parts`, and R(hM) keyed by h in `rk4_maps`; at most
MAPS_PER_SYSTEM of each, the oldest dropped first.  Every map is one fresh
`expm` or `_rk4_map` call, bit-identical to what a new call would return;
nothing is derived from powers of another entry.  Systems come shared from
`linearize.to_affine`, so these memos serve every Solution of a system, on
any thread (insertion is locked); the cached maps are read-only.  An exact
state is then one memo lookup and E x0 + c: the same operations on the
same blocks as slicing a fresh map.  On vectors this short numpy's fixed
costs dominate, so the finiteness checks run over Python floats
(`tolist()`), and `np.errstate` is entered once per state, around the
flow arithmetic and the building of any map it needs.

The RK4 prefix is memoised on the step grid, so increasing queries along
one segment cost one pass and are bit-identical to one fresh integration.
That cache is confined to the Solution instance and not locked: do not
share one Solution across threads.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .linearize import AffineSystem, _read_only

__all__ = ["Exact", "RK4", "SolverMode", "Solution", "NumericalOverflow",
           "solve_exact", "solve_rk4", "default_rk4_step", "MAPS_PER_SYSTEM"]

# Within one benchmark operation a system meets at most 18 distinct sampling
# offsets (simulate-exact) and at most 2 distinct durations (point-query).
MAPS_PER_SYSTEM = 32
_lock = threading.Lock()


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
        if self.step is not None and not (self.step > 0):
            raise ValueError("RK4 step must be positive")


SolverMode = Exact | RK4


def default_rk4_step(duration: float | None) -> float:
    if duration is None or duration <= 0:
        return 1e-3
    return min(1e-3, duration / 16.0)


def solve_exact(sys: AffineSystem, x0, t: float) -> np.ndarray:
    """State at time t of x' = A x + b, x(0) = x0, via the augmented-matrix
    exponential."""
    return Solution(sys, x0, Exact()).at(t)


def _rk4_map(m: np.ndarray, h: float) -> np.ndarray:
    """R(hM) = I + hM(I + hM/2(I + hM/3(I + hM/4)))."""
    hm = h * m
    eye = np.eye(len(m))
    r = eye + hm / 4.0
    r = eye + (hm / 3.0) @ r
    r = eye + (hm / 2.0) @ r
    return eye + hm @ r


def _rk4_step(r: np.ndarray, z: np.ndarray, tau: float | None = None) -> np.ndarray:
    """One RK4 step of the augmented state z: r is the step map R(hM), or,
    for a step of length tau, the matrix M itself, applied as
    z + tau M(z + tau M/2 (z + tau M/3 (z + tau M/4 z)))."""
    # one call per step, looked up by name, so that a tracer can count steps
    if tau is None:
        return r @ z
    w = z + (tau / 4.0) * (r @ z)
    w = z + (tau / 3.0) * (r @ w)
    w = z + (tau / 2.0) * (r @ w)
    return z + tau * (r @ w)


def _memo(maps: dict, key: float, build):
    """maps[key], built by `build()` on a miss; at most MAPS_PER_SYSTEM
    entries, the oldest dropped first."""
    m = maps.get(key)
    if m is None:
        m = build()
        with _lock:
            if len(maps) >= MAPS_PER_SYSTEM:
                del maps[next(iter(maps))]
            maps[key] = m
    return m


def _exp_blocks(sys: AffineSystem, t: float) -> tuple:
    """(E, c): the blocks of expm(t M) = [[E, c], [0, 1]].  Memoised: see
    the module notes."""
    def blocks():
        e = _memo(sys.exp_maps, t, lambda: _read_only(expm(sys.M * t)))
        n = sys.dim
        return e[:n, :n], e[:n, n]
    return _memo(sys.exp_parts, t, blocks)


def solve_rk4(sys: AffineSystem, x0, t: float, h: float) -> np.ndarray:
    """Classic RK4 with ceil(t/h) steps; the final step is shortened to land
    exactly on t.  Deterministic for fixed inputs."""
    return Solution(sys, x0, RK4(h)).at(t)


class Solution:
    """The flow of one affine system from one initial state, in one mode."""

    __slots__ = ("system", "x0", "mode", "step", "_z", "_k")

    def __init__(self, system: AffineSystem, x0, mode: SolverMode,
                 duration: float | None = None):
        self.system = system
        self.x0 = np.asarray(x0, dtype=float)
        if self.x0.shape != (system.dim,):
            raise ValueError(f"x0 has shape {self.x0.shape}, system is {system.dim}-dimensional")
        if not all(map(math.isfinite, self.x0.tolist())):
            raise ValueError("x0 entries must be finite")
        self.mode = mode
        if isinstance(mode, RK4):
            self.step = mode.step if mode.step is not None else default_rk4_step(duration)
        else:
            self.step = None
        # RK4: the augmented state after _k steps
        self._z = None
        self._k = 0

    @property
    def closed_form(self) -> bool:
        """A constant-rate flow (A == 0), solved as x0 + b t in both modes."""
        return self.system.closed_form

    def at(self, t: float) -> np.ndarray:
        if not (math.isfinite(t) and t >= 0):
            raise ValueError(f"time must be finite and non-negative, got {t}")
        if t == 0.0:
            return self.x0.copy()
        sys = self.system
        # overflow surfaces as a non-finite state, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            if sys.closed_form:
                x = self.x0 + sys.b * t
            elif self.step is None:
                e, c = _exp_blocks(sys, t)
                x = e @ self.x0 + c
            else:
                x = self._propagate(t)
        if not all(map(math.isfinite, x.tolist())):
            raise NumericalOverflow(f"non-finite state at t={t}")
        return x

    def _propagate(self, t: float) -> np.ndarray:
        h, m = self.step, self.system.M
        n = max(1, math.ceil(t / h))
        if self._z is None or self._k > n - 1:
            self._k, self._z = 0, np.append(self.x0, 1.0)
        if self._k < n - 1:
            r = _memo(self.system.rk4_maps, h, lambda: _read_only(_rk4_map(m, h)))
            z = self._z
            for _ in range(n - 1 - self._k):
                z = _rk4_step(r, z)
            self._k, self._z = n - 1, z
        return _rk4_step(m, self._z, t - (n - 1) * h)[:-1]
