"""Solution of affine systems x' = A x + b, exactly or by fixed-step RK4.

Both backends act on (x, 1) through M = [[A, b], [0, 0]].  The exact one
applies expm(M t) (scipy's scaling-and-squaring Pade implementation).  RK4
is a propagator: one step of size h is exactly the linear map
R(hM) = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24, built on a Solution's
first full step, so each step is one matvec; the last step, cut short to
land on t, applies R((t - (n-1) h) M).  Constant-rate flows (A == 0) take
the exact closed form x0 + b t in both modes, on which RK4 is exact too.
Overflow is checked once, on the state returned: a non-finite entry makes
all of the next matvec non-finite (0 * inf = nan).

The RK4 prefix is memoised on the step grid, so increasing queries along
one segment cost one pass and are bit-identical to one fresh integration.
The cache is confined to the Solution instance; do not share one mutably
across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .linearize import AffineSystem

__all__ = ["Exact", "RK4", "SolverMode", "Solution", "NumericalOverflow",
           "solve_exact", "solve_rk4", "default_rk4_step"]


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


def _rk4_step(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    # one call per step, looked up by name, so that a tracer can count steps
    return r @ z


def solve_rk4(sys: AffineSystem, x0, t: float, h: float) -> np.ndarray:
    """Classic RK4 with ceil(t/h) steps; the final step is shortened to land
    exactly on t.  Deterministic for fixed inputs."""
    return Solution(sys, x0, RK4(h)).at(t)


class Solution:
    """The flow of one affine system from one initial state, in one mode."""

    def __init__(self, system: AffineSystem, x0, mode: SolverMode,
                 duration: float | None = None):
        self.system = system
        self.x0 = np.asarray(x0, dtype=float)
        if self.x0.shape != (system.dim,):
            raise ValueError(f"x0 has shape {self.x0.shape}, system is {system.dim}-dimensional")
        if not np.isfinite(self.x0).all():
            raise ValueError("x0 entries must be finite")
        self.mode = mode
        if isinstance(mode, RK4):
            self.step = mode.step if mode.step is not None else default_rk4_step(duration)
        else:
            self.step = None
        # RK4: the map R(step * M) and the augmented state after _k steps
        self._r = self._z = None
        self._k = 0

    @property
    def closed_form(self) -> bool:
        """A constant-rate flow (A == 0), solved as x0 + b t in both modes."""
        return not self.system.A.any()

    def at(self, t: float) -> np.ndarray:
        if not (math.isfinite(t) and t >= 0):
            raise ValueError(f"time must be finite and non-negative, got {t}")
        if t == 0.0:
            return self.x0.copy()
        # overflow surfaces as a non-finite state, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            if self.closed_form:
                x = self.x0 + self.system.b * t
            else:
                n = self.system.dim
                m = np.zeros((n + 1, n + 1))
                m[:n, :n] = self.system.A
                m[:n, n] = self.system.b
                if isinstance(self.mode, Exact):
                    e = expm(m * t)
                    x = e[:n, :n] @ self.x0 + e[:n, n]
                else:
                    x = self._propagate(m, t)
        if not np.isfinite(x).all():
            raise NumericalOverflow(f"non-finite state at t={t}")
        return x

    def _propagate(self, m: np.ndarray, t: float) -> np.ndarray:
        h = self.step
        n = max(1, math.ceil(t / h))
        if self._z is None or self._k > n - 1:
            self._k, self._z = 0, np.append(self.x0, 1.0)
        if self._k < n - 1:
            if self._r is None:
                self._r = _rk4_map(m, h)
            z, r = self._z, self._r
            for _ in range(n - 1 - self._k):
                z = _rk4_step(r, z)
            self._k, self._z = n - 1, z
        return _rk4_step(_rk4_map(m, t - (n - 1) * h), self._z)[:-1]
