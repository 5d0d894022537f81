"""Solution of affine systems x' = A x + b, exactly or by fixed-step RK4.

The exact backend exponentiates the augmented matrix [[A, b], [0, 0]] * t
(scipy's scaling-and-squaring Pade implementation) and applies the first n
rows to (x0, 1).  Systems with A == 0 short-circuit to x0 + b t, which is
the exact solution and keeps constant-rate dynamics free of rounding.

A `Solution` memoises the RK4 integration prefix on the step grid, so
querying increasing times along one segment costs one pass overall and is
bit-identical to a single fresh integration to the last time queried.  The
cache is confined to the Solution instance; do not share one mutably across
threads.
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


def _check_time(t: float):
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and non-negative, got {t}")


def solve_exact(sys: AffineSystem, x0, t: float) -> np.ndarray:
    """State at time t of x' = A x + b, x(0) = x0, via the augmented-matrix
    exponential."""
    _check_time(t)
    x0 = np.asarray(x0, dtype=float)
    if t == 0.0:
        return x0.copy()
    if not sys.A.any():
        x = x0 + sys.b * t
    else:
        n = sys.dim
        m = np.zeros((n + 1, n + 1))
        m[:n, :n] = sys.A
        m[:n, n] = sys.b
        with np.errstate(over="ignore", invalid="ignore"):
            e = expm(m * t)
            x = e[:n, :n] @ x0 + e[:n, n]
    if not np.isfinite(x).all():
        raise NumericalOverflow(f"non-finite state at t={t}")
    return x


def _rk4_step(A: np.ndarray, b: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    # overflow surfaces as a non-finite state, reported via NumericalOverflow
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = A @ x + b
        k2 = A @ (x + 0.5 * h * k1) + b
        k3 = A @ (x + 0.5 * h * k2) + b
        k4 = A @ (x + h * k3) + b
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
        # RK4 prefix cache: state after _k full steps of size self.step
        self._k = 0
        self._state = self.x0

    def at(self, t: float) -> np.ndarray:
        if isinstance(self.mode, Exact):
            return solve_exact(self.system, self.x0, t)
        _check_time(t)
        if t == 0.0:
            return self.x0.copy()
        h = self.step
        n = max(1, math.ceil(t / h))
        if self._k > n - 1:
            self._k = 0
            self._state = self.x0
        x = self._state
        A, b = self.system.A, self.system.b
        for _ in range(n - 1 - self._k):
            x = _rk4_step(A, b, x, h)
            if not np.isfinite(x).all():
                raise NumericalOverflow("non-finite intermediate state")
        self._k = n - 1
        self._state = x
        x = _rk4_step(A, b, x, t - (n - 1) * h)
        if not np.isfinite(x).all():
            raise NumericalOverflow(f"non-finite state at t={t}")
        return x

