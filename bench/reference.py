"""A fixed reference computation that measures how fast the host runs
right now.

The machines this benchmark runs on are shared: the same code runs up to
about twice as slow for stretches of seconds to minutes, with no steal time
and CPU time equal to wall time.  A whole run can fall into such a
stretch, so no statistic taken inside one run can remove it.  The benchmark
therefore times this computation between operations, and scales each
operation's wall time by REF_NS over the reference time measured around it.

The computation imitates hybridsim's hot paths without calling hybridsim:
recursive evaluation of a small tree of frozen dataclasses over copied dict
environments, small numpy products with finiteness checks, and one scipy
`expm` of a 4x4 matrix.  It never changes, so it is the same
yardstick for every commit.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

# reference time on an unloaded host of the kind the figures in README.md
# were taken on; scaled figures read as wall time on such a host
REF_NS = 1_250_000


@dataclass(frozen=True)
class _Node:
    op: str
    args: tuple = ()
    name: str = ""
    value: float = 0.0


def _build(depth: int, k: int) -> _Node:
    if depth == 0:
        return _Node("var", name="xyz"[k % 3]) if k % 2 else _Node("const", value=0.25 * k)
    return _Node("+-*"[k % 3], (_build(depth - 1, 2 * k + 1), _build(depth - 1, 2 * k + 2)))


_TREE = _build(5, 0)
_M = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 1.0, 0.0],
               [0.0, 0.0, -0.5, 1.0], [0.0, 0.0, 0.0, 0.0]])


def _eval(node: _Node, env: dict) -> float:
    if node.op == "const":
        return node.value
    if node.op == "var":
        return env[node.name]
    a = _eval(node.args[0], env)
    b = _eval(node.args[1], env)
    if node.op == "+":
        v = a + b
    elif node.op == "-":
        v = a - b
    else:
        v = a * b
    if not math.isfinite(v):
        raise ArithmeticError(v)
    return v


def _work():
    env = {"x": 1.0, "y": 2.0, "z": 0.5}
    acc = 0.0
    for i in range(60):
        env = dict(env)
        env["x"] = 1.0 + (i % 7) * 0.125
        acc += _eval(_TREE, env) * 1e-6
    x = np.ones(4)
    for _ in range(150):
        x = _M @ x * 0.5 + 0.1
        if not np.isfinite(x).all():
            raise ArithmeticError
    return acc, x, expm(_M * 0.01)


def sample() -> int:
    """Nanoseconds one reference computation takes now."""
    t0 = time.perf_counter_ns()
    _work()
    return time.perf_counter_ns() - t0
