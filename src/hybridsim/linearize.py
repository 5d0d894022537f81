"""Canonical affine form of differential statements.

Inside a differential statement the bound variables evolve; every other
variable is a constant for the statement's duration, frozen at its value on
entry.  `fold_constants` collapses the frozen parts of a right-hand side to
numeric constants, after which `to_affine` decomposes each right-hand side
as sum(c_j * x_j) + c_0 over the bound variables, yielding x' = A x + b.

Accepted shapes after folding: +, binary/unary -, scalar * expression (the
scalar on either side; it is commuted to the left), and division by a
non-zero constant.  Anything else over a bound variable is rejected as
non-linear.

`to_affine` memoises its successful results.  The key is the statement's
identity together with its frozen variables' values, compared as floats,
or by their exact bit patterns (`float.hex`) when one of them is zero, so
-0.0 and 0.0 are different keys; the result never depends on anything else
in the environment.  The statement knows its frozen variables' names
(`Diff.frozen`, computed once), so a hit is one tuple of values, one lock
acquisition and one dict lookup.  The cache holds the `Diff` itself in
each entry, so its `id` cannot be reused while the entry lives, and keeps
the AFFINE_CACHE_SIZE most recently used systems.  Failures are
never cached (their error carries the environment), nor are calls whose
frozen values are missing or not plain floats.  A cached system is shared
by every caller, threads included (the cache is locked), so its arrays
are read-only.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ._eval import Env, apply_fn, eval_expr
from .errors import ErrorKind, fail
from .syntax import Apply, Const, Diff, Expr, Var, fold, nodes

__all__ = ["AffineSystem", "fold_constants", "to_affine", "AFFINE_CACHE_SIZE"]

# The largest per-operation working set measured on the benchmark workloads
# is 11 distinct (statement, frozen values) pairs (a selftest program), and
# a whole point-query round over the corpus touches 30.
AFFINE_CACHE_SIZE = 64


def _read_only(a) -> np.ndarray:
    """A read-only float copy of `a`, safe to share."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class AffineSystem:
    """x' = A x + b over `vars` (the Diff-bound variables, in binding order).

    Plain data: read-only copies of A and b, the augmented matrix
    M = [[A, b], [0, 0]] on which both solvers act, and whether the flow has
    a constant rate (`closed_form`: A == 0).  Compared and hashed by
    identity (`eq=False`), so `odesolve` keys its flow maps on the system."""

    vars: tuple
    A: np.ndarray
    b: np.ndarray
    M: np.ndarray = field(init=False, repr=False)
    dim: int = field(init=False, repr=False)
    closed_form: bool = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.b)
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = self.A
        M[:n, n] = self.b
        for name, value in (("A", self.A), ("b", self.b), ("M", M)):
            object.__setattr__(self, name, _read_only(value))
        object.__setattr__(self, "dim", len(self.vars))
        # over Python floats: numpy reductions cost more on arrays this small
        object.__setattr__(self, "closed_form", not any(self.A.ravel().tolist()))


def fold_constants(e: Expr, env: Env, frozen: set) -> Expr:
    """Replace each maximal subexpression with no un-frozen variable by the
    constant it evaluates to.  Scalars end up on the left of '*'.

    One bottom-up fold: a frozen node becomes a `Const` as soon as its
    children are, so evaluation runs in the order (and fails at the node)
    `eval_expr` would on each maximal frozen subexpression."""
    frozen = set(frozen)

    def combine(node: Expr, kids: list) -> Expr:
        t = type(node)
        if t is Const:
            return node
        if t is Var:
            if node.name in frozen:
                return Const(eval_expr(env, node), loc=node.loc)
            return node
        if all(type(k) is Const for k in kids):
            value = apply_fn(env, node, [k.value for k in kids])
            return Const(value, loc=node.loc)
        if (node.fn == "*" and len(kids) == 2
                and type(kids[1]) is Const and type(kids[0]) is not Const):
            kids = kids[::-1]
        return Apply(node.fn, tuple(kids), loc=node.loc)

    return fold(e, combine)


# operator -> arities an affine form accepts
_AFFINE = {"+": (2,), "-": (1, 2), "*": (2,), "/": (2,)}


def _rejection(node: Expr):
    """The ErrorKind that keeps `node` out of an affine form, or None."""
    if type(node) is not Apply:
        return None
    fn, args = node.fn, node.args
    if (len(args) not in _AFFINE.get(fn, ())
            or fn == "*" and Const not in (type(args[0]), type(args[1]))
            or fn == "/" and type(args[1]) is not Const):
        return ErrorKind.NON_LINEAR_ODE
    if fn == "/" and args[1].value == 0.0:
        return ErrorKind.DIVISION_BY_ZERO
    return None


def _affine_parts(node: Expr, kids: list) -> tuple:
    """(coefficient per variable, constant term) of an accepted node."""
    t = type(node)
    if t is Const:
        return {}, node.value
    if t is Var:
        return {node.name: 1.0}, 0.0
    if len(kids) == 1:  # unary minus
        c1, k1 = kids[0]
        return {name: -v for name, v in c1.items()}, -k1
    (c1, k1), (c2, k2) = kids
    fn, args = node.fn, node.args
    if fn in ("+", "-"):
        sign = 1.0 if fn == "+" else -1.0  # a - b is a + (-b), bit for bit
        for name, v in c2.items():
            c1[name] = c1.get(name, 0.0) + sign * v
        return c1, k1 + sign * k2
    if fn == "*":
        # the scalar side, the left one when both are constants
        if type(args[0]) is Const:
            scale, c1, k1 = args[0].value, c2, k2
        else:
            scale = args[1].value
        return {name: scale * v for name, v in c1.items()}, scale * k1
    d = args[1].value  # '/' by a non-zero constant
    return {name: v / d for name, v in c1.items()}, k1 / d


def _decompose(e: Expr, env: Env) -> tuple:
    """Folded expression -> (coefficient per bound variable, constant term).
    The first rejected node in pre-order is the one blamed."""
    for node in nodes(e):
        kind = _rejection(node)
        if kind is not None:
            raise fail(kind, node, env)
    return fold(e, _affine_parts)


# (id(diff), frozen values) -> (diff, system), least recently used first
_systems: OrderedDict = OrderedDict()
_lock = threading.Lock()


def to_affine(diff: Diff, env: Env) -> AffineSystem:
    """Fold and decompose a differential statement's right-hand sides.

    Deterministic, and independent of the values the bound variables may
    have in `env` (they are never read).  Memoised: see the module notes."""
    values = tuple(map(env.get, diff.frozen))
    key = None
    if tuple(map(type, values)) == (float,) * len(values):
        if 0.0 in values:  # equal to -0.0 as well: key on the bits
            values = tuple(map(float.hex, values))
        key = id(diff), values
        with _lock:
            hit = _systems.get(key)
            if hit is not None:
                _systems.move_to_end(key)
                return hit[1]
    system = _linearize(diff, env)
    if key is not None:
        with _lock:
            _systems[key] = (diff, system)
            if len(_systems) > AFFINE_CACHE_SIZE:
                _systems.popitem(last=False)
    return system


def _linearize(diff: Diff, env: Env) -> AffineSystem:
    bound = tuple(x for x, _ in diff.pairs)
    n = len(bound)
    A = np.zeros((n, n))
    b = np.zeros(n)
    for i, (_, rhs) in enumerate(diff.pairs):
        folded = fold_constants(rhs, env, diff.frozen)
        coeffs, const = _decompose(folded, env)
        for name, v in coeffs.items():
            A[i, bound.index(name)] = v
        b[i] = const
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise fail(ErrorKind.DOMAIN_ERROR, diff, env)
    return AffineSystem(bound, A, b)
