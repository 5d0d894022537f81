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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._eval import Env, eval_expr
from .errors import ErrorKind, fail
from .syntax import Apply, Const, Diff, Expr, Var, expr_vars

__all__ = ["AffineSystem", "fold_constants", "to_affine"]


@dataclass(eq=False)
class AffineSystem:
    """x' = A x + b over `vars` (the Diff-bound variables, in binding order)."""

    vars: tuple
    A: np.ndarray
    b: np.ndarray
    origin: Diff | None = None

    @property
    def dim(self) -> int:
        return len(self.vars)


def fold_constants(e: Expr, env: Env, frozen: set) -> Expr:
    """Replace each maximal subexpression with no un-frozen variable by the
    constant it evaluates to.  Scalars end up on the left of '*'."""
    frozen = set(frozen)

    def live(vs: set) -> bool:
        return bool(vs - frozen)

    def fold(node: Expr) -> Expr:
        if isinstance(node, Const):
            return node
        if isinstance(node, Var):
            if node.name in frozen:
                return Const(eval_expr(env, node), loc=node.loc, src=node.src)
            return node
        if not live(expr_vars(node)):
            return Const(eval_expr(env, node), loc=node.loc, src=node.src)
        args = tuple(fold(a) for a in node.args)
        if (node.fn == "*" and len(args) == 2
                and isinstance(args[1], Const) and not isinstance(args[0], Const)):
            args = (args[1], args[0])
        return Apply(node.fn, args, loc=node.loc, src=node.src)

    return fold(e)


def _decompose(e: Expr, bound: tuple, env: Env) -> tuple:
    """Folded expression -> (coefficient per bound variable, constant term)."""

    def go(node: Expr) -> tuple:
        if isinstance(node, Const):
            return {}, node.value
        if isinstance(node, Var):
            return {node.name: 1.0}, 0.0
        fn, args = node.fn, node.args
        if fn == "+" and len(args) == 2:
            c1, k1 = go(args[0])
            c2, k2 = go(args[1])
            for name, v in c2.items():
                c1[name] = c1.get(name, 0.0) + v
            return c1, k1 + k2
        if fn == "-" and len(args) == 2:
            c1, k1 = go(args[0])
            c2, k2 = go(args[1])
            for name, v in c2.items():
                c1[name] = c1.get(name, 0.0) - v
            return c1, k1 - k2
        if fn == "-" and len(args) == 1:
            c1, k1 = go(args[0])
            return {name: -v for name, v in c1.items()}, -k1
        if fn == "*" and len(args) == 2:
            if isinstance(args[0], Const):
                scale, rest = args[0].value, args[1]
            elif isinstance(args[1], Const):
                scale, rest = args[1].value, args[0]
            else:
                raise fail(ErrorKind.NON_LINEAR_ODE, node, env)
            c1, k1 = go(rest)
            return {name: scale * v for name, v in c1.items()}, scale * k1
        if fn == "/" and len(args) == 2:
            if not isinstance(args[1], Const):
                raise fail(ErrorKind.NON_LINEAR_ODE, node, env)
            if args[1].value == 0.0:
                raise fail(ErrorKind.DIVISION_BY_ZERO, node, env)
            c1, k1 = go(args[0])
            d = args[1].value
            return {name: v / d for name, v in c1.items()}, k1 / d
        raise fail(ErrorKind.NON_LINEAR_ODE, node, env)

    return go(e)


def to_affine(diff: Diff, env: Env) -> AffineSystem:
    """Fold and decompose a differential statement's right-hand sides.

    Deterministic, and independent of the values the bound variables may
    have in `env` (they are never read)."""
    bound = tuple(x for x, _ in diff.pairs)
    bound_set = set(bound)
    n = len(bound)
    A = np.zeros((n, n))
    b = np.zeros(n)
    for i, (_, rhs) in enumerate(diff.pairs):
        frozen = expr_vars(rhs) - bound_set
        folded = fold_constants(rhs, env, frozen)
        coeffs, const = _decompose(folded, bound, env)
        for name, v in coeffs.items():
            A[i, bound.index(name)] = v
        b[i] = const
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise fail(ErrorKind.DOMAIN_ERROR, diff, env)
    return AffineSystem(bound, A, b, origin=diff)
