"""Canonical affine form of differential statements.

Inside a differential statement the bound variables evolve; every other
variable is a constant for the statement's duration, frozen at its value on
entry.  `to_affine` writes each right-hand side as sum(c_j * x_j) + c_0
over the bound variables, yielding x' = A x + b.

The shapes it accepts over a bound variable: +, binary and unary -, a
frozen scalar times an expression (on either side), and division by a
frozen non-zero divisor.  Any other node over a bound variable is
non-linear.

Each right-hand side is linearized by one `syntax.fold`, children first,
left to right:
- a frozen node folds to its value: a literal as it is, a frozen
  variable by `eval_expr`, an operation on frozen operands alone by
  `_eval.apply_fn`, so each frozen subtree is evaluated in the order, and
  fails at the node, that evaluating it whole would;
- a node over a bound variable, of an accepted shape, folds to its affine
  parts: (coefficient per column, constant term);
- a node of no accepted shape, or a division by a frozen zero, is recorded
  and folds to None, as does every node above it.
Once the fold is done, the first recorded node in pre-order is blamed, with
NON_LINEAR_ODE or DIVISION_BY_ZERO.  So every frozen operand is evaluated
first, and the first evaluation error raised; only then is the outermost,
leftmost culprit blamed.  The right-hand sides go in binding order, and a
non-finite coefficient among them all is a DOMAIN_ERROR on the statement.
The fold does the IEEE operations of distributing scalars over the sum in
one fixed order (`a - b` as `a + (-1.0) * b`, a product by its frozen side,
a quotient by its frozen divisor), so A and b come out bit for bit from run
to run, -0.0 included.  Nothing is compiled: since each statement keeps its
own systems, a linearization runs on a memo miss alone, and misses are few
(a selftest round of 8 000 semantics runs has about 350, all but a handful
of them failures, which are never kept).

`to_affine` memoises its successful results on the statement, under
`_systems`.  The key is the frozen variables' values, compared as floats,
or by their exact bit patterns (`float.hex`) when one of them is zero, so
-0.0 and 0.0 are different keys; the result never depends on anything else
in the environment.  The statement knows its frozen variables' names
(`Diff.frozen`, computed once), so a hit is one tuple of values and one
dict lookup.  A statement keeps at most SYSTEMS_PER_STATEMENT systems: a
miss into a full memo drops its oldest entry.  So a statement's systems
live as long as the statement does (and as any flow map or state
`odesolve` keeps of them), however many other statements are linearized
meanwhile, and a statement no longer referenced is freed with them.
Failures are never memoised (their error carries the environment), nor are
calls whose frozen values are missing or not plain floats.  A memoised
system is shared by every caller, threads included, so its arrays are
read-only.  Nothing locks: each dict operation is atomic, two threads that
miss on one key build equal systems and either may be kept, and a drop
forgives a drop made meanwhile on another thread.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._eval import Env, apply_fn, eval_expr
from .errors import ErrorKind, fail
from .syntax import Const, Diff, Var, fold, nodes

__all__ = ["AffineSystem", "to_affine", "SYSTEMS_PER_STATEMENT"]

# Over four rounds of each benchmark workload, no statement was entered with
# more than 8 distinct frozen values; twice that leaves headroom.
SYSTEMS_PER_STATEMENT = 16


@dataclass(frozen=True, eq=False)
class AffineSystem:
    """x' = A x + b over `vars` (the Diff-bound variables, in binding order).

    Plain data: the augmented matrix M = [[A, b], [0, 0]] on which both
    solvers act, a copy of the arrays it is given, with A and b read-only
    views of it, and whether the flow has a constant rate (`closed_form`:
    A == 0), whose rates b are then kept as Python floats too (`rate`, else
    None).  Compared and hashed by identity (`eq=False`), so `odesolve`
    keys its flow maps on the system."""

    vars: tuple
    A: np.ndarray
    b: np.ndarray
    M: np.ndarray = field(init=False, repr=False)
    dim: int = field(init=False, repr=False)
    closed_form: bool = field(init=False, repr=False)
    rate: tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.b)
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = self.A
        M[:n, n] = self.b
        M.flags.writeable = False  # and so the views of it taken next
        # over Python floats: numpy reductions cost more on arrays this small
        closed_form = not any(M[:n, :n].ravel().tolist())
        rate = tuple(M[:n, n].tolist()) if closed_form else None
        for name, value in (("A", M[:n, :n]), ("b", M[:n, n]), ("M", M),
                            ("dim", len(self.vars)), ("closed_form", closed_form),
                            ("rate", rate)):
            object.__setattr__(self, name, value)


# (operator, which operands are over a bound variable): the shapes an affine
# form accepts
_SHAPES = {
    ("+", (True, True)), ("+", (True, False)), ("+", (False, True)),
    ("-", (True, True)), ("-", (True, False)), ("-", (False, True)),
    ("-", (True,)),
    ("*", (True, False)), ("*", (False, True)),
    ("/", (True, False)),
}


def to_affine(diff: Diff, env: Env) -> AffineSystem:
    """The affine system of a differential statement's right-hand sides.

    Deterministic, and independent of the values the bound variables may
    have in `env` (they are never read).  Memoised: see the module notes."""
    values = tuple(map(env.get, diff.frozen))
    if tuple(map(type, values)) != (float,) * len(values):
        return _linearize(diff, env)
    if 0.0 in values:  # equal to -0.0 as well: key on the bits
        values = tuple(map(float.hex, values))
    memo = diff._systems
    system = memo.get(values)
    if system is None:
        system = memo[values] = _linearize(diff, env)
        while len(memo) > SYSTEMS_PER_STATEMENT:
            try:  # drop the oldest entry
                del memo[next(iter(memo))]
            except (KeyError, RuntimeError):  # changed meanwhile, on another thread
                pass
    return system


def _linearize(diff: Diff, env: Env) -> AffineSystem:
    """The system of the statement's right-hand sides: one fold each."""
    bound = tuple(x for x, _ in diff.pairs)
    cols = {x: bound.index(x) for x in bound}
    rejected = {}  # id of a recorded node -> the ErrorKind it fails with

    def combine(node, kids):
        """The node's value when it is frozen; else its affine parts
        (coefficient per column, constant term), or None when it or a node
        under it is rejected."""
        t = type(node)
        if t is Var:
            j = cols.get(node.name)
            return eval_expr(env, node) if j is None else ({j: 1.0}, 0.0)
        if t is Const:
            return node.value
        over = tuple([k is None or type(k) is tuple for k in kids])
        if True not in over:
            return apply_fn(env, node, kids)
        fn = node.fn
        if (fn, over) not in _SHAPES:
            rejected[id(node)] = ErrorKind.NON_LINEAR_ODE
            return None
        if fn == "/" and kids[1] == 0.0:
            rejected[id(node)] = ErrorKind.DIVISION_BY_ZERO
            return None
        if kids[0] is None or kids[-1] is None:
            return None
        if fn == "*":  # scale the side over a bound variable by the other
            (c, k), scalar = kids if over[0] else kids[::-1]
            return {j: scalar * v for j, v in c.items()}, scalar * k
        if fn == "/":
            (c, k), d = kids
            return {j: v / d for j, v in c.items()}, k / d
        if len(kids) == 1:  # unary minus
            c, k = kids[0]
            return {j: -v for j, v in c.items()}, -k
        # a frozen operand has no coefficients
        (c1, k1), (c2, k2) = [k if o else ({}, k) for k, o in zip(kids, over)]
        sign = 1.0 if fn == "+" else -1.0
        for j, v in c2.items():
            c1[j] = c1.get(j, 0.0) + sign * v
        return c1, k1 + sign * k2

    n = len(bound)
    A = [[0.0] * n for _ in bound]
    b = [0.0] * n
    for i, (_, rhs) in enumerate(diff.pairs):
        parts = fold(rhs, combine)
        if rejected:
            node = next(node for node in nodes(rhs) if id(node) in rejected)
            raise fail(rejected[id(node)], node, env)
        c, b[i] = parts if type(parts) is tuple else ({}, parts)
        for j, v in c.items():
            A[i][j] = v
    if not all(map(math.isfinite, b + [v for row in A for v in row])):
        raise fail(ErrorKind.DOMAIN_ERROR, diff, env)
    return AffineSystem(bound, A, b)
