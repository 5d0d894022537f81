"""Canonical affine form of differential statements.

Inside a differential statement the bound variables evolve; every other
variable is a constant for the statement's duration, frozen at its value on
entry.  `to_affine` writes each right-hand side as sum(c_j * x_j) + c_0
over the bound variables, yielding x' = A x + b.

The shapes it accepts over a bound variable: +, binary and unary -, a
frozen scalar times an expression (on either side), and division by a
frozen non-zero divisor.  Any other node over a bound variable is
non-linear.

Which subtrees of a right-hand side are frozen is fixed by the statement;
only their values change from one entry to the next (the static/dynamic
split of partial evaluation: N. D. Jones, C. K. Gomard and P. Sestoft,
"Partial Evaluation and Automatic Program Generation", 1993).  So at its
first linearization each right-hand side is compiled, by one `fold`, and
kept on the statement under `_code`, as `_eval` keeps an expression's:
- its frozen operands, the maximal frozen subtrees in the order their
  evaluation runs (children first, left to right): a literal's value, or
  the subtree for `eval_expr`;
- a flat postfix program over the bound variables, the frozen operands
  (taken in order, one `_LEAF` each) and the affine combinators;
- its checks, in pre-order: a node of no accepted shape, which always
  fails, and a `/` over a bound variable, which fails when its divisor
  is zero.

A linearization evaluates every frozen operand, raising the first
evaluation error; then raises NON_LINEAR_ODE or DIVISION_BY_ZERO at the
first failing check, so the outermost, leftmost culprit is the one blamed;
then runs the program in one loop.  The right-hand sides go in binding
order, and a non-finite coefficient among them all is a DOMAIN_ERROR on
the statement.  The program does the IEEE operations of distributing
scalars over the sum, in one fixed order, so A and b come out bit for bit
from run to run, -0.0 included, in one augmented matrix M, with A and b
read-only views of it.

`to_affine` memoises its successful results on the statement, under
`_systems`, as `_code` is kept.  The key is the frozen variables' values,
compared as floats, or by their exact bit patterns (`float.hex`) when one
of them is zero, so -0.0 and 0.0 are different keys; the result never
depends on anything else in the environment.  The statement knows its
frozen variables' names (`Diff.frozen`, computed once), so a hit is one
tuple of values and one dict lookup.  A statement keeps at most
SYSTEMS_PER_STATEMENT systems: a miss into a full memo drops its oldest
entry.  So a statement's systems live as long as the statement does (and
as any flow map or state `odesolve` keeps of them), however many other
statements are linearized meanwhile, and a statement no longer referenced
is freed with them.  Failures are never memoised (their error carries the
environment), nor are calls whose frozen values are missing or not plain
floats.  A memoised system is shared by every caller, threads included,
so its arrays are read-only.  Nothing locks: each dict operation is
atomic, two threads that miss on one key build equal systems and either
may be kept, and a drop forgives a drop made meanwhile on another thread.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._eval import Env, eval_expr
from .errors import ErrorKind, fail
from .syntax import Const, Diff, Expr, Var, fold, nodes

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
        # over Python floats: numpy reductions cost more on arrays this small
        _hold(self, M, not any(M[:n, :n].ravel().tolist()))


def _hold(system: AffineSystem, M: np.ndarray, closed_form: bool):
    """Give `system` M, read-only, with A and b views of it, and the facts
    worked out from it; through `__dict__`, past the frozen `__setattr__`."""
    M.flags.writeable = False
    n = len(M) - 1
    system.__dict__.update(A=M[:n, :n], b=M[:n, n], M=M, dim=len(system.vars),
                           closed_form=closed_form,
                           rate=tuple(M[:n, n].tolist()) if closed_form else None)


# ---------------------------------------------------------------------------
# Compiled right-hand sides

# Instructions are pairs (opcode, operand), run over a stack of
# (coefficient per column, constant term).
_VAR = 0   # (_VAR, j): push ({j: 1.0}, 0.0)
_LEAF = 1  # (_LEAF, None): push ({}, the value of the next frozen operand)
_NEG = 2   # (_NEG, None): negate the top
_ADD = 3   # (_ADD, sign): pop b, pop a, push a + sign * b
_MUL = 4   # (_MUL, None): pop two, scale the one with coefficients by the other
_DIV = 5   # (_DIV, None): pop the divisor, divide the top by it

# (operator, which operands are over a bound variable) -> its instruction:
# the shapes an affine form accepts
_SHAPES = {
    ("+", (True, True)): (_ADD, 1.0),
    ("+", (True, False)): (_ADD, 1.0),
    ("+", (False, True)): (_ADD, 1.0),
    ("-", (True, True)): (_ADD, -1.0),
    ("-", (True, False)): (_ADD, -1.0),
    ("-", (False, True)): (_ADD, -1.0),
    ("-", (True,)): (_NEG, None),
    ("*", (True, False)): (_MUL, None),
    ("*", (False, True)): (_MUL, None),
    ("/", (True, False)): (_DIV, None),
}


def _compile(diff: Diff) -> tuple:
    """(bound variables, (frozen operands, program, checks) per right-hand
    side).  A check is (node, w): the node fails as non-linear when w is
    None, else as a division by zero when the frozen operand w is zero.

    One `fold` per right-hand side, whose `combine` runs children first,
    left to right, so the program comes out in postfix order: a node over
    a bound variable appends its instruction and returns None; a frozen
    node takes back its children's operands and `_LEAF`s, appends its own
    and returns True."""
    bound = tuple(x for x, _ in diff.pairs)
    cols = {x: bound.index(x) for x in bound}
    operands, code, checks = [], [], []

    def combine(node: Expr, kids: list):
        t = type(node)
        if t is Var and node.name in cols:
            code.append((_VAR, cols[node.name]))
            return None
        if t is Const or t is Var or None not in kids:  # frozen
            del operands[len(operands) - len(kids):]
            del code[len(code) - len(kids):]
            literal = t is Const and type(node.value) is float
            operands.append(node.value if literal else node)
            code.append((_LEAF, None))
            return True
        op = _SHAPES.get((node.fn, tuple(k is None for k in kids)))
        if op is None:
            checks.append((node, None))
            return None
        if node.fn == "/":  # the divisor is the last operand met
            checks.append((node, len(operands) - 1))
        code.append(op)
        return None

    compiled = []
    for _, rhs in diff.pairs:
        fold(rhs, combine)
        # into pre-order: a node met twice has one check, as it fails alike
        by_node = {id(check[0]): check for check in checks}
        ordered = [by_node.pop(id(node)) for node in nodes(rhs) if id(node) in by_node]
        # nothing after a check that always fails is ever reached
        cut = next((i + 1 for i, c in enumerate(ordered) if c[1] is None), None)
        compiled.append((tuple(operands), tuple(code), tuple(ordered[:cut])))
        operands.clear()
        code.clear()
        checks.clear()
    return bound, tuple(compiled)


def _run(rhs: tuple, env: Env) -> tuple:
    """(coefficient per column, constant term) of one compiled right-hand
    side.  Raises what evaluating a frozen operand raises, then the error
    of the first failing check."""
    operands, program, checks = rhs
    values = [w if type(w) is float else eval_expr(env, w) for w in operands]
    for node, w in checks:
        if w is None:
            raise fail(ErrorKind.NON_LINEAR_ODE, node, env)
        if values[w] == 0.0:
            raise fail(ErrorKind.DIVISION_BY_ZERO, node, env)
    leaves = iter(values)
    stack = []
    push, pop = stack.append, stack.pop
    for op, arg in program:
        if op == _VAR:
            push(({arg: 1.0}, 0.0))
        elif op == _LEAF:
            push(({}, next(leaves)))
        elif op == _NEG:
            c, k = pop()
            push(({j: -v for j, v in c.items()}, -k))
        else:
            c2, k2 = pop()
            c1, k1 = pop()
            if op == _ADD:
                for j, v in c2.items():
                    c1[j] = c1.get(j, 0.0) + arg * v
                push((c1, k1 + arg * k2))
            elif op == _MUL:  # the scalar is the side with no coefficients
                c, k, scalar = (c1, k1, k2) if c1 else (c2, k2, k1)
                push(({j: scalar * v for j, v in c.items()}, scalar * k))
            else:  # _DIV, by a divisor its check found non-zero
                push(({j: v / k2 for j, v in c1.items()}, k1 / k2))
    return stack[0]


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
    """The system the statement's compiled right-hand sides build."""
    code = diff._code
    if code is None:
        code = _compile(diff)
        object.__setattr__(diff, "_code", code)
    bound, compiled = code
    n = len(bound)
    w = n + 1  # M's rows, flattened: [A_i, b_i] for each i, then zeros
    flat = [0.0] * (w * w)
    rate = False
    for i, rhs in enumerate(compiled):
        c, k = _run(rhs, env)
        for j, v in c.items():
            flat[i * w + j] = v
        flat[i * w + n] = k
        rate = rate or any(c.values())
    if not all(map(math.isfinite, flat)):
        raise fail(ErrorKind.DOMAIN_ERROR, diff, env)
    M = np.array(flat, dtype=float)
    M.flags.writeable = False  # and so the view of it taken next
    system = object.__new__(AffineSystem)  # past __init__: M needs no copy
    system.__dict__["vars"] = bound
    _hold(system, M.reshape(w, w), not rate)
    return system
