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

Which subtrees of a right-hand side are frozen is fixed by the statement;
only their values change from one entry to the next (the static/dynamic
split of partial evaluation: N. D. Jones, C. K. Gomard and P. Sestoft,
"Partial Evaluation and Automatic Program Generation", 1993).  So at its
first linearization a statement's right-hand sides are compiled, by one
`fold` each, into flat postfix programs kept on the statement under
`_code`, as `_eval` keeps an expression's: bound variables, frozen operands
(a literal's value, or a maximal frozen subtree for `eval_expr`) and the
affine combinators.  A linearization then runs each program in one loop,
doing `_affine_parts`' IEEE operations on the folded tree in the same
order, so A and b come out bit for bit, -0.0 included, and builds one
augmented matrix M, with A and b read-only views of it.  Any failure (a
rejected node, an evaluation error, a zero divisor, a non-finite
coefficient) is a cold path: the tree path, `fold_constants` then
`_decompose`, runs again and raises the error it always has.

`to_affine` memoises its successful results.  The key is the statement's
identity together with its frozen variables' values, compared as floats,
or by their exact bit patterns (`float.hex`) when one of them is zero, so
-0.0 and 0.0 are different keys; the result never depends on anything else
in the environment.  The statement knows its frozen variables' names
(`Diff.frozen`, computed once), so a hit is one tuple of values, one dict
lookup and one move to the recent end.  The cache holds the `Diff` itself
in each entry, so its `id` cannot be reused while the entry lives, and
keeps the AFFINE_CACHE_SIZE most recently used systems.  Failures are
never cached (their error carries the environment), nor are calls whose
frozen values are missing or not plain floats.  A cached system is shared
by every caller, threads included, so its arrays are read-only.  Only a
miss locks: each `OrderedDict` call of a hit is atomic, and an entry
evicted between its lookup and its move is still a correct answer.
"""
from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ._eval import Env, apply_fn, eval_expr
from .errors import ErrorKind, HybridError, fail
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

    Plain data: the augmented matrix M = [[A, b], [0, 0]] on which both
    solvers act, a copy of the arrays it is given, with A and b read-only
    views of it, and whether the flow has a constant rate (`closed_form`:
    A == 0).  Compared and hashed by identity (`eq=False`), so `odesolve`
    keys its flow maps on the system."""

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
        # over Python floats: numpy reductions cost more on arrays this small
        _hold(self, M, not any(M[:n, :n].ravel().tolist()))


def _hold(system: AffineSystem, M: np.ndarray, closed_form: bool):
    """Give `system` M, read-only, with A and b views of it, and the facts
    worked out from it; through `__dict__`, past the frozen `__setattr__`."""
    M.flags.writeable = False
    n = len(M) - 1
    system.__dict__.update(A=M[:n, :n], b=M[:n, n], M=M, dim=len(system.vars),
                           closed_form=closed_form)


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


# ---------------------------------------------------------------------------
# Compiled right-hand sides

# Instructions are pairs (opcode, operand), run over a stack of
# (coefficient per column, constant term).
_VAR = 0   # (_VAR, j): push ({j: 1.0}, 0.0)
_LEAF = 1  # (_LEAF, w): push ({}, the value of the frozen operand w)
_NEG = 2   # (_NEG, None): negate the top
_ADD = 3   # (_ADD, sign): pop b, pop a, push a + sign * b
_SWAP = 4  # (_SWAP, None): swap the top two
_MUL = 5   # (_MUL, None): pop the scalar, scale the top by it
_DIV = 6   # (_DIV, None): pop the divisor, divide the top by it

# (operator, which operands are over a bound variable) -> the instructions
# that follow the push of the frozen operand, if there is one: the shapes an
# affine form accepts.  A frozen left operand of + or - is pushed last, so it
# is swapped below the other; '*' scales by its scalar on either side.
_SHAPES = {
    ("+", (True, True)): ((_ADD, 1.0),),
    ("+", (True, False)): ((_ADD, 1.0),),
    ("+", (False, True)): ((_SWAP, None), (_ADD, 1.0)),
    ("-", (True, True)): ((_ADD, -1.0),),
    ("-", (True, False)): ((_ADD, -1.0),),
    ("-", (False, True)): ((_SWAP, None), (_ADD, -1.0)),
    ("-", (True,)): ((_NEG, None),),
    ("*", (True, False)): ((_MUL, None),),
    ("*", (False, True)): ((_MUL, None),),
    ("/", (True, False)): ((_DIV, None),),
}


class _NonAffine(Exception):
    """A node over a bound variable that no affine form accepts."""


def _compile(diff: Diff) -> tuple:
    """(bound variables, one postfix program per right-hand side), or ()
    when a right-hand side has a node no affine form accepts.

    One `fold` per right-hand side, whose `combine` runs children first,
    left to right: a node over a bound variable appends its instructions,
    so the program comes out in postfix order, and returns None; a frozen
    node returns its operand in a 1-tuple, for its parent to push: a
    literal's value, or the node itself for `eval_expr`."""
    bound = tuple(x for x, _ in diff.pairs)
    cols = {x: bound.index(x) for x in bound}
    code = []

    def combine(node: Expr, kids: list):
        t = type(node)
        if t is Const:
            return (node.value if type(node.value) is float else node,)
        if t is Var:
            if node.name not in cols:
                return (node,)
            code.append((_VAR, cols[node.name]))
            return None
        if None not in kids:
            return (node,)  # a frozen subtree
        ops = _SHAPES.get((node.fn, tuple(k is None for k in kids)))
        if ops is None:
            raise _NonAffine
        code.extend((_LEAF, k[0]) for k in kids if k is not None)
        code.extend(ops)
        return None

    programs = []
    try:
        for _, rhs in diff.pairs:
            leaf = fold(rhs, combine)
            programs.append(tuple(code) if leaf is None else ((_LEAF, leaf[0]),))
            code.clear()
    except _NonAffine:
        return ()
    return bound, tuple(programs)


def _run(program: tuple, env: Env) -> tuple:
    """(coefficient per column, constant term) of one compiled right-hand
    side: `_affine_parts`' operations on the folded tree, in its order.
    Raises what evaluating a frozen operand raises, and ZeroDivisionError on
    a zero divisor, as a Python float division would (a numpy scalar would
    not)."""
    stack = []
    push, pop = stack.append, stack.pop
    for op, arg in program:
        if op == _VAR:
            push(({arg: 1.0}, 0.0))
        elif op == _LEAF:
            push(({}, arg if type(arg) is float else eval_expr(env, arg)))
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
            elif op == _SWAP:
                push((c2, k2))
                push((c1, k1))
            elif op == _MUL:
                push(({j: k2 * v for j, v in c1.items()}, k2 * k1))
            else:  # _DIV
                if k2 == 0.0:
                    raise ZeroDivisionError
                push(({j: v / k2 for j, v in c1.items()}, k1 / k2))
    return stack[0]


def _compiled_system(diff: Diff, env: Env) -> AffineSystem | None:
    """The system the statement's compiled programs build, or None when it
    is not one the tree path accepts: a rejected node, a zero divisor, an
    evaluation error or a non-finite coefficient."""
    code = diff._code
    if code is None:
        code = _compile(diff)
        object.__setattr__(diff, "_code", code)
    if not code:
        return None
    bound, programs = code
    n = len(bound)
    w = n + 1  # M's rows, flattened: [A_i, b_i] for each i, then zeros
    flat = [0.0] * (w * w)
    rate = False
    try:
        for i, program in enumerate(programs):
            c, k = _run(program, env)
            for j, v in c.items():
                flat[i * w + j] = v
            flat[i * w + n] = k
            rate = rate or any(c.values())
        if not all(map(math.isfinite, flat)):
            return None
    except (HybridError, ArithmeticError, RecursionError):
        return None
    M = np.array(flat, dtype=float)
    M.flags.writeable = False  # and so the view of it taken next
    system = object.__new__(AffineSystem)  # past __init__: M needs no copy
    system.__dict__["vars"] = bound
    _hold(system, M.reshape(w, w), not rate)
    return system


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
        hit = _systems.get(key)
        if hit is not None:
            try:
                _systems.move_to_end(key)
            except KeyError:  # evicted since, by a miss on another thread
                pass
            return hit[1]
    system = _linearize(diff, env)
    if key is not None:
        with _lock:
            _systems[key] = (diff, system)
            if len(_systems) > AFFINE_CACHE_SIZE:
                _systems.popitem(last=False)
    return system


def _linearize(diff: Diff, env: Env) -> AffineSystem:
    system = _compiled_system(diff, env)
    return system if system is not None else _folded_system(diff, env)


def _folded_system(diff: Diff, env: Env) -> AffineSystem:
    """The tree path: fold each right-hand side, then decompose it."""
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
