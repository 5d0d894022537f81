"""Strict partial evaluation of expressions and conditions over an environment.

An environment is a plain dict mapping variable names to finite floats.
Failures (division by zero, domain errors, missing variables, non-finite
results) raise `HybridError`; callers fold that into outcome values.
Conjunction and disjunction do NOT short-circuit: both operands are always
evaluated so that an undefined operand is never masked.

Each expression or condition is compiled once, at its first evaluation, into
closures (Feeley and Lapalme, "Using closures for code generation", 1987),
each a flat tuple `(run, *captured)` that runs as `run(env, code)`: on
CPython 3.11 a tuple takes about 60 bytes where a function object with its
cells takes 240 to 330, and a program keeps one per node it has evaluated.
Operations are looked up while compiling, so evaluation tests no node type.
The code is kept on the evaluated node, under `_code`: it is found by node
identity, so an equal subtree at another `loc` blames its own node, and
`_Node.__getstate__` leaves it out of pickles and copies.

A left-nested chain of binary operations (`a + b + ...`, `p && q && ...`)
compiles to one closure that loops over its (operation, right operand)
steps, innermost first as in the tree, so its length is bounded by memory,
not by the recursion limit.  An operation runs directly; only when it
raises or gives a non-finite value does `apply_fn` run it again, to raise
the failure.
"""
from __future__ import annotations

import math
from operator import and_, or_

from .errors import ErrorKind, fail
from .syntax import (FUNCTIONS, And, Apply, BFalse, BoolExpr, BTrue, Const, Expr,
                     Leq, Not, Or, Var)

Env = dict


def eval_expr(env: Env, e: Expr) -> float:
    """Strict evaluation; raises HybridError when undefined.

    Takes surface and desugared expressions alike: unary minus, which
    `desugar_expr` rewrites to `0 - e`, is evaluated as negation."""
    code = e._code
    if code is None:
        code = _compiled(e, _compile_expr)
    return code[0](env, code)


def eval_bool(env: Env, b: BoolExpr) -> bool:
    """Evaluate a condition; both operands of &&/|| are always evaluated.

    Takes core syntax only (`Leq`, `And`, `Or`, `Not`, `BTrue`, `BFalse`):
    a surface comparison must go through `desugar_bool` first."""
    code = b._code
    if code is None:
        code = _compiled(b, _compile_bool)
    return code[0](env, code)


def apply_fn(env: Env, e: Expr, args: list) -> float:
    """The value of the operation at `e` on its evaluated arguments `args`;
    a failure raises HybridError blamed on `e`."""
    if e.fn == "-" and len(args) == 1:
        return -args[0]
    arity, op = FUNCTIONS.get(e.fn, ("?", None))
    if len(args) != arity:
        raise fail(ErrorKind.ARITY_ERROR, e, env, want=arity, got=len(args))
    try:
        v = op(*args)
    except ZeroDivisionError:
        raise fail(ErrorKind.DIVISION_BY_ZERO, e, env) from None
    except (ValueError, OverflowError):
        raise fail(ErrorKind.DOMAIN_ERROR, e, env) from None
    if not math.isfinite(v):
        raise fail(ErrorKind.DOMAIN_ERROR, e, env)
    return v


def _compiled(node, compile_node) -> tuple:
    code = compile_node(node)
    object.__setattr__(node, "_code", code)
    return code


# -- expressions


def _const(env: Env, code: tuple):
    return code[1]


def _var(env: Env, code: tuple) -> float:
    try:
        return env[code[1]]
    except KeyError:
        raise fail(ErrorKind.UNINITIALIZED_VARIABLE, code[2], env) from None


def _chain(env: Env, code: tuple) -> float:
    _, first, steps = code
    v = first[0](env, first)
    for op, rhs, node in steps:
        w = rhs[0](env, rhs)
        try:
            r = op(v, w)
        except (ArithmeticError, ValueError):
            r = math.nan
        # r - r is 0.0 exactly when r is finite (inf - inf is nan)
        v = r if r - r == 0.0 else apply_fn(env, node, [v, w])
    return v


def _apply(env: Env, code: tuple) -> float:
    _, args, node = code
    return apply_fn(env, node, [a[0](env, a) for a in args])


_BINARY = {fn: op for fn, (arity, op) in FUNCTIONS.items() if arity == 2}


def _compile_expr(e: Expr) -> tuple:
    t = type(e)
    if t is Const:
        return (_const, e.value)
    if t is Var:
        return (_var, e.name, e)
    steps = []
    while type(e) is Apply and len(e.args) == 2 and e.fn in _BINARY:
        steps.append((_BINARY[e.fn], _compile_expr(e.args[1]), e))
        e = e.args[0]
    if steps:  # e is the leftmost operand, off the spine
        return (_chain, _compile_expr(e), tuple(reversed(steps)))
    return (_apply, tuple(_compile_expr(a) for a in e.args), e)


# -- conditions


def _leq(env: Env, code: tuple) -> bool:
    _, lhs, rhs = code
    return lhs[0](env, lhs) <= rhs[0](env, rhs)


def _not(env: Env, code: tuple) -> bool:
    arg = code[1]
    return not arg[0](env, arg)


def _junction(env: Env, code: tuple) -> bool:
    _, first, steps = code
    v = first[0](env, first)
    for op, rhs in steps:  # the right operand is always evaluated
        v = op(v, rhs[0](env, rhs))
    return v


def _surface(env: Env, code: tuple):
    raise TypeError(f"eval_bool takes desugared conditions; pass this "
                    f"{code[1].__name__} through desugar_bool first")


def _compile_bool(b: BoolExpr) -> tuple:
    t = type(b)
    if t is Leq:
        return (_leq, _compile_expr(b.lhs), _compile_expr(b.rhs))
    if t is BTrue or t is BFalse:
        return (_const, t is BTrue)
    if t is Not:
        return (_not, _compile_bool(b.arg))
    steps = []
    while type(b) is And or type(b) is Or:
        steps.append((and_ if type(b) is And else or_, _compile_bool(b.rhs)))
        b = b.lhs
    if steps:  # b is the leftmost operand, off the spine
        return (_junction, _compile_bool(b), tuple(reversed(steps)))
    return (_surface, t)
