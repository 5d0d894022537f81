"""Strict partial evaluation of expressions and conditions over an environment.

An environment is a plain dict mapping variable names to finite floats.
Failures (division by zero, domain errors, missing variables, non-finite
results) raise `HybridError`; callers fold that into outcome values.
Conjunction and disjunction do NOT short-circuit: both operands are always
evaluated so that an undefined operand is never masked.
"""
from __future__ import annotations

import math

from .errors import ErrorKind, fail
from .syntax import (FUNCTIONS, And, Apply, BFalse, BoolExpr, BTrue, Const, Expr,
                     Leq, Not, Or, Var)

Env = dict


def eval_expr(env: Env, e: Expr) -> float:
    """Bottom-up strict evaluation; raises HybridError when undefined.

    Takes surface and desugared expressions alike: unary minus, which
    `desugar_expr` rewrites to `0 - e`, is evaluated as negation.  A
    left-nested chain of binary operations, which the parser builds for
    `a + b + ...`, is walked down its left spine in a loop, so its length is
    bounded by memory, not by the recursion limit."""
    t = type(e)
    if t is Const:
        return e.value
    if t is Var:
        try:
            return env[e.name]
        except KeyError:
            raise fail(ErrorKind.UNINITIALIZED_VARIABLE, e, env) from None
    if len(e.args) != 2:
        return apply_fn(env, e, [eval_expr(env, a) for a in e.args])
    spine = []
    while type(e) is Apply and len(e.args) == 2:
        spine.append(e)
        e = e.args[0]
    value = eval_expr(env, e)  # the leftmost operand, off the spine
    for node in reversed(spine):  # innermost first, as recursion would
        value = apply_fn(env, node, [value, eval_expr(env, node.args[1])])
    return value


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


def eval_bool(env: Env, b: BoolExpr) -> bool:
    """Evaluate a condition; both operands of &&/|| are always evaluated.

    Takes core syntax only (`Leq`, `And`, `Or`, `Not`, `BTrue`, `BFalse`):
    a surface comparison must go through `desugar_bool` first."""
    t = type(b)
    if t is Leq:
        return eval_expr(env, b.lhs) <= eval_expr(env, b.rhs)
    if t is BTrue:
        return True
    if t is BFalse:
        return False
    if t is Not:
        return not eval_bool(env, b.arg)
    if t is not And and t is not Or:
        raise TypeError(f"eval_bool takes desugared conditions; pass this "
                        f"{t.__name__} through desugar_bool first")
    spine = []
    while type(b) is And or type(b) is Or:
        spine.append(b)
        b = b.lhs
    value = eval_bool(env, b)  # the leftmost operand, off the spine
    for node in reversed(spine):  # the right operand is always evaluated
        rhs = eval_bool(env, node.rhs)
        value = value and rhs if type(node) is And else value or rhs
    return value
