"""Strict partial evaluation of expressions and conditions over an environment.

An environment is a plain dict mapping variable names to finite floats.
Failures (division by zero, domain errors, missing variables, non-finite
results) raise `HybridError`; callers fold that into outcome values.
Conjunction and disjunction do NOT short-circuit: both operands are always
evaluated so that an undefined operand is never masked.
"""
from __future__ import annotations

import math
import operator

from .errors import ErrorKind, fail
from .syntax import And, BFalse, BoolExpr, BTrue, Const, Expr, Leq, Not, Or, Var

Env = dict

# function symbol -> (arity, operation); unary '-' is handled on its own.
# Undefined operations raise ZeroDivisionError (a zero divisor), ValueError
# or OverflowError (outside the domain).
_FUNCTIONS = {
    "+": (2, operator.add), "-": (2, operator.sub), "*": (2, operator.mul),
    "/": (2, operator.truediv), "sqrt": (1, math.sqrt), "exp": (1, math.exp),
    "ln": (1, math.log), "sin": (1, math.sin), "cos": (1, math.cos),
    "tan": (1, math.tan), "min": (2, min), "max": (2, max), "pow": (2, math.pow),
}


def eval_expr(env: Env, e: Expr) -> float:
    """Bottom-up strict evaluation; raises HybridError when undefined.

    Takes surface and desugared expressions alike: unary minus, which
    `desugar_expr` rewrites to `0 - e`, is evaluated as negation."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise fail(ErrorKind.UNINITIALIZED_VARIABLE, e, env) from None
    return apply_fn(env, e, [eval_expr(env, a) for a in e.args])


def apply_fn(env: Env, e: Expr, args: list) -> float:
    """The value of the operation at `e` on its evaluated arguments `args`;
    a failure raises HybridError blamed on `e`."""
    if e.fn == "-" and len(args) == 1:
        return -args[0]
    arity, op = _FUNCTIONS.get(e.fn, ("?", None))
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
    if isinstance(b, BTrue):
        return True
    if isinstance(b, BFalse):
        return False
    if isinstance(b, Leq):
        return eval_expr(env, b.lhs) <= eval_expr(env, b.rhs)
    if isinstance(b, And):
        lhs = eval_bool(env, b.lhs)
        rhs = eval_bool(env, b.rhs)
        return lhs and rhs
    if isinstance(b, Or):
        lhs = eval_bool(env, b.lhs)
        rhs = eval_bool(env, b.rhs)
        return lhs or rhs
    if isinstance(b, Not):
        return not eval_bool(env, b.arg)
    raise TypeError(f"eval_bool takes desugared conditions; pass this "
                    f"{type(b).__name__} through desugar_bool first")
