"""Strict partial evaluation of expressions and conditions over an environment.

An environment is a plain dict mapping variable names to finite floats.
Failures (division by zero, domain errors, missing variables, non-finite
results) raise `HybridError`; callers fold that into outcome values.
Conjunction and disjunction do NOT short-circuit: both operands are always
evaluated so that an undefined operand is never masked.

Each expression or condition is compiled once, at its first evaluation, by
one `syntax.fold`, into one straight-line Python function: one local per
node, assigned in evaluation order (children first, left to right), so an
evaluation is one Python call however large the tree is, and a tree's depth
is bounded by memory, not by the recursion limit.  An arithmetic operation
or a named function runs inline under a `try`; only when it raises or gives
a non-finite value (`r - r` is 0.0 exactly when r is finite) does `apply_fn`
run it again, to raise the failure blamed on its node.

The generated text depends only on the tree's shape: the node kinds, and
which of `+ - * /` and unary `-` each operation is.  Everything else, the
variable names, the constants, the named functions and the nodes a failure
blames, is passed in a tuple of slots, so no program text reaches `exec`.
A bounded memo compiles each distinct text once, and a node keeps only
(function, slots) under `_code`: found by node identity, so an equal
subtree at another `loc` blames its own node, and left out of pickles and
copies, which `_Node.__reduce__` builds from the fields alone.  Trees of
one shape share one function.
"""
from __future__ import annotations

import functools
import math

from .errors import ErrorKind, fail
from .syntax import (FUNCTIONS, And, Apply, BFalse, BoolExpr, BTrue, Const, Expr,
                     Leq, Not, Or, Var, fold)

Env = dict


def eval_expr(env: Env, e: Expr) -> float:
    """Strict evaluation; raises HybridError when undefined.

    Takes surface and desugared expressions alike: unary minus, which
    `desugar_expr` rewrites to `0 - e`, is evaluated as negation."""
    code = e._code
    if code is None:
        code = _compiled(e)
    return code[0](env, code[1])


def eval_bool(env: Env, b: BoolExpr) -> bool:
    """Evaluate a condition; both operands of &&/|| are always evaluated.

    Takes core syntax only (`Leq`, `And`, `Or`, `Not`, `BTrue`, `BFalse`):
    a surface comparison must go through `desugar_bool` first."""
    code = b._code
    if code is None:
        code = _compiled(b)
    return code[0](env, code[1])


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


# the names generated code reads besides its locals, all on failure paths
_GLOBALS = {"apply_fn": apply_fn, "fail": fail, "nan": math.nan,
            "UNSET": ErrorKind.UNINITIALIZED_VARIABLE}

# one operation, run inline: `{op}` is its text over the operand locals
_CHECKED = """\
    try:
        {v} = {op}
    except (ArithmeticError, ValueError):
        {v} = nan
    if {v} - {v} != 0.0:
        {v} = apply_fn(env, {node}, [{args}])"""

_VAR = """\
    try:
        {v} = env[{name}]
    except KeyError:
        raise fail(UNSET, {node}, env) from None"""

_INFIX = ("+", "-", "*", "/")
_JUNCTION = {And: "and", Or: "or"}


def _compiled(root) -> tuple:
    """Compile `root` and keep (function, slots) on it, under `_code`."""
    slots = []  # passed to the function, unpacked into k0, k1, ...
    lines = []  # one entry per node that computes, in evaluation order

    def slot(value) -> str:
        slots.append(value)
        return f"k{len(slots) - 1}"

    def combine(node, kids: list) -> tuple:
        """(the local or literal holding `node`'s value, the index in
        `lines` where the code of `node`'s subtree starts)."""
        start = kids[0][1] if kids else len(lines)
        args = [k[0] for k in kids]
        v = f"v{len(lines)}"
        t = type(node)
        if t is Const:
            return slot(node.value), start
        if t is BTrue or t is BFalse:
            return str(t is BTrue), start
        if t is Var:
            code = _VAR.format(v=v, name=slot(node.name), node=slot(node))
        elif t is Apply:
            fn, n = node.fn, len(args)
            if fn == "-" and n == 1:
                code = f"    {v} = -{args[0]}"
            elif n == FUNCTIONS.get(fn, (None,))[0]:
                op = (f" {fn} ".join(args) if fn in _INFIX
                      else f"{slot(FUNCTIONS[fn][1])}({', '.join(args)})")
                code = _CHECKED.format(v=v, op=op, node=slot(node),
                                       args=", ".join(args))
            else:  # an arity error, raised once its arguments are evaluated
                code = f"    {v} = apply_fn(env, {slot(node)}, [{', '.join(args)}])"
        elif t is Leq:
            code = f"    {v} = {args[0]} <= {args[1]}"
        elif t is Not:
            code = f"    {v} = not {args[0]}"
        elif t in _JUNCTION:
            code = f"    {v} = {args[0]} {_JUNCTION[t]} {args[1]}"
        else:  # a surface comparison is refused when reached, unevaluated
            del lines[start:]
            message = (f"eval_bool takes desugared conditions; pass this "
                       f"{t.__name__} through desugar_bool first")
            code, v = f"    raise TypeError({slot(message)})", "None"
        lines.append(code)
        return v, start

    result = fold(root, combine)[0]
    unpack = f"    {', '.join(f'k{i}' for i in range(len(slots)))}, = k\n" if slots else ""
    text = f"def f(env, k):\n{unpack}" + "".join(s + "\n" for s in lines) + f"    return {result}\n"
    code = (_function(text), tuple(slots))
    object.__setattr__(root, "_code", code)
    return code


@functools.lru_cache(maxsize=256)
def _function(text: str):
    """The function `text` defines, compiled once per distinct text."""
    scope = {}
    exec(text, _GLOBALS, scope)
    return scope["f"]
