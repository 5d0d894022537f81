"""Trees nested 10 000 deep, built through the library (the parser stops at
`MAX_NESTING`), under the default recursion limit.

Each case builds one nesting form and runs one operation that loops over an
explicit stack instead of recursing: the evaluator's code generation and its
straight-line code, the compiled affine form, and big-step evaluation.  The
expected result is what the same form gives when shallow, computed here by
a loop, or a clean library error; never `RecursionError`.  The trees are
built inside each case, so that no report of a parameter shows one.
"""
import math

import pytest

from hybridsim.errors import ErrorKind, HybridError
from hybridsim.linearize import to_affine
from hybridsim.odesolve import Exact
from hybridsim.semantics import (Config, Limits, big_step, eval_bool, eval_expr,
                                 outcome_bits, run_to_terminal)
from hybridsim.syntax import (And, Apply, Assign, Atom, BFalse, BTrue, Const, Diff,
                              If, Leq, Not, Or, Var, While)

DEPTH = 10_000
EXACT = Exact()


def _sin_chain(arg):
    for _ in range(DEPTH):
        arg = Apply("sin", (arg,))
    return arg


def _sines(v):
    for _ in range(DEPTH):
        v = math.sin(v)
    return v


def _plus_chain():
    e = Var("a")
    for _ in range(DEPTH):
        e = Apply("+", (e, Const(1.0)))
    return e


def _junctions(kind, leaf):
    b = leaf
    for _ in range(DEPTH):
        b = kind(b, leaf)
    return b


def _nots():
    b = Leq(Var("a"), Const(0.0))
    for _ in range(DEPTH):
        b = Not(b)
    return b


def _ifs(cond):
    """if cond then (if cond then (... x := 1 ...) else x := 3) else x := 3"""
    p = Atom(Assign("x", Const(1.0)))
    for _ in range(DEPTH):
        p = If(cond, p, Atom(Assign("x", Const(3.0))))
    return p


def _whiles():
    """while x <= 0 do { while x <= 0 do { ... x := 1 ... } }: each loop
    runs its body once, the innermost ends them all."""
    p = Atom(Assign("x", Const(1.0)))
    for _ in range(DEPTH):
        p = While(Leq(Var("x"), Const(0.0)), p)
    return p


def _run_both(p, env, t, limits=Limits()):
    big = big_step(p, env, t, EXACT, limits)
    assert outcome_bits(big) == outcome_bits(run_to_terminal(Config(p, env, t), EXACT, limits))
    return big


ENV = {"a": 0.5, "x": 0.0}

# name -> (run the operation on the deep tree, what the shallow form gives)
CASES = {
    "eval_expr-sin-chain": (lambda: eval_expr(ENV, _sin_chain(Var("a"))),
                            lambda: _sines(0.5)),
    "eval_expr-plus-chain": (lambda: eval_expr(ENV, _plus_chain()),
                             lambda: 0.5 + DEPTH),
    "eval_expr-plus-chain-unset": (lambda: eval_expr({}, _plus_chain()),
                                   lambda: ErrorKind.UNINITIALIZED_VARIABLE),
    "eval_bool-not-chain": (lambda: eval_bool(ENV, _nots()), lambda: False),
    "eval_bool-and-chain": (lambda: eval_bool(ENV, _junctions(And, BTrue())),
                            lambda: True),
    "eval_bool-or-chain": (lambda: eval_bool(ENV, _junctions(Or, BFalse())),
                           lambda: False),
    "eval_bool-and-chain-unset": (
        lambda: eval_bool({}, _junctions(And, Leq(Var("a"), Const(0.0)))),
        lambda: ErrorKind.UNINITIALIZED_VARIABLE),
    "to_affine-deep-rhs": (
        lambda: to_affine(Diff((("x", Apply("+", (Var("x"), _sin_chain(Var("a"))))),),
                               Const(1.0)), ENV).M.tolist(),
        lambda: [[1.0, _sines(0.5)], [0.0, 0.0]]),
    "to_affine-deep-rhs-unset": (
        lambda: to_affine(Diff((("x", Apply("+", (Var("x"), _sin_chain(Var("q"))))),),
                               Const(1.0)), ENV),
        lambda: ErrorKind.UNINITIALIZED_VARIABLE),
    "to_affine-deep-rhs-non-linear": (
        lambda: to_affine(Diff((("x", Apply("*", (Var("x"), _sin_chain(Var("x"))))),),
                               Const(1.0)), ENV),
        lambda: ErrorKind.NON_LINEAR_ODE),
    "big_step-if-in-then": (lambda: _run_both(_ifs(BTrue()), ENV, 0.0).env,
                            lambda: dict(ENV, x=1.0)),
    "big_step-if-in-then-error": (
        lambda: _run_both(_ifs(Leq(Var("q"), Const(0.0))), ENV, 0.0).info.kind,
        lambda: ErrorKind.UNINITIALIZED_VARIABLE),
    "big_step-while-in-body": (
        lambda: _run_both(_whiles(), ENV, 0.0, Limits(max_iterations=2 * DEPTH)).env,
        lambda: dict(ENV, x=1.0)),
    "big_step-while-in-body-bound": (
        lambda: type(_run_both(_whiles(), ENV, 0.0)).__name__,
        lambda: "BoundReached"),
}


@pytest.mark.parametrize("name", CASES)
def test_deep_trees_run_without_recursion(name):
    run, shallow = CASES[name]
    try:
        got = run()
    except HybridError as ex:
        got = ex.info.kind
    assert got == shallow()
