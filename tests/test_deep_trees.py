"""Trees nested 10 000 deep, built through the library (the parser stops at
`MAX_NESTING`), under the default recursion limit.

Each case builds one nesting form and runs one operation that loops over an
explicit stack instead of recursing: the evaluator's code generation and its
straight-line code, the compiled affine form, big-step evaluation, and the
node protocol (`==`, `hash`, `repr`, pickling and copying).  The expected
result is what the same form gives when shallow, computed here by a loop,
or a clean library error; never `RecursionError`.  The trees are built
inside each case, so that no report of a parameter shows one.
"""
import copy
import math
import pickle
from dataclasses import FrozenInstanceError

import pytest

from hybridsim.errors import ErrorKind, HybridError
from hybridsim.linearize import to_affine
from hybridsim.odesolve import Exact
from hybridsim.semantics import (Config, Limits, big_step, eval_bool, eval_expr,
                                 outcome_bits, run_to_terminal)
from hybridsim.syntax import (And, Apply, Assign, Atom, BFalse, BTrue, Const, Diff,
                              If, Leq, Loc, Not, Or, Seq, Var, While, nodes)

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


# -- the node protocol: every nesting form under every operation on a tree

# the innermost node of each form (a different one, `off`), and its text
def _stmt(off=False):
    return Atom(Diff((("x", Var("x")),), Const(2.0 if off else 1.0)))


def _cond(off=False):
    return Leq(Var("a"), Const(1.0 if off else 0.0))


def _var(off=False):
    return Var("b" if off else "x")


STMT = "Atom(atomic=Diff(pairs=(('x', Var(name='x')),), duration=Const(value=1.0)))"
COND = "Leq(lhs=Var(name='a'), rhs=Const(value=0.0))"
VAR = "Var(name='x')"

# the statement and the condition beside the nesting at every level, built
# once: the walks visit them at each level all the same
SIDE = "Atom(atomic=Assign(var='x', expr=Const(value=1.0)))"
_SIDE, _COND = Atom(Assign("x", Const(1.0))), _cond()


# name -> (innermost node, its text, one level around a subtree t at span
# loc, the text before and after the subtree at each level, and an optional
# outermost node around the whole nesting with the text before and after it)
FORMS = {
    "seq-left": (_stmt, STMT, lambda t, loc: Seq(t, _SIDE, loc=loc),
                 "Seq(first=", f", rest={SIDE})"),
    "seq-right": (_stmt, STMT, lambda t, loc: Seq(_SIDE, t, loc=loc),
                  f"Seq(first={SIDE}, rest=", ")"),
    "if-in-then": (_stmt, STMT, lambda t, loc: If(_COND, t, _SIDE, loc=loc),
                   f"If(cond={COND}, then=", f", orelse={SIDE})"),
    "if-in-orelse": (_stmt, STMT, lambda t, loc: If(_COND, _SIDE, t, loc=loc),
                     f"If(cond={COND}, then={SIDE}, orelse=", ")"),
    "while-in-body": (_stmt, STMT, lambda t, loc: While(_COND, t, loc=loc),
                      f"While(cond={COND}, body=", ")"),
    "not-chain": (_cond, COND, lambda t, loc: Not(t, loc=loc), "Not(arg=", ")"),
    "and-chain": (_cond, COND, lambda t, loc: And(t, _COND, loc=loc),
                  "And(lhs=", f", rhs={COND})"),
    "or-chain": (_cond, COND, lambda t, loc: Or(t, _COND, loc=loc),
                 "Or(lhs=", f", rhs={COND})"),
    "sin-chain": (_var, VAR, lambda t, loc: Apply("sin", (t,), loc=loc),
                  "Apply(fn='sin', args=(", ",))"),
    "plus-chain": (_var, VAR, lambda t, loc: Apply("+", (t, Const(1.0)), loc=loc),
                   "Apply(fn='+', args=(", ", Const(value=1.0)))"),
    "diff-deep-rhs": (_var, VAR, lambda t, loc: Apply("+", (t, Var("x")), loc=loc),
                      "Apply(fn='+', args=(", f", {VAR}))",
                      lambda t, loc: Diff((("x", t),), Const(1.0), loc=loc),
                      "Diff(pairs=(('x', ", "),), duration=Const(value=1.0))"),
}

SOURCE = "the text every span of the deep trees points into"


def _build(form, located=True, off=False):
    """(tree, node to evaluate): the nesting `form`, DEPTH levels deep, its
    levels spanned at distinct lines when `located`, its innermost node the
    `off` one when asked."""
    leaf, _, wrap, _, _, *outer = FORMS[form]

    def span(k):
        return Loc(k + 1, 1, 0, 3, SOURCE) if located else None

    inner = tree = leaf(off)
    for k in range(DEPTH):
        tree = wrap(tree, span(k))
    if outer:
        tree = outer[0](tree, span(DEPTH))
    return tree, tree if outer else inner


def _evaluate(node):
    """Leave compiled code on `node`, and linearizations on a statement."""
    atomic = node.atomic if type(node) is Atom else node
    if type(atomic) is Diff:
        to_affine(atomic, ENV)
    elif type(node) in (Var, Const, Apply):
        eval_expr(ENV, node)
    else:
        eval_bool(ENV, node)


def _syntax_nodes(tree):
    return [n for n in nodes(tree) if type(n) is not tuple]


def _equal(form, tree):
    assert tree == _build(form, located=False)[0]
    assert tree != _build(form, off=True)[0]


def _hashed(form, tree):
    assert hash(tree) == hash(_build(form, located=False)[0])


def _shown(form, tree):
    _, text, _, before, after, *outer = FORMS[form]
    want = before * DEPTH + text + after * DEPTH
    if outer:
        want = outer[1] + want + outer[2]
    got = repr(tree)
    same = got == want  # outside the assert, which would diff a megabyte of text
    assert same, next(f"the texts part at {i}: {got[i:i + 80]!r}"
                      for i, (g, w) in enumerate(zip(got + "\0", want + "\0")) if g != w)


def _copied(make):
    def check(form, tree):
        twin = make(tree)
        assert twin == tree
        got, want = _syntax_nodes(twin), _syntax_nodes(tree)
        assert [n.loc for n in got] == [n.loc for n in want]
        assert any("_code" in vars(n) or "_systems" in vars(n) for n in want)
        assert not any("_code" in vars(n) or "_systems" in vars(n) for n in got)
    return check


OPERATIONS = {
    "eq": _equal,
    "hash": _hashed,
    "repr": _shown,
    "pickle": _copied(lambda tree: pickle.loads(pickle.dumps(tree))),
    "copy": _copied(copy.copy),
    "deepcopy": _copied(copy.deepcopy),
}


@pytest.mark.parametrize("operation", OPERATIONS)
@pytest.mark.parametrize("form", FORMS)
def test_deep_trees_compare_hash_print_and_copy(form, operation):
    tree, inner = _build(form)
    _evaluate(inner)
    OPERATIONS[operation](form, tree)


def test_a_node_takes_its_fields_by_position():
    for build in (lambda: Var(), lambda: Var("x", "y"), lambda: Seq(_SIDE),
                  lambda: BTrue(1.0), lambda: Var(name="x")):
        with pytest.raises(TypeError):
            build()
    assert Var("x", loc=None).loc is None


def test_a_node_is_frozen():
    v = Var("x", loc=Loc(1, 1, 0, 1, "x"))
    for name in ("name", "loc", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(v, name, "y")
        with pytest.raises(FrozenInstanceError):
            delattr(v, name)
    assert v.name == "x" and v.loc == Loc(1, 1, 0, 1, "x")


def test_nodes_compare_as_their_fields_and_kinds():
    assert Const(0.0) == Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))
    a, b = Var("a"), Var("b")
    assert Leq(a, b) != And(a, b) and And(a, b) != Or(a, b)
    assert Leq(a, b) == Leq(Var("a"), Var("b")) and Leq(a, b) != Leq(b, a)


def test_nodes_compare_their_parts_kind_by_kind_below_the_root():
    a, b = Var("a"), Var("b")
    shared = Leq(a, b)
    assert Not(Leq(a, b)) != Not(And(a, b)) and Not(shared) == Not(Leq(Var("a"), Var("b")))
    assert Not(And(shared, shared)) == Not(And(Leq(a, b), shared))
    plus = Apply("+", (a, b))
    assert plus != Apply("+", (a,)) and plus != Apply("+", (a, b, b))
    assert plus != Apply("+", [a, b]) and Apply("+", [a, b]) != plus
    assert Not(Var("x")) != Not(Const(0.0)) and Not(Const(0.0)) != Not(Var("x"))
    assert Not(Const((0.0,))) != Not(Const(0.0)) and Not(Const(0.0)) != Not(Const((0.0,)))
    assert Not(Const(0.0)) == Not(Const(-0.0)) and Not(Const(math.nan)) == Not(Const(math.nan))
    assert Not(Const(float("nan"))) != Not(Const(float("nan")))  # two objects, as == on floats
