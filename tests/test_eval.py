"""The compiled evaluator against the tree walker it replaced.

`walk_expr` and `walk_bool` are the recursive tree-walking evaluator that
`_eval` used before it compiled expressions and conditions; they are the
oracle here.  Every generated expression and condition must give the same
value bits, or the same failure (kind, message, source text and position),
under both, on the first evaluation (which compiles) and on the next (which
runs the stored code).
"""
import copy
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridsim.errors import ErrorKind, HybridError, fail
from hybridsim.semantics import eval_bool, eval_expr
from hybridsim.syntax import (FUNCTIONS, And, Apply, BFalse, BTrue, Const, Leq,
                              Not, Or, ParseError, Var, parse_boolean,
                              parse_expression, parse_program, pretty)


# -- the oracle: the tree walker, as it stood before compilation


def walk_expr(env, e):
    t = type(e)
    if t is Const:
        return e.value
    if t is Var:
        try:
            return env[e.name]
        except KeyError:
            raise fail(ErrorKind.UNINITIALIZED_VARIABLE, e, env) from None
    if len(e.args) != 2:
        return walk_apply(env, e, [walk_expr(env, a) for a in e.args])
    spine = []
    while type(e) is Apply and len(e.args) == 2:
        spine.append(e)
        e = e.args[0]
    value = walk_expr(env, e)
    for node in reversed(spine):
        value = walk_apply(env, node, [value, walk_expr(env, node.args[1])])
    return value


def walk_apply(env, e, args):
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


def walk_bool(env, b):
    t = type(b)
    if t is Leq:
        return walk_expr(env, b.lhs) <= walk_expr(env, b.rhs)
    if t is BTrue:
        return True
    if t is BFalse:
        return False
    if t is Not:
        return not walk_bool(env, b.arg)
    if t is not And and t is not Or:
        raise TypeError(f"eval_bool takes desugared conditions; pass this "
                        f"{t.__name__} through desugar_bool first")
    spine = []
    while type(b) is And or type(b) is Or:
        spine.append(b)
        b = b.lhs
    value = walk_bool(env, b)
    for node in reversed(spine):
        rhs = walk_bool(env, node.rhs)
        value = value and rhs if type(node) is And else value or rhs
    return value


def result(evaluate, env, node):
    """What evaluating says: value bits, or the failure without its env."""
    try:
        v = evaluate(env, node)
    except HybridError as ex:
        i = ex.info
        return ("err", i.kind, i.message, i.src, i.line, i.col)
    return ("bool", v) if isinstance(v, bool) else ("value", float(v).hex())


def agree(walk, compiled, env, node):
    want = result(walk, dict(env), node)
    assert result(compiled, dict(env), node) == want  # compiles
    assert result(compiled, dict(env), node) == want  # runs the stored code
    return want


# -- generated inputs

NAMES = ("x", "y", "z", "unset")  # `unset` is never in the environment
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e308, -1e308, 5e-324,
                     1e-310, 710.0, math.pi / 2]),
    st.floats(allow_nan=False, allow_infinity=False))
ENVS = st.fixed_dictionaries({}, optional={n: FLOATS for n in NAMES[:3]})


def _calls(draw_args):
    """Every function symbol, mostly at its arity, sometimes not."""
    def build(fn, args):
        return Apply(fn, tuple(args))
    calls = [st.builds(build, st.just(fn), st.lists(draw_args, min_size=arity,
                                                    max_size=arity))
             for fn, (arity, _) in FUNCTIONS.items()]
    calls.append(st.builds(build, st.just("-"), st.lists(draw_args, min_size=1,
                                                         max_size=1)))
    calls.append(st.builds(build, st.sampled_from(sorted(FUNCTIONS) + ["nope"]),
                           st.lists(draw_args, max_size=3)))
    return st.one_of(*calls)


LEAVES = st.one_of(st.builds(Const, FLOATS), st.builds(Var, st.sampled_from(NAMES)))
EXPRS = st.recursive(LEAVES, _calls, max_leaves=10)


def _chain(kinds, operands):
    """A left-nested chain: ((o0 k1 o1) k2 o2) ..."""
    b = operands[0]
    for kind, rhs in zip(kinds, operands[1:]):
        b = kind(b, rhs)
    return b


def _conditions(children):
    chains = st.integers(1, 4).flatmap(lambda n: st.builds(
        _chain, st.lists(st.sampled_from([And, Or]), min_size=n, max_size=n),
        st.lists(children, min_size=n + 1, max_size=n + 1)))
    return st.one_of(st.builds(Not, children), chains)


CONDS = st.recursive(
    st.one_of(st.builds(Leq, EXPRS, EXPRS), st.just(BTrue()), st.just(BFalse())),
    _conditions, max_leaves=6)


def _parsed(node, parse):
    """`node` printed and parsed again, so that it carries locs; None when
    it does not print to parseable text (an arity error)."""
    try:
        return parse(pretty(node))
    except ParseError:
        return None


# failing right operands whose left operand already decides
DECIDED = [Or(BTrue(), Leq(Apply("/", (Const(1.0), Var("x"))), Const(0.0))),
           And(BFalse(), Leq(Var("unset"), Const(0.0))),
           And(BFalse(), Leq(Apply("sqrt", (Const(-1.0),)), Const(0.0)))]


@settings(max_examples=250, deadline=None)
@given(EXPRS, ENVS)
@example(Apply("/", (Var("x"), Const(0.0))), {"x": 1.0})
@example(Apply("ln", (Const(0.0),)), {})
@example(Apply("exp", (Const(710.0),)), {})
@example(Apply("*", (Const(1e308), Const(10.0))), {})
@example(Apply("+", (Var("unset"), Const(1.0))), {})
@example(Apply("sqrt", (Const(4.0), Const(1.0))), {})
@example(Apply("nope", (Const(1.0),)), {})
@example(Apply("-", (Var("x"),)), {"x": -0.0})
def test_compiled_expressions_match_the_tree_walker(e, env):
    agree(walk_expr, eval_expr, env, e)
    located = _parsed(e, parse_expression)
    if located is not None:
        agree(walk_expr, eval_expr, env, located)


@settings(max_examples=150, deadline=None)
@given(CONDS, ENVS)
@example(DECIDED[0], {"x": 0.0})
@example(DECIDED[1], {})
@example(DECIDED[2], {})
def test_compiled_conditions_match_the_tree_walker(b, env):
    agree(walk_bool, eval_bool, env, b)
    located = _parsed(b, parse_boolean)
    if located is not None:
        agree(walk_bool, eval_bool, env, located)


@pytest.mark.parametrize("b", DECIDED, ids=["or-tt", "and-ff-unset", "and-ff-sqrt"])
def test_a_decided_junction_still_fails_on_its_right_operand(b):
    assert agree(walk_bool, eval_bool, {"x": 0.0}, b)[0] == "err"


@settings(max_examples=100, deadline=None)
@given(EXPRS, ENVS, ENVS)
@example(Apply("/", (Const(1.0), Var("y"))), {"y": 1.0}, {"y": 0.0})
def test_equal_subtrees_at_other_locs_blame_their_own_node(e, env1, env2):
    # the same text twice, on lines 1 and 2: equal trees, different locs
    text = pretty(e)
    try:
        prog = parse_program(f"a := {text} ;\na := {text}")
    except ParseError:
        return
    first, second = prog.first.atomic.expr, prog.rest.atomic.expr
    assert first == second
    agree(walk_expr, eval_expr, env1, first)
    second_says = agree(walk_expr, eval_expr, env2, second)
    if second_says[0] == "err":
        assert second_says[4] == 2


def test_a_surface_comparison_is_refused_when_reached():
    cmp_ = parse_boolean("x < 1")
    # the left operand fails first, as the walker found
    b = And(Leq(Var("unset"), Const(0.0)), cmp_)
    assert agree(walk_bool, eval_bool, {}, b)[1] == ErrorKind.UNINITIALIZED_VARIABLE
    for evaluate in (walk_bool, eval_bool):
        with pytest.raises(TypeError, match="pass this Cmp through desugar_bool"):
            evaluate({"x": 0.0}, cmp_)


def test_compiled_code_stays_out_of_pickles_and_copies():
    e = parse_expression("1 / y + 1")
    with pytest.raises(HybridError):
        eval_expr({"y": 0.0}, e)
    assert e._code is not None
    for twin in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e), copy.copy(e)):
        assert twin == e and twin._code is None
        assert result(eval_expr, {"y": 0.0}, twin) == result(walk_expr, {"y": 0.0}, e)
