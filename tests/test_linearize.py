import copy
import gc
import math
import pickle
import random
import sys
import threading
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsim.errors import ErrorKind, HybridError, fail
from hybridsim import corpus_path, desugar, linearize, parse, randprog, semantics
from hybridsim._eval import apply_fn
from hybridsim.linearize import AffineSystem, to_affine
from hybridsim.odesolve import RK4, Exact
from hybridsim.syntax import (Apply, Const, Diff, Var, desugar_program, expr_vars,
                              fold, nodes, parse_expression, parse_program, pretty)
from hybridsim.semantics import Limits, eval_expr
from hybridsim.trajectory import simulate

# the affine grid's generator, in tools/ (on the test path)
from affine_inputs import gen_rhs, perturbed, system_or_error


def _diff(text):
    p = desugar_program(parse_program(text))
    return p.atomic


# -- the tree path: the oracle the compiled form is held to
#
# Fold each right-hand side's frozen subtrees to constants, then decompose
# the folded tree: the first rejected node in pre-order is blamed, as the
# node it was folded from.  Slow (a tree per linearization) but plain.


def fold_constants(e, env, frozen, origin=None):
    """Replace each maximal subexpression with no un-frozen variable by the
    constant it evaluates to.  Scalars end up on the left of '*'.  When
    `origin` is given, it maps the id of each rebuilt node to the node it
    was rebuilt from.

    One bottom-up fold: a frozen node becomes a `Const` as soon as its
    children are, so evaluation runs in the order (and fails at the node)
    `eval_expr` would on each maximal frozen subexpression."""
    frozen = set(frozen)
    origin = {} if origin is None else origin

    def combine(node, kids):
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
        folded = Apply(node.fn, tuple(kids), loc=node.loc)
        origin[id(folded)] = node
        return folded

    return fold(e, combine)


# operator -> arities an affine form accepts
_AFFINE = {"+": (2,), "-": (1, 2), "*": (2,), "/": (2,)}


def _rejection(node):
    """The ErrorKind that keeps a folded `node` out of an affine form, or None."""
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


def _affine_parts(node, kids):
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


def _folded_system(diff, env):
    """Fold each right-hand side, then decompose it."""
    bound = tuple(x for x, _ in diff.pairs)
    n = len(bound)
    A = np.zeros((n, n))
    b = np.zeros(n)
    for i, (_, rhs) in enumerate(diff.pairs):
        origin = {}
        folded = fold_constants(rhs, env, diff.frozen, origin)
        for node in nodes(folded):
            kind = _rejection(node)
            if kind is not None:
                raise fail(kind, origin[id(node)], env)
        coeffs, const = fold(folded, _affine_parts)
        for name, v in coeffs.items():
            A[i, bound.index(name)] = v
        b[i] = const
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise fail(ErrorKind.DOMAIN_ERROR, diff, env)
    return AffineSystem(bound, A, b)


def test_fold_commutes_scalar_to_the_left():
    e = parse_expression("x * 5")
    out = fold_constants(e, {}, frozen=set())
    assert out == Apply("*", (Const(5.0), Var("x")))


def test_fold_freezes_non_differential_variable():
    e = parse_expression("x * y")
    out = fold_constants(e, {"y": 3.0}, frozen={"y"})
    assert out == Apply("*", (Const(3.0), Var("x")))


def test_fold_rlcs_coefficient():
    e = parse_expression("(1/(l*c))*i")
    out = fold_constants(e, {"l": 0.047, "c": 0.047}, frozen={"l", "c"})
    expected = 1.0 / (0.047 * 0.047)  # 452.693...
    assert out == Apply("*", (Const(expected), Var("i")))
    assert abs(expected - 452.6935265) < 1e-6


def test_fold_failure_inside_frozen_subexpression():
    e = parse_expression("(a/b) * x")
    with pytest.raises(HybridError) as exc:
        fold_constants(e, {"a": 1.0, "b": 0.0}, frozen={"a", "b"})
    assert exc.value.info.kind == ErrorKind.DIVISION_BY_ZERO
    assert exc.value.info.src == "a/b"


def test_fold_missing_frozen_variable():
    e = parse_expression("a + x")
    with pytest.raises(HybridError) as exc:
        fold_constants(e, {}, frozen={"a"})
    assert exc.value.info.kind == ErrorKind.UNINITIALIZED_VARIABLE


def test_to_affine_double_integrator():
    a = _diff("p' = v, v' = 2 for 1")
    sys = to_affine(a, {})
    assert sys.vars == ("p", "v")
    assert np.array_equal(sys.A, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(sys.b, [0.0, 2.0])


def test_to_affine_nonlinear_product():
    a = _diff("x' = x*x for 1")
    with pytest.raises(HybridError) as exc:
        to_affine(a, {})
    assert exc.value.info.kind == ErrorKind.NON_LINEAR_ODE
    assert exc.value.info.src == "x*x"


def test_first_failure_is_blamed_in_source_order():
    # every frozen operand is evaluated first, children first, left to
    # right; then the outermost failing node, before the ones inside it,
    # and of two the leftmost
    cases = (
        ("x' = a/b + (c/d)*x", {"a": 1.0, "b": 0.0, "c": 1.0, "d": 0.0},
         ErrorKind.DIVISION_BY_ZERO, "a/b"),
        ("x' = (c/d)*x + a/b", {"a": 1.0, "b": 0.0, "c": 1.0, "d": 0.0},
         ErrorKind.DIVISION_BY_ZERO, "c/d"),
        ("x' = x/c + x*x", {"c": 0.0}, ErrorKind.DIVISION_BY_ZERO, "x/c"),
        ("x' = x*x + x/c", {"c": 0.0}, ErrorKind.NON_LINEAR_ODE, "x*x"),
        ("x' = (x*x)/c", {"c": 0.0}, ErrorKind.DIVISION_BY_ZERO, "(x*x)/c"),
        ("x' = (x*x)/c", {"c": 2.0}, ErrorKind.NON_LINEAR_ODE, "x*x"),
        ("x' = q + x*x", {}, ErrorKind.UNINITIALIZED_VARIABLE, "q"),
        ("x' = (x*x)/y, y' = 1", {}, ErrorKind.NON_LINEAR_ODE, "(x*x)/y"),
        ("x' = x*x + sqrt(x)", {}, ErrorKind.NON_LINEAR_ODE, "x*x"),
    )
    for text, env, kind, blamed in cases:
        with pytest.raises(HybridError) as exc:
            to_affine(_diff(text + " for 1"), env)
        assert (exc.value.info.kind, exc.value.info.src) == (kind, blamed), text


def test_to_affine_constant_rate():
    a = _diff("x' = -1 for 1")
    sys = to_affine(a, {"x": 5.0})
    assert np.array_equal(sys.A, [[0.0]])
    assert np.array_equal(sys.b, [-1.0])


def test_to_affine_division_by_diff_variable():
    a = _diff("x' = 1/x for 1")
    with pytest.raises(HybridError) as exc:
        to_affine(a, {})
    assert exc.value.info.kind == ErrorKind.NON_LINEAR_ODE


def test_to_affine_division_by_zero_constant():
    a = _diff("x' = x/c for 1")
    with pytest.raises(HybridError) as exc:
        to_affine(a, {"c": 0.0})
    assert exc.value.info.kind == ErrorKind.DIVISION_BY_ZERO


def test_to_affine_non_finite_coefficient_blames_the_statement():
    # a hand-built statement has no source text: it is pretty-printed
    a = Diff((("x", Apply("+", (Apply("*", (Const(1e308), Var("x"))),
                                Apply("*", (Const(1e308), Var("x")))))),),
             Const(1.0))
    with pytest.raises(HybridError) as exc:
        to_affine(a, {})
    info = exc.value.info
    assert info.kind == ErrorKind.DOMAIN_ERROR
    assert info.src == "x' = 1e+308 * x + 1e+308 * x for 1.0"
    assert (info.line, info.col) == (0, 0)


def test_a_node_with_no_source_is_blamed_as_built():
    # pretty-printed as built, its frozen parts not folded to constants
    rhs = Apply("/", (Apply("-", (Var("x"), Apply("*", (Var("a"), Var("a"))))),
                      Const(0.0)))
    with pytest.raises(HybridError) as exc:
        to_affine(Diff((("x", rhs),), Const(1.0)), {"a": 3.0})
    info = exc.value.info
    assert info.kind == ErrorKind.DIVISION_BY_ZERO
    assert info.src == pretty(rhs) == "(x - a * a) / 0.0"


def test_to_affine_division_by_nonzero_constant():
    a = _diff("x' = x/c for 1")
    sys = to_affine(a, {"c": 4.0})
    assert np.array_equal(sys.A, [[0.25]])


def test_to_affine_transcendental_on_diff_variable():
    a = _diff("x' = sin(x) for 1")
    with pytest.raises(HybridError) as exc:
        to_affine(a, {})
    assert exc.value.info.kind == ErrorKind.NON_LINEAR_ODE


def test_to_affine_distributes_scalar_over_sum():
    a = _diff("v' = (1/(l*c))*(u - v) for 1")
    sys = to_affine(a, {"l": 0.047, "c": 0.047, "u": 18.0})
    k = 1.0 / (0.047 * 0.047)
    assert sys.A[0, 0] == pytest.approx(-k, rel=1e-15)
    assert sys.b[0] == pytest.approx(k * 18.0, rel=1e-15)


def test_to_affine_independent_of_diff_values():
    a = _diff("x' = 2*x + y, y' = x - 3*y + c for 0.5")
    env1 = {"c": 7.0, "x": 0.0, "y": 0.0}
    env2 = {"c": 7.0, "x": 123.0, "y": -5.0}
    s1, s2 = to_affine(a, env1), to_affine(a, env2)
    assert np.array_equal(s1.A, s2.A) and np.array_equal(s1.b, s2.b)


# -- the to_affine cache

def test_cache_returns_the_shared_system_for_equal_frozen_bits():
    a = _diff("x' = k*x + y, y' = -y for 1")
    s1 = to_affine(a, {"k": 2.0, "x": 1.0})
    s2 = to_affine(a, {"k": 2.0, "x": -7.0, "z": 3.0})
    assert s2 is s1
    assert to_affine(a, {"k": 3.0}) is not s1
    # an equal but distinct statement is another key
    assert to_affine(_diff("x' = k*x + y, y' = -y for 1"), {"k": 2.0}) is not s1


def test_cache_keys_on_bit_patterns_not_equality():
    a = _diff("x' = k*x for 1")
    neg = to_affine(a, {"k": -0.0})
    pos = to_affine(a, {"k": 0.0})
    assert math.copysign(1.0, neg.A[0, 0]) == -1.0
    assert math.copysign(1.0, pos.A[0, 0]) == 1.0


def test_cache_never_holds_a_failure():
    a = _diff("x' = x / k for 1")
    good = to_affine(a, {"k": 2.0})
    assert good.A[0, 0] == 0.5
    for env in ({"k": 0.0}, {"k": 0.0, "x": 4.0}):
        with pytest.raises(HybridError) as exc:
            to_affine(a, env)
        assert exc.value.info.kind == ErrorKind.DIVISION_BY_ZERO
        assert exc.value.info.env == env
    assert to_affine(a, {"k": 2.0}) is good


def test_uncacheable_frozen_values_still_linearize():
    a = _diff("x' = k*x for 1")
    assert to_affine(a, {"k": 2}).A[0, 0] == 2.0  # not a float: not cached
    with pytest.raises(HybridError) as exc:
        to_affine(a, {})
    assert exc.value.info.kind == ErrorKind.UNINITIALIZED_VARIABLE


def test_shared_system_is_read_only():
    sys = to_affine(_diff("x' = k*x + 1 for 1"), {"k": 2.0})
    for arr in (sys.A, sys.b, sys.M):
        with pytest.raises(ValueError):
            arr[0] = 9.0
    assert np.array_equal(sys.M, [[2.0, 1.0], [0.0, 0.0]])


def test_cache_size_stays_at_its_bound():
    cap = linearize.SYSTEMS_PER_STATEMENT
    a = _diff("x' = k*x for 1")
    made = [to_affine(a, {"k": float(i)}) for i in range(cap + 10)]
    assert len(a._systems) == cap
    # each miss into a full memo dropped its oldest entry; a hit moves none
    assert list(a._systems) == [(float(i),) for i in range(10, cap + 10)]
    assert to_affine(a, {"k": 10.0}) is made[10]
    to_affine(a, {"k": -1.0})
    assert len(a._systems) == cap
    assert (10.0,) not in a._systems
    assert to_affine(a, {"k": 11.0}) is made[11]
    assert to_affine(a, {"k": 10.0}) is not made[10]
    assert len(a._systems) == cap


def test_a_held_statement_keeps_its_system_through_other_statements_misses():
    held = _diff("x' = k*x for 1")
    first = to_affine(held, {"k": 2.0})
    for i in range(100):
        to_affine(_diff("x' = k*x + 1 for 1"), {"k": float(i)})
    assert to_affine(held, {"k": 2.0}) is first


def test_a_dropped_statement_is_freed_with_its_systems():
    a = _diff("x' = k*x for 1")
    gone, system_gone = weakref.ref(a), weakref.ref(to_affine(a, {"k": 2.0}))
    del a
    gc.collect()
    assert gone() is None and system_gone() is None


def test_the_memo_is_safe_to_share_across_threads():
    """Four threads linearize one statement under three times as many
    distinct frozen values as its memo keeps, -0.0 among them: each system
    has the bits of a serial run's, and once each round's misses are done
    the memo holds no more than its bound."""
    text = "x' = k*x + c, y' = x / k - c*y for 1"
    cap = linearize.SYSTEMS_PER_STATEMENT
    envs = [{"k": i + 0.5, "c": (0.0, -0.0, i / 8)[i % 3]}
            for i in range(3 * cap)]
    serial = [to_affine(_diff(text), env).M.tobytes() for env in envs]
    shared = _diff(text)
    rounds = 20
    results = [[] for _ in range(4)]
    sizes = []
    errors = []
    barrier = threading.Barrier(4)

    def worker(n):
        rng = random.Random(n)
        try:
            for _ in range(rounds):
                order = list(range(len(envs)))
                rng.shuffle(order)
                barrier.wait()
                results[n] += [(i, to_affine(shared, envs[i]).M.tobytes()) for i in order]
                barrier.wait()
                if n == 0:
                    sizes.append(len(shared._systems))
        except Exception as ex:  # noqa: BLE001 -- reported below
            errors.append(ex)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(sizes) == rounds and max(sizes) <= cap
    for got in results:
        assert len(got) == rounds * len(envs)
        assert all(m == serial[i] for i, m in got)


def test_cache_keys_tell_zeros_apart_among_other_values():
    a = _diff("x' = m*x + k*y + c, y' = -y for 1")
    base = {"k": 2.0, "m": 0.0, "c": 3.0}
    s1 = to_affine(a, base)
    assert to_affine(a, dict(base, x=9.0)) is s1
    s2 = to_affine(a, dict(base, m=-0.0))
    assert s2 is not s1 and math.copysign(1.0, s2.A[0, 0]) == -1.0
    assert to_affine(a, dict(base, m=-0.0)) is s2
    assert to_affine(a, dict(base, k=2.5)) is not s1


def test_cache_holds_plain_floats_only():
    a = _diff("x' = k*x for 1")
    s1 = to_affine(a, {"k": 2.0})
    for k in (2, True, np.float64(2.0)):
        assert to_affine(a, {"k": k}) is not s1
    assert to_affine(a, {"k": 2.0}) is s1


# -- randomized properties

def _gen_affine_expr(rng, bound, frozen, depth):
    r = rng.random()
    if depth <= 0 or r < 0.35:
        w = rng.random()
        if w < 0.4:
            return Var(rng.choice(bound))
        if w < 0.6 and frozen:
            return Var(rng.choice(frozen))
        return Const(rng.uniform(-4, 4))
    if r < 0.6:
        return Apply("+", (_gen_affine_expr(rng, bound, frozen, depth - 1),
                           _gen_affine_expr(rng, bound, frozen, depth - 1)))
    if r < 0.8:
        return Apply("-", (_gen_affine_expr(rng, bound, frozen, depth - 1),
                           _gen_affine_expr(rng, bound, frozen, depth - 1)))
    if r < 0.92:
        scalar = Const(rng.uniform(-3, 3))
        e = _gen_affine_expr(rng, bound, frozen, depth - 1)
        return Apply("*", (scalar, e) if rng.random() < 0.5 else (e, scalar))
    return Apply("/", (_gen_affine_expr(rng, bound, frozen, depth - 1),
                       Const(rng.choice((2.0, -4.0, 0.5, 8.0)))))


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_affine_decomposition_soundness(seed):
    """eval(e) equals the reconstructed sum(A_j x_j) + b at random points."""
    rng = random.Random(seed)
    bound = ["x", "y", "z"][: rng.randrange(1, 4)]
    frozen = ["u", "v"][: rng.randrange(0, 3)]
    rhs = _gen_affine_expr(rng, bound, frozen, 3)
    env = {name: rng.uniform(-5, 5) for name in frozen}
    from hybridsim.syntax import Diff
    diff = Diff(tuple((x, rhs) for x in bound), Const(1.0))
    sys = to_affine(diff, env)
    for _ in range(5):
        point = {name: rng.uniform(-10, 10) for name in bound}
        direct = eval_expr({**env, **point}, rhs)
        x = np.array([point[name] for name in sys.vars])
        recon = float(sys.A[0] @ x + sys.b[0])
        assert recon == pytest.approx(direct, rel=1e-12, abs=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_fold_preserves_value(seed):
    rng = random.Random(seed)
    bound = ["x", "y"]
    frozen = ["u", "v"]
    e = _gen_affine_expr(rng, bound, frozen, 3)
    env = {name: rng.uniform(-5, 5) for name in frozen + bound}
    folded = fold_constants(e, env, set(frozen))
    assert eval_expr(env, folded) == eval_expr(env, e)
    assert expr_vars(folded) <= set(bound)


# -- the compiled form against the tree path, bit for bit


def _agree(diff, env) -> bool:
    """The compiled form builds what the tree path builds, or raises its
    error; True when the system was built."""
    want = system_or_error(_folded_system, diff, env)
    assert system_or_error(linearize._linearize, diff, env) == want
    return want[0] != "err"


def test_compiled_form_matches_the_tree_path_on_random_programs():
    built = 0
    for seed in range(1000):
        program, env = randprog.gen_program(seed)
        rng = random.Random(seed)
        for diff in (n for n in nodes(program) if type(n) is Diff):
            for e in [env] + [perturbed(rng, diff.frozen, env) for _ in range(3)]:
                built += _agree(diff, e)
    assert built > 4000


def test_compiled_form_matches_the_tree_path_on_every_shape():
    built = 0
    for seed in range(2000):
        rng = random.Random(seed)
        bound = ["x", "y", "z"][: rng.randrange(1, 4)]
        frozen = ["a", "b"]
        diff = Diff(tuple((x, gen_rhs(rng, bound, frozen, 4)) for x in bound),
                    Const(1.0))
        for _ in range(3):
            built += _agree(diff, perturbed(rng, frozen, {}))
    assert built > 500


def test_compiled_form_matches_the_tree_path_on_the_corpus():
    entries = []

    def record(diff, env):
        entries.append((diff, dict(env)))
        return to_affine(diff, env)

    with mock.patch.object(semantics, "to_affine", record):
        for path in sorted(corpus_path("eq1").parent.glob("*.lince")):
            for mode in (Exact(), RK4()):
                # parsed afresh: desugaring keeps the statements of a unit,
                # so a second run of one unit would repeat the first's keys
                unit = parse(path.read_text())
                simulate(unit, mode, Limits(max_time=5.0), 0.5)
    rng = random.Random(7)
    seen = set()
    for diff, env in entries:
        key = (id(diff),) + tuple(map(env.get, diff.frozen))
        if key not in seen:
            seen.add(key)
            assert _agree(diff, env)
            _agree(diff, perturbed(rng, diff.frozen, env))
    assert len(seen) > 20


def _frozen_evaluated_once(diff, env) -> int | None:
    """When the statement builds under `env`, assert that its linearization
    evaluated each frozen node of its right-hand sides exactly once: each
    variable it does not bind by `eval_expr`, each operation over frozen
    operands alone by `apply_fn`.  The number of frozen nodes, or None when
    the statement did not build."""
    bound = {x for x, _ in diff.pairs}
    below = [n for _, rhs in diff.pairs for n in nodes(rhs)]
    want = {"eval_expr": [n for n in below if type(n) is Var and n.name not in bound],
            "apply_fn": [n for n in below
                         if type(n) is Apply and not expr_vars(n) & bound]}
    seen = {name: [] for name in want}

    def seeing(name):
        real = getattr(linearize, name)

        def wrapper(env, node, *args):
            seen[name].append(node)
            return real(env, node, *args)
        return wrapper

    with mock.patch.object(linearize, "eval_expr", seeing("eval_expr")), \
            mock.patch.object(linearize, "apply_fn", seeing("apply_fn")):
        try:
            linearize._linearize(diff, env)
        except HybridError:
            return None
    for name, nodes_wanted in want.items():
        assert sorted(map(id, seen[name])) == sorted(map(id, nodes_wanted)), name
        assert len(set(map(id, seen[name]))) == len(seen[name]), name
    return sum(map(len, want.values()))


def test_each_frozen_operand_has_one_leaf():
    shapes = built = 0
    for seed in range(2000):  # the statements of the every-shape test
        rng = random.Random(seed)
        bound = ["x", "y", "z"][: rng.randrange(1, 4)]
        diff = Diff(tuple((x, gen_rhs(rng, bound, ["a", "b"], 4)) for x in bound),
                    Const(1.0))
        for _ in range(3):
            count = _frozen_evaluated_once(diff, perturbed(rng, ["a", "b"], {}))
            if count is not None:
                shapes, built = shapes + count, built + 1
    corpus = 0
    for path in sorted(corpus_path("eq1").parent.glob("*.lince")):
        body = desugar(parse(path.read_text())).body
        for d in (d for d in nodes(body) if type(d) is Diff):
            corpus += _frozen_evaluated_once(d, {v: 0.5 for v in d.frozen})
    assert built > 1000 and shapes > 2000 and corpus > 40


def test_a_numpy_zero_divisor_is_a_division_by_zero_with_no_warning():
    a = _diff("x' = x / k for 1")
    for zero in (np.float64(0.0), np.float64(-0.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HybridError) as exc:
                to_affine(a, {"k": zero})
        assert exc.value.info.kind == ErrorKind.DIVISION_BY_ZERO


def test_the_compiled_form_lives_on_the_statement():
    a = _diff("x' = k*x + 1, y' = x / k - y for 1")
    fields = dict(vars(a), frozen=a.frozen)
    to_affine(a, {"k": 2.0})
    # a linearization leaves nothing on the statement but its systems
    assert vars(a) == dict(fields, _systems=a._systems)
    # its linearizations stay out of pickles and copies, which build them
    # again, bit for bit
    for env in ({"k": 2.0}, {"k": -1.5}):
        to_affine(a, env)
    for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert copied._systems == {}
        for env in ({"k": 2.0}, {"k": -1.5}):
            assert to_affine(copied, env).M.tobytes() == to_affine(a, env).M.tobytes()
    # a rejected statement raises again
    rejected = _diff("x' = x*x for 1")
    with pytest.raises(HybridError):
        to_affine(rejected, {})
    with pytest.raises(HybridError):
        to_affine(rejected, {})


def test_a_long_right_hand_side_linearizes_without_deep_recursion():
    n = 10_000
    x, a = Var("x"), Var("a")
    left = x
    for i in range(n):  # x + 2*a - a/4 + a*x - ..., left-nested
        term = (Apply("*", (Const(2.0), a)), Apply("/", (a, Const(4.0))),
                Apply("*", (a, x)), Apply("-", (x,)))[i % 4]
        left = Apply("+-"[i % 2], (left, term))
    right = x
    for i in range(n):  # a + (x - (a + ...)), right-nested
        right = Apply("+-"[i % 2], (a if i % 3 else x, right))
    frozen_head = a
    for _ in range(n):  # a + a + ... + a + x: one deep frozen operand
        frozen_head = Apply("+", (frozen_head, a))
    frozen_head = Apply("+", (frozen_head, x))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for rhs in (left, right, frozen_head):
            diff = Diff((("x", rhs),), Const(1.0))
            assert _agree(diff, {"a": 0.75})
            assert to_affine(diff, {"a": 0.75}).A[0, 0] != 0.0
    finally:
        sys.setrecursionlimit(limit)
