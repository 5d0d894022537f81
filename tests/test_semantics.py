import copy
import math
import pickle

import pytest

from hybridsim.errors import ErrorKind, HybridError
from hybridsim import semantics
from hybridsim.odesolve import Exact, RK4
from hybridsim.semantics import (BoundKind, BoundReached, Config, Err, Limits,
                                 Skip, Stop, TSkip,
                                 applicable_rules, big_step, eval_bool,
                                 eval_expr, machine, outcome_bits,
                                 run_to_terminal, small_step)
from hybridsim.syntax import (desugar_bool, desugar_program, parse_boolean,
                              parse_expression, parse_program)
from hybridsim.trajectory import expand_variability
from conftest import load_core

EXACT = Exact()


def prog(text):
    return desugar_program(parse_program(text))


def cond(text):
    return desugar_bool(parse_boolean(text))


# -- expression evaluation

def test_eval_division_by_zero():
    with pytest.raises(HybridError) as exc:
        eval_expr({"x": 0.0}, parse_expression("1/x"))
    assert exc.value.info.kind == ErrorKind.DIVISION_BY_ZERO


def test_eval_addition():
    assert eval_expr({"x": 1.0}, parse_expression("x + 1")) == 2.0


def test_eval_sqrt():
    assert eval_expr({}, parse_expression("sqrt(3)")) == pytest.approx(
        math.sqrt(3.0), rel=1e-15)


def test_eval_domain_errors():
    for text in ("sqrt(-1)", "ln(0)", "ln(-2)", "pow(-2, 0.5)"):
        with pytest.raises(HybridError) as exc:
            eval_expr({}, parse_expression(text))
        assert exc.value.info.kind == ErrorKind.DOMAIN_ERROR


def test_eval_non_finite_intermediate_is_domain_error():
    with pytest.raises(HybridError) as exc:
        eval_expr({}, parse_expression("exp(1000)"))
    assert exc.value.info.kind == ErrorKind.DOMAIN_ERROR


def test_eval_uninitialized_variable():
    with pytest.raises(HybridError) as exc:
        eval_expr({}, parse_expression("q + 1"))
    assert exc.value.info.kind == ErrorKind.UNINITIALIZED_VARIABLE


def test_eval_functions():
    env = {}
    assert eval_expr(env, parse_expression("min(2, -3)")) == -3.0
    assert eval_expr(env, parse_expression("max(2, -3)")) == 2.0
    assert eval_expr(env, parse_expression("pow(2, 10)")) == 1024.0
    assert eval_expr(env, parse_expression("cos(0)")) == 1.0


def test_eval_bool_basic():
    assert eval_bool({"x": 1.0}, cond("x <= 1")) is True
    assert eval_bool({}, cond("tt && ff")) is False


def test_eval_bool_takes_desugared_conditions_only():
    surface = parse_boolean("x < 1")
    with pytest.raises(TypeError, match="desugar_bool"):
        eval_bool({"x": 0.0}, surface)
    assert eval_bool({"x": 0.0}, desugar_bool(surface)) is True


def test_eval_bool_does_not_short_circuit():
    # the left disjunct is undefined, so the whole condition is undefined
    # even though the right one is 'tt'
    with pytest.raises(HybridError):
        eval_bool({"x": 0.0}, cond("(1/x <= 1) || tt"))
    with pytest.raises(HybridError):
        eval_bool({"x": 0.0}, cond("tt || (1/x <= 1)"))
    with pytest.raises(HybridError):
        eval_bool({"x": 0.0}, cond("ff && (1/x <= 1)"))


# -- big-step evaluation

def test_big_step_eq1_at_two():
    p = prog("p' = v, v' = 2 for 1 ; p' = v, v' = -2 for 1")
    out = big_step(p, {"p": 0.0, "v": 0.0}, 2.0, EXACT)
    assert isinstance(out, Skip) and not out.early
    assert out.env["p"] == pytest.approx(2.0, abs=1e-9)
    assert out.env["v"] == pytest.approx(0.0, abs=1e-9)


def test_big_step_ex21_inside():
    p = prog("x' = -1 for 1 ; x := 1/x")
    out = big_step(p, {"x": 1.0}, 0.5, EXACT)
    assert out == Stop({"x": 0.5})


def test_big_step_ex21_fails_from_one():
    p = prog("x' = -1 for 1 ; x := 1/x")
    out = big_step(p, {"x": 1.0}, 1.5, EXACT)
    assert isinstance(out, Err)
    assert out.info.kind == ErrorKind.DIVISION_BY_ZERO


def test_big_step_zeno_inside_second_segment():
    p = prog("while x != 0 do { x' = -1 for x/2 } ; x := 1/x")
    out = big_step(p, {"x": 1.0}, 0.6, EXACT)
    assert isinstance(out, Stop)
    assert out.env["x"] == pytest.approx(0.4, abs=1e-12)


def test_big_step_zeno_hits_iteration_bound():
    p = prog("while x != 0 do { x' = -1 for x/2 } ; x := 1/x")
    out = big_step(p, {"x": 1.0}, 1.0, EXACT, Limits(max_iterations=1000))
    assert isinstance(out, BoundReached)
    assert out.kind == BoundKind.MAX_ITERATIONS


def test_big_step_assignment_consumes_no_time():
    p = prog("x := 2")
    out0 = big_step(p, {}, 0.0, EXACT)
    assert out0 == Skip({"x": 2.0}, elapsed=0.0, early=False)
    out1 = big_step(p, {}, 1.0, EXACT)
    assert isinstance(out1, Skip) and out1.early and out1.elapsed == 0.0


def test_big_step_negative_duration():
    p = prog("x' = 1 for -2")
    out = big_step(p, {"x": 0.0}, 1.0, EXACT)
    assert isinstance(out, Err)
    assert out.info.kind == ErrorKind.NEGATIVE_DURATION


def test_big_step_undefined_duration():
    p = prog("x' = 1 for 1/y")
    out = big_step(p, {"x": 0.0, "y": 0.0}, 1.0, EXACT)
    assert isinstance(out, Err)
    assert out.info.kind == ErrorKind.DIVISION_BY_ZERO


def test_big_step_duration_may_use_diff_variable():
    # the duration is evaluated once, on entry
    p = prog("x' = -1 for x/2")
    out = big_step(p, {"x": 1.0}, 0.5, EXACT)
    assert isinstance(out, Skip) and out.env["x"] == pytest.approx(0.5, abs=1e-12)


def test_big_step_uninitialized_diff_variable():
    p = prog("x' = 1 for 1")
    out = big_step(p, {}, 0.5, EXACT)
    assert isinstance(out, Err)
    assert out.info.kind == ErrorKind.UNINITIALIZED_VARIABLE


def test_big_step_nonlinear_ode_reported():
    p = prog("x' = x*x for 1")
    out = big_step(p, {"x": 1.0}, 0.5, EXACT)
    assert isinstance(out, Err)
    assert out.info.kind == ErrorKind.NON_LINEAR_ODE


def test_big_step_if_guard_error():
    p = prog("if 1/x <= 1 then y := 1 else y := 2")
    out = big_step(p, {"x": 0.0}, 0.0, EXACT)
    assert isinstance(out, Err)


def test_big_step_rk4_mode():
    p = prog("p' = v, v' = 2 for 1 ; p' = v, v' = -2 for 1")
    out = big_step(p, {"p": 0.0, "v": 0.0}, 2.0, RK4())
    assert out.env["p"] == pytest.approx(2.0, abs=1e-9)


# -- small-step machine

def test_small_step_assignment_terminal():
    r = small_step(Config(prog("x := 2"), {}, 0.0), EXACT)
    assert r == TSkip({"x": 2.0}, 0.0)


def test_a_fast_built_tskip_is_a_tskip():
    """TSkips built past the named tuple's `__new__` (an assignment, a
    differential skip, a false loop guard, the end of a big-step run) are
    the ones `TSkip(env, t)` builds."""
    found = [semantics._atom(prog("x := 2").atomic, {}, 1.0, EXACT)[0],
             semantics._atom(prog("x' = 1 for 0.5").atomic, {"x": 0.0}, 1.0, EXACT)[0],
             small_step(Config(prog("while x <= 0 do { x := 1 }"), {"x": 1.0}, 1.0), EXACT),
             semantics._big(prog("x := 2 ; x' = 1 for 0.5"), {}, 1.0, EXACT, Limits())]
    for r in found:
        twin = TSkip(r.env, r.residual)
        assert type(r) is TSkip and r._fields == ("env", "residual")
        assert (r.env, r.residual) == (r[0], r[1]) == tuple(twin)
        assert r == twin and hash(r.residual) == hash(twin.residual)
        assert repr(r) == repr(twin)
        assert r._replace(residual=9.0) == twin._replace(residual=9.0)
        assert type(r._replace(residual=9.0)) is TSkip
        assert r._asdict() == twin._asdict()


def test_small_step_diff_stop():
    r = small_step(Config(prog("x' = -1 for 1"), {"x": 1.0}, 0.3), EXACT)
    assert isinstance(r, Stop)
    assert r.env["x"] == pytest.approx(0.7, abs=1e-12)


def test_small_step_while_undefined_guard():
    p = prog("while 1/x <= 1 do { x := 1 }")
    r = small_step(Config(p, {"x": 0.0}, 1.0), EXACT)
    assert isinstance(r, Err)


def test_small_step_seq_threads_residual():
    p = prog("x' = -1 for 1 ; y := x")
    c1 = small_step(Config(p, {"x": 1.0}, 2.5), EXACT)
    assert isinstance(c1, Config) and c1.residual == 1.5
    assert c1.env["x"] == pytest.approx(0.0, abs=1e-12)


def test_run_to_terminal_eq1():
    p = prog("p' = v, v' = 2 for 1 ; p' = v, v' = -2 for 1")
    out = run_to_terminal(Config(p, {"p": 0.0, "v": 0.0}, 2.0), EXACT)
    assert isinstance(out, Skip) and not out.early and out.elapsed == 2.0


def test_run_to_terminal_zero_iteration_budget():
    p = prog("while tt do { x := 1 }")
    out = run_to_terminal(Config(p, {}, 1.0), EXACT, Limits(max_iterations=0))
    assert isinstance(out, BoundReached)
    assert out.kind == BoundKind.MAX_ITERATIONS


def test_big_step_zero_iteration_budget_matches():
    p = prog("while tt do { x := 1 }")
    out = big_step(p, {}, 1.0, EXACT, Limits(max_iterations=0))
    assert isinstance(out, BoundReached)


def test_terminated_early_reports_elapsed():
    p = prog("x' = -1 for 1")
    out = run_to_terminal(Config(p, {"x": 1.0}, 3.0), EXACT)
    assert isinstance(out, Skip) and out.early
    assert out.elapsed == pytest.approx(1.0, abs=1e-12)
    big = big_step(p, {"x": 1.0}, 3.0, EXACT)
    assert big == out


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["x", "k"])  # a bound and a frozen variable
def test_non_finite_initial_value_is_refused_up_front(name, value):
    p = prog("y := 2 ; x' = k*x for 1")
    env = {"x": 1.0, "k": 1.0, name: value}
    with pytest.raises(ValueError, match=f"initial value of {name} must be finite"):
        big_step(p, env, 0.0, EXACT)
    # the small-step driver refuses at the call, before any step
    with pytest.raises(ValueError, match=f"initial value of {name} must be finite"):
        machine(Config(p, env, 0.5), RK4())
    with pytest.raises(ValueError, match=f"initial value of {name} must be finite"):
        run_to_terminal(Config(p, env, 0.5), EXACT)


def test_an_int_beyond_float_range_is_refused_up_front():
    """math.isfinite raises OverflowError on such an int; the refusal is
    the documented ValueError, from every entry point."""
    p = prog("x := 1 ; x' = a*x for 1")
    env = {"a": 10**400}
    with pytest.raises(ValueError, match="initial value of a must be finite"):
        big_step(p, env, 0.5, EXACT)
    with pytest.raises(ValueError, match="initial value of a must be finite"):
        small_step(Config(p, env, 0.5), EXACT)
    with pytest.raises(ValueError, match="initial value of a must be finite"):
        machine(Config(p, env, 0.5), RK4())
    with pytest.raises(ValueError, match="finite and non-negative"):
        big_step(p, {}, 10**400, EXACT)
    # an int in float range still runs
    assert isinstance(big_step(p, {"a": 2}, 0.5, EXACT), Stop)


@pytest.mark.parametrize("t", [-0.5, math.inf, math.nan])
def test_a_negative_or_non_finite_time_is_refused_up_front(t):
    """An infinite instant used to run to completion and report
    `elapsed=nan`."""
    p = prog("x' = -x for 1")
    with pytest.raises(ValueError, match="finite and non-negative"):
        machine(Config(p, {"x": 1.0}, t), EXACT)
    with pytest.raises(ValueError, match="finite and non-negative"):
        big_step(p, {"x": 1.0}, t, EXACT)


def test_outcome_bits_tell_the_sign_of_zero():
    assert Skip({"x": -0.0}) == Skip({"x": 0.0})  # why `==` cannot serve
    assert outcome_bits(Skip({"x": -0.0})) != outcome_bits(Skip({"x": 0.0}))
    assert outcome_bits(Stop({"x": -0.0})) != outcome_bits(Stop({"x": 0.0}))
    assert (outcome_bits(Skip({"x": 1.0}, elapsed=-0.0))
            != outcome_bits(Skip({"x": 1.0}, elapsed=0.0)))
    assert outcome_bits(Skip({"x": 1.0}, 2.0, True)) == outcome_bits(Skip({"x": 1.0}, 2.0, True))
    assert outcome_bits(Skip({"x": 1.0})) != outcome_bits(Stop({"x": 1.0}))


def test_outcome_bits_compare_errors_without_their_environment():
    p = prog("x := 1/y")
    a = big_step(p, {"y": 0.0}, 1.0, EXACT)
    b = big_step(p, {"y": -0.0, "z": 5.0}, 1.0, EXACT)
    assert isinstance(a, Err) and a.info.env != b.info.env
    assert outcome_bits(a) == outcome_bits(b)
    c = big_step(prog("x := 2/y"), {"y": 0.0}, 1.0, EXACT)
    assert outcome_bits(a) != outcome_bits(c)


# -- error rendering

def test_error_render_format():
    p = prog("x := rU/(c)")
    out = big_step(p, {"rU": 0.5, "c": 0.0}, 0.0, EXACT)
    assert isinstance(out, Err)
    rendered = out.info.render()
    assert rendered.startswith("Error: the divisor of the division 'rU/(c)' is zero at ")
    assert rendered == f"Error: the divisor of the division 'rU/(c)' is zero at {out.info.line}:{out.info.col}"


def test_applicable_rules_shapes():
    c = Config(prog("x := 1"), {}, 0.0)
    assert applicable_rules(c, EXACT) == ("asg",)
    c = Config(prog("x' = -1 for 1"), {"x": 1.0}, 0.3)
    assert applicable_rules(c, EXACT) == ("diff-stop",)
    c = Config(prog("x' = -1 for 1"), {"x": 1.0}, 1.0)
    assert applicable_rules(c, EXACT) == ("diff-skip",)
    c = Config(prog("x' = -1 for 1 ; y := 1"), {"x": 1.0}, 0.3)
    assert applicable_rules(c, EXACT) == ("seq-stop",)
    c = Config(prog("while tt do { x := 1 }"), {}, 0.0)
    assert applicable_rules(c, EXACT) == ("wh-true",)
    c = Config(prog("if 1/x <= 0 then x := 1 else x := 2"), {"x": 0.0}, 0.0)
    assert applicable_rules(c, EXACT) == ("if-err",)


# -- units are plain data, before and after evaluation


@pytest.mark.parametrize("evaluated", [False, True], ids=["fresh", "evaluated"])
@pytest.mark.parametrize("name", ["aebom", "ex21", "zeno", "pursuit"])
def test_a_unit_survives_pickle_and_deepcopy(name, evaluated):
    # evaluation compiles code onto the nodes it reaches; copies leave it out
    unit = load_core(name)
    env = expand_variability(unit)[0][0]
    if evaluated:
        big_step(unit.body, env, 1.5, EXACT)
    for twin in (pickle.loads(pickle.dumps(unit)), copy.deepcopy(unit)):
        assert twin == unit
        for t in (0.7, 1.5):
            assert (outcome_bits(big_step(twin.body, env, t, EXACT))
                    == outcome_bits(big_step(unit.body, env, t, EXACT)))
