"""The refocused machine against the recursive step it replaced.

`reference_step` is the small-step rule set as `semantics._step` stated it
before refocusing: it descends the `Seq` spine by recursion on every step and
rebuilds it around the successor.  It is the oracle here: `machine` driving
it in place of `_step` must yield, step for step, the same pre-step program,
environment bits, residual bits and rule, and the same successor (its
program, or the terminal's bits), and return the same Outcome.
"""
import copy
import dataclasses
import operator
import pickle
from unittest import mock

import pytest

from hybridsim import corpus_path, desugar, parse, randprog, semantics
from hybridsim.errors import HybridError
from hybridsim.odesolve import RK4, Exact
from hybridsim.semantics import (Config, Err, TSkip, _atom, big_step,
                                 eval_bool, machine, outcome_bits,
                                 run_to_terminal, small_step)
from hybridsim.syntax import Atom, If, Seq, desugar_program, parse_program
from hybridsim.trajectory import expand_variability

EXACT = Exact()
CORPUS = sorted(p.stem for p in corpus_path("eq1").parent.glob("*.lince"))


# -- the oracle: the recursive step, as it stood before refocusing


def reference_step(cfg, mode):
    p, env, t = cfg.program, cfg.env, cfg.residual
    if isinstance(p, Atom):
        return _atom(p.atomic, env, t, mode)
    if isinstance(p, Seq):
        r, rule, det = reference_step(Config(p.first, env, t), mode)
        if isinstance(r, TSkip):
            return Config(p.rest, r.env, r.residual), rule, det  # (seq-skip)
        if isinstance(r, Config):
            return Config(Seq(r.program, p.rest), r.env, r.residual), rule, det
        return r, rule, det  # (seq-stop) / (seq-err)
    if isinstance(p, If):
        try:
            g = eval_bool(env, p.cond)
        except HybridError as ex:
            return Err(ex.info), "if-err", None
        if g:
            return Config(p.then, env, t), "if-true", None
        return Config(p.orelse, env, t), "if-false", None
    # While
    try:
        g = eval_bool(env, p.cond)
    except HybridError as ex:
        return Err(ex.info), "wh-err", None
    if g:
        return Config(Seq(p.body, p), env, t), "wh-true", None
    return TSkip(env, t), "wh-false", None


# -- comparing runs


def _env_bits(env):
    return tuple(sorted((k, v.hex()) for k, v in env.items()))


def _successor(r):
    if isinstance(r, Config):
        return r.program
    if isinstance(r, TSkip):
        return ("tskip", _env_bits(r.env), r.residual.hex())
    return outcome_bits(r)


def _record(steps) -> tuple:
    """(per step: pre-step program, env bits, residual bits, rule,
    successor) and the Outcome's bits."""
    out = []
    try:
        while True:
            cfg, r, rule, _ = next(steps)
            out.append((cfg.program, _env_bits(cfg.env), cfg.residual.hex(),
                        rule, _successor(r)))
    except StopIteration as done:
        return out, outcome_bits(done.value)


def _agree(program, env, t, mode):
    got = _record(machine(Config(program, dict(env), t), mode))
    calls = []

    def step(cfg, mode):
        calls.append(cfg)
        return reference_step(cfg, mode)
    with mock.patch.object(semantics, "_step", step):
        want = _record(machine(Config(program, dict(env), t), mode))
    assert len(calls) == len(want[0]) == len(got[0])
    for i, (a, b) in enumerate(zip(got[0], want[0])):
        assert a == b, (i, a, b)
    assert got[1] == want[1]
    return len(got[0])


def test_machine_matches_the_recursive_step_on_random_programs():
    steps = 0
    for seed in range(1000):
        program, env = randprog.gen_program(seed)
        steps += _agree(program, env, randprog.gen_times(seed, 1)[0], EXACT)
    assert steps > 10_000


@pytest.mark.parametrize("mode", [EXACT, RK4()], ids=["exact", "rk4"])
@pytest.mark.parametrize("name", CORPUS)
def test_machine_matches_the_recursive_step_on_the_corpus(name, mode):
    unit = desugar(parse(corpus_path(name).read_text(encoding="utf-8")))
    env = expand_variability(unit)[0][0]
    assert _agree(unit.body, env, 10.0, mode) > 1


# -- configurations

# the frozen dataclass that `Config` was before refocusing
FrozenConfig = dataclasses.make_dataclass(
    "Config", ["program", "env", "residual"], frozen=True)


def test_a_machine_config_is_a_hand_built_one():
    p = desugar_program(parse_program(
        "x := 0 ; while x <= 2 do { if x <= 1 then x := x + 1 else "
        "{ x := x + 2 ; x' = 1 for 0.5 } } ; y := x"))
    seen = 0
    for cfg, r, *_ in machine(Config(p, {}, 1.0), EXACT):
        for c in (cfg, r):
            if not isinstance(c, Config):
                continue
            twin = Config(c.program, dict(c.env), c.residual)
            assert c == twin and twin == c
            assert c == copy.copy(c) == pickle.loads(pickle.dumps(c))
            assert repr(c) == repr(twin) == repr(
                FrozenConfig(c.program, c.env, c.residual))
            with pytest.raises(TypeError, match="unhashable"):
                hash(c)
            for name in ("program", "env", "residual", "focus", "stack"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(c, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(c, name)
            seen += 1
    assert seen > 10
    assert Config(p, {}, 1.0) != Config(p, {}, 2.0)
    assert Config(p, {}, 1.0) != (p, {}, 1.0)


# A Config is a 4-tuple (focus, stack, env, residual) underneath; each case
# below pins one guard that keeps the tuple's own behaviour out of its value
# semantics, on a config whose stack holds two pending programs.

_LOOP = "x := 0 ; while x <= 1 do { x := x + 1 } ; y := 2"

# the repr of the third config of _LOOP's run, as the frozen dataclass wrote it
_STACKED_REPR = (
    "Config(program=Seq(first=Seq(first=Atom(atomic=Assign(var='x', expr=Apply("
    "fn='+', args=(Var(name='x'), Const(value=1.0))))), rest=While(cond=Leq(lhs=Var("
    "name='x'), rhs=Const(value=1.0)), body=Atom(atomic=Assign(var='x', expr=Apply("
    "fn='+', args=(Var(name='x'), Const(value=1.0))))))), rest=Atom(atomic=Assign("
    "var='y', expr=Const(value=2.0)))), env={'x': 0.0}, residual=1.5)")


def _stacked():
    """The config in focus on the loop body, with the `while` and `y := 2`
    pending; and its twin, built from its program with an empty stack."""
    p = desugar_program(parse_program(_LOOP))
    c = [cfg for cfg, *_ in machine(Config(p, {}, 1.5), EXACT)][2]
    assert isinstance(c.focus, Atom) and c.stack is not None and c.stack[1] is not None
    return c, Config(c.program, dict(c.env), c.residual)


def _check_eq(c, twin):
    assert c == twin and twin == c
    assert not c == Config(c.program, c.env, 2.5)
    # the same four items as a plain tuple are not the same value
    assert not c == tuple(c) and not tuple(c) == c


def _check_ne(c, twin):
    assert not c != twin and not twin != c
    assert c != Config(c.program, c.env, 2.5)
    assert c != tuple(c) and tuple(c) != c


def _check_order(c, twin):
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        for a, b in ((c, twin), (c, c), (c, tuple(c)), (tuple(c), c)):
            with pytest.raises(TypeError, match="Config values are not ordered"):
                op(a, b)


def _check_hash(c, twin):
    for cfg in (c, twin):
        with pytest.raises(TypeError, match="unhashable type: 'Config'"):
            hash(cfg)


def _check_frozen(c, twin):
    for name in ("program", "env", "residual", "focus", "stack", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(c, name)
    assert repr(c) == _STACKED_REPR  # nothing was written


def _check_repr(c, twin):
    assert repr(c) == repr(twin) == str(c) == _STACKED_REPR


def _check_copies(c, twin):
    copies = [pickle.loads(pickle.dumps(c, protocol)) for protocol in range(6)]
    copies += [copy.copy(c), copy.deepcopy(c)]
    for other in copies:
        assert type(other) is Config and other == c and repr(other) == _STACKED_REPR


def _check_program(c, twin):
    focus, (rest, (below, stack)) = c.focus, c.stack
    assert stack is None
    assert c.program == Seq(Seq(focus, rest), below)
    assert c.program.first.first is focus and c.program.rest is below
    assert twin.focus is twin.program and twin.stack is None
    assert len(c) == 4 and list(c) == [c.focus, c.stack, c.env, c.residual]
    assert c[2] is c.env and c[-1] == 1.5


@pytest.mark.parametrize("check", [
    _check_eq, _check_ne, _check_order, _check_hash, _check_frozen,
    _check_repr, _check_copies, _check_program,
], ids=lambda f: f.__name__[len("_check_"):])
def test_a_config_keeps_tuple_behaviour_out_of_its_value(check):
    check(*_stacked())


# -- long programs


def _left_nested(n):
    """`x := x + 1` n + 1 times, as Seq(Seq(Seq(a, a), a), ...)."""
    a = desugar_program(parse_program("x := x + 1"))
    p = a
    for _ in range(n):
        p = Seq(p, a)
    return p


def test_a_deep_left_nested_sequence_runs_in_both_semantics():
    p = _left_nested(10_000)
    big = big_step(p, {"x": 0.0}, 1.0, EXACT)
    small = run_to_terminal(Config(p, {"x": 0.0}, 1.0), EXACT)
    assert outcome_bits(big) == outcome_bits(small)
    assert big.env == {"x": 10_001.0} and big.early
    first = small_step(Config(p, {"x": 0.0}, 1.0), EXACT)
    assert first.env == {"x": 1.0}


def _reference_rules(cfg, mode):
    """`applicable_rules` as it stood: recursing into a `Seq`'s head."""
    p, env, t = cfg.program, cfg.env, cfg.residual
    if not isinstance(p, Seq):
        return semantics.applicable_rules(cfg, mode)
    out = []
    for rule in _reference_rules(Config(p.first, env, t), mode):
        if rule in ("diff-stop", "seq-stop"):
            out.append("seq-stop")
        elif rule in ("asg", "diff-skip", "wh-false"):
            out.append("seq-skip")
        elif rule.endswith("err"):
            out.append("seq-err")
        else:
            out.append("seq")
    return tuple(out)


def test_applicable_rules_walks_a_deep_left_nested_sequence():
    rest = desugar_program(parse_program("x := x + 1"))
    heads = ("x := 1", "x := 1 / 0", "x' = 1 for 2", "x' = 1 for 0.5",
             "x' = 1 for -1", "if x <= 0 then x := 1 else x := 2",
             "if q <= 0 then x := 1 else x := 2", "while x <= 0 do { x := x + 1 }",
             "while x <= -1 do { x := x + 1 }")
    seen = set()
    for text in heads:
        p = desugar_program(parse_program(text))
        for depth in range(4):
            cfg = Config(p, {"x": 0.0}, 1.0)
            rules = semantics.applicable_rules(cfg, EXACT)
            assert rules == _reference_rules(cfg, EXACT)
            seen.update(rules)
            p = Seq(p, rest)
    assert {"seq", "seq-skip", "seq-stop", "seq-err"} <= seen
    deep = Config(_left_nested(10_000), {"x": 0.0}, 1.0)
    assert semantics.applicable_rules(deep, EXACT) == ("seq",)


def _reference_repr(p):
    """The dataclass repr of a `Seq`, by recursion."""
    if isinstance(p, Seq):
        return f"Seq(first={_reference_repr(p.first)}, rest={_reference_repr(p.rest)})"
    return repr(p)


def test_a_sequence_shows_as_its_dataclass_did_however_deep():
    a = desugar_program(parse_program("x := x + 1"))
    assert repr(Seq(a, a)) == ("Seq(first=Atom(atomic=Assign(var='x', expr=Apply(fn='+', "
                               "args=(Var(name='x'), Const(value=1.0))))), rest=Atom("
                               "atomic=Assign(var='x', expr=Apply(fn='+', args=(Var("
                               "name='x'), Const(value=1.0))))))")
    for seed in range(50):
        p = randprog.gen_program(seed)[0]
        assert repr(p) == _reference_repr(p)
        assert repr(Seq(p, Seq(a, p))) == _reference_repr(Seq(p, Seq(a, p)))
    n, r = 10_000, repr(a)
    left = "Seq(first=" * n + r + (", rest=" + r + ")") * n
    assert repr(Config(_left_nested(n), {"x": 0.0}, 1.0)) == \
        f"Config(program={left}, env={{'x': 0.0}}, residual=1.0)"
    right = a
    for _ in range(n):
        right = Seq(a, right)
    assert repr(right) == ("Seq(first=" + r + ", rest=") * n + r + ")" * n


def test_small_step_refuses_a_start_the_machine_refuses():
    p = desugar_program(parse_program("x' = 1 for 1"))
    for env, t in (({"x": float("nan")}, 1.0), ({"x": 0.0}, -1.0),
                   ({"x": 0.0}, float("inf"))):
        with pytest.raises(ValueError):
            small_step(Config(p, env, t), EXACT)
        with pytest.raises(ValueError):
            run_to_terminal(Config(p, env, t), EXACT)
