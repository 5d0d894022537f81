"""Pinned error records: every ErrorKind, with its message, blamed source
text and position, under both semantics and both solver modes."""
import pytest

from hybridsim.errors import ErrorKind
from hybridsim.odesolve import Exact, RK4
from hybridsim.semantics import Config, Err, big_step, run_to_terminal
from hybridsim.syntax import Apply, Assign, Atom, Const, desugar, parse

K = ErrorKind

# (program, query instant, (kind, message, src, line, col))
PARSED = [
    ("x := 1/0", 0.0,
     (K.DIVISION_BY_ZERO, "the divisor of the division '1/0' is zero", "1/0", 1, 6)),
    ("x := sqrt(-1)", 0.0,
     (K.DOMAIN_ERROR, "the expression 'sqrt(-1)' is undefined", "sqrt(-1)", 1, 6)),
    ("x := y + 1", 0.0,
     (K.UNINITIALIZED_VARIABLE, "the variable 'y' is not initialised", "y", 1, 6)),
    ("x' = 1 for 1", 0.5,
     (K.UNINITIALIZED_VARIABLE, "the variable 'x' is not initialised", "x", 1, 1)),
    ("x := 1 ; x' = x*x for 1", 0.5,
     (K.NON_LINEAR_ODE,
      "the ODEs contain non-linear expressions after de-sugaring: 'x*x'", "x*x", 1, 15)),
    ("x := 0 ; x' = 1 for -1", 0.5,
     (K.NEGATIVE_DURATION, "the duration '-1' is negative", "-1", 1, 21)),
    ("x := 1 ; y := 1 ; x' = -x, y' = 100*y for 10", 10.0,
     (K.SOLVER_FAILURE, "the solver failed on 'x' = -x, y' = 100*y for 10'",
      "x' = -x, y' = 100*y for 10", 1, 19)),
    ("x := 1 ; x' = 1e308*x + 1e308*x for 1", 0.5,
     (K.DOMAIN_ERROR, "the expression 'x' = 1e308*x + 1e308*x for 1' is undefined",
      "x' = 1e308*x + 1e308*x for 1", 1, 10)),
]

# a hand-built node carries neither src nor loc: the src is pretty-printed
# and the position is 0:0
ARITY = (Atom(Assign("x", Apply("sqrt", (Const(1.0), Const(2.0))))), 0.0,
         (K.ARITY_ERROR, "the function 'sqrt' expects 1 argument(s), got 2",
          "sqrt(1.0, 2.0)", 0, 0))

CASES = [(desugar(parse(text)).body, t, want) for text, t, want in PARSED] + [ARITY]
IDS = [text for text, _, _ in PARSED] + ["hand-built arity"]


def _big(p, t, mode):
    return big_step(p, {}, t, mode)


def _small(p, t, mode):
    return run_to_terminal(Config(p, {}, t), mode)


@pytest.mark.parametrize("mode", [Exact(), RK4()], ids=["exact", "rk4"])
@pytest.mark.parametrize("run", [_big, _small], ids=["big", "small"])
@pytest.mark.parametrize("p, t, want", CASES, ids=IDS)
def test_error_record_is_pinned(p, t, want, run, mode):
    out = run(p, t, mode)
    assert isinstance(out, Err)
    i = out.info
    assert (i.kind, i.message, i.src, i.line, i.col) == want


def test_pinned_cases_cover_every_kind():
    assert {want[0] for _, _, want in CASES} == set(ErrorKind)
