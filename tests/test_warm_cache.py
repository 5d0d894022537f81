"""A warm cache changes nothing: a second run in the same process, served
from the `to_affine` cache, the flow-map memo and the state memo, gives the
same bytes and outcomes as the first, cold one."""
import pytest

import hybridsim as hs
from hybridsim import linearize, odesolve, randprog
from hybridsim.export import TimeAxis
from hybridsim.semantics import Limits, big_step
from conftest import load_core

ALL = ("eq1", "eq2", "ex21", "zeno", "aeb", "aebom",
       "rlcs-under", "rlcs-over", "pursuit")
LIMITS = Limits(max_time=10.0)


def _cold():
    """Empty every memo, so the next run computes each system, flow map and
    state afresh."""
    linearize._systems.clear()
    odesolve._flow.cache_clear()
    odesolve._state.cache_clear()


def _exports(unit, mode) -> tuple:
    variables = hs.ordered_vars(unit)
    spec = hs.make_plot_spec([TimeAxis(v) for v in variables], "scatter",
                             variables, LIMITS)
    trajs = hs.simulate(unit, mode, LIMITS, 0.1)
    return (hs.export_csv(trajs, variables),
            hs.export_json(trajs, spec, mode, LIMITS, variables),
            hs.emit_plot_script(trajs, spec))


@pytest.mark.parametrize("mode", [hs.Exact(), hs.RK4()], ids=["exact", "rk4"])
@pytest.mark.parametrize("name", ALL)
def test_warm_simulate_exports_equal_cold(name, mode):
    _cold()
    unit = load_core(name)
    cold = _exports(unit, mode)
    warm = _exports(unit, mode)
    assert warm == cold


def test_warm_big_step_equals_cold():
    """Full reprs, so error environments are compared too."""
    _cold()
    for seed in range(200):
        program, env = randprog.gen_program(seed)
        times = randprog.gen_times(seed, 3)
        cold = [repr(big_step(program, env, t, hs.Exact())) for t in times]
        warm = [repr(big_step(program, env, t, hs.Exact())) for t in times]
        assert warm == cold, seed
