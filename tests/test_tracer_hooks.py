"""The benchmark's span tracer (`bench/spans.py`) counts work by replacing
library names with wrappers.  These tests pin those hooks: the library must
keep calling each name the tracer patches, and the tracer must put every
name back."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import hybridsim
from hybridsim import (Exact, Limits, RK4, corpus_path, linearize, odesolve,
                       semantics, trajectory)

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# every namespace the tracer patches a name in
NAMESPACES = (hybridsim, semantics, trajectory, linearize, odesolve,
              odesolve.Solution)

# (namespace, name) the library must look up at each call, as it does now
HOOKS = ((semantics, "to_affine"), (semantics, "Solution"),
         (odesolve.Solution, "at"), (odesolve, "expm"), (odesolve, "_rk4_step"),
         (semantics, "_step"), (trajectory, "_step"))


@pytest.fixture(scope="module")
def Tracer():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer


def _snapshot() -> list:
    # scipy's expm loaded first, so its lazy import is not taken for a patch
    # left behind when this file runs alone
    odesolve.expm(np.zeros((1, 1)))
    return [dict(vars(ns)) for ns in NAMESPACES]


def test_tracer_counts_the_work_of_an_exact_query_and_an_rk4_simulation(Tracer):
    text = corpus_path("eq1").read_text(encoding="utf-8")
    before = _snapshot()
    tracer = Tracer()
    with tracer.installed():
        for ns, name in HOOKS:
            assert vars(ns)[name] is not before[NAMESPACES.index(ns)][name], name
        with tracer.op("hooks"):
            # parsed afresh: new statements, so new systems and a fresh memo
            unit = hybridsim.desugar(hybridsim.parse(text))
            out = hybridsim.big_step(unit.body, {}, 1.5, Exact())
            trajs = hybridsim.simulate(unit, RK4(), Limits(max_time=2.0), 0.5)
    assert isinstance(out, hybridsim.Stop)
    assert isinstance(trajs[0].outcome, hybridsim.Skip)
    m = {name: v["value"] for name, v in tracer.metrics(0.0).items()}
    for name in ("linearize.to_affine_calls", "odesolve.solutions",
                 "odesolve.at_calls", "odesolve.rk4_steps", "eval.calls",
                 "odesolve.expm_calls", "semantics.steps",
                 "semantics.big_step_calls", "trajectory.segments"):
        assert m[name] > 0, name
    # one Solution per entry into a differential statement: two in each run
    assert m["linearize.to_affine_calls"] == m["odesolve.solutions"] == 4
    # every patched name is restored
    after = _snapshot()
    for ns, old, new in zip(NAMESPACES, before, after):
        assert new.keys() == old.keys()
        for name, value in old.items():
            assert new[name] is value, (ns, name)

