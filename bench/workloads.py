"""The four benchmark workloads: their inputs, the timed operation, and the
output checks.

Each workload is a list of input slots.  A round runs every slot once, in
an order shuffled from the seed, with inputs no earlier round used: a fresh
sampling interval for the simulate workloads, a fresh instant in the slot's
time stratum for point-query and selftest.  So no timed operation repeats an
identical earlier one, while a slot's cost stays nearly the same from round
to round and its median over rounds is a steady figure.

Checks never call into the timed code path for their reference values: they
use closed forms, invariants of the method, bit-exact re-parsing of the
exported CSV, and the other semantics.
"""
from __future__ import annotations

import json
import math
import random

import hybridsim as hs
from hybridsim import randprog
from hybridsim.errors import ErrorKind
from hybridsim.export import TimeAxis

CORPUS = ("eq1", "eq2", "ex21", "zeno", "aeb", "aebom", "rlcs-under",
          "rlcs-over", "pursuit")
# the ROADMAP baseline settings
LIMITS = hs.Limits(max_time=50.0)
DT = 0.1
# each round samples with dt = DT * (1 + u), |u| < DT_JITTER, never repeated
DT_JITTER = 0.01
EXACT = hs.Exact()

TOL = {"Exact": 1e-9, "RK4": 1e-6}
# programs without loops or branches: both backends must give the same
# outcome kind on them
STRAIGHT_LINE = ("eq1", "eq2", "ex21")
EXPECTED_KIND = {"eq1": hs.Skip, "eq2": hs.Skip, "ex21": hs.Err,
                 "zeno": hs.BoundReached, "aeb": hs.Skip, "aebom": hs.Skip,
                 "rlcs-under": hs.BoundReached, "rlcs-over": hs.BoundReached,
                 "pursuit": hs.Skip}

POINT_STRATA = 6          # instants per trajectory and round
SELFTEST_PROGRAMS = 1000  # randprog programs per seed
SELFTEST_STRATA = 4       # instants per program and round, on [0, 4)


class CheckError(AssertionError):
    """An operation that did not fail produced a wrong output."""


def require(cond: bool, what: str):
    if not cond:
        raise CheckError(what)


def outcome_bits(o) -> tuple:
    """Everything an outcome says, floats as their exact bit patterns."""
    if isinstance(o, hs.Err):
        i = o.info
        return ("err", i.kind, i.message, i.src, i.line, i.col)
    env = tuple(sorted((k, v.hex()) for k, v in o.env.items()))
    if isinstance(o, hs.Stop):
        return ("stop", env)
    if isinstance(o, hs.Skip):
        return ("skip", env, o.elapsed.hex(), o.early)
    return ("bound", o.kind, env, o.elapsed.hex())


class Workload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.rng = random.Random(f"{name}/{seed}")

    def inputs(self) -> list:
        """[(slot index, operation input)] for the next round, in run order."""
        order = list(range(len(self.slots)))
        self.rng.shuffle(order)
        return [(i, self.payload(i)) for i in order]

    def payload(self, slot: int):
        raise NotImplementedError

    def op(self, payload):
        raise NotImplementedError

    def check(self, payload, result) -> bool:
        """True if the operation succeeded and its output is right, False if
        it failed; raises CheckError on a wrong output."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# simulate-exact, simulate-rk4


class Simulate(Workload):
    """Every corpus program end to end, as `hybridsim simulate` runs it:
    parse, desugar, simulate, then CSV, JSON and gnuplot export in memory."""

    def __init__(self, name: str, seed: int, mode):
        super().__init__(name, seed)
        self.mode = mode
        self.tol = TOL[type(mode).__name__]
        self.slots = list(CORPUS)
        self.texts = [hs.corpus_path(n).read_text(encoding="utf-8") for n in CORPUS]
        self._dts: set = set()
        self._dt = DT

    def inputs(self) -> list:
        dt = DT * (1 + self.rng.uniform(-DT_JITTER, DT_JITTER))
        while dt in self._dts:
            dt = DT * (1 + self.rng.uniform(-DT_JITTER, DT_JITTER))
        self._dts.add(dt)
        self._dt = dt
        return super().inputs()

    def payload(self, slot: int):
        return self.slots[slot], self.texts[slot], self._dt

    def op(self, payload):
        _name, text, dt = payload
        unit = hs.desugar(hs.parse(text))
        variables = hs.ordered_vars(unit)
        spec = hs.make_plot_spec([TimeAxis(v) for v in variables], "scatter",
                                 variables, LIMITS)
        trajs = hs.simulate(unit, self.mode, LIMITS, dt)
        csv = hs.export_csv(trajs, variables)
        doc = hs.export_json(trajs, spec, self.mode, LIMITS, variables)
        script = hs.emit_plot_script(trajs, spec)
        return variables, trajs, csv, doc, script

    def check(self, payload, result) -> bool:
        name, _text, _dt = payload
        variables, trajs, csv, doc, script = result
        check_exports(trajs, variables, csv, doc, script)
        exact_kind = EXPECTED_KIND[name]
        if name in STRAIGHT_LINE and not all(isinstance(t.outcome, exact_kind) for t in trajs):
            return False
        require(all(isinstance(t.outcome, exact_kind) for t in trajs),
                f"{name}: outcome {trajs[0].outcome!r}")
        PROGRAM_CHECKS.get(name, lambda trajs, tol: None)(trajs, self.tol)
        return True


def check_exports(trajs, variables, csv: bytes, doc: bytes, script: str):
    lines = csv.decode("utf-8").splitlines()
    require(lines[0] == "label,time," + ",".join(variables), "csv header")
    rows = iter(lines[1:])
    for traj in sorted(trajs, key=lambda tr: tr.label):
        for t, env in traj.samples:
            cells = next(rows).split(",")
            require(cells[0] == traj.label and float(cells[1]).hex() == float(t).hex(),
                    f"csv time {cells[1]} != {t!r}")
            for name, cell in zip(variables, cells[2:]):
                if name in env:
                    require(float(cell).hex() == float(env[name]).hex(),
                            f"csv {name} {cell} != {env[name]!r}")
                else:
                    require(cell == "", f"csv {name} not empty")
    require(next(rows, None) is None, "csv has extra rows")
    parsed = json.loads(doc)
    require([len(t["samples"]) for t in parsed["trajectories"]]
            == [len(t.samples) for t in trajs], "json sample counts")
    require(script.count(" << EOD\n") == len(variables) * (len(trajs) + 2),
            "plot data blocks")


def _eq1(trajs, tol):
    for t, env in trajs[0].samples:
        if t <= 1:
            want = t * t
        elif t <= 2:
            want = 1 + 2 * (t - 1) - (t - 1) ** 2
        else:
            want = 2.0
        require(abs(env["p"] - want) <= tol, f"eq1 p({t}) = {env['p']!r}, want {want!r}")


def _eq2(trajs, tol):
    out = trajs[0].outcome
    require(abs(out.env["p"] - 3) <= tol and abs(out.env["v"]) <= tol
            and abs(out.elapsed - 2 * math.sqrt(3)) <= tol, f"eq2 ends at {out!r}")


def _ex21(trajs, tol):
    require(trajs[0].outcome.info.kind == ErrorKind.DIVISION_BY_ZERO,
            f"ex21 error {trajs[0].outcome.info.kind}")


def _zeno(trajs, tol):
    require(abs(trajs[0].outcome.elapsed - 1) <= tol,
            f"zeno bound at t={trajs[0].outcome.elapsed!r}")


def _aeb(trajs, tol):
    env = trajs[0].outcome.env
    require(env["v"] <= 0.001 and env["x"] < 30, f"aeb stops at {env!r}")


def _aebom(trajs, tol):
    require(len(trajs) == 9, f"aebom has {len(trajs)} trajectories")
    for traj in trajs:
        for t, env in traj.samples:
            require(abs(env["ux"] ** 2 + env["uy"] ** 2 - 1) <= tol,
                    f"aebom heading not unit at t={t}")


def _pursuit(trajs, tol):
    def speed(env):
        return math.sqrt(env["vxp"] ** 2 + env["vyp"] ** 2 + env["vzp"] ** 2)
    s0 = speed(trajs[0].samples[0][1])
    for t, env in trajs[0].samples:
        require(abs(speed(env) - s0) <= tol * s0, f"pursuer speed changes at t={t}")


PROGRAM_CHECKS = {"eq1": _eq1, "eq2": _eq2, "ex21": _ex21, "zeno": _zeno,
                  "aeb": _aeb, "aebom": _aebom, "pursuit": _pursuit}


# ---------------------------------------------------------------------------
# point-query


class PointQuery(Workload):
    """`big_step` at seeded instants on every corpus trajectory, in exact
    mode, as `run --time T` and `consistency_check` use it.  Slots are
    (trajectory, stratum); a slot's instant is drawn afresh each round
    within its stratum of the trajectory's time span."""

    def __init__(self, name: str, seed: int):
        super().__init__(name, seed)
        self.slots = []
        for prog in CORPUS:
            unit = hs.desugar(hs.parse(hs.corpus_path(prog).read_text(encoding="utf-8")))
            for traj in hs.simulate(unit, EXACT, LIMITS, DT):
                horizon = traj.segments[-1].t_end
                scale = {}
                for _, env in traj.samples:
                    for var, v in env.items():
                        scale[var] = max(scale.get(var, 1.0), abs(v))
                for k in range(POINT_STRATA):
                    self.slots.append((prog, unit.body, traj, horizon, k, scale))
        self._used = [set() for _ in self.slots]

    def payload(self, slot: int):
        prog, body, traj, horizon, k, scale = self.slots[slot]
        t = horizon
        while t >= horizon or t in self._used[slot]:
            t = horizon * (k + self.rng.random()) / POINT_STRATA
        self._used[slot].add(t)
        return f"{prog} {traj.label}".rstrip(), body, traj, t, scale

    def op(self, payload):
        _where, body, traj, t, _scale = payload
        return hs.big_step(body, traj.initial_env, t, EXACT, LIMITS)

    def check(self, payload, result) -> bool:
        where, body, traj, t, scale = payload
        require(isinstance(result, (hs.Stop, hs.Skip)),
                f"{where}: no state at t={t}: {result!r}")
        small = hs.run_to_terminal(hs.Config(body, dict(traj.initial_env), t), EXACT, LIMITS)
        require(outcome_bits(result) == outcome_bits(small),
                f"{where}: big-step {result!r} != small-step {small!r} at t={t}")
        got = hs.interp_at(traj, t)
        for name, want in result.env.items():
            require(abs(got[name] - want) <= TOL["Exact"] * scale[name],
                    f"{where}: {name}({t}) is {got[name]!r} on the trajectory, "
                    f"{want!r} by big-step")
        return True


# ---------------------------------------------------------------------------
# selftest


class Selftest(Workload):
    """Random programs from `randprog` checked as `hybridsim selftest` does:
    big-step and small-step on one (program, instant) pair must agree bit
    for bit.  Slots are (program, stratum of [0, 4)); instants lie on the
    dyadic grid k/1024."""

    def __init__(self, name: str, seed: int):
        super().__init__(name, seed)
        self.programs = [randprog.gen_program(j) for j in range(SELFTEST_PROGRAMS)]
        self.slots = [(j, k) for j in range(SELFTEST_PROGRAMS)
                      for k in range(SELFTEST_STRATA)]
        self._used = [set() for _ in self.programs]

    def payload(self, slot: int):
        j, k = self.slots[slot]
        width = 4 * 1024 // SELFTEST_STRATA
        while True:
            tick = self.rng.randrange(k * width, (k + 1) * width)
            if tick not in self._used[j]:
                break
        self._used[j].add(tick)
        program, env = self.programs[j]
        return program, env, tick / 1024

    def op(self, payload):
        program, env, t = payload
        big = hs.big_step(program, env, t, EXACT)
        small = hs.run_to_terminal(hs.Config(program, dict(env), t), EXACT)
        return big, small

    def check(self, payload, result) -> bool:
        big, small = result
        require(outcome_bits(big) == outcome_bits(small),
                f"big-step {big!r} != small-step {small!r} at t={payload[2]}")
        return True


def make(name: str, seed: int) -> Workload:
    if name == "simulate-exact":
        return Simulate(name, seed, EXACT)
    if name == "simulate-rk4":
        return Simulate(name, seed, hs.RK4())
    if name == "point-query":
        return PointQuery(name, seed)
    if name == "selftest":
        return Selftest(name, seed)
    raise ValueError(f"unknown workload {name!r}")
