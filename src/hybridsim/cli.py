"""Command-line front end.

Subcommands:
  check FILE      run the leading assignments from the declared values, then
                  linearize every differential statement against their values;
                  one reading an undeclared name set before it waits for a run
  run FILE        print the environment the program outputs at --time T
  simulate FILE   full pipeline: expand initial conditions, simulate,
                  export CSV/JSON/plot-script files
  selftest        differential test of the two semantics on random programs

Exit codes: 0 ok, 1 program error, 2 usage or parse error (a bad numeric
flag, flags that ask for more work than a budget below, and running out of
memory, included), 3 bound reached.  The environment variable
HYBRIDSIM_MAX_PRODUCT, a positive integer, overrides the cap on the number
of initial-condition combinations (default 64).

Work whose size the flags fix is refused before it starts: `run` and
`simulate` unfold while-loops at most MAX_ITERATIONS times per trajectory
(`--max-iter`), `simulate` takes at most MAX_SAMPLES samples per trajectory
(max-time/dt), and under `--solver rk4` a trajectory at most MAX_RK4_STEPS
steps (time/rk4-step, with the `--max-time` of `simulate`, and a step of
1e-3, the default step's cap, when `--rk4-step` is not given).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .errors import HybridError
from .odesolve import Exact, RK4, default_rk4_step
from .semantics import (BoundReached, Err, Limits, Skip, Stop, big_step,
                        eval_expr, outcome_bits, run_to_terminal, Config)
from .syntax import (Assign, Diff, If, ParseError, SourceUnit, VarList, While, desugar,
                     nodes, ordered_vars, parse)
from .linearize import to_affine
from .trajectory import (DEFAULT_VARIABILITY_CAP, VariabilityCapExceeded,
                         expand_variability, fmt_value, simulate)
from .export import (AxisSyntaxError, TimeAxis, UnknownVariable, emit_plot_script,
                     export_csv, export_json, make_plot_spec, parse_axes)

EXIT_OK = 0
EXIT_PROGRAM_ERROR = 1
EXIT_USAGE = 2
EXIT_BOUND = 3

MAX_ITERATIONS = 100_000
MAX_SAMPLES = 1_000_000
MAX_RK4_STEPS = 10_000_000


def _number(accept, what: str, kind=float):
    """An argparse `type=` that takes finite `kind` values satisfying `accept`."""
    def convert(raw: str):
        try:
            v = kind(raw)
            ok = math.isfinite(v) and accept(v)
        except (ValueError, OverflowError):  # an integer too large for a float
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"expected {what}, got {raw!r}")
        return v
    return convert


_non_negative = _number(lambda v: v >= 0.0, "a finite number >= 0")
_positive = _number(lambda v: v > 0.0, "a finite number > 0")
_count = _number(lambda v: v >= 0, "an integer >= 0", int)
_positive_count = _number(lambda v: v >= 1, "an integer >= 1", int)


def _cap() -> int:
    raw = os.environ.get("HYBRIDSIM_MAX_PRODUCT")
    if raw is None:
        return DEFAULT_VARIABILITY_CAP
    if not (raw.isdecimal() and int(raw) > 0):
        raise argparse.ArgumentTypeError(
            f"HYBRIDSIM_MAX_PRODUCT must be a positive integer, got {raw!r}")
    return int(raw)


def _load(path: str) -> SourceUnit:
    """The desugared unit of the program in `path`."""
    return desugar(parse(Path(path).read_text(encoding="utf-8")))


def _budget(count: float, budget: int, what: str, remedy: str):
    """Refuse flags that ask for more than `budget` units of work."""
    if count > budget:
        raise argparse.ArgumentTypeError(
            f"this asks for {count:.3g} {what}, over the budget of {budget}; "
            f"give {remedy}")


def _settings(args, time: float, dt: float | None = None) -> tuple:
    """(mode, limits) of a run up to `time`, sampled every `dt` by
    `simulate`, once the flags are within every budget, checked in this
    order: while-unfoldings, samples, RK4 steps.  Without --rk4-step, RK4
    steps are counted with 1e-3, the default step's cap, which the default
    step equals on every segment longer than 16 ms."""
    _budget(args.max_iter, MAX_ITERATIONS, "while-unfoldings per trajectory",
            "a smaller --max-iter")
    if dt is not None:
        if not dt > 0.0:  # max-time/500 underflows for a subnormal --max-time
            raise argparse.ArgumentTypeError(
                f"sampling interval max-time/500 is {dt!r}; give --dt")
        _budget(time / dt, MAX_SAMPLES, "samples per trajectory", "a larger --dt")
    mode = Exact()
    if args.solver == "rk4":
        mode = RK4(args.rk4_step)
        step = args.rk4_step if args.rk4_step is not None else default_rk4_step(None)
        _budget(time / step, MAX_RK4_STEPS, "RK4 steps per trajectory", "a larger --rk4-step")
    return mode, Limits(max_time=time, max_iterations=args.max_iter)


def cmd_check(args) -> int:
    unit = _load(args.file)
    declared = {}
    for d in unit.declarations:
        declared[d.var] = d.values[0] if isinstance(d, VarList) else d.expr.value
    env = dict(declared)  # then the values the leading assignments reach
    leading = True  # no differential statement, `if` or `while` yet
    set_before = set()  # names the body may have set, in program order
    linearized = failures = deferred = 0
    for node in nodes(unit.body):
        t = type(node)
        leading = leading and t not in (Diff, If, While)
        if t is While:  # a later iteration sees every name the body sets
            set_before.update(n.var if type(n) is Assign else n[0]
                              for n in nodes(node.body) if type(n) in (Assign, tuple))
        elif t is Assign:
            set_before.add(node.var)
            if leading:  # it takes no time, so every run performs it
                try:
                    env[node.var] = eval_expr(env, node.expr)
                except HybridError as ex:
                    print(ex.info.render())
                    return EXIT_PROGRAM_ERROR
        elif t is tuple:  # a differential statement's (variable, right-hand side)
            set_before.add(node[0])
        elif t is Diff and any(x in set_before and x not in declared for x in node.frozen):
            deferred += 1  # a value it reads exists only at run time
        elif t is Diff:
            try:
                to_affine(node, env)
                linearized += 1
            except HybridError as ex:
                failures += 1
                print(ex.info.render())
    if failures:
        return EXIT_PROGRAM_ERROR
    print(f"ok: {linearized} differential statement(s) linearized, "
          f"{deferred} left to run time")
    return EXIT_OK


# exit codes of finished runs, least severe first: the worst one is returned
_SEVERITY = (EXIT_OK, EXIT_BOUND, EXIT_PROGRAM_ERROR)


def _failure(outcome) -> tuple:
    """(report, exit code) of an outcome: no report unless the run failed
    or reached a bound."""
    if isinstance(outcome, Err):
        return outcome.info.render(), EXIT_PROGRAM_ERROR
    if isinstance(outcome, BoundReached):
        return (f"bound reached ({outcome.kind.value}) at t={fmt_value(outcome.elapsed)}",
                EXIT_BOUND)
    return None, EXIT_OK


def cmd_run(args) -> int:
    mode, limits = _settings(args, args.time)
    unit = _load(args.file)
    variables = ordered_vars(unit)
    envs = expand_variability(unit, _cap())
    code = EXIT_OK
    for env, label in envs:
        outcome = big_step(unit.body, env, args.time, mode, limits)
        if len(envs) > 1:
            print(f"[{label}]")
        report, status = _failure(outcome)
        code = max(code, status, key=_SEVERITY.index)
        if report is not None:
            print(report)
            continue
        if isinstance(outcome, Skip) and outcome.early:
            print(f"terminated early at t={fmt_value(outcome.elapsed)}")
        for name in variables:
            if name in outcome.env:
                print(f"{name} = {fmt_value(outcome.env[name])}")
    return code


def cmd_simulate(args) -> int:
    unit = _load(args.file)
    variables = ordered_vars(unit)
    dt = args.dt if args.dt is not None else args.max_time / 500.0
    mode, limits = _settings(args, args.max_time, dt)
    axes = parse_axes(args.axes) if args.axes else [TimeAxis(v) for v in variables]
    spec = make_plot_spec(axes, args.graph, variables, limits)
    trajs = simulate(unit, mode, limits, dt, cap=_cap())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.file).stem
    if args.format == "csv":
        (out_dir / f"{stem}.csv").write_bytes(export_csv(trajs, variables))
    elif args.format == "json":
        (out_dir / f"{stem}.json").write_bytes(
            export_json(trajs, spec, mode, limits, variables))
    else:
        (out_dir / f"{stem}.gp").write_text(emit_plot_script(trajs, spec),
                                            encoding="utf-8")
    code = EXIT_OK
    for traj in trajs:
        out = traj.outcome
        report, status = _failure(out)
        code = max(code, status, key=_SEVERITY.index)
        if report is None:
            report = ("still running at the time horizon" if isinstance(out, Stop)
                      else f"completed at t={fmt_value(out.elapsed)}")
        print(f"{traj.label or 'trajectory'}: {report}")
    return code


def cmd_selftest(args) -> int:
    from . import randprog
    disagreements = 0
    for i in range(args.count):
        seed = args.seed + i
        program, env = randprog.gen_program(seed)
        for t in randprog.gen_times(seed, args.times):
            big = big_step(program, env, t, Exact())
            small = run_to_terminal(Config(program, dict(env), t), Exact())
            if outcome_bits(big) != outcome_bits(small):
                disagreements += 1
                print(f"seed {seed} t={t}: big={big!r} small={small!r}")
    print(f"selftest: {args.count} programs x {args.times} times, "
          f"{disagreements} disagreement(s)")
    return EXIT_OK if disagreements == 0 else EXIT_PROGRAM_ERROR


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hybridsim",
                                 description="hybrid-program simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--solver", choices=("exact", "rk4"), default="exact")
        p.add_argument("--rk4-step", type=_positive, default=None,
                       help="fixed RK4 step (default: min(1e-3, duration/16))")
        p.add_argument("--max-iter", type=_count, default=1000)

    p = sub.add_parser("check", help="parse and linearize")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="evaluate at one time instant")
    p.add_argument("file")
    p.add_argument("--time", type=_non_negative, required=True)
    common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("simulate", help="simulate and export plot data")
    p.add_argument("file")
    common(p)
    p.add_argument("--max-time", type=_positive, default=150.0)
    p.add_argument("--dt", type=_positive, default=None,
                   help="sampling interval (default: max-time/500)")
    p.add_argument("--axes", default=None,
                   help="axis groups, e.g. '[x,v]' or '[(x,y)]' or '[(x,y,z)]'")
    p.add_argument("--graph", choices=("scatter", "scatter3d"), default="scatter")
    p.add_argument("--format", choices=("csv", "json", "plot"), default="csv")
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("selftest", help="differential-test the semantics")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive_count, default=200)
    p.add_argument("--times", type=_positive_count, default=5)
    p.set_defaults(fn=cmd_selftest)
    return ap


def cli_main(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except (AxisSyntaxError, UnknownVariable, VariabilityCapExceeded,
            argparse.ArgumentTypeError, OSError, UnicodeDecodeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; a larger --dt takes fewer samples", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
