"""Command-line front end.

Subcommands:
  check FILE      parse the program and linearize every differential
                  statement against the declared initial values
  run FILE        print the environment the program outputs at --time T
  simulate FILE   full pipeline: expand initial conditions, simulate,
                  export CSV/JSON/plot-script files
  selftest        differential test of the two semantics on random programs

Exit codes: 0 ok, 1 program error, 2 usage or parse error (a bad numeric
flag included), 3 bound reached.  The environment variable
HYBRIDSIM_MAX_PRODUCT, a positive integer, overrides the cap on the number
of initial-condition combinations (default 64).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .errors import HybridError
from .odesolve import Exact, RK4
from .semantics import (BoundReached, Err, Limits, Skip, Stop, big_step,
                        run_to_terminal, Config)
from .syntax import (Atom, Diff, If, ParseError, Seq, SourceUnit, VarList,
                     While, desugar, ordered_vars, parse)
from .linearize import to_affine
from .trajectory import (DEFAULT_VARIABILITY_CAP, VariabilityCapExceeded,
                         expand_variability, simulate)
from .export import (AxisSyntaxError, TimeAxis, UnknownVariable, emit_plot_script,
                     export_csv, export_json, make_plot_spec, parse_axes)

EXIT_OK = 0
EXIT_PROGRAM_ERROR = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


def _number(accept, what: str):
    """An argparse `type=` that takes finite floats satisfying `accept`."""
    def convert(raw: str) -> float:
        try:
            v = float(raw)
        except ValueError:
            v = math.nan
        if not (math.isfinite(v) and accept(v)):
            raise argparse.ArgumentTypeError(
                f"expected a finite number {what}, got {raw!r}")
        return v
    return convert


_non_negative = _number(lambda v: v >= 0.0, ">= 0")
_positive = _number(lambda v: v > 0.0, "> 0")


def _cap() -> int:
    raw = os.environ.get("HYBRIDSIM_MAX_PRODUCT")
    if raw is None:
        return DEFAULT_VARIABILITY_CAP
    if not (raw.isdecimal() and int(raw) > 0):
        raise argparse.ArgumentTypeError(
            f"HYBRIDSIM_MAX_PRODUCT must be a positive integer, got {raw!r}")
    return int(raw)


def _load(path: str) -> SourceUnit:
    text = Path(path).read_text(encoding="utf-8")
    return parse(text)


def _mode(args):
    if args.solver == "rk4":
        return RK4(args.rk4_step)
    return Exact()


def _limits(args) -> Limits:
    return Limits(max_time=args.max_time, max_iterations=args.max_iter)


def _fmt(v: float) -> str:
    return format(v, ".12g")


def _collect_diffs(p, out: list):
    if isinstance(p, Atom):
        if isinstance(p.atomic, Diff):
            out.append(p.atomic)
    elif isinstance(p, Seq):
        _collect_diffs(p.first, out)
        _collect_diffs(p.rest, out)
    elif isinstance(p, If):
        _collect_diffs(p.then, out)
        _collect_diffs(p.orelse, out)
    elif isinstance(p, While):
        _collect_diffs(p.body, out)


def cmd_check(args) -> int:
    unit = desugar(_load(args.file))
    env = {}
    for d in unit.declarations:
        env[d.var] = d.values[0] if isinstance(d, VarList) else d.expr.value
    diffs: list = []
    _collect_diffs(unit.body, diffs)
    failures = 0
    for diff in diffs:
        try:
            to_affine(diff, env)
        except HybridError as ex:
            failures += 1
            print(ex.info.render())
    if failures:
        return EXIT_PROGRAM_ERROR
    print(f"ok: {len(diffs)} differential statement(s) linearized")
    return EXIT_OK


def _worst(code: int, new: int) -> int:
    order = {EXIT_PROGRAM_ERROR: 2, EXIT_BOUND: 1, EXIT_OK: 0}
    return new if order[new] > order[code] else code


def cmd_run(args) -> int:
    unit = desugar(_load(args.file))
    variables = ordered_vars(unit)
    envs = expand_variability(unit, _cap())
    code = EXIT_OK
    for env, label in envs:
        outcome = big_step(unit.body, env, args.time, _mode(args), _limits(args))
        if len(envs) > 1:
            print(f"[{label}]")
        if isinstance(outcome, (Skip, Stop)):
            if isinstance(outcome, Skip) and outcome.early:
                print(f"terminated early at t={_fmt(outcome.elapsed)}")
            for name in variables:
                if name in outcome.env:
                    print(f"{name} = {_fmt(outcome.env[name])}")
        elif isinstance(outcome, Err):
            print(outcome.info.render())
            code = _worst(code, EXIT_PROGRAM_ERROR)
        else:
            print(f"bound reached ({outcome.kind.value}) at t={_fmt(outcome.elapsed)}")
            code = _worst(code, EXIT_BOUND)
    return code


def cmd_simulate(args) -> int:
    unit = desugar(_load(args.file))
    variables = ordered_vars(unit)
    limits = _limits(args)
    mode = _mode(args)
    dt = args.dt if args.dt is not None else limits.max_time / 500.0
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
        name = traj.label or "trajectory"
        out = traj.outcome
        if isinstance(out, Err):
            print(f"{name}: {out.info.render()}")
            code = _worst(code, EXIT_PROGRAM_ERROR)
        elif isinstance(out, BoundReached):
            print(f"{name}: bound reached ({out.kind.value}) at t={_fmt(out.elapsed)}")
            code = _worst(code, EXIT_BOUND)
        elif isinstance(out, Stop):
            print(f"{name}: still running at the time horizon")
        else:
            print(f"{name}: completed at t={_fmt(out.elapsed)}")
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
            if big != small:
                disagreements += 1
                print(f"seed {seed} t={t}: big={big!r} small={small!r}")
    print(f"selftest: {args.count} programs x {args.times} times, "
          f"{disagreements} disagreement(s)")
    return EXIT_OK if disagreements == 0 else EXIT_PROGRAM_ERROR


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hybridsim",
                                 description="hybrid-program simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, time_flags=True):
        p.add_argument("--solver", choices=("exact", "rk4"), default="exact")
        p.add_argument("--rk4-step", type=_positive, default=None,
                       help="fixed RK4 step (default: min(1e-3, duration/16))")
        if time_flags:
            p.add_argument("--max-time", type=_positive, default=150.0)
            p.add_argument("--max-iter", type=int, default=1000)

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
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--times", type=int, default=5)
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
            argparse.ArgumentTypeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
