"""The outcome grid: the `repr` of `big_step` and of `run_to_terminal` on
random programs, seeds 0..999, at 3 instants each, under both solvers:
12 000 lines, one per run.

    python3 tools/outcome_grid.py OUT [ROOT]

ROOT is the checkout to run; it defaults to the one holding this script.
Run it on two checkouts, then `diff` the two OUT files: empty output means
both semantics reach the same outcomes, bit for bit in their printed
floats, error environments included.
"""
import os
import sys

SEEDS = range(1000)
INSTANTS = 3


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: outcome_grid.py OUT [ROOT]", file=sys.stderr)
        return 2
    root = argv[1] if len(argv) == 2 else os.path.join(os.path.dirname(__file__), "..")
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    from hybridsim import randprog
    from hybridsim.odesolve import RK4, Exact
    from hybridsim.semantics import Config, big_step, run_to_terminal

    with open(argv[0], "w", encoding="utf-8") as out:
        for seed in SEEDS:
            program, env = randprog.gen_program(seed)
            for t in randprog.gen_times(seed, INSTANTS):
                for mode in (Exact(), RK4()):
                    big = big_step(program, env, t, mode)
                    small = run_to_terminal(Config(program, dict(env), t), mode)
                    out.write(f"{seed} {t!r} {mode!r} big {big!r}\n")
                    out.write(f"{seed} {t!r} {mode!r} small {small!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
