"""The outcome grid: the `repr` of `big_step` and of `run_to_terminal` on
random programs, seeds 0..999, at 3 instants each, under both solvers:
12 000 lines, one per run.  Then the same on every corpus trajectory (one
per initial environment) at 6 fixed instants: 408 lines, which cover the
larger flows (up to 12 variables) the random programs do not build.

    python3 tools/outcome_grid.py OUT [ROOT]

ROOT is the checkout to run; it defaults to the one holding this script.
Run it on two checkouts, then `diff` the two OUT files: empty output means
both semantics reach the same outcomes, bit for bit in their printed
floats, error environments included.

Each pair of lines is computed twice in the same process, the second time
at once, with every memo warm from the first (linearizations, flow maps and
states); the script exits 1 if the two differ, since a memo must answer
with the bits a fresh computation gives.  OUT holds the first computation.
"""
import os
import sys

SEEDS = range(1000)
INSTANTS = 3
CORPUS = ("eq1", "eq2", "ex21", "zeno", "aeb", "aebom", "rlcs-under", "rlcs-over",
          "pursuit")
CORPUS_INSTANTS = (0.0, 0.37, 1.6, 3.05, 7.7, 13.3)


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: outcome_grid.py OUT [ROOT]", file=sys.stderr)
        return 2
    root = argv[1] if len(argv) == 2 else os.path.join(os.path.dirname(__file__), "..")
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    from hybridsim import corpus_path, desugar, parse, randprog
    from hybridsim.odesolve import RK4, Exact
    from hybridsim.semantics import Config, big_step, run_to_terminal
    from hybridsim.trajectory import expand_variability

    def lines(head, program, env, t, mode) -> str:
        big = big_step(program, env, t, mode)
        small = run_to_terminal(Config(program, dict(env), t), mode)
        return f"{head} big {big!r}\n{head} small {small!r}\n"

    def runs():
        for seed in SEEDS:
            program, env = randprog.gen_program(seed)
            for t in randprog.gen_times(seed, INSTANTS):
                for mode in (Exact(), RK4()):
                    yield f"{seed} {t!r} {mode!r}", program, env, t, mode
        for name in CORPUS:
            unit = desugar(parse(corpus_path(name).read_text(encoding="utf-8")))
            for env, label in expand_variability(unit):
                for t in CORPUS_INSTANTS:
                    for mode in (Exact(), RK4()):
                        yield f"{name} {label!r} {t!r} {mode!r}", unit.body, env, t, mode

    differ = 0
    with open(argv[0], "w", encoding="utf-8") as out:
        for run in runs():
            text = lines(*run)
            out.write(text)
            if lines(*run) != text:
                differ += 1
                print(f"differs with warm memos: {run[0]}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
