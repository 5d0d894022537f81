"""The affine grid: `to_affine` on random differential statements whose
right-hand sides take every shape the linearizer accepts or rejects, each
under 3 perturbed environments: 6 000 lines, one per linearization, each
the bytes of the system built or the error raised, with its environment.

    python3 tools/affine_grid.py OUT [ROOT]

ROOT is the checkout to run; it defaults to the one holding this script.
The statements come from `_gen_rhs` and the environments from `_perturbed`
in this checkout's `tests/test_linearize.py`, so both runs see the same
inputs.  Each statement is pretty-printed and parsed again, so every node
carries its source text and an error names its text as written.  Run it on
two checkouts, then `diff` the two OUT files: empty output means both
linearizers build the same systems, bit for bit, and blame the same node
with the same error in the same environment.
"""
import importlib.util
import os
import random
import sys

SEEDS = range(2000)
ENVIRONMENTS = 3


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: affine_grid.py OUT [ROOT]", file=sys.stderr)
        return 2
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    root = argv[1] if len(argv) == 2 else here
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    from hybridsim.linearize import to_affine
    from hybridsim.syntax import desugar_program, parse_program, pretty

    spec = importlib.util.spec_from_file_location(
        "affine_grid_inputs", os.path.join(here, "tests", "test_linearize.py"))
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)

    with open(argv[0], "w", encoding="utf-8") as out:
        for seed in SEEDS:
            rng = random.Random(seed)
            bound = ["x", "y", "z"][: rng.randrange(1, 4)]
            frozen = ["a", "b"]
            text = ", ".join(f"{x}' = {pretty(inputs._gen_rhs(rng, bound, frozen, 4))}"
                             for x in bound)
            diff = desugar_program(parse_program(f"{text} for 1")).atomic
            for k in range(ENVIRONMENTS):
                env = inputs._perturbed(rng, frozen, {})
                built = inputs._built(to_affine, diff, env)
                out.write(f"{seed} {k} {text} {built!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
