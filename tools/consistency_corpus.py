"""`consistency_check` on every corpus program under both solvers, at
`max_time=50`, `dt=0.1`, `k=200`: one line per (program, solver) with
`passed`, `worst` and the number of instants checked and flagged.

    python3 tools/consistency_corpus.py [ROOT]

ROOT is the checkout to run; it defaults to the one holding this script.
Exits 1 if any check fails.
"""
import os
import sys
import time

CORPUS = ("eq1", "eq2", "ex21", "zeno", "aeb", "aebom", "rlcs-under", "rlcs-over",
          "pursuit")


def main(argv) -> int:
    if len(argv) > 1:
        print("usage: consistency_corpus.py [ROOT]", file=sys.stderr)
        return 2
    root = argv[0] if argv else os.path.join(os.path.dirname(__file__), "..")
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    from hybridsim import corpus_path, parse
    from hybridsim.odesolve import RK4, Exact
    from hybridsim.semantics import Limits
    from hybridsim.trajectory import consistency_check

    failed = 0
    for mode in (Exact(), RK4()):
        start = time.perf_counter()
        for name in CORPUS:
            unit = parse(corpus_path(name).read_text(encoding="utf-8"))
            rep = consistency_check(unit, mode, Limits(max_time=50.0), dt=0.1, k=200)
            failed += not rep.passed
            print(f"{name:<11} {type(mode).__name__:<5} passed={rep.passed} worst={rep.worst!r} "
                  f"checked={rep.checked} flagged={len(rep.failures)}", flush=True)
        print(f"{type(mode).__name__}: {time.perf_counter() - start:.1f} s", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
