"""Benchmark of hybridsim: one workload per invocation.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from src/.
Workloads: simulate-exact, simulate-rk4, point-query, selftest (see
README.md).  Each runs in one worker process with every BLAS and OpenMP
thread pool pinned to one thread.  With --trace 0 the last output line
holds the end-to-end metrics; set-up time is the median of SETUP_RUNS
fresh processes plus the worker itself.  With --trace 1 it holds the
per-layer metrics of one traced round.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("simulate-exact", "simulate-rk4", "point-query", "selftest")
SETUP_RUNS = 2
DEADLINE_S = 170
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hybridsim", "__init__.py")):
        return fail(f"no hybridsim package under {src}")

    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    base = [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    deadline = time.monotonic() + DEADLINE_S

    def worker(extra: list) -> list:
        proc = subprocess.run(base + extra, env=env, cwd=ROOT, text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        return proc.stdout.splitlines()

    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                probe = json.loads(worker(["--setup-only"])[-1])
                setup.append((probe["setup_s"], probe["setup_wall_s"]))
        lines = worker([])
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as ex:
        return fail(str(ex))

    result = json.loads(lines[-1])
    setup.append((result.pop("setup_s"), result.pop("setup_wall_s")))
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print("# setup_s samples (scaled/wall): "
              + " ".join(f"{s:.4f}/{w:.4f}" for s, w in setup))
        result["metrics"]["setup_s"] = {
            "value": statistics.median(s for s, _ in setup), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
