"""One benchmark workload in one process; started by run.py, which pins the
thread pools and puts the repository's src/ on PYTHONPATH.

    worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

The last line of output is a JSON object for run.py.  --setup-only times
set-up (imports plus preparing the inputs) and exits.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (imports numpy, scipy and hybridsim)
import reference  # noqa: E402

# enough rounds that a slot's median can set aside one slow round
MIN_ROUNDS = 3
OUT_DIR = ".bench_out"
# the host's speed is gauged every REF_EVERY_NS by REF_SAMPLES reference
# runs; an operation is scaled by the median of the samples within
# REF_WINDOW_NS of it, at least REF_NEAR of them
REF_EVERY_NS = 100_000_000
REF_SAMPLES = 3
REF_WINDOW_NS = 2_000_000_000
REF_NEAR = 30


def measure(work, seconds: float, min_rounds: int = MIN_ROUNDS,
            tracer=None) -> dict:
    """Run whole rounds, timing each operation on its own, for at least
    `seconds` of wall time and `min_rounds` rounds.  Checks and the gauging
    of the host's speed run between operations, outside the timings.  With
    a tracer, each operation runs inside a traced op span."""
    ops = []   # (slot, start ns, end ns)
    refs = []  # (mid ns, reference ns)
    cpu_ns = 0
    attempted = failed = rnd = 0

    def gauge():
        for _ in range(REF_SAMPLES):
            t = time.perf_counter_ns()
            d = reference.sample()
            refs.append((t + d // 2, d))

    begin = time.perf_counter()
    gauge()
    while rnd < min_rounds or time.perf_counter() - begin < seconds:
        for slot, payload in work.inputs():
            if time.perf_counter_ns() - refs[-1][0] > REF_EVERY_NS:
                gauge()
            c0 = time.process_time_ns()
            t0 = time.perf_counter_ns()
            if tracer is None:
                result = work.op(payload)
            else:
                with tracer.op(work.name):
                    result = work.op(payload)
            t1 = time.perf_counter_ns()
            c1 = time.process_time_ns()
            ops.append((slot, t0, t1))
            cpu_ns += c1 - c0
            attempted += 1
            if not work.check(payload, result):
                failed += 1
            # drop the output now, so that peak memory is one operation's
            result = None
        rnd += 1
    gauge()
    loop_s = time.perf_counter() - begin

    # each operation's wall time, and the same scaled to the reference speed
    mids = [t for t, _ in refs]
    wall = [[] for _ in work.slots]
    scaled = [[] for _ in work.slots]
    round_wall = [0] * rnd
    round_scaled = [0.0] * rnd
    per_round = len(work.slots)
    for i, (slot, t0, t1) in enumerate(ops):
        lo = bisect.bisect_left(mids, t0 - REF_WINDOW_NS)
        hi = bisect.bisect_right(mids, t1 + REF_WINDOW_NS)
        while hi - lo < REF_NEAR and (lo > 0 or hi < len(refs)):
            lo, hi = max(0, lo - 1), min(len(refs), hi + 1)
        near = [d for _, d in refs[lo:hi]]
        wall[slot].append(t1 - t0)
        scaled[slot].append((t1 - t0) * reference.REF_NS / statistics.median(near))
        round_wall[i // per_round] += t1 - t0
        round_scaled[i // per_round] += scaled[slot][-1]
    wall_ns = sum(round_wall)
    return {"wall": wall, "scaled": scaled, "round_wall": round_wall,
            "round_scaled": round_scaled,
            "cpu_ns": cpu_ns, "wall_ns": wall_ns, "attempted": attempted,
            "failed": failed, "loop_s": loop_s,
            "speed": reference.REF_NS / statistics.median(d for _, d in refs)}


def summary(times: list) -> dict:
    medians_ms = [statistics.median(w) / 1e6 for w in times]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "pass_s": (sum(medians_ms) / 1e3, "s"),
        "op_geomean_ms": (math.exp(statistics.fmean(math.log(x) for x in medians_ms)), "ms"),
        "op_p90_ms": (statistics.quantiles(medians_ms, n=10)[-1], "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def environment() -> str:
    import numpy
    import scipy
    pins = " ".join(f"{k}={os.environ.get(k, '-')}" for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    threads = "?"
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("Threads:"):
                threads = line.split()[1]
    return (f"# env: {pins} nproc={os.cpu_count()} threads={threads} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__}")


def print_rows(work, m: dict):
    print(f"# {'input':<12} {'scaled_ms':>10} {'wall_ms':>10} {'q1_ms':>10} "
          f"{'q3_ms':>10} {'min_ms':>10} {'max_ms':>10} runs")
    for slot, times, scaled in zip(work.slots, m["wall"], m["scaled"]):
        ms = sorted(t / 1e6 for t in times)
        q1, _, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else (ms[0],) * 3
        print(f"# {slot:<12} {statistics.median(scaled) / 1e6:10.3f} "
              f"{statistics.median(ms):10.3f} {q1:10.3f} {q3:10.3f} "
              f"{ms[0]:10.3f} {ms[-1]:10.3f} {len(ms)}")


def scaled_setup(setup_s: float) -> float:
    """Set-up time scaled to the reference speed measured right after it."""
    for _ in range(3):
        reference.sample()
    now = statistics.median(reference.sample() for _ in range(9))
    return setup_s * reference.REF_NS / now


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = workloads.make(args.workload, args.seed)
    setup_wall = time.perf_counter() - T0
    setup_s = scaled_setup(setup_wall)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
        return 0

    print(environment())
    print(f"# {args.workload} seed={args.seed} slots={len(work.slots)} "
          f"setup_s={setup_s:.4f} (wall {setup_wall:.4f})")
    try:
        if args.trace:
            result = traced_run(work, args)
        else:
            result = timed_run(work, args)
    except workloads.CheckError as ex:
        print(f"# CHECK FAILED: {ex}")
        result = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    result["setup_s"] = setup_s
    result["setup_wall_s"] = setup_wall
    print(json.dumps(result))
    return 0


def timed_run(work, args) -> dict:
    m = measure(work, args.seconds)
    if isinstance(work, workloads.Simulate):
        print_rows(work, m)
    print(f"# rounds={len(m['round_wall'])} loop_s={m['loop_s']:.3f} "
          f"cold_pass_s={m['round_wall'][0] / 1e9:.4f} "
          f"op_wall_s={m['wall_ns'] / 1e9:.4f} op_cpu_s={m['cpu_ns'] / 1e9:.4f} "
          f"cpu/wall={m['cpu_ns'] / m['wall_ns']:.4f} "
          f"host_speed={m['speed']:.4f}")
    wall = summary(m["wall"])
    print("# unscaled wall: " + " ".join(
        f"{k}={v:.6g}" for k, (v, _) in wall.items() if k != "peak_rss_mb"))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in summary(m["scaled"]).items()}
    for k, v in metrics.items():
        print(f"# {k} = {v['value']:.6g} {v['unit']}")
    return {"correct": True, "attempted": m["attempted"], "failed": m["failed"],
            "metrics": metrics}


def traced_run(work, args) -> dict:
    """A warm-up round and an untraced round, then one traced round, each
    with its own inputs; the per-layer figures are those of the traced
    round, the overhead compares it with the untraced one."""
    from spans import Tracer  # imported here so untraced runs never load it
    plain = measure(work, 0, min_rounds=2)
    tracer = Tracer()
    with tracer.installed():
        traced = measure(work, 0, min_rounds=1, tracer=tracer)
    before, after = plain["round_scaled"][-1] / 1e9, traced["round_scaled"][0] / 1e9
    overhead = (after / before - 1) * 100
    print(f"# untraced round {before:.4f} s, traced round {after:.4f} s "
          f"(scaled), overhead {overhead:.1f}%, {len(tracer.start)} spans")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
    tracer.write(path)
    print(f"# spans written to {path}")
    metrics = tracer.metrics(overhead)
    for k, v in metrics.items():
        print(f"# {k} = {v['value']:.6g} {v['unit']}")
    return {"correct": True,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"], "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
