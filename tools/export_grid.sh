#!/bin/sh
# The export grid: every corpus program under both solvers in all three
# formats at --dt 0.1, in JSON at the off-grid --dt 0.0997, where most
# samples fall inside segments, and in CSV at --dt 0.01, where a trajectory
# holds thousands of samples (about 40 chunks of them): 90 runs.  Each run's
# files, its messages and its exit code land under OUT/<solver>-<format>/
# (OUT/<solver>-<format>-dt<dt>/ for the runs at another --dt); each
# program's `hybridsim check` messages and exit code land under OUT/check/.
#
#     tools/export_grid.sh OUT [ROOT]
#
# ROOT is the checkout to run; it defaults to the one holding this script.
# Run it on two checkouts, then `diff -r` the two OUTs: empty output means
# every export, message and exit code, `check`'s included, is byte-identical.
set -eu
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 OUT [ROOT]" >&2
    exit 2
fi
ROOT=$(cd "${2:-$(dirname "$0")/..}" && pwd)
for p in eq1 eq2 ex21 zeno aeb aebom rlcs-under rlcs-over pursuit; do
    mkdir -p "$1/check"
    code=0
    PYTHONPATH="$ROOT/src" python3 -m hybridsim check \
        "$ROOT/src/hybridsim/corpus/$p.lince" > "$1/check/$p.stdout" 2>&1 || code=$?
    echo "exit=$code" >> "$1/check/$p.stdout"
    for s in exact rk4; do
        for run in csv:0.1 json:0.1 plot:0.1 json:0.0997 csv:0.01; do
            f=${run%:*} dt=${run#*:}
            d=$1/$s-$f
            [ "$dt" = 0.1 ] || d=$d-dt$dt
            mkdir -p "$d"
            code=0
            PYTHONPATH="$ROOT/src" python3 -m hybridsim simulate \
                "$ROOT/src/hybridsim/corpus/$p.lince" --solver $s --format $f \
                --max-time 50 --dt $dt --out "$d" > "$d/$p.stdout" 2>&1 || code=$?
            echo "exit=$code" >> "$d/$p.stdout"
        done
    done
done
