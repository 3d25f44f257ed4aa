#!/usr/bin/env bash
# A/B the repository benchmark between two checkouts.
#
#   scripts/bench_ab.sh BASE HEAD
#
# BASE and HEAD are checkout directories; each runs from its own src/.
# For seeds 1-5, each tree runs one round-robin set of the four workloads
# (`bench/run.py --sets 1 --seed S --seconds 0`: every run makes exactly
# MIN_REPS repetitions, so both sides pool the same work), alternating
# which side runs first.  Then `bench/compare.py` prints base vs head, and
# the table is appended to $GITHUB_STEP_SUMMARY when that is set.
#
# Exits 1 when any run is incorrect (naming the side, the seed and the
# workloads, with the tail of that run's output) or any row reads
# `regressed`.
set -uo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: scripts/bench_ab.sh BASE HEAD" >&2
    exit 2
fi
base=$(cd "$1" && pwd) || exit 2
head=$(cd "$2" && pwd) || exit 2
out=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
mkdir -p "$out/base" "$out/head"
echo "bench-ab: results under $out" >&2

status=0

run_side() {
    local side=$1 seed=$2 tree
    if [ "$side" = base ]; then tree=$base; else tree=$head; fi
    echo "bench-ab: $side seed $seed" >&2
    if ! (cd "$tree" && python3 bench/run.py --sets 1 --seed "$seed" --seconds 0 \
            --out "$out/$side/$seed.json") > "$out/$side/$seed.log" 2>&1; then
        status=1
        echo "bench-ab: incorrect run on $side, seed $seed" >&2
        python3 - "$out/$side/$seed.json" <<'EOF' >&2
import json
import sys

try:
    with open(sys.argv[1], encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
except (OSError, ValueError, KeyError):
    runs = []
for run in runs:
    if not run["result"]["correct"]:
        print(f"  incorrect: {run['workload']}")
EOF
        tail -n 20 "$out/$side/$seed.log" | sed 's/^/  | /' >&2
    fi
}

for seed in 1 2 3 4 5; do
    if [ $((seed % 2)) -eq 1 ]; then
        run_side base "$seed"
        run_side head "$seed"
    else
        run_side head "$seed"
        run_side base "$seed"
    fi
done

table=$(python3 "$head/bench/compare.py" "$out/base" "$out/head") || status=1
echo "$table"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    printf '## bench-ab: base vs head, seeds 1-5\n\n%s\n' "$table" >> "$GITHUB_STEP_SUMMARY"
fi
if grep -q '| regressed |' <<< "$table"; then
    echo "bench-ab: an end-to-end metric regressed:" >&2
    grep '| regressed |' <<< "$table" >&2
    status=1
fi
exit "$status"
