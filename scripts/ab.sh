#!/usr/bin/env bash
# Interleaved A/B of the perfbench benchmark: a base revision against
# the working tree.
#
#   ./scripts/ab.sh <base-rev> [--workload W] [--pairs N] [--seconds S]
#
# Defaults: --workload paper_2116 --pairs 10 --seconds 45.
#
# The base is checked out in a temporary `git worktree` and built
# offline into its own target directory, target/ab/base-<sha> (kept, so
# a second comparison against the same revision skips the build). The
# working tree is built into target/ab/head. Pair i runs both sides with
# its own seed: pair 1 uses the held-out seed 7331, pair i > 1 uses
# seed i - 1. Odd pairs run the base first, even pairs the working tree
# first, so drift in the host's speed hits both sides alike.
#
# For every end-to-end metric in BENCHMARK.json the script prints each
# side's median and quartiles over the pairs, and in how many pairs the
# working tree was better (ties count for neither side). Raw reports
# go to target/ab/runs/. The exit code is nonzero if any run fails
# verification (`"correct": false` or a nonzero perfbench exit).
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: $0 <base-rev> [--workload W] [--pairs N] [--seconds S]" >&2
    exit 2
}

[[ $# -ge 1 ]] || usage
base_rev=$1
shift
workload=paper_2116
pairs=10
seconds=45
while [[ $# -gt 0 ]]; do
    [[ $# -ge 2 ]] || usage
    case $1 in
        --workload) workload=$2 ;;
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

base_sha=$(git rev-parse --verify "$base_rev^{commit}")
root=$PWD
base_target=$root/target/ab/base-$base_sha
head_target=$root/target/ab/head
runs=$root/target/ab/runs
bin=release/msropm-perfbench
mkdir -p "$runs"

if [[ ! -x $base_target/$bin ]]; then
    tree=$(mktemp -d)
    trap 'git -C "$root" worktree remove --force "$tree/src" 2>/dev/null || true; rm -rf "$tree"' EXIT
    echo "==> building base ${base_sha:0:12} in a worktree"
    git worktree add --quiet --detach "$tree/src" "$base_sha"
    CARGO_TARGET_DIR=$base_target cargo build --release --offline --quiet \
        --manifest-path "$tree/src/perfbench/Cargo.toml"
    git worktree remove --force "$tree/src"
fi
echo "==> building the working tree"
CARGO_TARGET_DIR=$head_target cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml

failed=0
# run <side> <pair> <seed>: one perfbench run; its report's last line
# goes to $runs/<side>-<pair>.json.
run() {
    local side=$1 pair=$2 seed=$3 exe
    [[ $side == base ]] && exe=$base_target/$bin || exe=$head_target/$bin
    local out=$runs/$side-$pair.json
    if ! "$exe" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tail -n 1 >"$out"; then
        echo "    $side pair $pair (seed $seed): perfbench exited nonzero" >&2
        failed=1
    fi
    if ! grep -q '"correct": *true' "$out"; then
        echo "    $side pair $pair (seed $seed): correct is not true" >&2
        failed=1
    fi
}

rm -f "$runs"/base-*.json "$runs"/head-*.json
for ((i = 1; i <= pairs; i++)); do
    seed=$((i == 1 ? 7331 : i - 1))
    echo "==> pair $i/$pairs, seed $seed"
    if ((i % 2)); then
        run base "$i" "$seed"
        run head "$i" "$seed"
    else
        run head "$i" "$seed"
        run base "$i" "$seed"
    fi
done

python3 - "$runs" "$pairs" "$workload" <<'EOF'
import json, statistics, sys

runs, pairs, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
def load(side, i):
    try:
        return json.load(open(f"{runs}/{side}-{i}.json"))["metrics"]
    except (OSError, ValueError, KeyError):
        return {}
base = [load("base", i) for i in range(1, pairs + 1)]
head = [load("head", i) for i in range(1, pairs + 1)]

def summary(xs):
    if len(xs) < 2:
        return f"{xs[0]:>10.4g} {'':>23}" if xs else f"{'-':>10} {'':>23}"
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return f"{med:>10.4g} [{q1:>10.4g}, {q3:>10.4g}]"

print(f"{workload}: {pairs} pairs; median [q1, q3]; wins = pairs where the working tree is better")
print(f"{'metric':<18} {'base':>34} {'working tree':>34} {'wins':>7}")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    got = [(b[name]["value"], h[name]["value"]) for b, h in zip(base, head)
           if name in b and name in h]
    if not got:
        continue
    wins = sum((h < b) if lower else (h > b) for b, h in got)
    print(f"{name:<18} {summary([b for b, _ in got]):>34} "
          f"{summary([h for _, h in got]):>34} {wins:>3}/{len(got):<3}")
EOF

if ((failed)); then
    echo "ab.sh: at least one run failed verification" >&2
    exit 1
fi
