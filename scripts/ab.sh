#!/usr/bin/env bash
# Interleaved A/B of the perfbench benchmark: a base revision against
# the working tree.
#
#   ./scripts/ab.sh <base-rev> [--workload W] [--pairs N] [--seconds S]
#                   [--claim METRIC]
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
# working tree was better (ties count for neither side). It then gives a
# verdict against that metric's BENCHMARK.json bound: the working tree's
# median relative to the base's, the base's interquartile width as a
# fraction of its median, and `worse than bound` when the median is
# worse by more than the bound, `unresolved` when the base's own spread
# is wider than the bound (unless every working-tree run beats every
# base run), else `within bound`. With --claim METRIC it ends with
# `claim met` or `claim not met` for that metric: met when the working
# tree wins at least 9/10 of the pairs and its median is better than
# the base's by more than the base's interquartile width. The summary
# is scripts/ab_report.py (`--self-test` checks it on synthetic
# reports). Raw reports
# go to target/ab/runs/<workload>/, so comparing a second workload keeps
# the first one's reports. The exit code is nonzero if any run fails
# verification (`"correct": false` or a nonzero perfbench exit).
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: $0 <base-rev> [--workload W] [--pairs N] [--seconds S] [--claim METRIC]" >&2
    exit 2
}

[[ $# -ge 1 ]] || usage
base_rev=$1
shift
workload=paper_2116
pairs=10
seconds=45
claim=
while [[ $# -gt 0 ]]; do
    [[ $# -ge 2 ]] || usage
    case $1 in
        --workload) workload=$2 ;;
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --claim) claim=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

base_sha=$(git rev-parse --verify "$base_rev^{commit}")
root=$PWD
base_target=$root/target/ab/base-$base_sha
head_target=$root/target/ab/head
runs=$root/target/ab/runs/$workload
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
# goes to $runs/<side>-<pair>.json (runs of this workload only).
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

python3 scripts/ab_report.py "$runs" "$pairs" "$workload" ${claim:+--claim "$claim"}

if ((failed)); then
    echo "ab.sh: at least one run failed verification" >&2
    exit 1
fi
