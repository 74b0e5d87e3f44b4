#!/usr/bin/env python3
"""Summarises the interleaved perfbench pairs that scripts/ab.sh ran.

    scripts/ab_report.py <runs-dir> <pairs> <workload> [--claim METRIC]
    scripts/ab_report.py --self-test

Reads <runs-dir>/base-<i>.json and <runs-dir>/head-<i>.json (one
perfbench report each, i = 1..pairs) and prints, for every end-to-end
metric in BENCHMARK.json, each side's median and quartiles, the pairs
the working tree won (ties count for neither side), and a verdict
against the metric's bound (see scripts/ab.sh).

With --claim METRIC it ends with `claim met` or `claim not met` for
that metric. A claim is met when both hold:
  - the working tree wins at least 9/10 of the pairs;
  - its median is better than the base's by more than the base's
    interquartile width (q3 - q1).

--self-test checks the claim rule and the report on synthetic reports.
"""
import json
import os
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(runs, side, i):
    try:
        with open(f"{runs}/{side}-{i}.json") as f:
            return json.load(f)["metrics"]
    except (OSError, ValueError, KeyError):
        return {}


def summary(xs):
    if len(xs) < 2:
        return f"{xs[0]:>10.4g} {'':>23}" if xs else f"{'-':>10} {'':>23}"
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return f"{med:>10.4g} [{q1:>10.4g}, {q3:>10.4g}]"


def verdict(bs, hs, bound, lower):
    """Median change, base spread and verdict of one metric."""
    if len(bs) < 2:
        return "-", "-", "needs 2+ pairs"
    q1, mb, q3 = statistics.quantiles(bs, n=4, method="inclusive")
    mh = statistics.median(hs)
    if mb == 0:
        return "-", "-", "base median is 0"
    change, spread = mh / mb - 1, (q3 - q1) / abs(mb)
    worse = change if lower else -change
    separated = max(hs) < min(bs) if lower else min(hs) > max(bs)
    if worse > bound:
        word = "worse than bound"
    elif spread > bound and not separated:
        word = "unresolved"
    else:
        word = "within bound"
    return f"{change:+.1%}", f"{spread:.1%}", word


def claim(got, lower):
    """Whether pairs `got` of (base, head) values meet the claim rule,
    and why."""
    bs, hs = [b for b, _ in got], [h for _, h in got]
    wins = sum((h < b) if lower else (h > b) for b, h in got)
    if len(got) < 2:
        return False, "needs 2+ pairs"
    q1, mb, q3 = statistics.quantiles(bs, n=4, method="inclusive")
    mh = statistics.median(hs)
    gain = mb - mh if lower else mh - mb
    won = 10 * wins >= 9 * len(got)
    moved = gain > q3 - q1
    why = (f"wins {wins}/{len(got)} (need {-(-9 * len(got) // 10)}); median "
           f"{mb:.4g} -> {mh:.4g}, better by {gain:.4g} against base q3 - q1 = {q3 - q1:.4g}")
    return won and moved, why


def report(runs, pairs, workload, claimed=None, out=sys.stdout):
    """Prints the table (and the claim line); returns the claim result,
    or None without --claim."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base = [load(runs, "base", i) for i in range(1, pairs + 1)]
    head = [load(runs, "head", i) for i in range(1, pairs + 1)]
    print(f"{workload}: {pairs} pairs; median [q1, q3]; wins = pairs where the working tree is better",
          file=out)
    print("  change = working-tree median / base median - 1; spread = base (q3 - q1) / median",
          file=out)
    print(f"{'metric':<18} {'base':>34} {'working tree':>34} {'wins':>7} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict", file=out)
    result = None
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        got = [(b[name]["value"], h[name]["value"]) for b, h in zip(base, head)
               if name in b and name in h]
        if name == claimed:
            met, why = claim(got, lower) if got else (False, "no reports carry it")
            result = (met, why)
        if not got:
            continue
        bs, hs = [b for b, _ in got], [h for _, h in got]
        wins = sum((h < b) if lower else (h > b) for b, h in got)
        change, spread, word = verdict(bs, hs, m["bound"], lower)
        print(f"{name:<18} {summary(bs):>34} {summary(hs):>34} {wins:>3}/{len(got):<3} "
              f"{change:>8} {spread:>7} {m['bound']:>6.0%}  {word}", file=out)
    if claimed is None:
        return None
    if result is None:
        result = (False, "not an end-to-end metric of BENCHMARK.json")
    met, why = result
    print(f"{claimed}: {'claim met' if met else 'claim not met'} ({why})", file=out)
    return met


def self_test():
    """The claim rule on synthetic reports: each case writes ten pairs of
    one lower-is-better and one higher-is-better metric."""
    cases = [
        # (name, base values, head values, lower is better, expect met)
        ("clear gain", [16.8, 15.0, 17.6, 16.9, 16.2, 17.1, 16.5, 15.9, 16.7, 17.0],
         [10.9, 10.6, 11.0, 10.8, 10.7, 10.9, 11.0, 10.6, 10.8, 10.9], True, True),
        ("8 of 10 wins", [10.0] * 10, [9.0] * 8 + [11.0] * 2, True, False),
        ("ties count for neither", [10.0] * 10, [9.0] * 8 + [10.0] * 2, True, False),
        ("9 of 10 wins", [10.0] * 10, [9.0] * 9 + [11.0], True, True),
        ("median inside the spread", [8, 9, 10, 11, 12, 8, 9, 10, 11, 12],
         [x - 0.5 for x in [8, 9, 10, 11, 12, 8, 9, 10, 11, 12]], True, False),
        ("higher is better", [134.0 + i for i in range(10)],
         [158.0 + i for i in range(10)], False, True),
        ("higher is better, worse", [134.0 + i for i in range(10)],
         [120.0 + i for i in range(10)], False, False),
    ]
    failed = 0
    for name, bs, hs, lower, expect in cases:
        metric = "latency_tail_ms" if lower else "jobs_per_s"
        with tempfile.TemporaryDirectory() as runs:
            for i, (b, h) in enumerate(zip(bs, hs), 1):
                for side, v in (("base", b), ("head", h)):
                    with open(f"{runs}/{side}-{i}.json", "w") as f:
                        json.dump({"correct": True, "metrics": {metric: {"value": v}}}, f)
            with open(os.devnull, "w") as sink:
                met = report(runs, len(bs), "synthetic", metric, out=sink)
        ok = met == expect
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {'claim met' if met else 'claim not met'}")
    with tempfile.TemporaryDirectory() as runs, open(os.devnull, "w") as sink:
        unknown = report(runs, 2, "synthetic", "no_such_metric", out=sink)
    failed += unknown is not False
    print(f"{'ok  ' if unknown is False else 'FAIL'} unknown metric: claim not met")
    return failed


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--self-test"]:
        sys.exit(1 if self_test() else 0)
    claimed = None
    if len(args) == 5 and args[3] == "--claim":
        claimed = args[4]
        args = args[:3]
    if len(args) != 3:
        sys.exit(__doc__)
    report(args[0], int(args[1]), args[2], claimed)
