#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs.

Usage:

    python3 scripts/perfbench_pairs.py --parent DIR --change DIR \\
        --workload serve-cold --pairs 10 --seconds 45 [--seed-base 1] \\
        [--json runs.json]

Each pair runs `perfbench/run.py` once in the parent checkout and once
in the change checkout, each with that checkout's own benchmark code.
Which side runs first alternates from pair to pair, and pair i uses
seed seed-base + i on both sides. One discarded one-second run per side
first builds each checkout's benchmark, so no timed run follows a build.

For each end-to-end metric named in the parent's BENCHMARK.json it
prints each side's median and quartiles, how many pairs the change won
(ties count for neither side), and a verdict:

- "gain": the change won at least nine tenths of the pairs and the
  medians differ, in the metric's better direction, by more than the
  parent's interquartile range;
- "unresolved": anything else. A comparison that shows no gain is not
  evidence that nothing changed.

Each metric also gets a sign test: the exact two-sided binomial
p-value of the change's wins among the pairs that were not ties, under
the hypothesis that either side wins a pair with probability one half
(with 10 pairs, 9 wins give p = 0.021 and 10 give p = 0.002).

Beside it, the bound check compares the change's median with the
parent's against the metric's bound in BENCHMARK.json, a fraction of
the parent's median: "within bound", "worse than bound", or "spread >
bound" when the parent's own interquartile range is wider than the
bound, so a regression of the bound's size could not be seen.

Every run's `correct` and `failed` are checked; any run that is not
correct, fails operations or prints no result is listed, and the script
then exits 1. The Python standard library is all it needs.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def run_side(checkout, workload, seed, seconds):
    """One perfbench run; the parsed JSON result, or None."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in out.stdout.splitlines() if l.startswith("{")]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def value(result, metric):
    entry = (result or {}).get("metrics", {}).get(metric)
    if isinstance(entry, dict) and isinstance(entry.get("value"),
                                              (int, float)):
        return float(entry["value"])
    return None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def sign_test(wins, losses):
    """Exact two-sided binomial p-value of @p wins against @p losses,
    ties dropped, when each side wins with probability one half."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def compare(parent, change, better, bound):
    """The summary of one metric over the pairs that measured it."""
    pairs = [(p, c) for p, c in zip(parent, change)
             if p is not None and c is not None]
    ps = sorted(p for p, _ in pairs)
    cs = sorted(c for _, c in pairs)
    if not pairs:
        return None
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_med, c_med = statistics.median(ps), statistics.median(cs)
    p_q1, p_q3 = quartiles(ps)
    gain = sign * (c_med - p_med)
    iqr = p_q3 - p_q1
    verdict = ("gain" if 10 * wins >= 9 * len(pairs) and gain > iqr
               else "unresolved")
    if bound is None:
        check = "no bound"
    elif iqr > bound * abs(p_med):
        check = "spread > bound"
    elif -gain > bound * abs(p_med):
        check = "worse than bound"
    else:
        check = "within bound"
    return {"pairs": len(pairs), "parent_median": p_med,
            "parent_q1": p_q1, "parent_q3": p_q3, "change_median": c_med,
            "change_q1": quartiles(cs)[0], "change_q3": quartiles(cs)[1],
            "change_wins": wins, "change_losses": losses,
            "sign_p": sign_test(wins, losses), "verdict": verdict,
            "bound": bound,
            "bound_check": check}


def end_to_end_metrics(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m.get("better", "lower"), m.get("bound"))
            for m in spec["end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--json", help="write every run and the summary here")
    args = ap.parse_args()
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    metrics = end_to_end_metrics(sides["parent"])

    for name, checkout in sides.items():
        print(f"building {name} ({checkout})", file=sys.stderr)
        run_side(checkout, args.workload, args.seed_base, 1)

    runs = {"parent": [], "change": []}
    bad = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for name in order:
            result = run_side(sides[name], args.workload, seed, args.seconds)
            runs[name].append({"seed": seed, "result": result})
            if (result is None or result.get("correct") is not True or
                    result.get("failed", 1) != 0):
                bad.append(f"pair {i} {name} seed {seed}")
            shown = ", ".join(f"{m}={value(result, m)}" for m, _, _ in metrics)
            print(f"pair {i + 1}/{args.pairs} {name:6} seed {seed}: {shown}",
                  file=sys.stderr)

    summary = {}
    print(f"workload {args.workload}, {args.pairs} pairs x "
          f"{args.seconds:g} s, seeds {args.seed_base}.."
          f"{args.seed_base + args.pairs - 1}")
    print(f"{'metric':12} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'wins':>6} {'sign p':>7}  "
          f"verdict     bound")
    for metric, better, bound in metrics:
        s = compare([value(r["result"], metric) for r in runs["parent"]],
                    [value(r["result"], metric) for r in runs["change"]],
                    better, bound)
        summary[metric] = s
        if s is None:
            print(f"{metric:12} not measured")
            continue
        p = (f"{s['parent_median']:.4g} [{s['parent_q1']:.4g}, "
             f"{s['parent_q3']:.4g}]")
        c = (f"{s['change_median']:.4g} [{s['change_q1']:.4g}, "
             f"{s['change_q3']:.4g}]")
        print(f"{metric:12} {p:>30} {c:>30} "
              f"{s['change_wins']:>3}/{s['pairs']:<2} {s['sign_p']:>7.3g}  "
              f"{s['verdict']:11} "
              f"{s['bound_check']}")
    if bad:
        print("runs not correct, with failures or without a result: " +
              "; ".join(bad))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "seed_base": args.seed_base, "runs": runs,
                       "summary": summary}, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
