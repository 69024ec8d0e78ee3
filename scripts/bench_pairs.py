"""Paired benchmark runs of two source trees, one pair per seed.

    python scripts/bench_pairs.py SRC_A SRC_B --workload predict-spatial \
        --seeds 311 312 313 314 315 [--seconds 20]

SRC_A and SRC_B are the roots of two firemarg checkouts, A the parent
and B the change. For each seed, `bench/run.py --trace 0` runs once in
each tree (from that tree's root, with its own bench/ and src/), the
first pair with A first and then alternating, so neither side always
runs on a warmer machine. --seconds is each run's length; it defaults
to `run_seconds` in SRC_A's BENCHMARK.json.

For every end-to-end metric that BENCHMARK.json declares, it prints
each pair's two values and which side was better, then each side's
median and interquartile range (IQR), B's wins over the pairs (ties
count for neither side), and the relative change of B's median from
A's next to the metric's declared `bound`. It marks a metric "gain"
when B wins at least nine pairs in ten and its median is better than
A's by more than A's IQR, the rule a claimed gain must meet; "gain
below bound" when such a gain is no larger than the bound; and "worse
than bound" when B's median is worse than A's by more than the bound.
It exits with status 1 when a run reports a failed output check.
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON report of one `bench/run.py` run in `tree`; its summary
    on standard error is shown only when the run fails."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"bench/run.py exited with code {done.returncode} in {tree}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    """(median, interquartile range) of values."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), float(q3 - q1)


def better(a: float, b: float, direction: str) -> str:
    """The side with the better value, or "=" for a tie."""
    if a == b:
        return "="
    return "B" if (b < a) == (direction == "lower") else "A"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    trees = {"A": os.path.abspath(args.src_a), "B": os.path.abspath(args.src_b)}
    with open(os.path.join(trees["A"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    reports, firsts = [], []
    for k, seed in enumerate(args.seeds):
        order = "AB" if k % 2 == 0 else "BA"
        pair = {}
        for side in order:
            pair[side] = run_bench(trees[side], args.workload, seed, seconds)
            print(f"seed {seed} {side}: correct {pair[side]['correct']}, "
                  f"{pair[side]['failed']} of {pair[side]['attempted']} "
                  "checks failed", file=sys.stderr)
        reports.append(pair)
        firsts.append(order[0])

    print(f"workload {args.workload}, {len(args.seeds)} pairs, {seconds:g} s runs")
    for metric in spec["end_to_end"]:
        name, direction = metric["name"], metric["better"]
        values = {side: [r[side]["metrics"][name]["value"] for r in reports]
                  for side in "AB"}
        print(f"\n{name} ({metric['unit']}, {direction} is better)")
        wins = 0
        for seed, first, a, b in zip(args.seeds, firsts, values["A"], values["B"]):
            side = better(a, b, direction)
            wins += side == "B"
            print(f"  seed {seed} ({first} first): A {a:.6g}  B {b:.6g}  {side}")
        (med_a, iqr_a), (med_b, iqr_b) = spread(values["A"]), spread(values["B"])
        gap = med_a - med_b if direction == "lower" else med_b - med_a
        gain = wins >= 0.9 * len(reports) and gap > iqr_a
        # how much better B's median is than A's, relative to A's (< 0: worse)
        rel = gap / abs(med_a) if med_a else 0.0
        bound = metric["bound"]
        verdict = ""
        if gain:
            verdict = "; gain" if rel > bound else "; gain below bound"
        elif -rel > bound:
            verdict = "; worse than bound"
        print(f"  A median {med_a:.6g} IQR {iqr_a:.3g}; B median {med_b:.6g} "
              f"IQR {iqr_b:.3g}; B better in {wins} of {len(reports)} pairs; "
              f"B better by {100 * rel:+.1f}% (bound {100 * bound:g}%)" + verdict)
    failed = [seed for seed, r in zip(args.seeds, reports)
              if not (r["A"]["correct"] and r["B"]["correct"])]
    if failed:
        print(f"\noutput checks failed on seeds {failed}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
