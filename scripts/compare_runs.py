"""`firemarg run` on a benchmark workload from two source trees, with
the outputs compared byte for byte.

    python scripts/compare_runs.py SRC_A SRC_B --workload tune-grid \
        --workload predict-spatial --seeds 301 302 [--set variant=temporal]

SRC_A and SRC_B are the roots of two firemarg checkouts. --workload may
be given more than once; every workload runs on every seed. --set
KEY=VALUE, which may also be repeated, overrides the RunConfig field KEY
in every run; VALUE is read as JSON where it parses (1, 150.0, null)
and as a string otherwise (temporal, altitude). For each
workload and seed the scene is built once with SRC_A's `bench/workloads.py`
(and its `firemarg.synth`) and written as CSV files to a temporary
directory. Each tree's `pipeline.run_all` is then called on those files
in a fresh process, with the workload's run settings and the overrides.
For every run it
prints the wall time of the call, the peak resident set size of that
process (`ru_maxrss` of RUSAGE_SELF: the interpreter and its imports
count, the prediction pool's worker processes do not), and the sha256
of predictions_cnt.csv, predictions_ba.csv, tuning.csv, scores.csv,
diagnostics.csv and manifest.json ("absent" for a file the run did not
write). For a CSV file whose digests differ it also prints, per column,
the largest absolute difference between the two runs' values, row for
row (or how many cells differ, for a column that is not numeric). It
exits with status 1 when any digest differs between the trees, on any
workload.
"""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile

OUTPUTS = ("predictions_cnt.csv", "predictions_ba.csv", "tuning.csv",
           "scores.csv", "diagnostics.csv", "manifest.json")

# argv: tree, workload, seed, data path, truth path; prints the run settings
SCENE = """
import json, os, sys
tree = sys.argv[1]
sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
from workloads import WORKLOADS, write_scene
workload = WORKLOADS[sys.argv[2]]
write_scene(workload, int(sys.argv[3]), sys.argv[4], sys.argv[5])
print(json.dumps(workload.run))
"""

# argv: tree, RunConfig fields as JSON; prints the seconds run_all took
# and the process's peak RSS in kB (Linux units of ru_maxrss)
RUN = """
import json, os, resource, sys, time
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
from firemarg.config import RunConfig
from firemarg.pipeline import run_all
config = RunConfig(**json.loads(sys.argv[2]))
start = time.perf_counter()
run_all(config)
print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def python(code: str, *args) -> str:
    """Last line of standard output of code run in a fresh interpreter;
    its standard error passes through."""
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          check=True, stdout=subprocess.PIPE, text=True)
    return done.stdout.strip().splitlines()[-1]


def digests(out_dir: str) -> dict:
    out = {}
    for name in OUTPUTS:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        else:
            out[name] = "absent"
    return out


def column_gaps(path_a: str, path_b: str) -> str:
    """The largest absolute difference of each column of two CSV files,
    row for row; a column that is not numeric counts its differing
    cells instead."""
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        a, b = list(csv.reader(fa)), list(csv.reader(fb))
    if a[:1] != b[:1] or len(a) != len(b):
        return f"header or row count differs ({len(a)} vs {len(b)} lines)"
    gaps = []
    for c, name in enumerate(a[0]):
        pairs = [(ra[c], rb[c]) for ra, rb in zip(a[1:], b[1:])]
        try:
            gap = max((abs(float(x) - float(y)) for x, y in pairs), default=0.0)
            gaps.append(f"{name} {gap:.3g}")
        except ValueError:
            gaps.append(f"{name} {sum(x != y for x, y in pairs)} cells")
    return "max |A - B|: " + ", ".join(gaps)


def override(text: str) -> tuple:
    """KEY=VALUE as (KEY, VALUE), VALUE read as JSON where it parses."""
    key, sep, raw = text.partition("=")
    if not (key and sep):
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def compare_seed(trees: list, workload: str, seed: int, work: str,
                 overrides: dict) -> bool:
    data = os.path.join(work, "data.csv")
    truth = os.path.join(work, "truth.csv")
    settings = json.loads(python(SCENE, trees[0], workload, seed, data, truth))
    settings.update(overrides)
    results = []
    for label, tree in zip("AB", trees):
        out_dir = os.path.join(work, label)
        config = dict(settings, data_path=data, truth_path=truth, seed=seed,
                      out_dir=out_dir)
        seconds, peak_kb = python(RUN, tree, json.dumps(config)).split()
        results.append(digests(out_dir))
        print(f"{workload} seed {seed} {label}: run_all {float(seconds):.3f} s, "
              f"peak RSS {int(peak_kb) / 1024:.1f} MB")
    same = results[0] == results[1]
    for name in OUTPUTS:
        a, b = results[0][name], results[1][name]
        print(f"  {name:20s} {a}" + ("" if a == b else f"  DIFFERS: B {b}"))
        if a != b and "absent" not in (a, b) and name.endswith(".csv"):
            print("    " + column_gaps(os.path.join(work, "A", name),
                                       os.path.join(work, "B", name)))
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--set", type=override, action="append", default=[],
                        metavar="KEY=VALUE", dest="overrides")
    args = parser.parse_args(argv)
    trees = [os.path.abspath(args.src_a), os.path.abspath(args.src_b)]

    differing = []
    for workload in args.workload:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as work:
                if not compare_seed(trees, workload, seed, work,
                                    dict(args.overrides)):
                    differing.append(f"{workload}/{seed}")
    runs = len(args.workload) * len(args.seeds)
    if differing:
        print(f"outputs differ on {len(differing)} of {runs} runs: "
              + " ".join(differing))
        return 1
    print(f"outputs identical on all {runs} (workload, seed) runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
