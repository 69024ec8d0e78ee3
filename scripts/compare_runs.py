"""`firemarg run` on a benchmark workload from two source trees, with
the outputs compared byte for byte.

    python scripts/compare_runs.py SRC_A SRC_B --workload tune-grid --seeds 301 302

SRC_A and SRC_B are the roots of two firemarg checkouts. For each seed
the workload's scene is built once with SRC_A's `bench/workloads.py`
(and its `firemarg.synth`) and written as CSV files to a temporary
directory. Each tree's `pipeline.run_all` is then called on those files
in a fresh process, with the workload's run settings. For every run it
prints the wall time of the call and the sha256 of predictions_cnt.csv,
predictions_ba.csv, tuning.csv, scores.csv, diagnostics.csv and
manifest.json ("absent" for a file the run did not write). It exits
with status 1 when any digest differs between the trees.
"""

import argparse
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
RUN = """
import json, os, sys, time
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
from firemarg.config import RunConfig
from firemarg.pipeline import run_all
config = RunConfig(**json.loads(sys.argv[2]))
start = time.perf_counter()
run_all(config)
print(time.perf_counter() - start)
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


def compare_seed(trees: list, workload: str, seed: int, work: str) -> bool:
    data = os.path.join(work, "data.csv")
    truth = os.path.join(work, "truth.csv")
    settings = json.loads(python(SCENE, trees[0], workload, seed, data, truth))
    results = []
    for label, tree in zip("AB", trees):
        out_dir = os.path.join(work, label)
        config = dict(settings, data_path=data, truth_path=truth, seed=seed,
                      out_dir=out_dir)
        seconds = float(python(RUN, tree, json.dumps(config)))
        results.append(digests(out_dir))
        print(f"seed {seed} {label}: run_all {seconds:.3f} s")
    same = results[0] == results[1]
    for name in OUTPUTS:
        a, b = results[0][name], results[1][name]
        print(f"  {name:20s} {a}" + ("" if a == b else f"  DIFFERS: B {b}"))
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    trees = [os.path.abspath(args.src_a), os.path.abspath(args.src_b)]

    differing = []
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as work:
            if not compare_seed(trees, args.workload, seed, work):
                differing.append(seed)
    if differing:
        print(f"outputs differ on seeds {differing}")
        return 1
    print(f"outputs identical on all {len(args.seeds)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
