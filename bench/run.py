"""Benchmark of `firemarg run` (`pipeline.run_all`) on synthetic scenes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the program from
`src/`. It generates the workload's scene from the seed and writes it
as CSV files under bench/work/. Until S seconds have passed it then
starts round after round of bench/child.py, each a fresh process like
one `firemarg run`, which times reading that CSV into a Dataset
(set-up) and one `run_all` call on the files, while this process
samples the memory of that process and its workers and keeps the
call's peak. Every call's artifacts are then checked by
bench/checks.py. With --trace 1 the rounds alternate between an
untraced and a traced call, and the traced calls give the per-layer
metrics.

A summary goes to standard error. The last line of standard output is
one JSON object: correct, attempted, failed (checked operations) and
the metrics BENCHMARK.json declares, end-to-end ones with --trace 0 and
per-layer ones with --trace 1, each with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import monotonic, sleep

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

SAMPLE_S = 0.02            # memory sampling interval


def _process_tree(pid: int) -> list:
    pids, todo = [], [pid]
    while todo:
        p = todo.pop()
        pids.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except OSError:
            pass               # exited while we looked
    return pids


def _rss_kib(pid: int) -> int:
    """Resident set size; pages a forked worker shares with its parent
    count in both."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass               # exited
    return 0


def run_child(job: dict, timeout_s: float) -> tuple:
    """Run one round in bench/child.py; return its result and the memory
    samples of its process tree, as (time.monotonic(), MB) pairs."""
    job_path = job["result"] + ".job"
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                             job_path], stdout=sys.stderr, cwd=ROOT)
    samples = []
    deadline = monotonic() + timeout_s
    try:
        while proc.poll() is None:
            if monotonic() > deadline:
                raise TimeoutError(f"a run_all round took over {timeout_s} s")
            kib = sum(_rss_kib(p) for p in _process_tree(proc.pid))
            samples.append((monotonic(), kib * 1024 / 1e6))
            sleep(SAMPLE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"bench/child.py exited with code {proc.returncode}")
    with open(job["result"]) as fh:
        return json.load(fh), samples


def call_peak_mb(samples: list, window: list) -> float:
    """Highest memory sample taken while one `run_all` call ran."""
    start, end = window
    return max(mb for t, mb in samples if start <= t <= end)


def declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "firemarg", "__init__.py")):
        print(f"error: no src/firemarg under {ROOT}; run from the root of a "
              "firemarg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    units = declared_metrics(bool(args.trace))

    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    data_path = os.path.join(work, "data.csv")
    truth_path = os.path.join(work, "truth.csv")
    size = workloads.write_scene(workload, args.seed, data_path, truth_path)

    config = dict(workload.run, data_path=data_path, truth_path=truth_path,
                  seed=args.seed)
    # Rounds run until the run length has passed; with tracing they
    # alternate between an untraced and a traced call. A round that
    # starts just before the end may take about as long again; the
    # timeout allows for a program slowed to a third of its speed.
    timeout_s = 3 * args.seconds + 60
    reps, setup = [], []
    start = monotonic()
    while (len(reps) < 1 + args.trace
           or monotonic() - start < args.seconds):
        traced = bool(args.trace) and len(reps) % 2 == 1
        n = len(reps)
        result, samples = run_child(
            {"src": SRC, "config": config, "traced": traced,
             "out_dir": os.path.join(work, f"rep{n}"),
             "result": os.path.join(work, f"rep{n}.json")}, timeout_s)
        rep = result["rep"]
        rep["peak_mb"] = call_peak_mb(samples, rep["window"])
        reps.append(rep)
        setup += result["setup"]

    scene = checks.read_scene(data_path, truth_path)
    tally = checks.Tally()
    tuned = "k1_cnt" not in workload.run
    outcomes = []
    for rep in reps:
        reference = outcomes[0]["hashes"] if outcomes else None
        outcomes.append(checks.check_run(scene, rep["out_dir"], tuned, tally,
                                         reference))

    untraced = [r for r in reps if not r["traced"]]
    run_s = statistics.median(r["run_s"] for r in untraced)
    rows = size["cnt_masked"] + size["ba_masked"]
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        metrics = {name: statistics.median_low(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_ratio"] = (
            statistics.median_low(r["run_s"] for r in traced) / run_s)
    else:
        metrics = {"run_s": run_s, "setup_s": statistics.median(setup),
                   "rows_per_s": rows / run_s,
                   "peak_rss_mb": statistics.median(r["peak_mb"] for r in untraced),
                   "score_total": outcomes[0]["score_total"]}
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    report = sys.stderr
    print(f"workload {args.workload}, seed {args.seed}: {size['rows']} rows, "
          f"{size['cnt_masked']} cnt / {size['ba_masked']} ba masked",
          file=report)
    if setup:
        print(f"set-up (ingest) s: {' '.join(f'{s:.3f}' for s in setup)}",
              file=report)
    for rep in reps:
        print(f"run_all {'traced  ' if rep['traced'] else 'untraced'} "
              f"{rep['run_s']:.3f} s, peak {rep['peak_mb']:.1f} MB", file=report)
    first = outcomes[0]
    print(f"selected {first['selected']}; score total {first['score_total']:.6f}, "
          f"pooled ECDF {first['ecdf_total']:.6f}", file=report)
    for name, digest in first["hashes"].items():
        print(f"sha256 {name} {digest}", file=report)
    if args.trace:
        spans = traced[-1]["spans"]
        print(f"{'span':36s} {'calls':>9s} {'total s':>9s} {'self s':>9s}",
              file=report)
        for name, (calls, secs, own) in sorted(spans.items(),
                                               key=lambda kv: -kv[1][2]):
            print(f"{name:36s} {calls:9d} {secs:9.3f} {own:9.3f}", file=report)
    print(f"checks: {tally.attempted} attempted, {tally.failed} failed", file=report)
    for problem in tally.problems:
        print(f"  FAILED {problem}", file=report)
    if tally.failed:
        print(f"outputs kept in {work}", file=report)
    else:
        shutil.rmtree(work)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
