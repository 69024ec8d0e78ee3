"""One round of the benchmark in a fresh process, as `firemarg run`
starts one: its memory is that call's and nothing else's.

    python3 bench/child.py JOB.json

JOB.json names the source tree, the RunConfig fields, the output
directory and whether the call is traced. An untraced round first
times set-up (`data.ingest` on the scene CSV, called until the round
has spent SETUP_MIN_S in it), then makes one `run_all` call into the
output directory. The timings, the call's `time.monotonic` window
(which the parent matches against its memory samples) and, when
traced, the call's per-layer metrics are written to JOB.json's
`result` path.
"""

from __future__ import annotations

import json
import pickle
import sys
from dataclasses import replace
from time import monotonic, perf_counter

SETUP_MIN_S = 0.25


def main(job_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from firemarg.config import RunConfig
    from firemarg.data import ingest
    from firemarg.pipeline import run_all

    import tracer

    config = RunConfig(**job["config"])
    setup = []
    while not job["traced"] and sum(setup) < SETUP_MIN_S:
        t0 = perf_counter()
        ingest(config.data_path)
        setup.append(perf_counter() - t0)

    t = tracer.Tracer() if job["traced"] else None
    if t:
        t.install()
    try:
        window = [monotonic()]
        t0 = perf_counter()
        artifacts = run_all(replace(config, out_dir=job["out_dir"]))
        run_s = perf_counter() - t0
        window.append(monotonic())
    finally:
        if t:
            t.uninstall()
    rep = {"out_dir": job["out_dir"], "run_s": run_s, "traced": bool(t),
           "window": window}
    if t:
        ds = artifacts.dataset
        rep["layers"] = tracer.layer_metrics(t, ds.n, len(pickle.dumps(ds)))
        rep["spans"] = t.spans
    with open(job["result"], "w") as fh:
        json.dump({"rep": rep, "setup": setup}, fh)


if __name__ == "__main__":
    main(sys.argv[1])
