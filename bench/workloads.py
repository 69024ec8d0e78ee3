"""The benchmark's workloads: one synthetic scene per workload, built
from a seed with `firemarg.synth`, written as the CSV files `firemarg
run` reads, plus the run settings that pick the path through
`pipeline.run_all`.

The scenes are smaller than the EVA 2021 table so that one benchmark
run (set-up, several timed `run_all` calls and the output checks) ends
well within a minute on two cores; README.md gives their
make-up and why each is shaped as it is; BENCHMARK.json says what
each workload exercises.
"""

from __future__ import annotations

from dataclasses import dataclass

from firemarg.data import write_csv
from firemarg.pipeline import write_truth_csv
from firemarg.synth import SyntheticSpec, generate


@dataclass(frozen=True)
class Workload:
    name: str
    scene: SyntheticSpec
    run: dict          # RunConfig fields besides the paths and the seed


WORKLOADS = {w.name: w for w in (
    Workload(
        name="tune-grid",
        # single-cell masks: with 3x3 blobs the few blobs of a small
        # scene land in one regime or the other and the score total
        # swings by a quarter between seeds
        scene=SyntheticSpec(nx=20, ny=20, months=(6,), years=(2000, 2001),
                            cnt_missing_rate=0.14, ba_missing_rate=0.14,
                            mask_blob_cells=0.4),
        run=dict(variant="spatial", workers=1),
    ),
    Workload(
        name="predict-spatial",
        scene=SyntheticSpec(nx=70, ny=50, lon0=-125.0, lat0=25.0,
                            months=tuple(range(3, 10)), years=(2000,),
                            cnt_missing_rate=0.14, ba_missing_rate=0.14,
                            water_frac=0.03, small_area_frac=0.02),
        run=dict(variant="spatial", k1_cnt=150.0, k1_bap=150.0, k2_bap=0.8,
                 workers=2),
    ),
)}


def write_scene(workload: Workload, seed: int, data_path: str,
                truth_path: str) -> dict:
    """Generate the workload's scene from the seed and write it as the
    program's input CSV and the withheld-truth CSV, as `firemarg synth`
    does. Returns its size."""
    ds, truth = generate(workload.scene, seed)
    write_csv(ds, data_path)
    write_truth_csv(ds.cnt_missing,
                    {int(i): float(truth.cnt_full[i]) for i in ds.cnt_missing},
                    ds.ba_missing,
                    {int(i): float(truth.ba_full[i]) for i in ds.ba_missing},
                    truth_path)
    return {"rows": int(ds.n), "cnt_masked": int(ds.cnt_missing.size),
            "ba_masked": int(ds.ba_missing.size)}
