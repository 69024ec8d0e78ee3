"""Cross-validation of one variable on the EVA-2021-sized synthetic scene,
timed and measured, from a given source tree.

    python scripts/eva_cv_probe.py TREE --variable ba --radii 50 75 100

TREE is the root of a firemarg checkout; its `src` is imported, so two
trees can be compared on the same scene. The scene is the one ROADMAP.md
calls the EVA scene: `SyntheticSpec(nx=70, ny=50, lon0=-125, lat0=25,
months 3-9, years 1993-2015, 14 % masked, water_frac=0.03,
small_area_frac=0.02)`, 563,500 rows, built in memory from --seed
(default 301); no CSV is written. The script builds the variable's CV
plan, then scores the radii with one `tuning.cv_score` call, at the
default 19 tail levels for burnt area. It prints the seconds each took,
the peak resident set size (`ru_maxrss`) after the scene was built and
at the end, the number of distinct surrogates with the size of a
float64 (radius, level, surrogate) score array over them, and the
sha256 of the totals' repr, which is equal between two trees exactly
when every total is.
"""

import argparse
import hashlib
import os
import resource
import sys
import time


def peak_mb() -> float:
    """Peak resident set size of this process in MB (ru_maxrss is in kB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", help="root of the firemarg checkout to import")
    parser.add_argument("--variable", choices=("cnt", "ba"), required=True)
    parser.add_argument("--radii", type=float, nargs="+", required=True)
    parser.add_argument("--seed", type=int, default=301)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.tree), "src"))

    from firemarg.neighborhoods import NeighborhoodSpec
    from firemarg.scoring import ScoreConfig
    from firemarg.synth import SyntheticSpec, generate
    from firemarg.tuning import DEFAULT_QUANTILES, build_cv_plan, cv_score

    spec = SyntheticSpec(nx=70, ny=50, lon0=-125.0, lat0=25.0,
                         months=tuple(range(3, 10)), years=tuple(range(1993, 2016)),
                         cnt_missing_rate=0.14, ba_missing_rate=0.14,
                         water_frac=0.03, small_area_frac=0.02)
    ds, _ = generate(spec, args.seed)
    print(f"scene: {ds.n} rows, {ds.cnt_missing.size} cnt and "
          f"{ds.ba_missing.size} ba masked; peak RSS {peak_mb():.0f} MB")

    start = time.perf_counter()
    plan = build_cv_plan(ds, args.variable)
    plan_s = time.perf_counter() - start
    surrogates = len(set(s for _, s in plan.pairs))
    levels = 1 if args.variable == "cnt" else len(DEFAULT_QUANTILES)
    block_mb = len(args.radii) * levels * surrogates * 8 / 2 ** 20
    print(f"plan: {len(plan.pairs)} pairs, {surrogates} distinct surrogates, "
          f"{plan_s:.1f} s")
    print(f"score array: {len(args.radii)} radii x {levels} levels x "
          f"{surrogates} surrogates = {block_mb:.1f} MB")

    config = ScoreConfig(ds.cnt_thresholds if args.variable == "cnt" else ds.ba_thresholds)
    specs = [NeighborhoodSpec(radius_km=r) for r in args.radii]
    start = time.perf_counter()
    totals = cv_score(ds, specs, plan, config,
                      k2=None if args.variable == "cnt" else DEFAULT_QUANTILES)
    cv_s = time.perf_counter() - start
    print(f"cv: {cv_s:.1f} s; peak RSS {peak_mb():.0f} MB")
    print(f"totals sha256: {hashlib.sha256(repr(totals).encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
