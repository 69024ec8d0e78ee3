"""The GPD tail fits of a `tune-grid` scene: profile likelihood against
the Nelder-Mead reference.

This builds the benchmark's `tune-grid` scene for one seed, runs
`select_parameters` on it as `firemarg run` does with k1/k2 unset, and
records every distinct exceedance set that `fit_mixture` hands to
`fit_gpd`. It then fits each set with `burnt_area.fit_gpd` and with the
Nelder-Mead reference kept in tests/test_burnt_area.py, and prints the
time per fit of each, the range of the log-likelihood gap (new minus
reference), the sets below the reference by more than 1e-6, and how
many new fits are edge fits (xi = -1, the uniform law), with how many of
those the reference only approached.

    PYTHONPATH=src python scripts/gpd_fit_corpus.py --seed 301
"""

import argparse
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "tests")]

from firemarg import burnt_area  # noqa: E402
from firemarg.config import RunConfig  # noqa: E402
from firemarg.errors import GpdFitError  # noqa: E402
from firemarg.neighborhoods import NeighborhoodSpec  # noqa: E402
from firemarg.synth import generate  # noqa: E402
from firemarg.tuning import TuningGrid, select_parameters  # noqa: E402
from test_burnt_area import gpd_loglik, nelder_mead_fit_gpd  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GATE = 1e-6


def record_corpus(seed: int) -> list:
    """Distinct (values, threshold) pairs fit_gpd receives while tuning."""
    workload = WORKLOADS["tune-grid"]
    ds, _ = generate(workload.scene, seed)
    config = RunConfig(**workload.run)
    corpus: dict = {}
    original = burnt_area.fit_gpd

    def recording(values, threshold, *args, **kwargs):
        values = np.asarray(values, dtype=float)
        corpus.setdefault((values.tobytes(), float(threshold)), values.copy())
        return original(values, threshold, *args, **kwargs)

    burnt_area.fit_gpd = recording
    try:
        select_parameters(
            ds, TuningGrid(radii=config.radii),
            TuningGrid(radii=config.radii, quantiles=config.quantiles),
            base_spec=NeighborhoodSpec(variant=config.variant,
                                       radius_km=config.radii[0]))
    finally:
        burnt_area.fit_gpd = original
    return [(values, threshold) for (_, threshold), values in corpus.items()]


def timed(fit, corpus):
    out = []
    t0 = time.perf_counter()
    for values, threshold in corpus:
        try:
            out.append(fit(values, threshold))
        except GpdFitError:
            out.append(None)
    return out, (time.perf_counter() - t0) / len(corpus)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=301)
    args = ap.parse_args(argv)

    corpus = record_corpus(args.seed)
    new, new_s = timed(burnt_area.fit_gpd, corpus)
    ref, ref_s = timed(nelder_mead_fit_gpd, corpus)
    gaps = np.array([gpd_loglik(a, v) - gpd_loglik(b, v)
                     for (v, _), a, b in zip(corpus, new, ref)
                     if a is not None and b is not None])
    sizes = [v.size for v, _ in corpus]
    print(f"seed {args.seed}: {len(corpus)} distinct exceedance sets, "
          f"n {min(sizes)}-{max(sizes)}")
    print(f"time per fit: profile {1e3 * new_s:.3f} ms, "
          f"Nelder-Mead {1e3 * ref_s:.3f} ms")
    print(f"failed fits: profile {new.count(None)}, Nelder-Mead {ref.count(None)}")
    print(f"log-likelihood gap (profile - Nelder-Mead): "
          f"[{gaps.min():.3g}, {gaps.max():.3g}] on {gaps.size} sets; "
          f"{int(np.sum(gaps < -GATE))} below -{GATE:g}")
    edges = [b for a, b in zip(new, ref)
             if a is not None and a.xi == burnt_area.XI_LO]
    crept = sum(1 for b in edges if b is not None and b.xi < burnt_area.XI_LO + 1e-3)
    print(f"edge fits (xi = {burnt_area.XI_LO:g}): {len(edges)}, of which "
          f"Nelder-Mead crept to xi < {burnt_area.XI_LO + 1e-3:g} on {crept}")


if __name__ == "__main__":
    main()
