"""The GPD tail fits of a `tune-grid` scene: profile likelihood against
the Nelder-Mead reference, and stacked fits against lone ones.

This builds the benchmark's `tune-grid` scene for one seed, runs
`pipeline.tune_parameters` on it as `firemarg run` does with k1/k2
unset, and records every distinct exceedance set that cross-validation
hands to the stacked search `burnt_area.fit_gpds`, a row of one of its
blocks, with the fit it got there. It prints how many blocks `fit_gpds`
was handed and the median number of sets in a block, and how many of
the stacked fits differ from `burnt_area.fit_gpd` on the set alone
(there should be none). It then fits each set with `fit_gpd` and with
the Nelder-Mead reference kept in tests/test_burnt_area.py, and prints
the time per fit of each (and of the stacked search), the range of the
log-likelihood gap (new minus reference), the sets below the reference
by more than 1e-6, and how many new fits are edge fits (xi = -1, the
uniform law), with how many of those the reference only approached.
It exits with status 1 when a stacked fit differs from the lone one.

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
from firemarg.pipeline import tune_parameters  # noqa: E402
from firemarg.synth import generate  # noqa: E402
from test_burnt_area import gpd_loglik, nelder_mead_fit_gpd  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GATE = 1e-6


def record_corpus(seed: int) -> tuple:
    """Distinct (values, threshold, stacked fit) triples fit_gpds
    receives while tuning, the seconds fit_gpds took per set it was
    handed (repeats included), and the number of sets in each block it
    was handed."""
    workload = WORKLOADS["tune-grid"]
    ds, _ = generate(workload.scene, seed)
    config = RunConfig(**workload.run)
    corpus: dict = {}
    spent, blocks = 0.0, []
    original = burnt_area.fit_gpds

    def recording(block, thresholds):
        nonlocal spent
        t0 = time.perf_counter()
        sigma, xi = original(block, thresholds)
        spent += time.perf_counter() - t0
        blocks.append(len(block))
        for values, threshold, fit in zip(block, np.asarray(thresholds).tolist(),
                                          zip(sigma.tolist(), xi.tolist())):
            corpus.setdefault((values.tobytes(), threshold),
                              (values.copy(), threshold, fit))
        return sigma, xi

    burnt_area.fit_gpds = recording
    try:
        tune_parameters(ds, config)
    finally:
        burnt_area.fit_gpds = original
    return list(corpus.values()), spent / max(sum(blocks), 1), blocks


def timed(fit, corpus):
    out = []
    t0 = time.perf_counter()
    for values, threshold in corpus:
        try:
            out.append(fit(values, threshold))
        except GpdFitError:
            out.append(None)
    return out, (time.perf_counter() - t0) / len(corpus)


def same_fit(stacked, alone) -> bool:
    """Bit for bit: the same (sigma, xi), or a failure (NaN) in both."""
    if alone is None:
        return all(np.isnan(stacked))
    return stacked == (alone.sigma, alone.xi)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=301)
    args = ap.parse_args(argv)

    recorded, stacked_s, blocks = record_corpus(args.seed)
    if not recorded:
        raise SystemExit(f"seed {args.seed}: cross-validation fitted no GPD tail")
    corpus = [(values, threshold) for values, threshold, _ in recorded]
    new, new_s = timed(burnt_area.fit_gpd, corpus)
    differ = sum(not same_fit(fit, alone)
                 for (_, _, fit), alone in zip(recorded, new))
    ref, ref_s = timed(nelder_mead_fit_gpd, corpus)
    gaps = np.array([gpd_loglik(a, v) - gpd_loglik(b, v)
                     for (v, _), a, b in zip(corpus, new, ref)
                     if a is not None and b is not None])
    sizes = [v.size for v, _ in corpus]
    print(f"seed {args.seed}: {len(corpus)} distinct exceedance sets, "
          f"n {min(sizes)}-{max(sizes)}")
    print(f"fit_gpds blocks: {len(blocks)}, median sets per block "
          f"{np.median(blocks):g}")
    print(f"stacked fits that differ from the set fitted alone: {differ}")
    print(f"time per fit: profile {1e3 * new_s:.3f} ms alone, "
          f"{1e3 * stacked_s:.3f} ms stacked, Nelder-Mead {1e3 * ref_s:.3f} ms")
    print(f"failed fits: profile {new.count(None)}, Nelder-Mead {ref.count(None)}")
    print(f"log-likelihood gap (profile - Nelder-Mead): "
          f"[{gaps.min():.3g}, {gaps.max():.3g}] on {gaps.size} sets; "
          f"{int(np.sum(gaps < -GATE))} below -{GATE:g}")
    edges = [b for a, b in zip(new, ref)
             if a is not None and a.xi == burnt_area.XI_LO]
    crept = sum(1 for b in edges if b is not None and b.xi < burnt_area.XI_LO + 1e-3)
    print(f"edge fits (xi = {burnt_area.XI_LO:g}): {len(edges)}, of which "
          f"Nelder-Mead crept to xi < {burnt_area.XI_LO + 1e-3:g} on {crept}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
