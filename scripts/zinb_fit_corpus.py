"""The ZINB count fits of the benchmark scenes: the stacked `fit_zinbs`
against lone fits and against the reference Newton search kept in
tests/test_counts.py.

For each seed this builds the benchmark's `tune-grid` and
`predict-spatial` scenes, runs cross-validation on the first (as
`firemarg run` does with k1/k2 unset) and prediction on both, in one
process, and records every distinct sample that cross-validation and
prediction hand to `fit_zinbs` (both call it from `tuning`), with the
fit it got in its batch there; an empty corpus is an error. Per corpus
it prints how many of those stacked fits differ from `fit_zinbs` on the
sample alone, in any field, bit for bit (there should be none). It then
fits each corpus with one `counts.fit_zinbs` call and each sample with
`reference_fit_zinb`, and prints the time per fit of each, how many
fits differ in kind or fallback reason, the range of the
log-likelihood gap relative to the reference (new minus reference,
over |reference|), and the largest differences of mu, r, the
variance-to-mean ratio 1 + mu / r and pi. It exits with status 1 when
a stacked fit differs from the lone one.

    PYTHONPATH=src python scripts/zinb_fit_corpus.py --seeds 301 302
"""

import argparse
import os
import sys
import time
from dataclasses import fields, replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "tests")]

from firemarg import tuning  # noqa: E402
from firemarg.config import RunConfig  # noqa: E402
from firemarg.counts import FALLBACKS, ZINB, ZinbParams, fit_zinbs, sample_range  # noqa: E402
from firemarg.pipeline import choose_water_cut, predict_missing, tune_parameters  # noqa: E402
from firemarg.synth import generate  # noqa: E402
from test_counts import reference_fit_zinb  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def record(corpus: dict, step) -> None:
    """Run step() with every sample that `tuning` fits through fit_zinbs
    recorded into corpus, keyed by its sorted values, as (sample, the
    sample's fits in its batch)."""
    def recording(samples):
        fits = fit_zinbs(samples)
        for i, sample in enumerate(samples):
            key = np.sort(np.asarray(sample, dtype=float)).tobytes()
            corpus.setdefault(key, (sample, sample_range(fits, i, i + 1)))
        return fits

    tuning.fit_zinbs = recording
    try:
        step()
    finally:
        tuning.fit_zinbs = fit_zinbs


def corpora(seed: int) -> dict:
    """Distinct count samples fitted by CV and by prediction."""
    out = {"cv": {}, "prediction": {}}
    for name in ("tune-grid", "predict-spatial"):
        workload = WORKLOADS[name]
        ds, _ = generate(workload.scene, seed)
        config = replace(RunConfig(**workload.run), workers=1)
        if config.k1_cnt is None:
            result = []
            record(out["cv"], lambda: result.append(tune_parameters(ds, config)))
            config = replace(config, k1_cnt=result[0].cnt_radius,
                             k1_bap=result[0].bap_radius,
                             k2_bap=result[0].bap_quantile)
        record(out["prediction"],
               lambda: predict_missing(ds, config, choose_water_cut(ds, config)))
    for name, samples in out.items():
        if not samples:
            raise RuntimeError(f"seed {seed}: no {name} sample reached fit_zinbs")
    return {name: list(samples.values()) for name, samples in out.items()}


def timed(fit, samples):
    t0 = time.perf_counter()
    fits = fit(samples)
    return fits, (time.perf_counter() - t0) / len(samples)


def relative(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def same_fits(a, b) -> bool:
    """Every field of two batches of fits equal, bit for bit."""
    return all(getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes()
               for f in fields(a))


def report(name: str, recorded: list) -> int:
    """Print the corpus's comparisons; the number of stacked fits that
    differ from the lone fit."""
    samples = [sample for sample, _ in recorded]
    differ = sum(not same_fits(stacked, fit_zinbs([sample])) for sample, stacked in recorded)
    fits, new_s = timed(fit_zinbs, samples)
    ref, ref_s = timed(lambda ss: [reference_fit_zinb(s) for s in ss], samples)
    code = fits.code[:, 0].tolist()
    kinds = sum(FALLBACKS[c] != b.fallback_reason for c, b in zip(code, ref))
    both = [(ZinbParams(fits.pi[i, 0], fits.mu[i, 0], fits.r[i, 0]), fits.loglik[i, 0], b)
            for i, (c, b) in enumerate(zip(code, ref)) if c == ZINB and b.kind == "zinb"]
    gaps = [(ll - b.loglik) / abs(b.loglik) for _, ll, b in both]
    print(f"{name}: {len(samples)} distinct samples, {len(both)} ZINB fits; "
          f"time per fit {1e3 * new_s:.3f} ms, reference {1e3 * ref_s:.3f} ms")
    print(f"  stacked fits that differ from the sample fitted alone: {differ}")
    print(f"  kind or fallback reason differs: {kinds}")
    print(f"  relative log-likelihood gap: [{min(gaps, default=0.0):.3g}, "
          f"{max(gaps, default=0.0):.3g}]")
    measures = {
        "relative difference of mu": lambda p: p.mu,
        "relative difference of r": lambda p: p.r,
        "relative difference of 1 + mu / r": lambda p: 1.0 + p.mu / p.r,
        "relative difference of pi": lambda p: p.pi,
    }
    for label, value in measures.items():
        worst = max((relative(value(a), value(b.params)) for a, _, b in both), default=0.0)
        print(f"  largest {label}: {worst:.3g}")
    worst = max((abs(a.pi - b.params.pi) for a, _, b in both), default=0.0)
    print(f"  largest absolute difference of pi: {worst:.3g}")
    return differ


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[301])
    args = ap.parse_args(argv)
    pooled = {"cv": [], "prediction": []}
    for seed in args.seeds:
        for name, samples in corpora(seed).items():
            pooled[name] += samples
    differ = sum(report(f"{name} (seeds {' '.join(map(str, args.seeds))})", recorded)
                 for name, recorded in pooled.items())
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
