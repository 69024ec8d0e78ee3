"""Nearest-neighbor cross-validation for the pooling radius and the
tail threshold level.

Each missing index is stood in for by its spatially nearest non-missing
observation in the same (month, year) slice. Candidate parameters are
scored by fitting the marginal model on the surrogate's neighborhood
(with the surrogate's own value left out), predicting the CDF row, and
scoring it against the surrogate's observed value. Empty neighborhoods
widen along the same ladder the predictor uses, so each candidate is
scored on the full plan. The candidate combination with the smallest
total score wins; ties go to the smaller parameters.

Fits are memoized by (surrogate, exact fitting sample, k2): nearby
radius candidates often produce identical neighborhoods on a regular
grid and clustered masks map many validation cells onto one surrogate,
so the cache carries most of the grid search.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .burnt_area import BaMixture, fit_mixture
from .counts import CountModel, fit_zinb
from .data import Dataset
from .errors import DataError
from .geo import haversine_km, rescaled_thresholds
from .neighborhoods import (
    NeighborhoodSpec,
    bap_sample,
    build_neighborhood,
    cnt_sample,
)
from .scoring import ScoreConfig, score_one

log = logging.getLogger(__name__)

DEFAULT_RADII = tuple(float(r) for r in range(50, 401, 25))
DEFAULT_QUANTILES = tuple(round(0.05 * k, 2) for k in range(1, 20))


@dataclass(frozen=True)
class TuningGrid:
    radii: tuple = DEFAULT_RADII
    quantiles: tuple = ()      # searched for the burnt-area model only

    def __post_init__(self):
        if not self.radii:
            raise DataError("radius grid must be nonempty")
        if any(r < 0 for r in self.radii):
            raise DataError("radii must be nonnegative")
        if any(not 0.0 < q < 1.0 for q in self.quantiles):
            raise DataError("quantiles must lie in (0,1)")


@dataclass(frozen=True)
class CvPlan:
    variable: str                       # "cnt" or "ba"
    pairs: tuple                        # (validation index, surrogate index)
    skipped: tuple = ()                 # validation indices with no candidate


def build_cv_plan(ds: Dataset, variable: str) -> CvPlan:
    """Surrogate = nearest same-slice observation with the variable
    present; ties broken by the smallest observation id."""
    if variable == "cnt":
        missing, column = ds.cnt_missing, ds.cnt
    elif variable == "ba":
        missing, column = ds.ba_missing, ds.ba
    else:
        raise DataError(f"unknown variable {variable!r}")
    observed = ~np.isnan(column)
    pairs = []
    skipped = []
    for i in missing:
        key = (int(ds.month[i]), int(ds.year[i]))
        slice_ids = ds.spatial_index[key].ids
        cand = slice_ids[observed[slice_ids]]
        if cand.size == 0:
            skipped.append(int(i))
            continue
        d = np.atleast_1d(haversine_km(ds.lon[i], ds.lat[i],
                                       ds.lon[cand], ds.lat[cand],
                                       radius_km=ds.radius_km))
        best = d.min()
        surrogate = int(cand[d == best].min())
        pairs.append((int(i), surrogate))
    if skipped:
        log.warning("cv plan (%s): %d indices had no same-slice candidate",
                    variable, len(skipped))
    return CvPlan(variable=variable, pairs=tuple(pairs), skipped=tuple(skipped))


def _cv_sample(ds, surrogate, variable, spec):
    """Fitting sample for one surrogate, mirroring the prediction ladder.

    An empty neighborhood widens to the (month, year) slice and then to
    the same-month pool, always without the surrogate itself. Every
    radius therefore scores every pair; a candidate can never win the
    grid search by leaving pairs unscored.
    """
    column = ds.cnt if variable == "cnt" else ds.bap
    nb = build_neighborhood(ds, surrogate, spec)
    sample = (cnt_sample if variable == "cnt" else bap_sample)(
        ds, nb, exclude=surrogate)
    if sample.size:
        return sample
    ids = ds.spatial_index[(int(ds.month[surrogate]), int(ds.year[surrogate]))].ids
    pool = column[ids[ids != surrogate]]
    pool = pool[~np.isnan(pool)]
    if pool.size:
        return pool
    keep = ds.month == ds.month[surrogate]
    keep[surrogate] = False
    pool = column[keep]
    return pool[~np.isnan(pool)]


def _fit_cnt_cached(sample, surrogate, cache):
    key = ("cnt", surrogate, sample.tobytes())
    if cache is not None and key in cache:
        return cache[key]
    model = fit_zinb(sample) if sample.size else None
    if cache is not None:
        cache[key] = model
    return model


def _fit_bap_cached(sample, surrogate, k2, cache):
    key = ("bap", surrogate, sample.tobytes(), k2)
    if cache is not None and key in cache:
        return cache[key]
    model = fit_mixture(sample, k2) if sample.size else None
    if cache is not None:
        cache[key] = model
    return model


def cnt_cdf_row(model: CountModel, thresholds) -> np.ndarray:
    return np.asarray(model.cdf(thresholds), dtype=float)


def ba_cdf_row(model: BaMixture, ba_thresholds, capacity: float) -> np.ndarray:
    """Evaluate a burnt-area-proportion model on the absolute grid.

    Thresholds at or above the cell capacity are certainties and pinned
    to 1 regardless of the fitted tail.
    """
    scaled, forced = rescaled_thresholds(ba_thresholds, capacity)
    row = np.asarray(model.cdf(scaled), dtype=float)
    row[forced] = 1.0
    return np.maximum.accumulate(row)


def cv_samples(ds: Dataset, spec: NeighborhoodSpec, plan: CvPlan) -> dict:
    """Fitting sample of each distinct surrogate in the plan under spec."""
    surrogates = dict.fromkeys(surrogate for _, surrogate in plan.pairs)
    return {surrogate: _cv_sample(ds, surrogate, plan.variable, spec)
            for surrogate in surrogates}


def cv_score(ds: Dataset, spec: NeighborhoodSpec, plan: CvPlan,
             config: ScoreConfig, k2: float | None = None,
             cache: dict | None = None, samples: dict | None = None) -> float:
    """Total score of the candidate parameters over the CV plan.

    Duplicate surrogates are scored once per occurrence. A pair is
    skipped only when the surrogate is the lone observation in its
    month pool, which no radius can change. samples, when given, maps
    each surrogate to its fitting sample under spec (see
    `cv_samples`), so candidates that share a radius share the
    neighborhood queries.
    """
    scores = []
    for _, surrogate in plan.pairs:
        sample = (samples[surrogate] if samples is not None
                  else _cv_sample(ds, surrogate, plan.variable, spec))
        if plan.variable == "cnt":
            model = _fit_cnt_cached(sample, surrogate, cache)
            if model is None:
                continue
            row = cnt_cdf_row(model, config.thresholds)
            observed = float(ds.cnt[surrogate])
        else:
            model = _fit_bap_cached(sample, surrogate, k2, cache)
            if model is None:
                continue
            row = ba_cdf_row(model, config.thresholds, float(ds.capacity[surrogate]))
            observed = float(ds.ba[surrogate])
        scores.append(score_one(row, observed, config))
    return float(np.sum(scores)) if scores else 0.0


@dataclass(frozen=True)
class TuningResult:
    cnt_radius: float
    bap_radius: float
    bap_quantile: float
    cnt_scores: tuple            # (radius, score) per candidate
    bap_scores: tuple            # (radius, quantile, score) per candidate


def select_parameters(ds: Dataset, cnt_grid: TuningGrid, bap_grid: TuningGrid,
                      base_spec: NeighborhoodSpec = NeighborhoodSpec(),
                      cnt_weights=None, ba_weights=None) -> TuningResult:
    """Exhaustive grid search over the candidate parameters.

    The count model searches radii; the burnt-area model searches the
    (radius, quantile) product. Deterministic: smallest parameters win
    ties, and the shared fit cache cannot change any score.
    """
    if not bap_grid.quantiles:
        raise DataError("burnt-area grid needs quantile candidates")
    cnt_cfg = ScoreConfig(ds.cnt_thresholds, cnt_weights)
    ba_cfg = ScoreConfig(ds.ba_thresholds, ba_weights)
    cache: dict = {}

    cnt_plan = build_cv_plan(ds, "cnt")
    cnt_scores = []
    for radius in cnt_grid.radii:
        spec = replace(base_spec, radius_km=float(radius))
        cnt_scores.append((float(radius),
                           cv_score(ds, spec, cnt_plan, cnt_cfg, cache=cache)))
    cnt_best = min(cnt_scores, key=lambda t: (t[1], t[0]))[0]

    ba_plan = build_cv_plan(ds, "ba")
    bap_scores = []
    for radius in bap_grid.radii:
        spec = replace(base_spec, radius_km=float(radius))
        # built once per radius and shared by its quantiles; the next
        # radius replaces them, so memory does not grow with the grid
        samples = cv_samples(ds, spec, ba_plan)
        for q in bap_grid.quantiles:
            total = cv_score(ds, spec, ba_plan, ba_cfg, k2=float(q), cache=cache,
                             samples=samples)
            bap_scores.append((float(radius), float(q), total))
    bap_best = min(bap_scores, key=lambda t: (t[2], t[0], t[1]))

    return TuningResult(
        cnt_radius=cnt_best,
        bap_radius=bap_best[0],
        bap_quantile=bap_best[1],
        cnt_scores=tuple(cnt_scores),
        bap_scores=tuple(bap_scores),
    )
