"""Nearest-neighbor cross-validation for the pooling radius and the
tail threshold level.

Each missing index is stood in for by its spatially nearest non-missing
observation in the same (month, year) slice. Candidate parameters are
scored by fitting the marginal model to the surrogate's
`neighborhoods.fitting_sample` (which leaves the surrogate's own value
out), evaluating its CDF row, and scoring that row against the
surrogate's observed value. Prediction uses the same ladder, the same
`fit_model` and the same `burnt_area.cdf_row`, so CV scores exactly
the model that prediction emits; an empty neighborhood widens along
that ladder, so each candidate is scored on the full plan. The
candidate combination with the smallest total score wins; ties go to
the smaller parameters.

Each (variable, radius) is evaluated in one pass (`cv_score`): every
distinct surrogate's sample is built once, its CDF rows for all
candidate tail levels are stacked, and one vectorised `score_rows` call
scores them; each level's total is then summed over the plan's pairs in
order. A burnt-area sample is sorted once and shared by the levels, and
the levels whose fit falls back to the empirical CDF share one row.

Fits are memoized by (variable, k2, exact fitting sample). The key has
no surrogate: a fit depends on its sample alone, and nearby radius
candidates often produce identical neighborhoods on a regular grid, so
the cache carries most of the grid search.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .burnt_area import cdf_row, fit_mixture
from .counts import fit_zinb
from .data import Dataset
from .errors import DataError
from .geo import haversine_km
from .neighborhoods import NeighborhoodSpec, fitting_sample
from .scoring import ScoreConfig, score_rows

# bench/tracer.py wraps these names in this module; nothing here calls them
from .neighborhoods import build_neighborhood  # noqa: F401
from .scoring import score_one  # noqa: F401

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


def fit_model(sample, variable: str, k2: float | None):
    """The marginal model of one fitting sample: the ZINB count model
    ("cnt", k2 unused) or the burnt-area mixture at level k2 ("ba").
    Prediction and cross-validation both fit through here."""
    return fit_zinb(sample) if variable == "cnt" else fit_mixture(sample, k2)


def _fit_cached(sample, variable, k2, cache):
    """fit_model of one CV sample, memoized in cache (if given).

    A fit depends on its sample alone, so the key carries the sample's
    bytes and k2 but no surrogate: every surrogate and radius with that
    sample shares the entry.
    """
    key = (variable, k2, sample.tobytes())
    if cache is not None and key in cache:
        return cache[key]
    model = fit_model(sample, variable, k2)
    if cache is not None:
        cache[key] = model
    return model


def cv_score(ds: Dataset, spec: NeighborhoodSpec, plan: CvPlan,
             config: ScoreConfig, k2=None, cache: dict | None = None):
    """Total score over the CV plan of the count model (plan variable
    "cnt", k2 unused) or of the burnt-area model at level k2.

    k2 may be a sequence of levels; the totals then come back as a
    tuple in the same order, from one pass over the plan: each
    distinct surrogate's `fitting_sample` is built once (and, for
    burnt area, sorted once, so the cache key is its multiset; count
    samples keep their order, because `fit_zinb`'s sums are not
    order-free to the last bit), its rows for all levels go through
    the fit cache, the empirical fallbacks share one row (the
    empirical CDF does not depend on k2), and one `score_rows` call
    scores every (level, surrogate). Duplicate surrogates are scored
    once per occurrence, and each total is np.sum over the plan's
    pairs in order. A pair is skipped only when the surrogate is the
    lone observation in its month pool, which no radius can change.
    """
    if plan.variable == "cnt":
        scalar, levels = True, (None,)
    elif k2 is None:
        raise DataError("burnt-area CV needs a k2 level")
    else:
        scalar, levels = np.ndim(k2) == 0, tuple(np.atleast_1d(k2).tolist())
    samples = {}
    for _, surrogate in plan.pairs:
        if surrogate not in samples:
            sample, _ = fitting_sample(ds, surrogate, plan.variable, spec)
            samples[surrogate] = sample if plan.variable == "cnt" else np.sort(sample)
    live = [s for s, sample in samples.items() if sample.size]
    rows = np.empty((len(levels), len(live), config.thresholds.size))
    for j, surrogate in enumerate(live):
        capacity = float(ds.capacity[surrogate])
        empirical = None
        for q, level in enumerate(levels):
            model = _fit_cached(samples[surrogate], plan.variable, level, cache)
            if model.kind != "empirical":
                rows[q, j] = cdf_row(model, config.thresholds, capacity)
                continue
            if empirical is None:
                empirical = cdf_row(model, config.thresholds, capacity)
            rows[q, j] = empirical
    column = ds.cnt if plan.variable == "cnt" else ds.ba
    scores = score_rows(rows, column[live], config)
    column_of = {surrogate: j for j, surrogate in enumerate(live)}
    pairs = [column_of[s] for _, s in plan.pairs if s in column_of]
    totals = tuple(float(np.sum(level_scores)) for level_scores in scores[:, pairs])
    return totals[0] if scalar else totals


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
    quantiles = tuple(float(q) for q in bap_grid.quantiles)
    bap_scores = []
    for radius in bap_grid.radii:
        spec = replace(base_spec, radius_km=float(radius))
        totals = cv_score(ds, spec, ba_plan, ba_cfg, k2=quantiles, cache=cache)
        bap_scores += [(float(radius), q, total)
                       for q, total in zip(quantiles, totals)]
    bap_best = min(bap_scores, key=lambda t: (t[2], t[0], t[1]))

    return TuningResult(
        cnt_radius=cnt_best,
        bap_radius=bap_best[0],
        bap_quantile=bap_best[1],
        cnt_scores=tuple(cnt_scores),
        bap_scores=tuple(bap_scores),
    )
