"""Nearest-neighbor cross-validation for the pooling radius and the
tail threshold level.

Each missing index is stood in for by its spatially nearest non-missing
observation in the same (month, year) slice. Candidate parameters are
scored by fitting the marginal model to the surrogate's sample from
`neighborhoods.fitting_samples` (which leaves the surrogate's own value
out), evaluating its CDF row, and scoring that row against the
surrogate's observed value. Prediction uses the same ladder, the same
fit path and the same row builder: a stacked `counts.fit_zinbs` fit
equals the lone fit, and `burnt_area.fit_mixture` and `cdf_row` are
`fit_mixtures` and `cdf_rows` called with one level. So CV scores
exactly the model that prediction emits, bit for bit. An empty
neighborhood widens along that ladder, so each candidate is scored on
the full plan. The candidate combination with the smallest total score
wins; ties go to the smaller parameters.

Each (variable, radius) is evaluated in one pass (`cv_score`): one
stacked `fitting_samples` query builds every distinct surrogate's
sample once, and each is fitted. For counts, one `fit_zinbs` call fits
every surrogate of the radius in one stacked Newton search. For burnt
area, one `fit_mixtures` call fits every surrogate at every candidate
tail level, with all their GPD tails in one stacked search, and
`cdf_rows` builds each surrogate's rows for all levels at once; the
levels whose fit falls back to the empirical CDF share one row. One
vectorised `score_rows` call then scores every (level, surrogate), and
each level's total is summed over the plan's pairs in order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .burnt_area import cdf_rows, fit_mixtures
from .counts import fit_zinbs
from .data import Dataset
from .errors import DataError
from .geo import haversine_km
from .neighborhoods import NeighborhoodSpec, fitting_samples
from .scoring import ScoreConfig, score_rows

# bench/tracer.py wraps these names in this module; nothing here calls them
from .burnt_area import fit_mixture  # noqa: F401
from .counts import fit_zinb  # noqa: F401
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
        if any(not r >= 0 for r in self.radii):     # NaN fails too
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
    present; ties broken by the smallest observation id. One distance
    call per (month, year) slice, over its missing rows x its observed
    rows."""
    if variable not in ("cnt", "ba"):
        raise DataError(f"unknown variable {variable!r}")
    observed = ~np.isnan(ds.cnt if variable == "cnt" else ds.ba)
    pairs, skipped = [], []
    for slots in ds.slots:
        ids = np.sort(slots[slots >= 0])
        rows, cand = ids[~observed[ids]], ids[observed[ids]]
        if cand.size == 0:
            skipped += rows.tolist()
        elif rows.size:
            d = haversine_km(ds.lon[rows, None], ds.lat[rows, None],
                             ds.lon[cand], ds.lat[cand], radius_km=ds.radius_km)
            # argmin takes the first minimum: the smallest id among ties
            pairs += zip(rows.tolist(), cand[np.argmin(d, axis=1)].tolist())
    pairs.sort()
    skipped.sort()
    if skipped:
        log.warning("cv plan (%s): %d indices had no same-slice candidate",
                    variable, len(skipped))
    return CvPlan(variable=variable, pairs=tuple(pairs), skipped=tuple(skipped))


def cv_score(ds: Dataset, spec: NeighborhoodSpec, plan: CvPlan,
             config: ScoreConfig, k2=None):
    """Total score over the CV plan of the count model (plan variable
    "cnt", k2 unused) or of the burnt-area model at level k2.

    One `fitting_samples` query builds every distinct surrogate's
    sample. Counts are fitted by one `fit_zinbs` call. k2 may be a
    sequence of levels; the totals then come back as a tuple in the
    same order, from one pass over the plan: one `fit_mixtures` call
    fits every surrogate at every level, and the empirical fallbacks
    share one row (the empirical CDF does not depend on k2). One `score_rows` call scores
    every (level, surrogate). Duplicate surrogates are scored once per
    occurrence, and each total is np.sum over the plan's pairs in
    order. A pair is skipped only when the surrogate is the lone
    observation in its month pool, which no radius can change.
    """
    if plan.variable == "cnt":
        scalar, levels = True, (None,)
    elif k2 is None:
        raise DataError("burnt-area CV needs a k2 level")
    else:
        scalar, levels = np.ndim(k2) == 0, tuple(np.atleast_1d(k2).tolist())
    surrogates = list(dict.fromkeys(s for _, s in plan.pairs))
    samples = dict(zip(surrogates, (sample for sample, _ in fitting_samples(
        ds, surrogates, plan.variable, spec))))
    live = [s for s, sample in samples.items() if sample.size]
    if plan.variable == "cnt":
        fits = [[model] for model in fit_zinbs([samples[s] for s in live])]
    else:
        fits = fit_mixtures([samples[s] for s in live], levels)
    rows = np.empty((len(levels), len(live), config.thresholds.size))
    for j, (surrogate, models) in enumerate(zip(live, fits)):
        rows[:, j] = cdf_rows(models, config.thresholds, float(ds.capacity[surrogate]))
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
    (radius, quantile) product. Each radius is scored on its own, with
    no fit state carried between radii. Deterministic: smallest
    parameters win ties.
    """
    if not bap_grid.quantiles:
        raise DataError("burnt-area grid needs quantile candidates")
    cnt_cfg = ScoreConfig(ds.cnt_thresholds, cnt_weights)
    ba_cfg = ScoreConfig(ds.ba_thresholds, ba_weights)

    cnt_plan = build_cv_plan(ds, "cnt")
    cnt_scores = []
    for radius in cnt_grid.radii:
        spec = replace(base_spec, radius_km=float(radius))
        cnt_scores.append((float(radius),
                           cv_score(ds, spec, cnt_plan, cnt_cfg)))
    cnt_best = min(cnt_scores, key=lambda t: (t[1], t[0]))[0]

    ba_plan = build_cv_plan(ds, "ba")
    quantiles = tuple(float(q) for q in bap_grid.quantiles)
    bap_scores = []
    for radius in bap_grid.radii:
        spec = replace(base_spec, radius_km=float(radius))
        totals = cv_score(ds, spec, ba_plan, ba_cfg, k2=quantiles)
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
