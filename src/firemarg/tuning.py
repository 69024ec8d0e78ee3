"""Nearest-neighbor cross-validation for the pooling radius and the
tail threshold level.

Each missing index is stood in for by its spatially nearest non-missing
observation in the same (month, year) slice. Candidate parameters are
scored by fitting the marginal model to the surrogate's sample from
`neighborhoods.fitting_samples` (which leaves the surrogate's own value
out), evaluating its CDF row, and scoring that row against the
surrogate's observed value. Prediction uses the same ladder, the same
fit path and the same row kernels: a stacked `counts.fit_zinbs` fit
equals the lone fit, `burnt_area.fit_mixture` is `fit_mixtures` called
with one sample at one level, and `burnt_area.cdf_rows` builds both
their rows, each row as it would be alone. So CV scores exactly the
model that prediction emits, bit for bit. An empty
neighborhood widens along that ladder, so each candidate is scored on
the full plan. The candidate combination with the smallest total score
wins; ties go to the smaller parameters.

Each variable is evaluated in one `cv_score` call over its whole
radius grid. One stacked `fitting_samples` query per radius builds
every distinct surrogate's sample once. Consecutive radii are grouped
into passes of at most PASS_VALUES sample values, and each pass is
fitted together; a radius is never split, so one larger than that is a
pass alone. For counts, one `fit_zinbs`
call fits every surrogate of every radius in the pass in one stacked
Newton search. For burnt area, one `fit_mixtures` call fits them all at
every candidate tail level into one columnar `MixtureFits`, its GPD
tails in stacked blocks. Since a stacked fit equals the lone fit, a
radius's fits do not depend on its pass. Each radius then takes its
slice of the fits, and one `cdf_rows` call builds the rows of every
(level, surrogate) with its family's stacked kernel: the ZINB rows as
2-D pmf sums, the mixture rows from each sample's counts of values at
or below the scaled thresholds. One vectorised `score_rows` call then
scores them all, and each level's total is summed over the plan's pairs
in order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .burnt_area import cdf_rows, fit_mixtures, sample_range
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

# Most sample values one cross-validation pass fits together. The
# `tune-grid` benchmark scene's default grid has about 85k values per
# variable over its 15 radii, so it is one pass and the fit kernels run
# on full blocks. An EVA-2021-sized scene has 0.34 M or more per radius
# (1.1 M counts and 1.3 M proportions at 150 km), so each of its radii
# is a pass alone and holds no more at once than a radius scored alone.
PASS_VALUES = 2 ** 18

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


def cv_score(ds: Dataset, specs, plan: CvPlan, config: ScoreConfig,
             k2=None) -> list:
    """Total scores over the CV plan, one tuple per spec of specs, a
    sequence of neighborhood specs, in order: each tuple holds one level
    for the count model (plan variable "cnt", k2 unused), and for the
    burnt-area model one per level of k2, a level or a sequence.

    One `fitting_samples` query per spec builds every distinct
    surrogate's sample. The specs' radii are grouped into passes in
    order (`_passes`), and each pass is fitted and scored together
    (`_score_pass`). Duplicate surrogates are scored once per
    occurrence, and each total is np.sum over the plan's pairs in order.
    A pair is skipped only when the surrogate is the lone observation in
    its month pool, which no radius can change.
    """
    if plan.variable == "ba" and k2 is None:
        raise DataError("burnt-area CV needs a k2 level")
    surrogates = list(dict.fromkeys(s for _, s in plan.pairs))
    totals = []
    for radii in _passes(ds, surrogates, plan.variable, specs):
        totals += _score_pass(ds, radii, plan, config, k2)
        # the next radius's query then runs without this pass's samples
        del radii
    return totals


def _passes(ds: Dataset, surrogates: list, variable: str, specs):
    """The radii of specs in passes, in order: each radius is a list of
    (surrogate, sample) for the surrogates with a nonempty sample, and a
    pass is a list of radii. A pass takes radii until the next one would
    push its sample values past PASS_VALUES. A radius is never split:
    one past PASS_VALUES alone goes as soon as it is built, so no other
    radius's samples are held with it."""
    radii, size = [], 0
    for spec in specs:
        radii.append([(s, sample) for s, (sample, _) in zip(
            surrogates, fitting_samples(ds, surrogates, variable, spec)) if sample.size])
        values = sum(sample.size for _, sample in radii[-1])
        if len(radii) > 1 and size + values > PASS_VALUES:
            yield radii[:-1]
            radii, size = radii[-1:], 0
        size += values
        if size > PASS_VALUES:
            yield radii
            radii, size = [], 0
    if radii:
        yield radii


def _score_pass(ds: Dataset, radii: list, plan: CvPlan, config: ScoreConfig,
                k2) -> list:
    """The totals of each radius of a pass (`cv_score`).

    Every sample of the pass is fitted in one call: `fit_zinbs` for
    counts, `fit_mixtures` at every level for burnt area. Each radius
    then takes its slice of the fits, and one `cdf_rows` call and one
    `score_rows` call build and score its rows, so no more than one
    radius's rows exist at a time.
    """
    samples = [sample for radius in radii for _, sample in radius]
    if plan.variable == "cnt":
        fits = fit_zinbs(samples)
    else:
        fits = fit_mixtures(samples, np.atleast_1d(k2))
    column = ds.cnt if plan.variable == "cnt" else ds.ba
    totals, first = [], 0
    for radius in radii:
        live = [s for s, _ in radius]
        last = first + len(live)
        part = fits[first:last] if plan.variable == "cnt" else sample_range(fits, first, last)
        scores = score_rows(cdf_rows(part, config.thresholds, ds.capacity[live]),
                            column[live], config)
        column_of = {surrogate: j for j, surrogate in enumerate(live)}
        pairs = [column_of[s] for _, s in plan.pairs if s in column_of]
        totals.append(tuple(float(np.sum(level_scores))
                            for level_scores in scores[:, pairs]))
        first = last
    return totals


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
    (radius, quantile) product. Each variable's radii are scored by one
    `cv_score` call, in grid order. A radius's scores are those it gets
    alone: no fit state is carried between radii. Deterministic:
    smallest parameters win ties.
    """
    if not bap_grid.quantiles:
        raise DataError("burnt-area grid needs quantile candidates")
    cnt_cfg = ScoreConfig(ds.cnt_thresholds, cnt_weights)
    ba_cfg = ScoreConfig(ds.ba_thresholds, ba_weights)

    def specs(grid):
        return [replace(base_spec, radius_km=float(r)) for r in grid.radii]

    cnt_specs = specs(cnt_grid)
    cnt_scores = [(spec.radius_km, total) for spec, (total,) in zip(
        cnt_specs, cv_score(ds, cnt_specs, build_cv_plan(ds, "cnt"), cnt_cfg))]
    cnt_best = min(cnt_scores, key=lambda t: (t[1], t[0]))[0]

    quantiles = tuple(float(q) for q in bap_grid.quantiles)
    ba_specs = specs(bap_grid)
    bap_scores = [(spec.radius_km, q, total) for spec, totals in zip(
        ba_specs, cv_score(ds, ba_specs, build_cv_plan(ds, "ba"), ba_cfg, k2=quantiles))
        for q, total in zip(quantiles, totals)]
    bap_best = min(bap_scores, key=lambda t: (t[2], t[0], t[1]))

    return TuningResult(
        cnt_radius=cnt_best,
        bap_radius=bap_best[0],
        bap_quantile=bap_best[1],
        cnt_scores=tuple(cnt_scores),
        bap_scores=tuple(bap_scores),
    )
