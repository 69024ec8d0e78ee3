"""Nearest-neighbor cross-validation for the pooling radius and the
tail threshold level.

Each missing index is stood in for by its spatially nearest non-missing
observation in the same (month, year) slice. Candidate parameters are
scored by fitting the marginal model to the surrogate's sample from
`neighborhoods.fitting_samples` (which leaves the surrogate's own value
out), evaluating its CDF row, and scoring that row against the
surrogate's observed value. An empty neighborhood widens along the
sample ladder, so each candidate is scored on the full plan. The
candidate combination with the smallest total score wins; ties go to
the smaller parameters.

One kernel, `_fitted_rows`, fits and builds rows for cross-validation
and for prediction (`pipeline`) alike. On a batch of centers it makes
one stacked `fitting_samples` query per spec and fits every nonempty
sample of every spec in one call, `fit_zinbs` for counts or
`fit_mixtures` at every level for burnt area, one columnar record
either way. Each spec takes its slice with `sample_range`, and one
`cdf_rows` call builds its rows of every (level, center). Stacked fits
and rows equal lone ones bit for bit, so CV scores exactly the model
that prediction emits.

Each variable is evaluated in one `cv_score` call over its whole
radius grid. Its distinct surrogates are split, in plan order, into
chunks of CV_CHUNK; the split depends on the surrogate count alone. A
chunk runs the kernel on every radius at every candidate tail level,
and one `score_rows` call scores each radius's rows into the chunk's
(radius, level, surrogate) score block. The blocks are joined in
surrogate order, and each level's total is np.sum over the plan's
pairs in order, so the totals do not depend on the chunk size.
Besides the score blocks, one chunk's samples and fits and one
radius's rows bound the memory CV holds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .burnt_area import cdf_rows, fit_mixtures
from .counts import fit_zinbs, sample_range
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

# Most distinct surrogates one cross-validation chunk fits and scores
# together. The `tune-grid` benchmark scene has at most 112 per
# variable, so it is one chunk and the fit kernels run on full blocks.
# An EVA-2021-sized scene has 66,352 burnt-area surrogates, 17 chunks:
# each holds about a sixteenth of every radius's samples and builds one
# radius's rows at a time, 17 MB at 19 levels and 28 thresholds.
CV_CHUNK = 4096

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

    The distinct surrogates are scored in chunks of CV_CHUNK
    (`_score_chunk`), and their score blocks are joined in surrogate
    order. Duplicate surrogates are scored once per occurrence, and each
    total is np.sum over the plan's pairs in order. A pair is left out
    only when its surrogate's sample is empty, which happens when the
    surrogate is the lone observation in its month pool, whatever the
    radius.
    """
    if plan.variable == "ba" and k2 is None:
        raise DataError("burnt-area CV needs a k2 level")
    levels = 1 if plan.variable == "cnt" else np.atleast_1d(k2).size
    surrogates = list(dict.fromkeys(s for _, s in plan.pairs))
    scores = np.full((len(specs), levels, len(surrogates)), np.nan)
    for first in range(0, len(surrogates), CV_CHUNK):
        _score_chunk(ds, surrogates[first:first + CV_CHUNK], specs, plan.variable,
                     config, k2, scores[:, :, first:first + CV_CHUNK])
    column_of = {surrogate: j for j, surrogate in enumerate(surrogates)}
    pairs = [column_of[s] for _, s in plan.pairs]
    totals = []
    for spec_scores in scores:
        kept = spec_scores[:, pairs]
        kept = kept[:, ~np.isnan(kept).any(axis=0)]
        totals.append(tuple(float(np.sum(level_scores)) for level_scores in kept))
    return totals


def _score_chunk(ds: Dataset, chunk: list, specs, variable: str,
                 config: ScoreConfig, k2, out: np.ndarray) -> None:
    """Score a chunk of surrogates into out, of shape (spec, level,
    surrogate), leaving it as it is where a surrogate's sample is empty
    (`cv_score`): one `score_rows` call per spec on its `_fitted_rows`."""
    column = ds.cnt if variable == "cnt" else ds.ba
    chunk = np.asarray(chunk, dtype=np.int64)
    for spec_out, (cols, rows, _, _) in zip(
            out, _fitted_rows(ds, chunk, variable, specs, k2, config.thresholds)):
        spec_out[:, cols] = score_rows(rows, column[chunk[cols]], config)


def _fitted_rows(ds: Dataset, centers, variable: str, specs, levels, thresholds):
    """(live, rows, sources, fits) of each spec of specs, in order: the
    positions in centers whose sample is nonempty, their rows (level,
    live center, threshold) at levels (burnt area; a count model has one
    level) on the grid thresholds, the ladder rung of each live sample,
    and the spec's slice of the fits. Specs are yielded one at a time,
    so a caller need hold only one spec's rows (module docstring)."""
    queries = [fitting_samples(ds, centers, variable, spec) for spec in specs]
    live = [[j for j, (sample, _) in enumerate(query) if sample.size] for query in queries]
    samples = [query[j][0] for query, cols in zip(queries, live) for j in cols]
    fits = fit_zinbs(samples) if variable == "cnt" else fit_mixtures(samples, levels)
    capacity = ds.capacity[np.asarray(centers, dtype=np.int64)]
    first = 0
    for query, cols in zip(queries, live):
        last = first + len(cols)
        part = sample_range(fits, first, last)
        yield cols, cdf_rows(part, thresholds, capacity[cols]), [query[j][1] for j in cols], part
        first = last


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
