"""Semi-parametric distribution for burnt-area proportions.

The model glues three pieces along the sample: an atom at zero with
mass z, the empirical CDF of positive values up to a threshold u, and a
generalized Pareto tail above u:

    F(0)           = z
    F(x), 0<x<u    = ((1 - lam - z) / F*(u)) * F*(x) + z
    F(x), x>=u     = 1 - lam * (1 - H_u(x))

where lam = 1 - k2 is the exceedance probability, F* the ECDF of the
positive part, and H_u the GPD CDF of excesses. When the zero mass
already reaches the k2 level the threshold degenerates to 0 and the
fully empirical CDF is used instead.

Fits are stacked. `fit_mixtures` sorts each sample once, works out z,
u and the exceedance suffix of all its levels together, and hands every
GPD tail of every sample to one `fit_gpds` call. That runs Grimshaw's
profile search on 2-D arrays, one block per exceedance count m: within
a block each set's sums run over exactly its own m values in a
contiguous layout, so they pair their terms as a lone fit does and a
stacked fit equals the lone fit bit for bit. The single-model entry
points are these called with one item: `fit_gpd` is `fit_gpds` on one
set, and `fit_mixture` is `fit_mixtures` on one sample at one level.
`cdf_rows` builds the rows of a batch of fitted models, count or
burnt-area, each sample's levels in one vectorised pass, so prediction
and cross-validation share one fit path and one row builder.

Rows lie in [0, 1] and never decrease with no clip or repair: H_u(u) is
exactly 0, so at u the tail starts at exactly 1 - lam, above the bulk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, GpdFitError
from .geo import rescaled_thresholds

MIN_EXCEED = 10
XI_LO, XI_HI = -1.0, 5.0
XI_EXP_EPS = 1e-8
# Search grid of s = log1p(theta * x_max) for fit_gpd: fine steps on
# [-S_FINE, S_FINE], coarse ones outside. Each zoom level shrinks the
# step 16-fold; after four, no fit on the corpora of
# tests/test_burnt_area.py and scripts/gpd_fit_corpus.py is more than
# 1e-9 below the Nelder-Mead reference in log-likelihood.
S_MIN = -36.0
S_FINE = 4.0
S_FINE_STEP = 0.25
S_COARSE_STEP = 2.0
ZOOM_LEVELS = 4
ZOOM_POINTS = 33
S_TINY = 1e-150
# Most excesses (sets x m) in one block of the stacked search. Its
# arrays hold each excess at every grid point, up to about 70 of them
# on the coarse grid, so a block's temporaries stay near 2 MB each.
GPD_BLOCK = 4096

# the coarse grid below S_FINE, the same for every set
_GRID_HEAD = np.concatenate([np.arange(S_MIN, -S_FINE, S_COARSE_STEP),
                             np.arange(-S_FINE, S_FINE, S_FINE_STEP)])


@dataclass(frozen=True)
class GpdParams:
    sigma: float
    xi: float
    threshold: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise DataError(f"sigma must be finite positive, got {self.sigma}")
        if not np.isfinite(self.xi):
            raise DataError("xi must be finite")
        if self.threshold < 0:
            raise DataError("threshold must be nonnegative")

    @property
    def upper_endpoint(self) -> float:
        """Supremum of the support (finite only for xi < 0)."""
        if self.xi < 0:
            return self.threshold - self.sigma / self.xi
        return math.inf


def _excess_cdf(t, xi):
    """H at scaled excesses t = (x - u) / sigma >= 0, elementwise with
    the shapes xi (an array like t). |xi| below XI_EXP_EPS takes the
    exponential limit branch."""
    out = np.empty(t.shape)
    limit = np.abs(xi) < XI_EXP_EPS
    out[limit] = -np.expm1(-t[limit])
    shape = ~limit
    t, xi = t[shape], xi[shape]
    arg = 1.0 + xi * t
    out[shape] = np.where(arg > 0.0,
                          1.0 - np.power(np.maximum(arg, 1e-300), -1.0 / xi), 1.0)
    return out


def gpd_cdf(params: GpdParams, x):
    """GPD CDF H_u(x) = 1 - [1 + xi*(x-u)/sigma]_+^(-1/xi) for x >= u.

    |xi| below 1e-8 is routed to the exponential limit branch.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x < params.threshold):
        raise DataError("gpd_cdf requires x >= threshold")
    t = (x - params.threshold) / params.sigma
    out = _excess_cdf(t, np.full(t.shape, params.xi))
    return float(out[0]) if scalar else out


def _profile_nll(s, r, top):
    """Negative log-likelihood per excess, profiled over the shape, at
    the points s (K, G) of the search for each row of r (K, m), the
    excesses of K sets scaled to r = x / x_max (top marks those equal
    to x_max).

    With theta = xi / sigma and s = log1p(theta * x_max), the shape that
    maximises the likelihood for fixed theta is the mean of
    log1p(theta * x) (Grimshaw 1993), and the negative log-likelihood
    per excess is log(sigma) + 1 + xi. A shape outside [XI_LO, XI_HI]
    is clamped to the bound, which keeps the profile continuous in s.
    Values are in scaled units: add log(x_max) for the sample's units,
    and multiply sigma by x_max. Returns (nll, xi, sigma), each (K, G).
    """
    # theta = 0 is the exponential limit (xi = 0, sigma = mean(x)); a
    # tiny theta reaches it without dividing zero by zero
    s = np.where(np.abs(s) < S_TINY, S_TINY, s)
    tau = np.expm1(s)
    log_terms = tau[:, :, None] * r[:, None, :]
    np.log1p(log_terms, out=log_terms)
    # as theta nears the support edge -1/x_max, 1 + expm1(s) loses the
    # excesses at x_max to rounding; their log term is exactly s
    np.copyto(log_terms, s[:, :, None], where=top[:, None, :])
    xi = log_terms.sum(axis=2) / r.shape[1]
    xi_c = np.clip(xi, XI_LO, XI_HI)
    sigma = xi_c / tau
    return np.log(sigma) + xi + xi / xi_c, xi_c, sigma


def _grid_tail(s_top: float) -> np.ndarray:
    """The coarse grid above S_FINE, up to a set's s_top.

    Below S_MIN, theta * x_max is -1 to within rounding and the profile
    only climbs towards the edge value. Once theta * x >= XI_HI for
    every excess (s >= s_top), the profile only grows. The grid spans
    the range between. np.arange fills start + i * step, so the grid of
    a larger s_top extends that of a smaller one.
    """
    return np.arange(S_FINE, s_top + S_COARSE_STEP, S_COARSE_STEP)


def _profile_search(r):
    """Grimshaw search for each row of r (K, m), a set's excesses over
    its maximum: a coarse grid, which guards against a local minimum,
    then ZOOM_LEVELS finer grids, each spanning the two steps around
    the best point of the one before. Returns (nll, xi, sigma) at each
    set's best point, in scaled units.

    The coarse grid is the longest of the sets' grids; points past a
    set's own grid score +inf, so each set searches its own grid.
    """
    k = r.shape[0]
    rows = np.arange(k)
    top = r == 1.0
    s_tops = [math.log1p(XI_HI / v) for v in r.min(axis=1).tolist()]
    last = np.array([_GRID_HEAD.size + _grid_tail(t).size - 1 for t in s_tops])
    grid = np.concatenate([_GRID_HEAD, _grid_tail(max(s_tops))])
    s = np.broadcast_to(grid, (k, grid.size))
    nll, xi, sigma = _profile_nll(s, r, top)
    nll[np.arange(grid.size) > last[:, None]] = np.inf
    points = np.arange(ZOOM_POINTS, dtype=float)
    for _ in range(ZOOM_LEVELS):
        g = np.argmin(nll, axis=1)
        lo = s[rows, np.maximum(g - 1, 0)]
        hi = s[rows, np.minimum(g + 1, last)]
        # np.linspace(lo, hi, ZOOM_POINTS) of each row, formula for formula
        s = lo[:, None] + points * ((hi - lo) / (ZOOM_POINTS - 1))[:, None]
        s[:, -1] = hi
        last = ZOOM_POINTS - 1
        nll, xi, sigma = _profile_nll(s, r, top)
    g = np.argmin(nll, axis=1)
    return nll[rows, g], xi[rows, g], sigma[rows, g]


def fit_gpds(sets) -> list:
    """`fit_gpd` of every (values, threshold) of sets, in one stacked
    search: per set, its GpdParams or the GpdFitError fit_gpd raises.

    Sets of one size m are searched together, in blocks of at most
    GPD_BLOCK excesses; see the module docstring for why each fit
    equals fit_gpd on that set alone, bit for bit.
    """
    out = [None] * len(sets)
    by_size: dict = {}
    for i, (values, threshold) in enumerate(sets):
        values = np.asarray(values, dtype=float)
        if values.size < MIN_EXCEED:
            out[i] = GpdFitError(f"need at least {MIN_EXCEED} exceedances, "
                                 f"got {values.size}")
        else:
            by_size.setdefault(values.size, []).append((i, values, float(threshold)))
    for m, group in by_size.items():
        per_block = max(1, GPD_BLOCK // m)
        for first in range(0, len(group), per_block):
            block = group[first:first + per_block]
            values = np.array([v for _, v, _ in block])
            threshold = np.array([u for _, _, u in block])
            if np.any(values <= threshold[:, None]):
                raise DataError("exceedances must lie strictly above the threshold")
            excess = values - threshold[:, None]
            degenerate = np.ptp(excess, axis=1) == 0.0
            for j in np.flatnonzero(degenerate):
                out[block[j][0]] = GpdFitError("degenerate sample: all exceedances equal")
            fitted = [b for b, d in zip(block, degenerate.tolist()) if not d]
            if not fitted:
                continue
            excess = excess[~degenerate]
            x_max = excess.max(axis=1)
            nll, xi, sigma = _profile_search(excess / x_max[:, None])
            for (i, _, u), scale, nll_k, xi_k, sigma_k in zip(
                    fitted, x_max.tolist(), nll.tolist(), xi.tolist(), sigma.tolist()):
                # Edge fit: when no interior point beats it, the supremum
                # of the likelihood is the xi -> -1 edge, the uniform law
                # on (0, x_max] with nll per excess log(x_max), i.e. 0 in
                # scaled units. It is reached only in the limit, so it is
                # returned explicitly.
                if nll_k >= 0.0:
                    out[i] = GpdParams(sigma=scale, xi=XI_LO, threshold=u)
                else:
                    out[i] = GpdParams(sigma=sigma_k * scale, xi=xi_k, threshold=u)
    return out


def fit_gpd(values, threshold: float) -> GpdParams:
    """MLE of (sigma, xi) on exceedances of the threshold.

    sigma is profiled out (Grimshaw 1993), so the search is over one
    variable (`_profile_search`). values must all lie strictly above
    the threshold. Raises GpdFitError when there are too few values or
    they are all identical; callers treat that as the signal to fall
    back to an empirical CDF. This is `fit_gpds` on one set.
    """
    fit, = fit_gpds([(values, threshold)])
    if isinstance(fit, GpdFitError):
        raise fit
    return fit


@dataclass(frozen=True)
class BaMixture:
    """Fitted zero/bulk/tail mixture (kind "mixture") or its fully
    empirical fallback (kind "empirical")."""

    kind: str
    sample_size: int
    z: float
    u: float
    lam: float
    sample: np.ndarray            # full sorted sample (empirical CDF base)
    positives: np.ndarray | None = None   # sorted positive part (F*)
    gpd: GpdParams | None = None
    fallback_reason: str | None = None

    def cdf(self, x):
        """Model CDF at x >= 0 (scalar or array)."""
        x = np.asarray(x, dtype=float)
        out = _mixture_cdf([self], x.reshape(-1))[0]
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _mixture_cdf(models, x) -> np.ndarray:
    """CDF rows at the proportions x (1-D) of models fitted to one
    sample, one row per model. The empirical fallbacks share one row,
    and the mixtures' bulk ECDF is evaluated once."""
    if np.any(x < 0):
        raise DataError("burnt-area proportions are nonnegative")
    out = np.empty((len(models), x.size))
    tails = [q for q, m in enumerate(models) if m.kind == "mixture"]
    if len(tails) < len(models):
        empirical = [q for q, m in enumerate(models) if m.kind != "mixture"]
        sample = models[empirical[0]].sample
        out[empirical] = np.searchsorted(sample, x, side="right") / sample.size
    if not tails:
        return out
    fits = [models[q] for q in tails]
    z, positives = fits[0].z, fits[0].positives
    u = np.array([m.u for m in fits])
    lam = np.array([m.lam for m in fits])
    sigma = np.array([m.gpd.sigma for m in fits])
    xi = np.array([m.gpd.xi for m in fits])
    ecdf = np.searchsorted(positives, x, side="right") / positives.size
    f_u = np.searchsorted(positives, u, side="right") / positives.size
    rows = ((1.0 - lam - z) / f_u)[:, None] * ecdf + z
    rows[:, x == 0.0] = z
    tail = x >= u[:, None]
    level, col = np.nonzero(tail)
    h = _excess_cdf((x[col] - u[level]) / sigma[level], xi[level])
    rows[tail] = 1.0 - lam[level] * (1.0 - h)
    out[tails] = rows
    return out


def threshold_order_statistic(sorted_sample: np.ndarray, k2):
    """Left-continuous inverse-ECDF quantile: order statistic ceil(k2*n),
    at one level or at an array of them."""
    n = sorted_sample.size
    idx = np.clip(np.ceil(np.asarray(k2, dtype=float) * n - 1e-12), 1, n)
    return sorted_sample[idx.astype(np.intp) - 1]


def fit_mixtures(samples, levels) -> list:
    """`fit_mixture` of every sample at every level: per sample, the
    list of its fits in the order of levels.

    Each sample is sorted once, and z, u and the exceedance suffix of
    all its levels come from one pass; every GPD tail, of every sample
    and level, is fitted by one `fit_gpds` call.
    """
    k2 = np.array(levels, dtype=float)
    bad = k2[~((k2 > 0.0) & (k2 < 1.0))]
    if bad.size:
        raise DataError(f"k2 must lie in (0,1), got {bad[0]}")
    lam = (1.0 - k2).tolist()

    prepared, sets = [], []
    for sample in samples:
        srt = np.sort(np.asarray(sample, dtype=float))
        n = srt.size
        if n == 0:
            raise DataError("sample must be nonempty")
        # NaN and +inf sort last and -inf first, so the two ends bound them all
        if not (srt[0] >= 0.0 and srt[-1] <= 1.0):
            raise DataError("burnt-area proportions must lie in [0, 1]")
        u = threshold_order_statistic(srt, k2)
        starts = np.searchsorted(srt, u, side="right").tolist()
        u = u.tolist()
        reasons = []
        for u_q, first in zip(u, starts):
            # u == 0 exactly when the zero count reaches the k2 order statistic
            if u_q <= 0.0:
                reasons.append("zero mass at or above the k2 level")
            elif n - first < MIN_EXCEED:
                reasons.append("too few exceedances")
            else:
                reasons.append(None)
                sets.append((srt[first:], u_q))
        prepared.append((srt, u, reasons))

    tails = iter(fit_gpds(sets))
    fits = []
    for srt, u, reasons in prepared:
        n = srt.size
        n_zero = int(np.searchsorted(srt, 0.0, side="right"))
        z = n_zero / n
        models = []
        for u_q, lam_q, reason in zip(u, lam, reasons):
            gpd = next(tails) if reason is None else None
            if isinstance(gpd, GpdFitError):
                reason = str(gpd)
            if reason is None:
                models.append(BaMixture(kind="mixture", sample_size=n, z=z, u=u_q,
                                        lam=lam_q, sample=srt,
                                        positives=srt[n_zero:], gpd=gpd))
            else:
                models.append(BaMixture(kind="empirical", sample_size=n, z=z, u=u_q,
                                        lam=lam_q, sample=srt, fallback_reason=reason))
        fits.append(models)
    return fits


def fit_mixture(sample, k2: float) -> BaMixture:
    """Fit the zero/bulk/GPD mixture at non-exceedance level k2.

    Falls back to the full-sample empirical CDF when the zero mass
    reaches k2 (threshold degenerates to 0), when fewer than MIN_EXCEED
    values lie strictly above the threshold, or when the tail fit fails.
    This is `fit_mixtures` on one sample at one level.
    """
    return fit_mixtures([sample], (k2,))[0][0]


def cdf_rows(fits, thresholds, capacities, levels: int = 1) -> np.ndarray:
    """CDF rows on an absolute threshold grid, of shape (levels, centers,
    thresholds): fits holds, per center, the models of its levels (one
    per burnt-area tail level, or one model), and capacities one cell
    capacity per center. levels shapes an empty batch.

    A count model's CDF already is its row. A burnt-area mixture lives
    on the proportion scale: the grid is divided by the cell capacity,
    and thresholds at or above capacity are certainties, pinned to 1
    regardless of the fitted tail. This is the one capacity pin, for
    predicted and CV rows alike; `rules.saturation_flags` only labels
    the rows it touched. The pins are a suffix of the increasing grid.
    Each center's rows are built alone, whatever the batch.
    """
    rows = np.empty((levels, len(fits), thresholds.size))
    for j, (models, capacity) in enumerate(zip(fits, capacities)):
        if isinstance(models[0], BaMixture):
            scaled, forced = rescaled_thresholds(thresholds, capacity)
            rows[:, j] = _mixture_cdf(models, scaled)
            rows[:, j, forced] = 1.0
        else:
            rows[:, j] = [model.cdf(thresholds) for model in models]
    return rows


def sample_gpd(params: GpdParams, n: int, rng) -> np.ndarray:
    """Inverse-CDF draws of exceedance values (threshold + excess)."""
    v = rng.random(n)
    if abs(params.xi) < XI_EXP_EPS:
        excess = -params.sigma * np.log1p(-v)
    else:
        excess = params.sigma / params.xi * ((1.0 - v) ** (-params.xi) - 1.0)
    return params.threshold + excess
