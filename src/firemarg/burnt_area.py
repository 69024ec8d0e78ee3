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

Fits are stacked and columnar. `fit_mixtures` returns one
`MixtureFits` per batch: per sample its sorted values, size and zero
count, and per (sample, level) u, lam, sigma, xi and a fallback code,
each an array. It sorts each sample once and works out z, u and the
exceedance count of every (sample, level) with array arithmetic. The
GPD tails are gathered from the sorted samples into blocks of one
exceedance count m, and `fit_gpds` runs Grimshaw's profile search on
each block's 2-D array: each set's sums run over exactly its own m
values in a contiguous layout, so they pair their terms as a lone fit
does and a stacked fit equals the lone fit bit for bit. The
single-model entry points are these called with one item: `fit_gpd` is
`fit_gpds` on one set, and `fit_mixture` is `fit_mixtures` on one
sample at one level, viewed as a `BaMixture`. `sample_range` views a
run of a batch's samples as a batch of its own.

`cdf_rows` builds the rows of a batch of fitted models with one
stacked kernel per family: `counts.count_rows` for count models, and
`_mixture_cdf` for burnt area, which takes every sample's counts of
values at or below each scaled threshold and each u, then builds the
rows of all mixture (sample, level) pairs elementwise. Every operation
on a row is elementwise or runs along that row alone, so a row does not
depend on its batch: prediction and cross-validation share one fit
path and one row builder, and `BaMixture.cdf` is the kernel on a batch
of one.

Rows lie in [0, 1] and never decrease with no clip or repair: H_u(u) is
exactly 0, so at u the tail starts at exactly 1 - lam, above the bulk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .counts import count_rows
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
# Most (sample, level, threshold) entries of mixture rows built in one
# pass of the row kernel, so that a pass's temporaries stay near 0.5 MB
# each.
ROW_BLOCK = 65536

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
    excesses of K sets scaled to r = x / x_max (top holds the (set,
    excess) indices of those equal to x_max, as np.nonzero gives them).

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
    log_terms[top[0], :, top[1]] = s[top[0]]
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
    top = np.nonzero(r == 1.0)
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


def fit_gpds(values, thresholds) -> tuple:
    """`fit_gpd` of each row of values (K, m), a set of m exceedances of
    its entry of thresholds, in one stacked search: (sigma, xi), two
    arrays, NaN where a set's exceedances are all equal.

    Callers hand it blocks of at most GPD_BLOCK excesses; see the module
    docstring for why each fit equals fit_gpd on that set alone, bit for
    bit. Raises GpdFitError when m < MIN_EXCEED.
    """
    values = np.asarray(values, dtype=float)
    threshold = np.asarray(thresholds, dtype=float)[:, None]
    if values.shape[1] < MIN_EXCEED:
        raise GpdFitError(f"need at least {MIN_EXCEED} exceedances, "
                          f"got {values.shape[1]}")
    if np.any(values <= threshold):
        raise DataError("exceedances must lie strictly above the threshold")
    excess = values - threshold
    sigma, xi = np.full((2, values.shape[0]), np.nan)
    fitted = np.ptp(excess, axis=1) != 0.0
    if fitted.any():
        excess = excess[fitted]
        x_max = excess.max(axis=1)
        nll, xi_k, sigma_k = _profile_search(excess / x_max[:, None])
        # Edge fit: when no interior point beats it, the supremum of the
        # likelihood is the xi -> -1 edge, the uniform law on (0, x_max]
        # with nll per excess log(x_max), i.e. 0 in scaled units. It is
        # reached only in the limit, so it is returned explicitly.
        edge = nll >= 0.0
        sigma[fitted] = np.where(edge, x_max, sigma_k * x_max)
        xi[fitted] = np.where(edge, XI_LO, xi_k)
    return sigma, xi


def fit_gpd(values, threshold: float) -> GpdParams:
    """MLE of (sigma, xi) on exceedances of the threshold.

    sigma is profiled out (Grimshaw 1993), so the search is over one
    variable (`_profile_search`). values must all lie strictly above
    the threshold. Raises GpdFitError when there are too few values or
    they are all identical; callers treat that as the signal to fall
    back to an empirical CDF. This is `fit_gpds` on one set.
    """
    (sigma,), (xi,) = fit_gpds(np.reshape(values, (1, -1)), [threshold])
    if math.isnan(sigma):
        raise GpdFitError(FALLBACKS[DEGENERATE])
    return GpdParams(sigma=float(sigma), xi=float(xi), threshold=float(threshold))


# MixtureFits.code of each (sample, level): MIXTURE, or the empirical
# fallback whose reason FALLBACKS holds at that index
MIXTURE, ZERO_MASS, FEW_EXCEEDANCES, DEGENERATE = range(4)
FALLBACKS = (None, "zero mass at or above the k2 level", "too few exceedances",
             "degenerate sample: all exceedances equal")


@dataclass(frozen=True)
class MixtureFits:
    """The fits of S samples at L levels, column by column.

    Per sample: its values sorted, all samples end to end in values
    (sample s has n[s] of them, after those of samples before it), and
    its zero count n_zero. Per (sample, level), as (S, L) arrays: the
    threshold u, the exceedance probability lam, the tail's sigma and
    xi (NaN off the mixtures) and the fallback code.
    """

    values: np.ndarray
    n: np.ndarray
    n_zero: np.ndarray
    u: np.ndarray
    lam: np.ndarray
    sigma: np.ndarray
    xi: np.ndarray
    code: np.ndarray


def _side_by_side(parts) -> MixtureFits:
    """The fits of parts, all at the same number of levels, as one batch
    of their samples in order."""
    return MixtureFits(*(np.concatenate([getattr(p, f.name) for p in parts])
                         for f in fields(MixtureFits)))


def sample_range(fits: MixtureFits, start: int, stop: int) -> MixtureFits:
    """The fits of samples start to stop - 1 of fits, at every level, as
    one batch of views."""
    parts = {f.name: getattr(fits, f.name)[start:stop] for f in fields(MixtureFits)}
    parts["values"] = fits.values[fits.n[:start].sum():fits.n[:stop].sum()]
    return MixtureFits(**parts)


@dataclass(frozen=True)
class BaMixture:
    """One sample's fit at one level: the zero/bulk/tail mixture (kind
    "mixture") or its fully empirical fallback (kind "empirical"), read
    off fits, the batch of one it was fitted as."""

    kind: str
    sample_size: int
    z: float
    u: float
    lam: float
    gpd: GpdParams | None
    fallback_reason: str | None
    fits: MixtureFits = field(repr=False)

    def cdf(self, x):
        """Model CDF at proportions x >= 0 (scalar or array): the row
        kernel on this fit alone."""
        x = np.asarray(x, dtype=float)
        row = _mixture_cdf(self.fits, x.reshape(1, -1))[0, 0]
        return float(row[0]) if x.ndim == 0 else row.reshape(x.shape)


def _mixture_cdf(fits: MixtureFits, x) -> np.ndarray:
    """CDF rows (levels, samples, T) of fits at the proportions x (S, T),
    row s of x for sample s.

    Every row starts as its sample's ECDF, from the sample's count of
    values at or below each x, which is the whole row of an empirical
    fallback. The mixtures' rows are then built from those counts and
    the counts at or below u, in passes of at most ROW_BLOCK entries.
    """
    if np.any(x < 0):
        raise DataError("burnt-area proportions are nonnegative")
    n_s, n_l = fits.u.shape
    n_t = x.shape[1]
    samples = np.split(fits.values, np.cumsum(fits.n)[:-1])
    below = np.array([np.searchsorted(sample, q, side="right") for sample, q in
                      zip(samples, np.concatenate([x, fits.u], axis=1))])
    below = below.reshape(n_s, n_t + n_l)
    rows = np.empty((n_l, n_s, n_t))
    rows[:] = below[:, :n_t] / fits.n[:, None]
    level, sample = np.nonzero(fits.code.T == MIXTURE)
    step = max(1, ROW_BLOCK // max(n_t, 1))
    for first in range(0, sample.size, step):
        lev, s = level[first:first + step], sample[first:first + step]
        n_zero, n_pos = fits.n_zero[s], fits.n[s] - fits.n_zero[s]
        z = n_zero / fits.n[s]
        u, lam = fits.u[s, lev], fits.lam[s, lev]
        sigma, xi = fits.sigma[s, lev], fits.xi[s, lev]
        # F* below u: the ECDF of the positive part, scaled to 1 - lam - z
        f_u = (below[s, n_t + lev] - n_zero) / n_pos
        ecdf = (below[s, :n_t] - n_zero[:, None]) / n_pos[:, None]
        body = ((1.0 - lam - z) / f_u)[:, None] * ecdf + z[:, None]
        at = x[s]
        body = np.where(at == 0.0, z[:, None], body)
        tail = at >= u[:, None]
        k, _ = np.nonzero(tail)
        h = _excess_cdf((at[tail] - u[k]) / sigma[k], xi[k])
        body[tail] = 1.0 - lam[k] * (1.0 - h)
        rows[lev, s] = body
    return rows


def _order_statistic(n, k2):
    """The rank ceil(k2 * n) that `threshold_order_statistic` takes, for
    n and k2 that broadcast."""
    rank = np.ceil(np.asarray(k2, dtype=float) * n - 1e-12)
    return np.minimum(np.maximum(rank, 1), n).astype(np.intp)


def threshold_order_statistic(sorted_sample: np.ndarray, k2):
    """Left-continuous inverse-ECDF quantile: order statistic ceil(k2*n),
    at one level or at an array of them."""
    return sorted_sample[_order_statistic(sorted_sample.size, k2) - 1]


def fit_mixtures(samples, levels) -> MixtureFits:
    """`fit_mixture` of every sample at every level, as one MixtureFits.

    Each sample is sorted once. z, u and the exceedance count of every
    (sample, level) are array arithmetic on all of them. The GPD tails
    are gathered from the sorted samples in blocks of one exceedance
    count m and at most GPD_BLOCK excesses, and each block is fitted by
    one `fit_gpds` call.
    """
    k2 = np.asarray(levels, dtype=float).reshape(-1)
    for level in k2.tolist():
        if not 0.0 < level < 1.0:
            raise DataError(f"k2 must lie in (0,1), got {level}")
    srt = [np.sort(np.asarray(sample, dtype=float).reshape(-1)) for sample in samples]
    sizes = [sample.size for sample in srt]
    if 0 in sizes:
        raise DataError("sample must be nonempty")
    n = np.array(sizes, dtype=np.int64)
    values = np.concatenate(srt) if srt else np.empty(0)
    # NaN fails both comparisons
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        raise DataError("burnt-area proportions must lie in [0, 1]")
    head = np.cumsum(n) - n
    u = values[head[:, None] + _order_statistic(n[:, None], k2) - 1]
    # the counts at or below 0 and at or below each u
    queries = np.concatenate([np.zeros((n.size, 1)), u], axis=1)
    below = np.array([np.searchsorted(sample, q, side="right")
                      for sample, q in zip(srt, queries)]).reshape(queries.shape)
    first = below[:, 1:]
    m = n[:, None] - first
    # u == 0 exactly when the zero count reaches the k2 order statistic
    code = np.where(u <= 0.0, ZERO_MASS,
                    np.where(m < MIN_EXCEED, FEW_EXCEEDANCES, MIXTURE))
    sigma, xi = np.full((2,) + u.shape, np.nan)
    mixture = code == MIXTURE
    if mixture.any():
        tails = np.flatnonzero(mixture)
        sizes, tops = m.ravel()[tails], (head[:, None] + first).ravel()[tails]
        for size in np.unique(sizes).tolist():
            group = np.flatnonzero(sizes == size)
            step = max(1, GPD_BLOCK // size)
            for block in (group[i:i + step] for i in range(0, group.size, step)):
                at = tails[block]
                sigma.flat[at], xi.flat[at] = fit_gpds(
                    values[tops[block, None] + np.arange(size)], u.flat[at])
        code[np.isnan(sigma) & (code == MIXTURE)] = DEGENERATE
    lam = np.empty(u.shape)
    lam[:] = 1.0 - k2
    return MixtureFits(values=values, n=n, n_zero=below[:, 0], u=u, lam=lam,
                       sigma=sigma, xi=xi, code=code)


def fit_mixture(sample, k2: float) -> BaMixture:
    """Fit the zero/bulk/GPD mixture at non-exceedance level k2.

    Falls back to the full-sample empirical CDF when the zero mass
    reaches k2 (threshold degenerates to 0), when fewer than MIN_EXCEED
    values lie strictly above the threshold, or when the tail fit fails.
    This is `fit_mixtures` on one sample at one level.
    """
    fits = fit_mixtures([sample], (k2,))
    code, u = int(fits.code[0, 0]), float(fits.u[0, 0])
    gpd = (GpdParams(sigma=float(fits.sigma[0, 0]), xi=float(fits.xi[0, 0]), threshold=u)
           if code == MIXTURE else None)
    n = int(fits.n[0])
    return BaMixture(kind="empirical" if gpd is None else "mixture", sample_size=n,
                     z=int(fits.n_zero[0]) / n, u=u, lam=float(fits.lam[0, 0]),
                     gpd=gpd, fallback_reason=FALLBACKS[code], fits=fits)


def cdf_rows(fits, thresholds, capacities) -> np.ndarray:
    """CDF rows on an absolute threshold grid, of shape (levels, centers,
    thresholds), one center per fitted sample: fits is a list of count
    models (one level), a list of `BaMixture`s (one level) or a
    `MixtureFits` (its levels), and capacities holds one cell capacity
    per center.

    A count model's CDF already is its row (`counts.count_rows`). A
    burnt-area mixture lives on the proportion scale: the grid is
    divided by the cell capacity, and thresholds at or above capacity
    are certainties, pinned to 1 regardless of the fitted tail. This is
    the one capacity pin, for predicted and CV rows alike;
    `rules.saturation_flags` only labels the rows it touched. The pins
    are a suffix of the increasing grid. Each family's rows come from
    one stacked kernel, and each row equals that center's row alone,
    bit for bit.
    """
    if not isinstance(fits, MixtureFits):
        if not fits or not isinstance(fits[0], BaMixture):
            return count_rows(fits, thresholds)[None]
        fits = _side_by_side([model.fits for model in fits])
    capacities = np.asarray(capacities, dtype=float).reshape(-1, 1)
    scaled, forced = rescaled_thresholds(thresholds, capacities)
    rows = _mixture_cdf(fits, scaled)
    rows[:, forced] = 1.0
    return rows


def sample_gpd(params: GpdParams, n: int, rng) -> np.ndarray:
    """Inverse-CDF draws of exceedance values (threshold + excess)."""
    v = rng.random(n)
    if abs(params.xi) < XI_EXP_EPS:
        excess = -params.sigma * np.log1p(-v)
    else:
        excess = params.sigma / params.xi * ((1.0 - v) ** (-params.xi) - 1.0)
    return params.threshold + excess
