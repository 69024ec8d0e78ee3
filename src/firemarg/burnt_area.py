"""Semi-parametric distribution for burnt-area proportions.

The model glues three pieces along the sample: an atom at zero with
mass z, the empirical CDF of positive values up to a threshold u, and a
generalized Pareto tail above u:

    F(0)           = z
    F(x), 0<x<=u   = ((1 - lam - z) / F*(u)) * F*(x) + z
    F(x), x>u      = 1 - lam * (1 - H_u(x))

where lam = 1 - k2 is the exceedance probability, F* the ECDF of the
positive part, and H_u the GPD CDF of excesses. When the zero mass
already reaches the k2 level the threshold degenerates to 0 and the
fully empirical CDF is used instead.
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
    if abs(params.xi) < XI_EXP_EPS:
        out = -np.expm1(-t)
    else:
        arg = 1.0 + params.xi * t
        out = np.where(arg > 0.0, 1.0 - np.power(np.maximum(arg, 1e-300), -1.0 / params.xi), 1.0)
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def _profile_nll(s, r, top):
    """Negative log-likelihood per excess, profiled over the shape, at
    each point of s, for the excesses scaled to r = x / x_max (top marks
    those equal to x_max).

    With theta = xi / sigma and s = log1p(theta * x_max), the shape that
    maximises the likelihood for fixed theta is the mean of
    log1p(theta * x) (Grimshaw 1993), and the negative log-likelihood
    per excess is log(sigma) + 1 + xi. A shape outside [XI_LO, XI_HI]
    is clamped to the bound, which keeps the profile continuous in s.
    Values are in scaled units: add log(x_max) for the sample's units,
    and multiply sigma by x_max. Returns (nll, xi, sigma).
    """
    s = np.asarray(s, dtype=float).reshape(-1, 1)
    # theta = 0 is the exponential limit (xi = 0, sigma = mean(x)); a
    # tiny theta reaches it without dividing zero by zero
    s = np.where(np.abs(s) < S_TINY, S_TINY, s)
    tau = np.expm1(s)
    log_terms = np.log1p(tau * r)
    # as theta nears the support edge -1/x_max, 1 + expm1(s) loses the
    # excesses at x_max to rounding; their log term is exactly s
    log_terms[:, top] = s
    xi = log_terms.sum(axis=1) / r.size
    xi_c = np.clip(xi, XI_LO, XI_HI)
    sigma = xi_c / tau[:, 0]
    return np.log(sigma) + xi + xi / xi_c, xi_c, sigma


def _profile_grid(r):
    """Coarse grid of s for the profile search.

    Below S_MIN, theta * x_max is -1 to within rounding and the profile
    only climbs towards the edge value. Once theta * x >= XI_HI for
    every excess, the profile only grows. The grid spans the range
    between.
    """
    s_top = math.log1p(XI_HI / float(r.min()))
    return np.concatenate([
        np.arange(S_MIN, -S_FINE, S_COARSE_STEP),
        np.arange(-S_FINE, S_FINE, S_FINE_STEP),
        np.arange(S_FINE, s_top + S_COARSE_STEP, S_COARSE_STEP),
    ])


def fit_gpd(values, threshold: float, min_exceed: int = MIN_EXCEED) -> GpdParams:
    """MLE of (sigma, xi) on exceedances of the threshold.

    sigma is profiled out (Grimshaw 1993), so the search is over one
    variable: a coarse grid, which guards against a local minimum, then
    ZOOM_LEVELS finer grids, each spanning the two steps around the
    best point of the one before. values must all lie strictly above
    the threshold. Raises GpdFitError when there are too few values or
    they are all identical; callers treat that as the signal to fall
    back to an empirical CDF.
    """
    values = np.asarray(values, dtype=float)
    if values.size < min_exceed:
        raise GpdFitError(f"need at least {min_exceed} exceedances, got {values.size}")
    if np.any(values <= threshold):
        raise DataError("exceedances must lie strictly above the threshold")
    excess = values - threshold
    if np.ptp(excess) == 0.0:
        raise GpdFitError("degenerate sample: all exceedances equal")

    x_max = float(excess.max())
    r = excess / x_max
    top = r == 1.0

    s = _profile_grid(r)
    for _ in range(ZOOM_LEVELS):
        g = int(np.argmin(_profile_nll(s, r, top)[0]))
        s = np.linspace(s[max(g - 1, 0)], s[min(g + 1, s.size - 1)], ZOOM_POINTS)
    nll, xi, sigma = _profile_nll(s, r, top)
    g = int(np.argmin(nll))

    # Edge fit: when no interior point beats it, the supremum of the
    # likelihood is the xi -> -1 edge, the uniform law on (0, x_max]
    # with nll per excess log(x_max), i.e. 0 in scaled units. It is
    # reached only in the limit, so it is returned explicitly.
    if nll[g] >= 0.0:
        return GpdParams(sigma=x_max, xi=XI_LO, threshold=float(threshold))
    return GpdParams(sigma=float(sigma[g]) * x_max, xi=float(xi[g]),
                     threshold=float(threshold))


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

    def _bulk_ecdf(self, x):
        return np.searchsorted(self.positives, x, side="right") / self.positives.size

    def cdf(self, x):
        """Model CDF at x >= 0 (scalar or array)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if np.any(x < 0):
            raise DataError("burnt-area proportions are nonnegative")
        if self.kind == "empirical":
            out = np.searchsorted(self.sample, x, side="right") / self.sample.size
            return float(out[0]) if scalar else out

        out = np.empty(x.shape)
        zero = x == 0.0
        bulk = (x > 0.0) & (x <= self.u)
        tail = x > self.u
        out[zero] = self.z
        if np.any(bulk):
            f_u = self._bulk_ecdf(self.u)
            out[bulk] = (1.0 - self.lam - self.z) / f_u * self._bulk_ecdf(x[bulk]) + self.z
        if np.any(tail):
            out[tail] = 1.0 - self.lam * (1.0 - gpd_cdf(self.gpd, x[tail]))
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if scalar else out


def threshold_order_statistic(sorted_sample: np.ndarray, k2: float) -> float:
    """Left-continuous inverse-ECDF quantile: order statistic ceil(k2*n)."""
    n = sorted_sample.size
    idx = math.ceil(k2 * n - 1e-12)
    idx = min(max(idx, 1), n)
    return float(sorted_sample[idx - 1])


def fit_mixture(sample, k2: float, min_exceed: int = MIN_EXCEED) -> BaMixture:
    """Fit the zero/bulk/GPD mixture at non-exceedance level k2.

    Falls back to the full-sample empirical CDF when the zero mass
    reaches k2 (threshold degenerates to 0), when fewer than min_exceed
    values lie strictly above the threshold, or when the tail fit fails.
    """
    srt = np.sort(np.asarray(sample, dtype=float))
    n = srt.size
    if n == 0:
        raise DataError("sample must be nonempty")
    # NaN and +inf sort last and -inf first, so the two ends bound them all
    if not (srt[0] >= 0.0 and srt[-1] <= 1.0):
        raise DataError("burnt-area proportions must lie in [0, 1]")
    if not 0.0 < k2 < 1.0:
        raise DataError(f"k2 must lie in (0,1), got {k2}")

    n_zero = int(np.searchsorted(srt, 0.0, side="right"))
    z = n_zero / n
    lam = 1.0 - k2
    u = threshold_order_statistic(srt, k2)

    def empirical(reason):
        return BaMixture(kind="empirical", sample_size=n, z=z, u=u, lam=lam,
                         sample=srt, fallback_reason=reason)

    # u == 0 exactly when the zero count reaches the k2 order statistic
    if u <= 0.0:
        return empirical("zero mass at or above the k2 level")
    exceed = srt[np.searchsorted(srt, u, side="right"):]
    if exceed.size < min_exceed:
        return empirical("too few exceedances")
    try:
        gpd = fit_gpd(exceed, threshold=u, min_exceed=min_exceed)
    except GpdFitError as exc:
        return empirical(str(exc))
    return BaMixture(kind="mixture", sample_size=n, z=z, u=u, lam=lam,
                     sample=srt, positives=srt[n_zero:], gpd=gpd)


def cdf_row(model, thresholds, capacity: float) -> np.ndarray:
    """CDF row of a fitted model on an absolute threshold grid.

    A count model's CDF already is its row. A burnt-area mixture lives
    on the proportion scale: the grid is divided by the cell capacity,
    and thresholds at or above capacity are certainties, pinned to 1
    regardless of the fitted tail.
    """
    if not isinstance(model, BaMixture):
        return model.cdf(thresholds)
    scaled, forced = rescaled_thresholds(thresholds, capacity)
    row = model.cdf(scaled)
    row[forced] = 1.0
    return np.maximum.accumulate(row)


def sample_gpd(params: GpdParams, n: int, rng) -> np.ndarray:
    """Inverse-CDF draws of exceedance values (threshold + excess)."""
    v = rng.random(n)
    if abs(params.xi) < XI_EXP_EPS:
        excess = -params.sigma * np.log1p(-v)
    else:
        excess = params.sigma / params.xi * ((1.0 - v) ** (-params.xi) - 1.0)
    return params.threshold + excess
