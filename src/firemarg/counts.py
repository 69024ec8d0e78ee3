"""Zero-inflated negative binomial model for wildfire counts.

The pmf mixes a point mass at zero (weight pi) with a negative binomial
parameterized by mean mu and dispersion r:

    pmf(0) = pi + (1 - pi) * g(0)
    pmf(j) = (1 - pi) * g(j),  j >= 1
    g(j)   = Gamma(j + r) / (Gamma(r) j!) * (r/(r+mu))^r * (mu/(r+mu))^j

Everything is computed in log space. The Gamma ratio is written as a sum
of log((r+k)/(r+mu)) over k < j, so g stays accurate for any finite r and
tends to the Poisson(mu) pmf as r grows; the cost is linear in the
largest support point.

Fitting profiles pi out in closed form (Lambert 1992): for fixed (mu, r)
the likelihood peaks at pi = max(0, (f0 - g0)/(1 - g0)), with f0 the
sample's zero fraction and g0 = g(0). What is left is a zero-truncated
negative binomial likelihood in (mu, r), or the plain one where pi = 0,
and a damped Newton search over (log mu, log r) with analytic
derivatives maximizes it. r is capped at R_MAX, the Poisson limit,
where underdispersed samples end up. Small or degenerate samples fall
back to the empirical CDF.

Fits are stacked and columnar. `fit_zinbs` fits many samples in one
search on 2-D arrays, one row per sample, and returns one `CountFits`,
laid out as `burnt_area.MixtureFits` is; a sample leaves the search
when it converges or stops. Each likelihood evaluation needs three sums over
the support, each a row sum of n_gt (the number of observations above
k) times a term in k; everything else is elementwise arithmetic on one
value per row, and the 2 x 2 Newton step is solved in closed form
(eigenvalues only where the surface is not concave). Samples are
grouped by their support length rounded up to a multiple of ZINB_PAD,
and n_gt is zero-padded to that length, so the length a row's sums run
over depends only on its own sample, never on the batch: a stacked fit
equals the lone fit bit for bit. `fit_zinb` is `fit_zinbs` on one
sample, viewed as a `CountModel`, so cross-validation scores exactly
what prediction emits. `sample_range` slices either family's record.

Rows are stacked too. `count_rows` builds the CDF rows of a `CountFits`:
the ZINB fits' from `_zinb_rows`, which groups them by the support
point their sums stop at (the grid's largest, or a tail cap past 256)
and evaluates one 2-D pmf per group, cumulated along each row alone;
the empirical fallbacks' from their sorted sample's counts at or below
each threshold (`at_or_below`). `zinb_cdf` and `CountModel.cdf` are
these on one model. A CDF row is a cumulative sum of exponentials, so it never decreases or
goes negative; `_zinb_rows` holds the one rounding cap at 1, checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np
from scipy.special import gammaln, log_expit

from .errors import DataError

MIN_FIT = 10
R_MAX = 1e8           # dispersion cap, the Poisson limit: var/mean = 1 + mu/r
MAX_NEWTON = 100
MAX_STEP = 2.0        # longest Newton step in log(mu) or log(r)
NEWTON_TOL = 1e-10    # stop once the Newton decrement is below this * |loglik|
# The stacked search pads each sample's support length up to a multiple
# of ZINB_PAD (see the module docstring), and fits at most ZINB_BLOCK
# support entries (samples x padded length) at once, so that a block's
# temporaries stay near 0.5 MB each; the row kernel takes models in
# blocks of as many entries (models x the grid's largest support point).
ZINB_PAD = 16
ZINB_BLOCK = 65536

_PARAM_CLIP = (1e-3, 1e3)
_LOG_R_MAX = float(np.log(R_MAX))


@dataclass(frozen=True)
class ZinbParams:
    pi: float
    mu: float
    r: float

    def __post_init__(self):
        if not 0.0 <= self.pi <= 1.0:
            raise DataError(f"pi must lie in [0,1], got {self.pi}")
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise DataError(f"mu must be finite positive, got {self.mu}")
        if not (np.isfinite(self.r) and self.r > 0):
            raise DataError(f"r must be finite positive, got {self.r}")


# CountFits.code of each sample: ZINB, or the empirical fallback whose
# reason FALLBACKS holds at that index
ZINB, TOO_FEW, ALL_ZERO, NOT_CONVERGED = range(4)
FALLBACKS = (None, "too few values", "all zero", "optimizer did not converge")


@dataclass(frozen=True)
class CountFits:
    """The fits of S samples, column by column, as in `MixtureFits`: the
    samples end to end in values, as fitted, with n per sample, and per
    sample, as (S, 1) arrays of one level, the ZINB's pi, mu, r and
    log-likelihood (NaN off the ZINB fits) and the fallback code."""

    # the model of code 0 and the reason of each code, as in MixtureFits
    model: ClassVar[str] = "zinb"
    fallbacks: ClassVar[tuple] = FALLBACKS

    values: np.ndarray
    n: np.ndarray
    pi: np.ndarray
    mu: np.ndarray
    r: np.ndarray
    loglik: np.ndarray
    code: np.ndarray


def sample_range(fits, start: int, stop: int):
    """The fits of samples start to stop - 1 of a `CountFits` or a
    `burnt_area.MixtureFits`, at every level, as one batch of views."""
    parts = {f.name: getattr(fits, f.name)[start:stop] for f in fields(fits)}
    parts["values"] = fits.values[fits.n[:start].sum():fits.n[:stop].sum()]
    return type(fits)(**parts)


def at_or_below(values, n, queries) -> np.ndarray:
    """Each sample's count of values at or below each of its queries, as
    an (S, Q) array: values holds S sorted samples end to end, sample s
    has n[s] of them, and row s of queries (S, Q) holds its queries."""
    ends = np.cumsum(n).tolist()
    return np.array([np.searchsorted(values[end - size:end], q, side="right")
                     for end, size, q in zip(ends, n.tolist(), queries)],
                    dtype=np.intp).reshape(queries.shape)


def _log_ratio_terms(k, mu: float, r: float):
    """log((r+k)/(r+mu)) for k = 0, 1, ..., without cancellation at large r."""
    y = (k - mu) / (r + mu)
    return np.where(y > -0.5, np.log1p(y), np.log((r + k) / (r + mu)))


def _log_pmf_rows(pi, mu, r, width: int) -> np.ndarray:
    """Log pmf at 0, 1, ..., width - 1 of each model, one row per entry
    of pi, mu and r.

    log g(j) is the cumulative sum of log((r+k)/(r+mu)) over k < j, each
    row summed alone, minus log j! and r log(1 + mu/r), plus j log mu.
    """
    k = np.arange(width, dtype=float)
    mu, r = mu[:, None], r[:, None]
    partial = np.zeros((mu.shape[0], width))
    np.cumsum(_log_ratio_terms(k[:-1], mu, r), axis=1, out=partial[:, 1:])
    log_g = partial - gammaln(k + 1.0) - r * np.log1p(mu / r) + k * np.log(mu)
    with np.errstate(divide="ignore"):
        log_pi, log_1mpi = np.log(pi), np.log1p(-pi)
    log_pmf = log_1mpi[:, None] + log_g
    log_pmf[:, 0] = np.logaddexp(log_pi, log_pmf[:, 0])
    return log_pmf


def _pmf_rows(pi, mu, r, width: int) -> np.ndarray:
    return np.exp(_log_pmf_rows(pi, mu, r, width))


def zinb_log_pmf(params: ZinbParams, j):
    """Log pmf at integer support points j (scalar or array)."""
    j = np.asarray(j)
    if np.any(j < 0) or np.any(j != np.floor(j)):
        raise DataError("support points must be nonnegative integers")
    width = int(j.max()) + 1 if j.size else 1
    one = [np.array([v]) for v in (params.pi, params.mu, params.r)]
    return _log_pmf_rows(*one, width)[0, j.astype(np.intp)]


def zinb_pmf(params: ZinbParams, j):
    return np.exp(zinb_log_pmf(params, j))


def _row_caps(pi, mu, r, kmax: int) -> np.ndarray:
    """The last support point each model's row sums to, on a grid that
    reaches kmax: kmax itself up to 256. Past 256, the first j0 of 256,
    512, ... (at most kmax) where a geometric bound on the remaining
    tail mass drops below 1e-13, so very large thresholds cost nothing
    extra."""
    caps = np.full(pi.size, kmax)
    todo = np.arange(pi.size if kmax > 256 else 0)
    q = mu / (r + mu)
    j0 = 256
    while todo.size:
        # past the cap, pmf(j+1)/pmf(j) = q*(j+r)/(j+1) <= bound < 1 for j large
        bound = q[todo] * np.maximum(1.0, (j0 + r[todo]) / (j0 + 1.0))
        # tail beyond j0 <= pmf(j0) * bound / (1 - bound)
        tail = np.full(todo.size, np.inf)
        shrinks = bound < 1.0
        m, b = todo[shrinks], bound[shrinks]
        tail[shrinks] = _pmf_rows(pi[m], mu[m], r[m], j0 + 1)[:, j0] * b / (1.0 - b)
        stop = tail < 1e-13
        caps[todo[stop]] = j0
        if j0 >= kmax:
            break
        todo = todo[~stop]
        j0 = min(2 * j0, kmax)
    return caps


def _zinb_rows(pi, mu, r, u) -> np.ndarray:
    """CDF rows of ZINB models at the real thresholds u (1-D), one row
    per entry of pi, mu and r: the sum of the pmf over j <= floor(u),
    and 0 at a negative threshold.

    Models are taken in blocks of at most ZINB_BLOCK support entries
    (models x the grid's largest support point), and within a block
    by `_row_caps` cap: one 2-D pmf per cap, cumulated along each row
    alone. A sum of cap + 1 terms can pass 1 by (cap + 1) ulps of
    rounding, which is capped; more raises DataError naming the model.
    """
    if np.any(np.isnan(u)):
        raise DataError("thresholds must not be NaN")
    valid = u >= 0
    cols = np.flatnonzero(valid)
    kmax = int(u[valid].max(initial=0.0))
    out = np.zeros((pi.size, u.size))
    per_block = max(1, ZINB_BLOCK // (kmax + 1))
    for first in range(0, pi.size, per_block):
        block = np.arange(first, min(first + per_block, pi.size))
        caps = _row_caps(pi[block], mu[block], r[block], kmax)
        for cap in np.unique(caps).tolist():
            rows = block[caps == cap]
            cum = np.cumsum(_pmf_rows(pi[rows], mu[rows], r[rows], cap + 1), axis=1)
            over = np.flatnonzero(cum[:, -1] - 1.0 > (cap + 1) * np.finfo(float).eps)
            if over.size:
                i = rows[over[0]]
                params = ZinbParams(pi=float(pi[i]), mu=float(mu[i]), r=float(r[i]))
                raise DataError(f"pmf of {params} sums to {float(cum[over[0], -1])!r}, "
                                "above 1 by more than rounding")
            np.minimum(cum, 1.0, out=cum)
            out[rows[:, None], cols] = cum[:, np.minimum(u[valid], cap).astype(np.intp)]
    return out


def zinb_cdf(params: ZinbParams, u):
    """CDF at real thresholds u (scalar or array), 0 below 0: the row
    of this one model."""
    u = np.asarray(u, dtype=float)
    row = _zinb_rows(*(np.array([v]) for v in (params.pi, params.mu, params.r)), u.reshape(-1))
    return float(row[0, 0]) if u.ndim == 0 else row[0].reshape(u.shape)


def count_rows(fits: CountFits, thresholds) -> np.ndarray:
    """CDF rows of count fits at the thresholds, one row per sample:
    every ZINB fit's from one `_zinb_rows` call, and every empirical
    fallback's from its sorted sample's count of values at or below
    each threshold."""
    u = np.asarray(thresholds, dtype=float).reshape(-1)
    rows = np.empty((fits.n.size, u.size))
    zinb = fits.code[:, 0] == ZINB
    if zinb.any():
        rows[zinb] = _zinb_rows(fits.pi[zinb, 0], fits.mu[zinb, 0], fits.r[zinb, 0], u)
    if not zinb.all():
        n = fits.n[~zinb]
        heads = (np.cumsum(fits.n) - fits.n)[~zinb]
        values = np.concatenate([np.sort(fits.values[h:h + k])
                                 for h, k in zip(heads.tolist(), n.tolist())])
        rows[~zinb] = at_or_below(values, n, np.broadcast_to(u, (n.size, u.size))) / n[:, None]
    return rows


@dataclass(frozen=True)
class CountModel:
    """One sample's fit, the ZINB (kind "zinb") or its empirical
    fallback (kind "empirical", with the reason), read off fits, the
    batch of one it was fitted as."""

    kind: str
    sample_size: int
    params: ZinbParams | None
    loglik: float              # NaN off the ZINB
    fallback_reason: str | None
    fits: CountFits = field(repr=False)

    def cdf(self, u):
        """CDF at thresholds u (scalar or array): `count_rows` of this
        fit alone."""
        u = np.asarray(u, dtype=float)
        row = count_rows(self.fits, u)[0]
        return float(row[0]) if u.ndim == 0 else row.reshape(u.shape)


def _zinb_neg_loglik(theta, values, counts):
    """Negative log-likelihood at theta = (logit pi, log mu, log r) of a
    sample given as distinct sorted values and their counts."""
    pi_logit, log_mu, log_r = theta
    mu = np.exp(np.clip(log_mu, -700, 700))
    r = np.exp(np.clip(log_r, -700, 700))
    if not (np.isfinite(mu) and np.isfinite(r)) or mu <= 0 or r <= 0:
        return np.inf
    log_pi = log_expit(pi_logit)
    log_1mpi = log_expit(-pi_logit)
    # the pmf rows at pi = 0 are the negative binomial's own
    log_g = _log_pmf_rows(np.zeros(1), np.array([mu]), np.array([r]),
                          int(values[-1]) + 1)[0, values.astype(np.intp)]
    log_pmf = log_1mpi + log_g
    if values[0] == 0:
        log_pmf[0] = np.logaddexp(log_pi, log_1mpi + log_g[0])
    total = float(np.dot(counts, log_pmf))
    return np.inf if not np.isfinite(total) else -total


def _histograms(samples, width: int) -> np.ndarray:
    """Counts of 0, 1, ..., width in each sample, one row per sample."""
    k = len(samples)
    offsets = np.repeat(np.arange(k) * (width + 1), [s.size for s in samples])
    flat = np.concatenate(samples).astype(np.intp) + offsets
    return np.bincount(flat, minlength=k * (width + 1)).reshape(k, width + 1)


def _moment_starts(hist):
    """Moment-based (log mu, log r) of each histogram row, where the
    fits start. Every row has a positive count."""
    support = np.arange(hist.shape[1], dtype=float)
    n = hist.sum(axis=1)
    total = (hist * support).sum(axis=1)
    mean = total / n
    var = (hist * (support - mean[:, None]) ** 2).sum(axis=1) / n
    mu0 = total / (n - hist[:, 0])
    over = (var > mean) & (mean > 0)
    r0 = np.where(over, mean ** 2 / np.where(over, var - mean, 1.0), _PARAM_CLIP[1])
    return np.log(np.clip(mu0, *_PARAM_CLIP)), np.log(np.clip(r0, *_PARAM_CLIP))


class _ProfileLiks:
    """ZINB log-likelihoods with pi profiled out, one per histogram row,
    as functions of (log mu, log r), with their gradients and Hessians.

    For the positive observations, sum log g(j) needs the partial sums
    over k < j of log((r+k)/(r+mu)), 1/(r+k) (the digamma difference) and
    1/(r+k)^2 (the trigamma difference); summed over the sample each is
    the row sum of n_gt[k], the number of observations above k, times
    the term. Everything else is one value per row.
    """

    def __init__(self, hist):
        support = np.arange(hist.shape[1], dtype=float)
        n = hist.sum(axis=1)
        n0 = hist[:, 0]
        self.n0 = n0.astype(float)
        self.n_pos = (n - n0).astype(float)
        self.f0 = n0 / n
        with np.errstate(divide="ignore"):
            self.log_f0 = np.log(self.f0)
        self.n_gt = (n[:, None] - np.cumsum(hist, axis=1)[:, :-1]).astype(float)
        self.sum_pos = (hist * support).sum(axis=1)
        # -sum log j! over the sample, and the profiled zero term when pi > 0
        self.const = -(hist[:, 1:] * gammaln(support[1:] + 1.0)).sum(axis=1)
        zeros = n0 > 0
        self.const_zeros = np.where(
            zeros, self.n0 * np.where(zeros, self.log_f0, 0.0)
            + self.n_pos * np.log1p(-self.f0), 0.0)

    def take(self, rows) -> "_ProfileLiks":
        """The likelihoods of the given rows."""
        part = object.__new__(_ProfileLiks)
        part.__dict__ = {name: v[rows] for name, v in vars(self).items()}
        return part

    def _inflated(self, log_g0):
        """Where pi > 0, and 1 - g0 there (1 elsewhere)."""
        inflated = self.log_f0 > log_g0
        return inflated, np.where(inflated, -np.expm1(log_g0), 1.0)

    def pi_hat(self, a, b):
        mu, r = np.exp(a), np.exp(b)
        log_g0 = -r * np.log1p(mu / r)
        inflated, one_m_g0 = self._inflated(log_g0)
        return np.where(inflated, (self.f0 - np.exp(log_g0)) / one_m_g0, 0.0)

    def __call__(self, a, b):
        """(loglik, gradient, Hessian) of each row at (a, b) = (log mu,
        log r): the gradient as rows (g_a, g_b) and the Hessian as rows
        of its three distinct entries (h_aa, h_ab, h_bb)."""
        mu, r = np.exp(a), np.exp(b)
        s = r + mu
        s2 = s * s
        l1p = np.log1p(mu / r)
        k = np.arange(self.n_gt.shape[1], dtype=float)
        inv = 1.0 / (r[:, None] + k)
        n0, n_pos, sum_pos = self.n0, self.n_pos, self.sum_pos
        excess = sum_pos - n_pos * mu

        # sum of log g(j) over the positive observations
        ll = ((self.n_gt * _log_ratio_terms(k, mu[:, None], r[:, None])).sum(axis=1)
              + self.const + a * sum_pos - n_pos * r * l1p)
        ga = r * excess / s
        gb = r * ((self.n_gt * inv).sum(axis=1) - n_pos * l1p - excess / s)
        haa = -r * mu * (n_pos * r + sum_pos) / s2
        hab = r * mu * excess / s2
        hbb = gb + r * (-r * (self.n_gt * (inv * inv)).sum(axis=1)
                        + n_pos * mu / s + r * excess / s2)

        # zeros: log g0 and its derivatives
        log_g0 = -r * l1p
        da0 = -r * mu / s
        db0 = r * (mu / s - l1p)
        haa0 = -r * r * mu / s2
        hab0 = -r * mu * mu / s2
        hbb0 = db0 + r * mu * mu / s2
        # where pi > 0 the positive part is zero-truncated; elsewhere the
        # plain negative binomial (n0 may be 0)
        inflated, one_m_g0 = self._inflated(log_g0)
        ll += np.where(inflated, self.const_zeros - n_pos * np.log(one_m_g0),
                       n0 * log_g0)
        w = np.where(inflated, n_pos * np.exp(log_g0) / one_m_g0, n0)
        w2 = np.where(inflated, w / one_m_g0, 0.0)
        haa += w2 * da0 * da0
        hab += w2 * da0 * db0
        hbb += w2 * db0 * db0
        return (ll, np.array([ga + w * da0, gb + w * db0]),
                np.array([haa + w * haa0, hab + w * hab0, hbb + w * hbb0]))


def _ascent_steps(grad, hess, fix_r):
    """Newton ascent directions (d_a, d_b), one per column, from the
    negated Hessians: solved in closed form where the surface is
    concave, elsewhere with each Hessian's eigenvalues made positive.
    Where fix_r, r stays at its cap."""
    g_a, g_b = grad
    a_aa, a_ab, a_bb = -hess
    concave = (a_aa > 0) & (a_aa * a_bb > a_ab * a_ab)
    det = np.where(concave, a_aa * a_bb - a_ab * a_ab, 1.0)
    d_a = (a_bb * g_a - a_ab * g_b) / det
    d_b = (a_aa * g_b - a_ab * g_a) / det
    bent = ~concave & ~fix_r
    if bent.any():
        mats = np.stack([a_aa[bent], a_ab[bent], a_ab[bent], a_bb[bent]],
                        axis=1).reshape(-1, 2, 2)
        lam, vec = np.linalg.eigh(mats)
        lam = np.abs(lam)
        lam = np.maximum(lam, 1e-8 * np.maximum(1.0, lam.max(axis=1))[:, None])
        # vec @ ((vec.T @ grad) / lam), written out
        g0, g1 = g_a[bent], g_b[bent]
        c0 = (vec[:, 0, 0] * g0 + vec[:, 1, 0] * g1) / lam[:, 0]
        c1 = (vec[:, 0, 1] * g0 + vec[:, 1, 1] * g1) / lam[:, 1]
        d_a[bent] = vec[:, 0, 0] * c0 + vec[:, 0, 1] * c1
        d_b[bent] = vec[:, 1, 0] * c0 + vec[:, 1, 1] * c1
    d_a = np.where(fix_r, g_a / np.maximum(np.abs(a_aa), 1e-8), d_a)
    d_b = np.where(fix_r, 0.0, d_b)
    return d_a, d_b


def _backtrack(lik: _ProfileLiks, a, b, ll, grad, hess, d_a, d_b, done):
    """Backtracking line search of every row along its step (d_a, d_b):
    alpha halves from 1 until the likelihood rises, at most 40 times,
    and only once where the search is done.

    Returns (found, a, b, ll, grad, hess): the rows that found a point
    are at it, the others where they were.
    """
    found = np.zeros(a.size, dtype=bool)
    a_c, b_c, ll_c, grad_c, hess_c = a.copy(), b.copy(), ll.copy(), grad.copy(), hess.copy()
    rows = np.arange(a.size)
    alpha = 1.0
    for _ in range(40):
        ca = a[rows] + alpha * d_a[rows]
        cb = np.minimum(b[rows] + alpha * d_b[rows], _LOG_R_MAX)
        ll_t, grad_t, hess_t = lik(ca, cb)
        rise = grad[0, rows] * (ca - a[rows]) + grad[1, rows] * (cb - b[rows])
        up = ll_t > ll[rows] + 1e-4 * np.maximum(rise, 0.0)
        hit = rows[up]
        found[hit] = True
        a_c[hit], b_c[hit], ll_c[hit] = ca[up], cb[up], ll_t[up]
        grad_c[:, hit], hess_c[:, hit] = grad_t[:, up], hess_t[:, up]
        more = ~up & ~done[rows]
        if not more.any():
            break
        rows, lik = rows[more], lik.take(more)
        alpha *= 0.5
    return found, a_c, b_c, ll_c, grad_c, hess_c


def _newton_fits(lik: _ProfileLiks, a, b):
    """Damped, projected Newton ascent over (log mu, log r <= log R_MAX)
    of every row of lik, from (a, b).

    Returns (a, b, loglik, converged) per row. Each step is capped at
    MAX_STEP per coordinate and backtracked until the likelihood rises.
    A row leaves the search once it converges or stops.
    """
    b = np.minimum(b, _LOG_R_MAX)
    ll, grad, hess = lik(a, b)
    out = np.empty((3, a.size))
    converged = np.zeros(a.size, dtype=bool)
    rows = np.arange(a.size)
    for _ in range(MAX_NEWTON):
        fix_r = (b >= _LOG_R_MAX) & (grad[1] > 0)
        d_a, d_b = _ascent_steps(grad, hess, fix_r)
        decrement = grad[0] * d_a + grad[1] * d_b
        # near the optimum take the full step if it helps, then stop
        done = decrement <= NEWTON_TOL * np.maximum(1.0, np.abs(ll))
        scale = np.minimum(1.0, MAX_STEP / np.maximum(
            np.maximum(np.abs(d_a), np.abs(d_b)), MAX_STEP))
        found, a, b, ll, grad, hess = _backtrack(lik, a, b, ll, grad, hess,
                                                 d_a * scale, d_b * scale, done)
        # a row stops when the step is done or finds no better point; it
        # has converged only if the step was done
        stop = done | ~found
        if stop.any():
            out[:, rows[stop]] = a[stop], b[stop], ll[stop]
            converged[rows[stop]] = done[stop]
            go = ~stop
            if not go.any():
                break
            rows, lik = rows[go], lik.take(go)
            a, b, ll, grad, hess = a[go], b[go], ll[go], grad[:, go], hess[:, go]
    else:
        out[:, rows] = a, b, ll
    return out[0], out[1], out[2], converged


def fit_zinbs(samples) -> CountFits:
    """`fit_zinb` of every sample, in one stacked search, as one
    CountFits.

    Samples are searched together by padded support length, in blocks
    of at most ZINB_BLOCK support entries; see the module docstring for
    why each fit equals fit_zinb on that sample alone, bit for bit.
    """
    samples = [np.asarray(s, dtype=float).reshape(-1) for s in samples]
    n = np.array([s.size for s in samples], dtype=np.int64)
    if np.any(n == 0):
        raise DataError("sample must be nonempty")
    values = np.concatenate(samples) if samples else np.empty(0)
    if np.any(values < 0) or np.any(values != np.floor(values)):
        raise DataError("counts must be nonnegative integers")
    tops = np.maximum.reduceat(values, np.cumsum(n) - n) if n.size else values
    code = np.where(n < MIN_FIT, TOO_FEW, np.where(tops == 0, ALL_ZERO, ZINB))
    widths = -(-tops.astype(np.int64) // ZINB_PAD) * ZINB_PAD
    pi, mu, r, loglik = np.full((4, n.size, 1), np.nan)
    for width in np.unique(widths[code == ZINB]).tolist():
        group = np.flatnonzero((widths == width) & (code == ZINB))
        per_block = max(1, ZINB_BLOCK // width)
        for block in (group[i:i + per_block] for i in range(0, group.size, per_block)):
            hist = _histograms([samples[i] for i in block.tolist()], width)
            lik = _ProfileLiks(hist)
            a, b, ll, converged = _newton_fits(lik, *_moment_starts(hist))
            code[block[~converged]] = NOT_CONVERGED
            ok = block[converged]
            pi[ok, 0], loglik[ok, 0] = lik.pi_hat(a, b)[converged], ll[converged]
            # math.exp, not np.exp: the two can differ in the last bit
            mu[ok, 0] = [math.exp(v) for v in a[converged].tolist()]
            r[ok, 0] = [math.exp(v) for v in b[converged].tolist()]
    return CountFits(values=values, n=n, pi=pi, mu=mu, r=r, loglik=loglik, code=code[:, None])


def fit_zinb(sample) -> CountModel:
    """Maximum-likelihood ZINB fit with empirical fallback.

    pi is profiled out in closed form and a damped Newton search from
    the moment-based start maximizes the rest over (log mu, log r), with
    r capped at R_MAX (the Poisson limit). The fit is deterministic and
    never ends below its start. Falls back when the sample has fewer
    than MIN_FIT values or is all zeros, and with "optimizer did not
    converge" in one case only: the search stops, after MAX_NEWTON steps
    or at a step it cannot improve on, while the Newton decrement is
    still above its tolerance. This is `fit_zinbs` on one sample, viewed
    as a `CountModel`.
    """
    fits = fit_zinbs([sample])
    code = int(fits.code[0, 0])
    params = (ZinbParams(*(float(v[0, 0]) for v in (fits.pi, fits.mu, fits.r)))
              if code == ZINB else None)
    return CountModel(kind="zinb" if code == ZINB else "empirical", sample_size=int(fits.n[0]),
                      params=params, loglik=float(fits.loglik[0, 0]),
                      fallback_reason=FALLBACKS[code], fits=fits)


def sample_zinb(params: ZinbParams, n: int, rng) -> np.ndarray:
    """Draw n counts from the model (for simulation tests and synthesis)."""
    zeros = rng.random(n) < params.pi
    p = params.r / (params.r + params.mu)
    draws = rng.negative_binomial(params.r, p, size=n)
    draws[zeros] = 0
    return draws
