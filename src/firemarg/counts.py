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
derivatives maximizes it. Each likelihood evaluation needs three dot
products over the support; everything else in the search is scalar
arithmetic on Python floats, and the 2 x 2 Newton step is solved in
closed form (eigenvalues only where the surface is not concave). r is
capped at R_MAX, the Poisson limit, where underdispersed samples end
up. Small or degenerate samples fall back to the empirical CDF.

A CDF row is a cumulative sum of exponentials, so it never decreases or
goes negative; `zinb_cdf` holds the one rounding cap at 1, checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_expit

from .errors import DataError

MIN_FIT = 10
R_MAX = 1e8           # dispersion cap, the Poisson limit: var/mean = 1 + mu/r
MAX_NEWTON = 100
MAX_STEP = 2.0        # longest Newton step in log(mu) or log(r)
NEWTON_TOL = 1e-10    # stop once the Newton decrement is below this * |loglik|

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


def _log_ratio_terms(k, mu: float, r: float):
    """log((r+k)/(r+mu)) for k = 0, 1, ..., without cancellation at large r."""
    y = (k - mu) / (r + mu)
    return np.where(y > -0.5, np.log1p(y), np.log((r + k) / (r + mu)))


def _nb_log_pmf(j, mu: float, r: float):
    """log of the negative binomial pmf g(j) at integer j >= 0."""
    j = np.asarray(j, dtype=float)
    top = int(j.max()) if j.size else 0
    terms = _log_ratio_terms(np.arange(top, dtype=float), mu, r)
    # partial[j] = log Gamma(j+r) - log Gamma(r) - j log(r+mu)
    partial = np.concatenate(([0.0], np.cumsum(terms)))
    return (partial[j.astype(np.intp)] - gammaln(j + 1.0)
            - r * np.log1p(mu / r) + j * np.log(mu))


def zinb_log_pmf(params: ZinbParams, j):
    """Log pmf at integer support points j (scalar or array)."""
    j = np.asarray(j)
    if np.any(j < 0) or np.any(j != np.floor(j)):
        raise DataError("support points must be nonnegative integers")
    log_g = _nb_log_pmf(j, params.mu, params.r)
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.pi)
        log_1mpi = np.log1p(-params.pi)
    return np.where(j == 0, np.logaddexp(log_pi, log_1mpi + log_g), log_1mpi + log_g)


def zinb_pmf(params: ZinbParams, j):
    return np.exp(zinb_log_pmf(params, j))


def zinb_cdf(params: ZinbParams, u):
    """CDF at real thresholds u: sum of the pmf over j <= floor(u).

    Vectorized over u. Negative thresholds give 0. The summation stops
    once a geometric bound on the remaining tail mass drops below 1e-13,
    so very large u cost nothing extra. A sum of cap + 1 terms can pass 1
    by (cap + 1) ulps of rounding, which is capped; more raises DataError.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if np.any(np.isnan(u)):
        raise DataError("thresholds must not be NaN")
    valid = u >= 0
    out = np.zeros(u.shape)
    kmax = int(u[valid].max(initial=0.0))

    q = params.mu / (params.r + params.mu)
    # past the cap, pmf(j+1)/pmf(j) = q*(j+r)/(j+1) <= bound < 1 for j large
    cap = kmax
    if kmax > 256:
        j0 = 256
        while True:
            bound = q * max(1.0, (j0 + params.r) / (j0 + 1.0))
            if bound < 1.0:
                # tail beyond j0 <= pmf(j0) * bound / (1 - bound)
                tail = zinb_pmf(params, j0) * bound / (1.0 - bound)
                if tail < 1e-13:
                    cap = min(kmax, j0)
                    break
            if j0 >= kmax:
                cap = kmax
                break
            j0 = min(2 * j0, kmax)

    cum = np.cumsum(zinb_pmf(params, np.arange(cap + 1)))
    if cum[-1] - 1.0 > (cap + 1) * np.finfo(float).eps:
        raise DataError(f"pmf of {params} sums to {cum[-1]!r}, above 1 "
                        "by more than rounding")
    np.minimum(cum, 1.0, out=cum)
    out[valid] = cum[np.minimum(u[valid], cap).astype(np.intp)]
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class CountModel:
    """Fitted predictive distribution for counts.

    kind is "zinb" or "empirical"; empirical keeps the sorted sample and
    serves the step CDF. fallback_reason says why the parametric fit was
    skipped or rejected.
    """

    kind: str
    sample_size: int
    params: ZinbParams | None = None
    sample: np.ndarray | None = None
    loglik: float | None = None
    fallback_reason: str | None = None

    def cdf(self, u):
        if self.kind == "zinb":
            return zinb_cdf(self.params, u)
        u = np.asarray(u, dtype=float)
        out = np.searchsorted(self.sample, u, side="right") / self.sample.size
        return float(out) if out.ndim == 0 else out


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
    log_g = _nb_log_pmf(values, mu, r)
    log_pmf = log_1mpi + log_g
    if values[0] == 0:
        log_pmf[0] = np.logaddexp(log_pi, log_1mpi + log_g[0])
    total = float(np.dot(counts, log_pmf))
    return np.inf if not np.isfinite(total) else -total


def _moment_start(values, counts):
    """Moment-based (log mu, log r), where the fit starts."""
    n = counts.sum()
    mean = float(np.dot(counts, values)) / n
    var = float(np.dot(counts, (values - mean) ** 2)) / n
    pos = values > 0
    n_pos = counts[pos].sum()
    mu0 = float(np.dot(counts[pos], values[pos])) / n_pos if n_pos else 1.0
    if var > mean > 0:
        r0 = mean ** 2 / (var - mean)
    else:
        r0 = _PARAM_CLIP[1]
    mu0 = float(np.clip(mu0, *_PARAM_CLIP))
    r0 = float(np.clip(r0, *_PARAM_CLIP))
    return np.array([np.log(mu0), np.log(r0)])


class _ProfileLik:
    """ZINB log-likelihood with pi profiled out, as a function of
    (log mu, log r), with its gradient and Hessian.

    For the positive observations, sum log g(j) needs the partial sums
    over k < j of log((r+k)/(r+mu)), 1/(r+k) (the digamma difference) and
    1/(r+k)^2 (the trigamma difference); summed over the sample each is
    one dot product with n_gt[k], the number of observations above k.
    The rest is scalar arithmetic, done on Python floats.
    """

    def __init__(self, sample):
        self.hist = hist = np.bincount(sample.astype(np.intp))
        n = sample.size
        self.n0 = int(hist[0])
        self.n_pos = n - self.n0
        self.f0 = self.n0 / n
        self.log_f0 = math.log(self.f0) if self.n0 else -math.inf
        self.n_gt = (n - np.cumsum(hist))[:-1].astype(float)
        self.k = np.arange(self.n_gt.size, dtype=float)
        self.sum_pos = float(sample.sum())
        # -sum log j! over the sample, and the profiled zero term when pi > 0
        self.const = -float(np.dot(hist[1:], gammaln(np.arange(2.0, hist.size + 1.0))))
        self.const_zeros = (self.n0 * self.log_f0 + self.n_pos * math.log1p(-self.f0)
                            if self.n0 else 0.0)

    def pi_hat(self, log_mu: float, log_r: float) -> float:
        mu, r = math.exp(log_mu), math.exp(log_r)
        log_g0 = -r * math.log1p(mu / r)
        if self.log_f0 <= log_g0:
            return 0.0
        return (self.f0 - math.exp(log_g0)) / -math.expm1(log_g0)

    def __call__(self, log_mu: float, log_r: float):
        """(loglik, (g_a, g_b), (h_aa, h_ab, h_bb)) at (a, b) = (log mu,
        log r): the gradient, and the Hessian's three distinct entries."""
        mu, r = math.exp(log_mu), math.exp(log_r)
        s = r + mu
        s2 = s * s
        l1p = math.log1p(mu / r)
        inv = 1.0 / (r + self.k)
        n_pos, sum_pos = self.n_pos, self.sum_pos
        excess = sum_pos - n_pos * mu

        # sum of log g(j) over the positive observations
        ll = (float(np.dot(self.n_gt, _log_ratio_terms(self.k, mu, r)))
              + self.const + log_mu * sum_pos - n_pos * r * l1p)
        ga = r * excess / s
        gb = r * (float(np.dot(self.n_gt, inv)) - n_pos * l1p - excess / s)
        haa = -r * mu * (n_pos * r + sum_pos) / s2
        hab = r * mu * excess / s2
        hbb = gb + r * (-r * float(np.dot(self.n_gt, inv * inv))
                        + n_pos * mu / s + r * excess / s2)

        # zeros: log g0 and its derivatives
        log_g0 = -r * l1p
        da0 = -r * mu / s
        db0 = r * (mu / s - l1p)
        haa0 = -r * r * mu / s2
        hab0 = -r * mu * mu / s2
        hbb0 = db0 + r * mu * mu / s2
        if self.log_f0 > log_g0:
            # pi > 0: zero-truncated likelihood for the positive part
            one_m_g0 = -math.expm1(log_g0)
            ll += self.const_zeros - n_pos * math.log(one_m_g0)
            w = n_pos * math.exp(log_g0) / one_m_g0
            w2 = w / one_m_g0
            haa += w2 * da0 * da0
            hab += w2 * da0 * db0
            hbb += w2 * db0 * db0
        else:
            # pi = 0: plain negative binomial (n0 may be 0)
            ll += self.n0 * log_g0
            w = self.n0
        return (ll, (ga + w * da0, gb + w * db0),
                (haa + w * haa0, hab + w * hab0, hbb + w * hbb0))


def _ascent_step(grad, hess, fix_r: bool):
    """Newton ascent direction (d_a, d_b) from the negated Hessian,
    solved in closed form where the surface is concave; elsewhere the
    Hessian's eigenvalues are made positive."""
    g_a, g_b = grad
    a_aa, a_ab, a_bb = -hess[0], -hess[1], -hess[2]
    if fix_r:
        return g_a / max(abs(a_aa), 1e-8), 0.0
    if a_aa > 0 and a_aa * a_bb > a_ab * a_ab:
        det = a_aa * a_bb - a_ab * a_ab
        return (a_bb * g_a - a_ab * g_b) / det, (a_aa * g_b - a_ab * g_a) / det
    lam, vec = np.linalg.eigh(np.array([[a_aa, a_ab], [a_ab, a_bb]]))
    lam = np.maximum(np.abs(lam), 1e-8 * max(1.0, np.abs(lam).max()))
    d_a, d_b = (vec @ ((vec.T @ np.array(grad)) / lam)).tolist()
    return d_a, d_b


def _newton_fit(lik: _ProfileLik, theta):
    """Damped, projected Newton ascent over (log mu, log r <= log R_MAX).

    Returns ((log mu, log r), loglik, converged). Each step is capped at
    MAX_STEP per coordinate and backtracked until the likelihood rises.
    """
    a, b = float(theta[0]), min(float(theta[1]), _LOG_R_MAX)
    ll, grad, hess = lik(a, b)
    for _ in range(MAX_NEWTON):
        fix_r = b >= _LOG_R_MAX and grad[1] > 0
        d_a, d_b = _ascent_step(grad, hess, fix_r)
        decrement = grad[0] * d_a + grad[1] * d_b
        # near the optimum take the full step if it helps, then stop
        done = decrement <= NEWTON_TOL * max(1.0, abs(ll))
        scale = min(1.0, MAX_STEP / max(abs(d_a), abs(d_b), MAX_STEP))
        d_a, d_b = d_a * scale, d_b * scale
        alpha = 1.0
        for _ in range(1 if done else 40):
            ca, cb = a + alpha * d_a, min(b + alpha * d_b, _LOG_R_MAX)
            ll_c, grad_c, hess_c = lik(ca, cb)
            rise = grad[0] * (ca - a) + grad[1] * (cb - b)
            if ll_c > ll + 1e-4 * max(rise, 0.0):
                break
            alpha *= 0.5
        else:
            return (a, b), ll, done
        a, b, ll, grad, hess = ca, cb, ll_c, grad_c, hess_c
        if done:
            return (a, b), ll, True
    return (a, b), ll, False


def fit_zinb(sample, min_fit: int = MIN_FIT) -> CountModel:
    """Maximum-likelihood ZINB fit with empirical fallback.

    pi is profiled out in closed form and a damped Newton search from
    the moment-based start maximizes the rest over (log mu, log r), with
    r capped at R_MAX (the Poisson limit). The fit is deterministic and
    never ends below its start. Falls back when the sample has fewer
    than min_fit values or is all zeros, and with "optimizer did not
    converge" in one case only: the search stops, after MAX_NEWTON steps
    or at a step it cannot improve on, while the Newton decrement is
    still above its tolerance.
    """
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise DataError("sample must be nonempty")
    if np.any(sample < 0) or np.any(sample != np.floor(sample)):
        raise DataError("counts must be nonnegative integers")
    sorted_sample = np.sort(sample)
    n = sample.size

    def empirical(reason):
        return CountModel(kind="empirical", sample_size=n,
                          sample=sorted_sample, fallback_reason=reason)

    if n < min_fit:
        return empirical("too few values")
    if sorted_sample[-1] == 0:
        return empirical("all zero")

    lik = _ProfileLik(sorted_sample)
    values = np.flatnonzero(lik.hist)
    theta, ll, converged = _newton_fit(lik, _moment_start(values, lik.hist[values]))
    if not converged:
        return empirical("optimizer did not converge")
    params = ZinbParams(pi=lik.pi_hat(*theta), mu=math.exp(theta[0]),
                        r=math.exp(theta[1]))
    return CountModel(kind="zinb", sample_size=n, params=params, loglik=ll)


def sample_zinb(params: ZinbParams, n: int, rng) -> np.ndarray:
    """Draw n counts from the model (for simulation tests and synthesis)."""
    zeros = rng.random(n) < params.pi
    p = params.r / (params.r + params.mu)
    draws = rng.negative_binomial(params.r, p, size=n)
    draws[zeros] = 0
    return draws
