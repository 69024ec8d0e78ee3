"""Count-model tests.

The parametric pmf/CDF are tested two ways: against values frozen from a
scipy.stats.nbinom oracle (the implementation never calls scipy.stats),
and live against that oracle across random parameter draws. The fit is
held to a reference: the same damped Newton search on numpy scalars,
one sample at a time, with np.linalg.solve for each step, as `fit_zinb`
ran before its loop moved to a closed-form 2 x 2 solve and then to the
stacked search of `fit_zinbs`.
"""

from collections import Counter
from dataclasses import fields
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln, logit

from firemarg import counts as counts_module
from firemarg.burnt_area import fit_mixtures
from firemarg.counts import (
    FALLBACKS,
    MAX_NEWTON,
    MAX_STEP,
    MIN_FIT,
    NEWTON_TOL,
    R_MAX,
    ZINB,
    ZINB_PAD,
    CountFits,
    CountModel,
    ZinbParams,
    _histograms,
    _log_ratio_terms,
    _moment_starts,
    _newton_fits,
    _ProfileLiks,
    _row_caps,
    _zinb_neg_loglik,
    count_rows,
    fit_zinb,
    fit_zinbs,
    sample_range,
    sample_zinb,
    zinb_cdf,
    zinb_log_pmf,
    zinb_pmf,
)
from firemarg.data import default_cnt_thresholds
from firemarg.errors import DataError

# frozen from pi + (1-pi)*nbinom(r, r/(r+mu)) at pi=0.2, mu=3.7, r=1.8
FROZEN_PMF = {
    0: 0.307134082607982,
    1: 0.129729634576211,
    2: 0.122181728564504,
    3: 0.104113642643450,
    4: 0.084048104243076,
    5: 0.065588084256597,
}
FROZEN_CDF = {
    0.0: 0.307134082607982,
    0.5: 0.307134082607982,
    1.0: 0.436863717184193,
    3.0: 0.663159088392147,
    9.99: 0.948344512877414,
    10.0: 0.963107503730305,
    30.0: 0.999972869808710,
}


@pytest.fixture
def params():
    return ZinbParams(pi=0.2, mu=3.7, r=1.8)


def test_pmf_frozen(params):
    for j, expected in FROZEN_PMF.items():
        assert zinb_pmf(params, j) == pytest.approx(expected, abs=1e-12)


def test_cdf_frozen(params):
    for u, expected in FROZEN_CDF.items():
        assert zinb_cdf(params, u) == pytest.approx(expected, abs=1e-12)


def test_pmf_hand_case():
    # r=1 makes g geometric with g(0)=0.4, so pmf(0) = 0.5 + 0.5*0.4
    p = ZinbParams(pi=0.5, mu=1.5, r=1.0)
    assert zinb_pmf(p, 0) == pytest.approx(0.7, abs=1e-14)
    assert zinb_pmf(p, 1) == pytest.approx(0.12, abs=1e-14)


def test_pure_zero_inflation():
    p = ZinbParams(pi=1.0, mu=2.0, r=1.0)
    assert zinb_pmf(p, 0) == 1.0
    assert zinb_pmf(p, 3) == 0.0


def test_no_inflation_reduces_to_nb():
    p = ZinbParams(pi=0.0, mu=2.5, r=3.0)
    js = np.arange(0, 40)
    expected = stats.nbinom.pmf(js, 3.0, 3.0 / 5.5)
    np.testing.assert_allclose(zinb_pmf(p, js), expected, atol=1e-14)


def test_pmf_matches_oracle_across_params():
    rng = np.random.default_rng(42)
    js = np.arange(0, 60)
    for _ in range(50):
        pi = rng.uniform(0.0, 0.99)
        mu = rng.uniform(0.05, 50.0)
        r = rng.uniform(0.05, 20.0)
        got = zinb_pmf(ZinbParams(pi, mu, r), js)
        want = (1 - pi) * stats.nbinom.pmf(js, r, r / (r + mu))
        want[0] += pi
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=50.0),
)
def test_pmf_sums_to_one(pi, mu, r):
    p = ZinbParams(pi, mu, r)
    cap = int(stats.nbinom.ppf(1.0 - 1e-13, r, r / (r + mu))) + 10
    total = zinb_pmf(p, np.arange(cap + 1)).sum()
    assert total == pytest.approx(1.0, abs=1e-10)


def test_cdf_edges(params):
    assert zinb_cdf(params, -1.0) == 0.0
    assert zinb_cdf(params, 0.0) == pytest.approx(zinb_pmf(params, 0), abs=1e-14)
    assert zinb_cdf(params, 1e6) == pytest.approx(1.0, abs=1e-9)


def test_cdf_monotone_vectorized(params):
    grid = np.array([-2.0, 0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 31.4, 100.0])
    vals = zinb_cdf(params, grid)
    assert vals.shape == grid.shape
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_mass_check_caps_rounding_and_raises_beyond_it(params, monkeypatch):
    pmf_rows = counts_module._pmf_rows
    # u = 1000 sums cap + 1 = 257 terms, whose rounding bound is 257 eps
    monkeypatch.setattr(counts_module, "_pmf_rows",
                        lambda *model: pmf_rows(*model) * (1.0 + 2 * np.finfo(float).eps))
    assert zinb_cdf(params, 1000.0) == 1.0
    monkeypatch.setattr(counts_module, "_pmf_rows",
                        lambda *model: pmf_rows(*model) * (1.0 + 1e-12))
    with pytest.raises(DataError, match="by more than rounding"):
        zinb_cdf(params, 1000.0)


def test_param_validation():
    with pytest.raises(DataError):
        ZinbParams(pi=-0.1, mu=1.0, r=1.0)
    with pytest.raises(DataError):
        ZinbParams(pi=0.5, mu=0.0, r=1.0)
    with pytest.raises(DataError):
        ZinbParams(pi=0.5, mu=1.0, r=float("inf"))
    with pytest.raises(DataError):
        zinb_pmf(ZinbParams(0.1, 1.0, 1.0), -1)


def _zinb_draws():
    """60 seeded ZINB samples, n 20-400, over a wide (pi, mu, r) range."""
    rng = np.random.default_rng(2025)
    for _ in range(60):
        p = ZinbParams(rng.uniform(0.0, 0.9), rng.uniform(0.1, 50.0),
                       rng.uniform(0.1, 20.0))
        yield sample_zinb(p, int(rng.integers(20, 400)), rng)


def _underdispersed_draws():
    """60 seeded binomial samples, n 20-400, with 0-60 % of values set
    to zero: variance below the mean, so the likelihood rises towards
    the Poisson limit r -> inf, and the zero-inflation weight is free."""
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(20, 400))
        s = rng.binomial(int(rng.integers(2, 30)), rng.uniform(0.2, 0.95), n)
        s[rng.random(n) < rng.uniform(0.0, 0.6)] = 0
        yield s


def test_rows_are_valid_without_repair():
    # exact bounds: zinb_cdf's only cap is the checked rounding cap at 1
    kinds = set()
    for s in list(_zinb_draws()) + list(_underdispersed_draws()):
        m = fit_zinb(s)
        kinds.add(m.kind)
        for grid in (default_cnt_thresholds(), np.arange(500.0)):
            row = m.cdf(grid)
            assert np.all((row >= 0.0) & (row <= 1.0))
            assert np.all(np.diff(row) >= 0.0)
    assert "zinb" in kinds


LOG_R_MAX = float(np.log(R_MAX))


def _reference_moment_start(values, counts):
    """Moment-based (log mu, log r) of a sample given as distinct
    sorted values and their counts, where the reference fit starts."""
    n = counts.sum()
    mean = float(np.dot(counts, values)) / n
    var = float(np.dot(counts, (values - mean) ** 2)) / n
    pos = values > 0
    mu0 = float(np.dot(counts[pos], values[pos])) / counts[pos].sum()
    r0 = mean ** 2 / (var - mean) if var > mean > 0 else 1e3
    return np.log(np.clip([mu0, r0], 1e-3, 1e3))


class ReferenceLik:
    """The profiled likelihood of one sample as `counts` computed it
    before its arithmetic moved to Python floats and then to stacked
    rows: numpy scalars, with the gradient and Hessian as arrays.

    For the positive observations, sum log g(j) needs the partial sums
    over k < j of log((r+k)/(r+mu)), 1/(r+k) (the digamma difference) and
    1/(r+k)^2 (the trigamma difference); summed over the sample each is
    one dot product with n_gt[k], the number of observations above k.
    """

    def __init__(self, sample):
        hist = np.bincount(sample.astype(np.intp))
        n = sample.size
        self.n0 = int(hist[0])
        self.n_pos = n - self.n0
        self.f0 = self.n0 / n
        self.n_gt = (n - np.cumsum(hist))[:-1].astype(float)
        self.k = np.arange(self.n_gt.size, dtype=float)
        self.sum_pos = float(sample.sum())
        # -sum log j! over the sample, and the profiled zero term when pi > 0
        self.const = -float(np.dot(hist[1:], gammaln(np.arange(2.0, hist.size + 1.0))))
        self.const_zeros = (self.n0 * np.log(self.f0) + self.n_pos * np.log1p(-self.f0)
                            if self.n0 else 0.0)

    def pi_hat(self, log_mu: float, log_r: float) -> float:
        mu, r = np.exp(log_mu), np.exp(log_r)
        log_g0 = -r * np.log1p(mu / r)
        if self.n0 == 0 or np.log(self.f0) <= log_g0:
            return 0.0
        return float((self.f0 - np.exp(log_g0)) / -np.expm1(log_g0))

    def __call__(self, log_mu: float, log_r: float):
        mu, r = np.exp(log_mu), np.exp(log_r)
        s = r + mu
        l1p = np.log1p(mu / r)
        inv = 1.0 / (r + self.k)
        n_pos, sum_pos = self.n_pos, self.sum_pos
        excess = sum_pos - n_pos * mu

        # sum of log g(j) over the positive observations
        ll = (float(np.dot(self.n_gt, _log_ratio_terms(self.k, mu, r)))
              + self.const + log_mu * sum_pos - n_pos * r * l1p)
        ga = r * excess / s
        gb = r * (float(np.dot(self.n_gt, inv)) - n_pos * l1p - excess / s)
        haa = -r * mu * (n_pos * r + sum_pos) / s ** 2
        hab = r * mu * excess / s ** 2
        hbb = gb + r * (-r * float(np.dot(self.n_gt, inv * inv))
                        + n_pos * mu / s + r * excess / s ** 2)

        # zeros: log g0 and its derivatives
        log_g0 = -r * l1p
        da0 = -r * mu / s
        db0 = r * (mu / s - l1p)
        haa0 = -r * r * mu / s ** 2
        hab0 = -r * mu * mu / s ** 2
        hbb0 = db0 + r * mu * mu / s ** 2
        if self.n0 and np.log(self.f0) > log_g0:
            # pi > 0: zero-truncated likelihood for the positive part
            g0 = np.exp(log_g0)
            one_m_g0 = -np.expm1(log_g0)
            ll += self.const_zeros - n_pos * np.log(one_m_g0)
            w = n_pos * g0 / one_m_g0
            w2 = w / one_m_g0
            haa += w2 * da0 * da0
            hab += w2 * da0 * db0
            hbb += w2 * db0 * db0
        else:
            # pi = 0: plain negative binomial (n0 may be 0)
            ll += self.n0 * log_g0
            w = self.n0
        grad = np.array([ga + w * da0, gb + w * db0])
        hess = np.array([[haa + w * haa0, hab + w * hab0],
                         [hab + w * hab0, hbb + w * hbb0]])
        return float(ll), grad, hess


def _reference_ascent_step(grad, hess, fix_r: bool):
    """Newton ascent direction from the negated Hessian, with its
    eigenvalues made positive where the surface is not concave."""
    if fix_r:
        return np.array([grad[0] / max(abs(hess[0, 0]), 1e-8), 0.0])
    a = -hess
    if a[0, 0] > 0 and a[0, 0] * a[1, 1] > a[0, 1] ** 2:
        return np.linalg.solve(a, grad)
    lam, vec = np.linalg.eigh(a)
    lam = np.maximum(np.abs(lam), 1e-8 * max(1.0, np.abs(lam).max()))
    return vec @ ((vec.T @ grad) / lam)


def _reference_newton(lik: ReferenceLik, theta):
    """Damped, projected Newton ascent over (log mu, log r <= log R_MAX).

    Returns (theta, loglik, converged). Each step is capped at MAX_STEP
    per coordinate and backtracked until the likelihood rises. The last
    step, once the Newton decrement is below its tolerance, is taken
    unless it lowers the likelihood by more than that tolerance: there
    the likelihood is flat to its rounding, and asking it to rise can
    stop the search one step short of the optimum (by 1.4e-6 in pi on
    the pinned example of `test_fit_matches_the_reference_newton`).
    """
    theta = np.array([theta[0], min(theta[1], LOG_R_MAX)])
    ll, grad, hess = lik(*theta)
    for _ in range(MAX_NEWTON):
        fix_r = theta[1] >= LOG_R_MAX and grad[1] > 0
        step = _reference_ascent_step(grad, hess, fix_r)
        decrement = float(grad @ step)
        # near the optimum take the full step unless it loses, then stop
        tol = NEWTON_TOL * max(1.0, abs(ll))
        done = decrement <= tol
        step *= min(1.0, MAX_STEP / max(np.abs(step).max(), MAX_STEP))
        alpha = 1.0
        for _ in range(1 if done else 40):
            cand = theta + alpha * step
            cand[1] = min(cand[1], LOG_R_MAX)
            ll_c, grad_c, hess_c = lik(*cand)
            if done and ll_c >= ll - tol:
                break
            if ll_c > ll + 1e-4 * max(float(grad @ (cand - theta)), 0.0):
                break
            alpha *= 0.5
        else:
            return theta, ll, done
        theta, ll, grad, hess = cand, ll_c, grad_c, hess_c
        if done:
            return theta, ll, True
    return theta, ll, False




class ReferenceFit(NamedTuple):
    """What `fit_zinb`'s CountModel reports, less its batch of one."""
    kind: str
    sample_size: int
    params: ZinbParams | None = None
    loglik: float | None = None
    fallback_reason: str | None = None


def reference_fit_zinb(sample) -> ReferenceFit:
    """`fit_zinb` on the reference likelihood and Newton search."""
    sorted_sample = np.sort(np.asarray(sample, dtype=float))
    n = sorted_sample.size

    def empirical(reason):
        return ReferenceFit(kind="empirical", sample_size=n, fallback_reason=reason)

    if n < MIN_FIT:
        return empirical("too few values")
    if sorted_sample[-1] == 0:
        return empirical("all zero")
    values, counts = np.unique(sorted_sample, return_counts=True)
    lik = ReferenceLik(sorted_sample)
    theta, ll, converged = _reference_newton(lik, _reference_moment_start(values, counts))
    if not converged:
        return empirical("optimizer did not converge")
    params = ZinbParams(pi=lik.pi_hat(*theta), mu=float(np.exp(theta[0])),
                        r=float(np.exp(theta[1])))
    return ReferenceFit(kind="zinb", sample_size=n, params=params, loglik=ll)


def assert_matches_reference(sample):
    """The fit's tolerance against the reference: the same kind and
    fallback reason, a log-likelihood never below the reference's by
    more than 1e-12 relative, mu and the variance-to-mean ratio
    1 + mu / r within 1e-5 relative, and pi within 1e-6.

    Both searches stop on the Newton decrement, so their parameters
    agree only to the search's tolerance. Near the Poisson limit r is
    barely identified (1.4e-5 relative apart at r = 3e7 on the seeded
    corpus), and pi = (f0 - g0) / (1 - g0) loses relative digits to
    cancellation when it is small; the ratio and an absolute pi bound
    measure what the predicted distribution sees."""
    new, ref = fit_zinb(sample), reference_fit_zinb(sample)
    assert (new.kind, new.fallback_reason) == (ref.kind, ref.fallback_reason)
    if ref.kind != "zinb":
        return
    a, b = new.params, ref.params
    assert new.loglik >= ref.loglik - 1e-12 * abs(ref.loglik)
    assert a.mu == pytest.approx(b.mu, rel=1e-5, abs=0.0)
    assert 1.0 + a.mu / a.r == pytest.approx(1.0 + b.mu / b.r, rel=1e-5, abs=0.0)
    assert a.pi == pytest.approx(b.pi, rel=0.0, abs=1e-6)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.0, max_value=0.9),
       st.floats(min_value=0.05, max_value=60.0),
       st.floats(min_value=0.05, max_value=50.0),
       st.integers(min_value=5, max_value=500))
# the reference's final step rises by less than its likelihood's rounding
@example(seed=101, pi=0.0, mu=38.75, r=0.05, n=101)
def test_fit_matches_the_reference_newton(seed, pi, mu, r, n):
    rng = np.random.default_rng(seed)
    assert_matches_reference(sample_zinb(ZinbParams(pi, mu, r), n, rng))


def test_fit_matches_the_reference_newton_on_the_corpora():
    # the seeded draws reach the Poisson cap (underdispersed samples)
    # and every pi regime
    for s in list(_zinb_draws()) + list(_underdispersed_draws()):
        assert_matches_reference(s)


def _bits(fits):
    """Every field of a batch of fits, for exact comparison."""
    return tuple((getattr(fits, f.name).dtype, getattr(fits, f.name).tobytes())
                 for f in fields(fits))


def _each(fits):
    """Each sample's fits, as a batch of one."""
    return [sample_range(fits, i, i + 1) for i in range(fits.n.size)]


def _stacking_batch():
    """Samples whose largest values (support lengths) lie on both sides
    of two padding boundaries, one alone in its padded length, the two
    early fallbacks, ZINB draws whose search meets a surface that is not
    concave, and underdispersed samples that end at the Poisson cap."""
    rng = np.random.default_rng(99)
    batch = []
    for top in (ZINB_PAD - 1, ZINB_PAD, ZINB_PAD + 1, 2 * ZINB_PAD, 2 * ZINB_PAD + 1):
        for _ in range(3):
            s = np.minimum(sample_zinb(ZinbParams(0.3, top / 3.0, 1.5), 80, rng), top)
            s[0] = top
            batch.append(s)
    batch.append(np.append(sample_zinb(ZinbParams(0.1, 20.0, 2.0), 50, rng), 7 * ZINB_PAD))
    batch += [np.array([0, 1, 2, 0, 4]), np.zeros(30)]
    batch += [s for s, _ in zip(_zinb_draws(), range(4))]
    batch += [s for s, _ in zip(_underdispersed_draws(), range(6))]
    return batch


def test_stacked_fits_equal_lone_fits():
    batch = _stacking_batch()
    widths = Counter(-(-int(s.max()) // ZINB_PAD) for s in batch if s.size >= MIN_FIT)
    assert widths[1] > 1 and widths[2] > 1 and widths[7] == 1
    lone = [_bits(fit_zinb(s).fits) for s in batch]
    fits = fit_zinbs(batch)
    assert [_bits(m) for m in _each(fits)] == lone
    assert [_bits(m) for m in _each(fit_zinbs(batch[::-1]))] == lone[::-1]
    assert [_bits(m) for m in _each(fit_zinbs(batch[-1:]))] == lone[-1:]
    assert {FALLBACKS[c] for c in fits.code[:, 0].tolist()} == {None, "too few values", "all zero"}
    assert np.any((fits.code[:, 0] == ZINB) & (fits.r[:, 0] >= R_MAX * (1.0 - 1e-12)))


def test_stacked_fits_equal_lone_fits_that_stop_early(monkeypatch):
    # five Newton steps: some searches converge, the rest fall back
    monkeypatch.setattr(counts_module, "MAX_NEWTON", 5)
    batch = _stacking_batch()
    fits = fit_zinbs(batch)
    assert [_bits(m) for m in _each(fits)] == [_bits(fit_zinb(s).fits) for s in batch]
    reasons = Counter(FALLBACKS[c] for c in fits.code[:, 0].tolist())
    assert reasons[None] and reasons["optimizer did not converge"]


def _ba_batch():
    """Burnt-area samples whose fits at levels 0.3 and 0.8 reach a GPD
    tail, zero mass and too few exceedances."""
    rng = np.random.default_rng(17)
    batch = [np.r_[np.zeros(n // 3), rng.beta(1.2, 3.0, n - n // 3)] for n in (12, 60, 200)]
    return batch + [rng.uniform(0.0, 1.0, n) for n in (30, 400, 90)]


@pytest.mark.parametrize("fit, batch", [
    (fit_zinbs, _stacking_batch()),
    (lambda samples: fit_mixtures(samples, (0.3, 0.8)), _ba_batch())], ids=["cnt", "ba"])
def test_sample_range_equals_the_fit_of_its_samples_alone(fit, batch):
    fits = fit(batch)
    assert len(set(fits.code.ravel().tolist())) >= 3
    last = len(batch)
    for start, stop in ((2, 2), (0, 1), (last - 1, last), (1, last - 2)):
        part, alone = sample_range(fits, start, stop), fit(batch[start:stop])
        assert type(part) is type(alone)
        for f in fields(alone):
            a, b = getattr(part, f.name), getattr(alone, f.name)
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), f.name


class _QuadraticLik:
    """Per row ll = -(a - 1)^2 - (b - 1)^2, in the interface of
    `counts._ProfileLiks`; a flat row stays at ll = -1 with gradient
    (1, 0), so no step can raise it."""

    def __init__(self, flat):
        self.flat = np.asarray(flat)

    def take(self, rows):
        return _QuadraticLik(self.flat[rows])

    def __call__(self, a, b):
        ones = np.ones(a.size)
        ll = np.where(self.flat, -1.0, -(a - 1.0) ** 2 - (b - 1.0) ** 2)
        grad = np.where(self.flat, [[1.0], [0.0]], [-2.0 * (a - 1.0), -2.0 * (b - 1.0)])
        hess = np.where(self.flat, [[-1.0], [0.0], [-1.0]], [-2.0 * ones, 0.0 * ones, -2.0 * ones])
        return ll, grad, hess


def test_search_that_cannot_rise_stops_unconverged():
    # the flat row's Newton decrement stays at 1, far above tolerance,
    # but no step length raises its likelihood: it stops where it is
    lik = _QuadraticLik([False, True, False])
    a, b, ll, converged = _newton_fits(lik, np.array([0.0, 0.0, 3.0]),
                                       np.array([0.0, 0.0, -1.0]))
    assert converged.tolist() == [True, False, True]
    assert a.tolist() == [1.0, 0.0, 1.0] and b.tolist() == [1.0, 0.0, 1.0]
    assert ll.tolist() == [0.0, -1.0, 0.0]


def _zinb_record(pi, mu, r) -> CountFits:
    """A batch of one ZINB model with these parameters and no sample."""
    one = np.ones((1, 1))
    return CountFits(values=np.empty(0), n=np.zeros(1, dtype=np.int64), pi=pi * one,
                     mu=mu * one, r=r * one, loglik=np.nan * one,
                     code=np.full((1, 1), ZINB))


def _joined(parts) -> CountFits:
    """One batch of the fits of parts, in order."""
    return CountFits(**{f.name: np.concatenate([getattr(p, f.name) for p in parts])
                        for f in fields(CountFits)})


def _row_models():
    """ZINB fits, fixed heavy-tailed models and empirical fallbacks."""
    rng = np.random.default_rng(314)
    models = [fit_zinb(s) for s in list(_zinb_draws())[:12]]
    models += [fit_zinb(np.array([0.0, 2.0, 5.0])), fit_zinb(np.zeros(30))]
    for pi, mu, r in ((0.1, 3.0, 2.0), (0.0, 150.0, 0.3), (0.4, 40.0, 0.8),
                      (0.2, 600.0, 5.0), (0.9, 1e3, 0.05), (0.0, 7.25, 1e6)):
        models.append(CountModel(kind="zinb", sample_size=0, params=ZinbParams(pi, mu, r),
                                 loglik=np.nan, fallback_reason=None,
                                 fits=_zinb_record(pi, mu, r)))
    rng.shuffle(models)
    return models


def test_stacked_count_rows_equal_lone_rows(monkeypatch):
    # negative thresholds, fractional ones, and a grid past 256 whose
    # models stop their sums at different caps, in blocks of few models
    models = _row_models()
    grid = np.r_[-3.0, -0.5, 0.0, 0.5, np.arange(1.0, 40.0), 99.5, 256.0, 300.0,
                 1000.0, 4096.5, 1e5]
    fits = _joined([m.fits for m in models])
    zinb = fits.code[:, 0] == ZINB
    caps = _row_caps(fits.pi[zinb, 0], fits.mu[zinb, 0], fits.r[zinb, 0], int(grid.max()))
    assert len(set(caps.tolist())) > 2
    monkeypatch.setattr(counts_module, "ZINB_BLOCK", 4 * int(grid.max()))
    batch = count_rows(fits, grid)
    assert batch.shape == (len(models), grid.size)
    assert np.all(batch[:, grid < 0] == 0.0)
    for m, row in zip(models, batch):
        assert np.array_equal(row, count_rows(m.fits, grid)[0])
        assert np.array_equal(row, m.cdf(grid))
        if m.kind == "zinb":
            assert np.array_equal(row, zinb_cdf(m.params, grid))
    assert count_rows(fit_zinbs([]), grid).shape == (0, grid.size)


def test_mass_check_names_the_model_inside_a_batch(monkeypatch):
    pmf_rows = counts_module._pmf_rows

    def inflated(pi, mu, r, width):
        # only the model with mu = 7.25 sums past 1 by more than rounding
        return pmf_rows(pi, mu, r, width) * np.where(mu == 7.25, 1.0 + 1e-12, 1.0)[:, None]

    monkeypatch.setattr(counts_module, "_pmf_rows", inflated)
    with pytest.raises(DataError, match=r"pmf of ZinbParams\(pi=0\.0, mu=7\.25, r=1000000\.0\) "
                                        r"sums to .*by more than rounding"):
        count_rows(_joined([m.fits for m in _row_models()]), default_cnt_thresholds())


def test_stacked_fits_check_every_sample():
    empty = fit_zinbs([])
    assert (empty.values.size, empty.n.size, empty.code.shape) == (0, 0, (0, 1))
    for bad in ([np.arange(20.0), np.array([])],
                [np.arange(20.0), np.array([1.5, 2.0])],
                [np.array([-1, 2]), np.arange(20.0)]):
        with pytest.raises(DataError):
            fit_zinbs(bad)


class TestFit:
    def test_all_zero_falls_back(self):
        m = fit_zinb(np.zeros(50))
        assert m.kind == "empirical"
        assert m.fallback_reason == "all zero"
        assert m.cdf(0.0) == 1.0
        assert m.cdf(100.0) == 1.0

    def test_small_sample_falls_back(self):
        m = fit_zinb(np.array([0, 1, 2, 0, 4]))
        assert m.kind == "empirical"
        assert m.fallback_reason == "too few values"
        assert m.cdf(1.0) == pytest.approx(3 / 5)

    def test_empirical_cdf_is_step(self):
        m = fit_zinb(np.array([3.0, 1.0, 0.0, 1.0]))
        assert m.fallback_reason == "too few values"
        assert m.cdf(0.99) == pytest.approx(0.25)
        assert m.cdf(1.0) == pytest.approx(0.75)
        assert m.cdf(-0.5) == 0.0

    def test_rejects_bad_samples(self):
        with pytest.raises(DataError):
            fit_zinb(np.array([]))
        with pytest.raises(DataError):
            fit_zinb(np.array([1.5, 2.0]))
        with pytest.raises(DataError):
            fit_zinb(np.array([-1, 2]))

    def test_consistency(self):
        true = ZinbParams(pi=0.3, mu=4.0, r=2.0)
        ok = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            m = fit_zinb(sample_zinb(true, 5000, rng))
            if m.kind != "zinb":
                continue
            if (abs(m.params.pi - 0.3) <= 0.05
                    and abs(m.params.mu - 4.0) <= 0.3
                    and abs(m.params.r - 2.0) <= 0.4):
                ok += 1
        assert ok >= 95

    def test_no_zeros_collapses_inflation(self):
        rng = np.random.default_rng(7)
        s = rng.negative_binomial(5, 5 / 13, size=3000)
        s = s[s > 0][:2000]
        m = fit_zinb(s)
        assert m.kind == "zinb"
        assert m.params.pi <= 0.01

    def test_fit_never_degrades_start(self):
        rng = np.random.default_rng(11)
        s = sample_zinb(ZinbParams(0.25, 2.0, 1.5), 400, rng)
        hist = _histograms([s], -(-int(s.max()) // ZINB_PAD) * ZINB_PAD)
        start_ll = _ProfileLiks(hist)(*_moment_starts(hist))[0][0]
        m = fit_zinb(s)
        assert m.kind == "zinb"
        assert m.loglik >= start_ll

    def test_underdispersed_fits_are_valid(self):
        for s in _underdispersed_draws():
            m = fit_zinb(s)
            assert m.kind == "zinb"
            assert m.loglik <= 0.0
            p = m.params
            values, counts = np.unique(s.astype(float), return_counts=True)
            theta = [logit(p.pi), np.log(p.mu), np.log(p.r)]
            assert m.loglik == pytest.approx(
                -_zinb_neg_loglik(theta, values, counts), rel=1e-9)
            cap = int(stats.nbinom.ppf(1.0 - 1e-13, p.r, p.r / (p.r + p.mu))) + 10
            mass = np.exp(zinb_log_pmf(p, np.arange(cap + 1))).sum()
            assert mass == pytest.approx(1.0, abs=1e-10)

    def test_fit_deterministic(self):
        rng = np.random.default_rng(3)
        s = sample_zinb(ZinbParams(0.2, 3.0, 1.0), 800, rng)
        a, b = fit_zinb(s), fit_zinb(s)
        assert a.params == b.params
        assert a.loglik == b.loglik

    def test_fit_ignores_sample_order(self):
        # fit_zinb sorts its input first; CV passes its samples unsorted
        rng = np.random.default_rng(4)
        s = sample_zinb(ZinbParams(0.3, 4.0, 0.8), 300, rng)
        def bits(fit):
            return np.array([fit.params.pi, fit.params.mu, fit.params.r,
                             fit.loglik]).tobytes()

        ref = fit_zinb(np.sort(s))
        assert ref.kind == "zinb"
        for perm in (s, s[::-1], rng.permutation(s), rng.permutation(s)):
            assert bits(fit_zinb(perm)) == bits(ref)
