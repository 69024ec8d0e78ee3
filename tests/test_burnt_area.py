"""Burnt-area mixture tests.

GPD CDF values were frozen from scipy.stats.genpareto (shape c = xi,
loc = threshold, scale = sigma); the implementation never calls
scipy.stats, so the two routes stay independent. The GPD fit is checked
against a Nelder-Mead reference on the unprofiled likelihood.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from firemarg.burnt_area import (
    XI_EXP_EPS,
    XI_HI,
    XI_LO,
    BaMixture,
    GpdParams,
    fit_gpd,
    fit_mixture,
    gpd_cdf,
    sample_gpd,
    threshold_order_statistic,
)
from firemarg.errors import DataError, GpdFitError

# frozen from genpareto.cdf(x, 0.3, loc=0.1, scale=0.8)
FROZEN_GPD_CDF = {
    0.1: 0.0,
    0.35: 0.258223426939313,
    0.9: 0.582949327685854,
    2.5: 0.882287839689772,
    10.0: 0.994300604577036,
}


class TestGpdCdf:
    def test_frozen(self):
        p = GpdParams(sigma=0.8, xi=0.3, threshold=0.1)
        for x, expected in FROZEN_GPD_CDF.items():
            assert gpd_cdf(p, x) == pytest.approx(expected, abs=1e-13)

    def test_lower_endpoint(self):
        assert gpd_cdf(GpdParams(2.0, 0.5, 1.0), 1.0) == 0.0

    def test_exponential_median(self):
        p = GpdParams(sigma=1.0, xi=0.0, threshold=3.0)
        assert gpd_cdf(p, 3.0 + math.log(2.0)) == pytest.approx(0.5, abs=1e-12)

    def test_tiny_xi_uses_limit_branch(self):
        a = gpd_cdf(GpdParams(1.0, 1e-9, 0.0), 2.0)
        b = gpd_cdf(GpdParams(1.0, 0.0, 0.0), 2.0)
        assert a == b

    def test_finite_upper_endpoint(self):
        # xi=-0.5, sigma=1: support ends at u + 2
        p = GpdParams(sigma=1.0, xi=-0.5, threshold=0.0)
        assert gpd_cdf(p, 2.0) == pytest.approx(1.0, abs=1e-12)
        assert gpd_cdf(p, 5.0) == 1.0
        assert p.upper_endpoint == pytest.approx(2.0)

    def test_rejects_below_threshold(self):
        with pytest.raises(DataError):
            gpd_cdf(GpdParams(1.0, 0.1, 2.0), 1.5)

    def test_vectorized_monotone(self):
        p = GpdParams(sigma=0.5, xi=0.7, threshold=0.2)
        xs = np.linspace(0.2, 50.0, 200)
        vals = gpd_cdf(p, xs)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))


def _nm_neg_loglik(theta, excess):
    log_sigma, xi = theta
    if not XI_LO < xi <= XI_HI:
        return np.inf
    sigma = np.exp(log_sigma)
    if not np.isfinite(sigma) or sigma <= 0:
        return np.inf
    t = excess / sigma
    if abs(xi) < XI_EXP_EPS:
        return excess.size * log_sigma + float(np.sum(t))
    arg = 1.0 + xi * t
    if np.any(arg <= 0.0):
        return np.inf
    return excess.size * log_sigma + (1.0 + 1.0 / xi) * float(np.sum(np.log(arg)))


def _pwm_start(excess):
    y = np.sort(excess)
    n = y.size
    a0 = y.mean()
    p = (np.arange(1, n + 1) - 0.35) / n
    a1 = float(np.sum(y * (1.0 - p))) / n
    denom = a0 - 2.0 * a1
    if denom <= 0:
        xi0, sigma0 = 0.0, a0
    else:
        xi0 = 2.0 - a0 / denom
        sigma0 = 2.0 * a0 * a1 / denom
    xi0 = float(np.clip(xi0, XI_LO + 0.05, XI_HI))
    sigma0 = max(sigma0, 1e-12)
    if xi0 < 0:
        sigma0 = max(sigma0, -xi0 * y[-1] * 1.0001)
    return np.array([np.log(sigma0), xi0])


def nelder_mead_fit_gpd(values, threshold):
    """Reference GPD fit: Nelder-Mead on (log sigma, xi) from a
    probability-weighted-moments start, as `fit_gpd` ran before sigma
    was profiled out. Raises GpdFitError where that fit did."""
    excess = np.asarray(values, dtype=float) - threshold
    theta0 = _pwm_start(excess)
    f0 = _nm_neg_loglik(theta0, excess)
    res = minimize(
        _nm_neg_loglik, theta0, args=(excess,), method="Nelder-Mead",
        options={"maxiter": 500, "xatol": 1e-6,
                 "fatol": 1e-8 * max(1.0, abs(f0))})
    if not res.success or not np.isfinite(res.fun) or res.fun > f0:
        raise GpdFitError("optimizer did not converge")
    return GpdParams(sigma=float(np.exp(res.x[0])), xi=float(res.x[1]),
                     threshold=float(threshold))


def gpd_loglik(params, values):
    """GPD log-likelihood of the values, written independently of both
    fits; xi = -1 is the uniform law on (u, u + sigma]."""
    x = (np.asarray(values, dtype=float) - params.threshold) / params.sigma
    n = x.size
    if params.xi == -1.0:
        return -n * math.log(params.sigma) if x.max() <= 1.0 else -math.inf
    if params.xi == 0.0:
        return -n * math.log(params.sigma) - float(np.sum(x))
    if np.any(params.xi * x <= -1.0):
        return -math.inf
    return (-n * math.log(params.sigma)
            - (1.0 + 1.0 / params.xi) * float(np.sum(np.log1p(params.xi * x))))


class TestFitGpd:
    def test_consistency(self):
        ok = 0
        for seed in range(100):
            rng = np.random.default_rng(2000 + seed)
            vals = sample_gpd(GpdParams(1.0, 0.2, 0.0), 2000, rng)
            est = fit_gpd(vals, threshold=0.0)
            if 0.9 <= est.sigma <= 1.1 and 0.1 <= est.xi <= 0.3:
                ok += 1
        assert ok >= 95

    def test_exponential_gives_zero_shape(self):
        rng = np.random.default_rng(5)
        vals = rng.exponential(1.0, size=20000) + 1e-12
        est = fit_gpd(vals, threshold=0.0)
        assert abs(est.xi) <= 0.05

    def test_negative_shape_recovered(self):
        rng = np.random.default_rng(17)
        vals = sample_gpd(GpdParams(1.0, -0.3, 0.5), 5000, rng)
        est = fit_gpd(vals, threshold=0.5)
        assert est.xi == pytest.approx(-0.3, abs=0.08)
        assert est.threshold == 0.5

    def test_too_few_values(self):
        with pytest.raises(GpdFitError):
            fit_gpd(np.linspace(1.0, 2.0, 9), threshold=0.0)

    def test_degenerate_values(self):
        with pytest.raises(GpdFitError):
            fit_gpd(np.full(50, 3.0), threshold=1.0)

    def test_values_at_threshold_rejected(self):
        with pytest.raises(DataError):
            fit_gpd(np.array([1.0, 1.5, 2.0] + [1.8] * 10), threshold=1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        vals = sample_gpd(GpdParams(0.7, 0.4, 0.0), 500, rng)
        assert fit_gpd(vals, 0.0) == fit_gpd(vals, 0.0)


def _exceedance_corpus():
    """200 seeded exceedance sets (values, threshold), n 10-200: GPD
    draws with xi of either sign, lognormal draws, lognormal draws
    capped so that several tie at the maximum, and short-tailed
    uniform and beta draws."""
    rng = np.random.default_rng(2024)
    corpus = []
    for k in range(200):
        n = int(rng.integers(10, 201))
        u = float(rng.uniform(0.0, 0.5))
        kind = k % 5
        if kind == 0:
            excess = sample_gpd(GpdParams(rng.uniform(0.01, 0.2),
                                          rng.uniform(-0.6, 0.8)), n, rng)
        elif kind == 1:
            excess = rng.lognormal(-4.0, rng.uniform(0.3, 1.5), n)
        elif kind == 2:
            excess = np.minimum(rng.lognormal(-4.0, 1.0, n), 0.03)
        elif kind == 3:
            excess = rng.uniform(0.0, rng.uniform(0.01, 0.3), n)
        else:
            excess = 0.1 * rng.beta(rng.uniform(0.8, 2.0), rng.uniform(0.5, 3.0), n)
        values = u + excess
        corpus.append((values[values > u], u))
    return corpus


def test_profile_fit_is_no_worse_than_nelder_mead():
    edges = 0
    for values, u in _exceedance_corpus():
        new = fit_gpd(values, u)
        try:
            ref = nelder_mead_fit_gpd(values, u)
        except GpdFitError:
            continue
        assert gpd_loglik(new, values) >= gpd_loglik(ref, values) - 1e-6
        edges += new.xi == XI_LO
    assert edges > 0


def test_edge_fits_give_valid_mixture_rows():
    # a uniform tail above u often has its likelihood supremum at the
    # xi -> -1 edge, which fit_gpd returns as the uniform law itself
    rng = np.random.default_rng(77)
    edges = 0
    for _ in range(100):
        tail = rng.uniform(0.2, rng.uniform(0.25, 0.9), int(rng.integers(10, 60)))
        bulk = np.minimum(rng.lognormal(-4.0, 1.0, int(rng.integers(50, 250))), 0.2)
        sample = np.concatenate([np.zeros(int(rng.integers(0, 40))), bulk, tail])
        m = fit_mixture(sample, k2=1.0 - tail.size / sample.size)
        if m.kind != "mixture" or m.gpd.xi != XI_LO:
            continue
        edges += 1
        assert isinstance(m.gpd, GpdParams)
        excess = sample[sample > m.u] - m.u
        assert m.gpd.upper_endpoint >= m.u + excess.max()
        grid = np.sort(np.concatenate([[0.0, m.u], rng.uniform(0.0, 1.0, 80),
                                       sample[sample > m.u]]))
        row = m.cdf(grid)
        assert np.all((row >= 0.0) & (row <= 1.0))
        assert np.all(np.diff(row) >= 0.0)
        at_u = m.cdf(m.u)
        assert abs(at_u - (1.0 - m.lam)) <= 1e-9
        assert abs(m.cdf(np.nextafter(m.u, np.inf)) - at_u) <= 1e-9
    assert edges >= 10


def test_threshold_order_statistic():
    s = np.arange(1.0, 11.0)  # 1..10
    assert threshold_order_statistic(s, 0.5) == 5.0   # ceil(5) = 5th
    assert threshold_order_statistic(s, 0.45) == 5.0  # ceil(4.5) = 5th
    assert threshold_order_statistic(s, 0.05) == 1.0
    assert threshold_order_statistic(s, 0.95) == 10.0
    # three tenths of ten must hit the 3rd order statistic despite float fuzz
    assert threshold_order_statistic(s, 0.3) == 3.0


class TestFitMixture:
    def test_heavy_zero_mass_falls_back(self):
        sample = np.concatenate([np.zeros(80), np.linspace(0.01, 0.5, 20)])
        m = fit_mixture(sample, k2=0.5)
        assert m.kind == "empirical"
        assert m.z == pytest.approx(0.8)
        assert m.u == 0.0

    def test_no_zeros_structure(self):
        rng = np.random.default_rng(9)
        sample = np.clip(rng.lognormal(-3.0, 1.0, 1000), 1e-6, 1.0)
        m = fit_mixture(sample, k2=0.9)
        assert m.kind == "mixture"
        assert m.u == threshold_order_statistic(np.sort(sample), 0.9)
        assert np.sum(sample > m.u) == 100
        assert m.gpd is not None

    def test_all_zero(self):
        m = fit_mixture(np.zeros(30), k2=0.5)
        assert m.kind == "empirical"
        assert m.cdf(0.0) == 1.0
        assert m.cdf(0.7) == 1.0

    def test_too_few_exceedances_falls_back(self):
        sample = np.concatenate([np.full(5, 0.9), np.linspace(0.01, 0.2, 45)])
        m = fit_mixture(sample, k2=0.9)
        assert m.kind == "empirical"
        assert "exceedances" in m.fallback_reason

    def test_input_validation(self):
        with pytest.raises(DataError):
            fit_mixture(np.array([]), 0.5)
        with pytest.raises(DataError):
            fit_mixture(np.array([0.1, 1.2]), 0.5)
        with pytest.raises(DataError):
            fit_mixture(np.array([0.1, -0.1]), 0.5)
        with pytest.raises(DataError):
            fit_mixture(np.array([0.1, 0.2]), 1.0)
        # NaN and +inf sort last, -inf first: each must still be caught
        for bad in (np.nan, np.inf, -np.inf):
            for where in (0, 2, 4):
                sample = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
                sample[where] = bad
                with pytest.raises(DataError):
                    fit_mixture(sample, 0.5)


def _mixed_sample(rng, n=600, zero_frac=0.3):
    vals = np.clip(rng.lognormal(-4.0, 1.2, n), 1e-8, 1.0)
    vals[rng.random(n) < zero_frac] = 0.0
    return vals


class TestMixtureCdf:
    def test_zero_gives_z(self):
        rng = np.random.default_rng(21)
        sample = _mixed_sample(rng)
        m = fit_mixture(sample, k2=0.8)
        assert m.kind == "mixture"
        assert m.cdf(0.0) == pytest.approx(m.z, abs=1e-15)

    def test_branch_continuity_at_threshold(self):
        rng = np.random.default_rng(22)
        m = fit_mixture(_mixed_sample(rng), k2=0.8)
        bulk = m.cdf(m.u)
        tail = m.cdf(np.nextafter(m.u, np.inf))
        assert bulk == pytest.approx(1.0 - m.lam, abs=1e-12)
        assert abs(bulk - tail) <= 1e-9

    def test_matches_ecdf_below_threshold(self):
        rng = np.random.default_rng(23)
        sample = _mixed_sample(rng)
        m = fit_mixture(sample, k2=0.8)
        n = sample.size
        pts = np.sort(sample[(sample > 0) & (sample <= m.u)])
        ecdf = np.searchsorted(np.sort(sample), pts, side="right") / n
        assert np.max(np.abs(m.cdf(pts) - ecdf)) <= 1.0 / n + 1e-12

    def test_monotone_rows(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            m = fit_mixture(_mixed_sample(rng), k2=rng.uniform(0.3, 0.95))
            grid = np.sort(np.concatenate([[0.0, m.u], rng.uniform(0.0, 1.2, 60)]))
            vals = m.cdf(grid)
            assert np.all(np.diff(vals) >= -1e-15)
            assert np.all((vals >= 0) & (vals <= 1))

    def test_saturates_at_finite_endpoint(self):
        pos = np.linspace(0.001, 0.4, 200)
        m = fit_mixture(pos, k2=0.7)
        if m.kind == "mixture" and m.gpd.xi < 0:
            assert m.cdf(m.gpd.upper_endpoint + 0.1) == 1.0

    def test_rejects_negative(self):
        rng = np.random.default_rng(25)
        m = fit_mixture(_mixed_sample(rng), k2=0.8)
        with pytest.raises(DataError):
            m.cdf(-0.1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.2, max_value=0.95))
def test_mixture_cdf_monotone_property(seed, k2):
    rng = np.random.default_rng(seed)
    sample = _mixed_sample(rng, n=300, zero_frac=rng.uniform(0.0, 0.6))
    m = fit_mixture(sample, k2=k2)
    grid = np.linspace(0.0, 1.0, 101)
    vals = m.cdf(grid)
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
