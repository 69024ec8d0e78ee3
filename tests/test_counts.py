"""Count-model tests.

The parametric pmf/CDF are tested two ways: against values frozen from a
scipy.stats.nbinom oracle (the implementation never calls scipy.stats),
and live against that oracle across random parameter draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import logit

from firemarg import counts as counts_module
from firemarg.counts import (
    CountModel,
    ZinbParams,
    _moment_start,
    _ProfileLik,
    _zinb_neg_loglik,
    fit_zinb,
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
    pmf = counts_module.zinb_pmf
    # u = 1000 sums cap + 1 = 257 terms, whose rounding bound is 257 eps
    monkeypatch.setattr(counts_module, "zinb_pmf",
                        lambda p, j: pmf(p, j) * (1.0 + 2 * np.finfo(float).eps))
    assert zinb_cdf(params, 1000.0) == 1.0
    monkeypatch.setattr(counts_module, "zinb_pmf",
                        lambda p, j: pmf(p, j) * (1.0 + 1e-12))
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
        m = CountModel(kind="empirical", sample_size=4,
                       sample=np.array([0.0, 1.0, 1.0, 3.0]))
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
        values, counts = np.unique(s.astype(float), return_counts=True)
        start_ll = _ProfileLik(np.sort(s))(*_moment_start(values, counts))[0]
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
