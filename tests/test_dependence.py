"""Dependence diagnostics tests.

kendall_tau delegates to scipy's tau-b, so an O(n^2) pair-enumeration
oracle here keeps an independent check on it.
"""

import numpy as np
import pytest

from firemarg.dependence import (
    bootstrap_ci,
    chi_u,
    chibar_u,
    dependence_report,
    kendall_tau,
    quadrant_split,
    rank_transform,
)
from firemarg.errors import DataError


def tau_b_oracle(x, y):
    """Direct concordance enumeration with tie correction."""
    n = len(x)
    conc = disc = tie_x = tie_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = x[i] - x[j], y[i] - y[j]
            if dx == 0 and dy == 0:
                tie_x += 1
                tie_y += 1
            elif dx == 0:
                tie_x += 1
            elif dy == 0:
                tie_y += 1
            elif dx * dy > 0:
                conc += 1
            else:
                disc += 1
    n0 = n * (n - 1) / 2
    return (conc - disc) / np.sqrt((n0 - tie_x) * (n0 - tie_y))


class TestKendallTau:
    def test_perfect(self):
        x = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        assert kendall_tau(x, x) == 1.0
        assert kendall_tau(x, -x) == -1.0

    def test_three_point_hand_case(self):
        # pairs (1,2),(1,3),(2,3): concordant, concordant, discordant
        assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)

    def test_matches_enumeration_oracle_with_ties(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.integers(0, 5, size=40).astype(float)
            y = rng.integers(0, 5, size=40).astype(float)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            assert kendall_tau(x, y) == pytest.approx(tau_b_oracle(x, y), abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(DataError):
            kendall_tau([1.0], [2.0])
        with pytest.raises(DataError):
            kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError):
            kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_rank_transform_avoids_endpoints():
    r = rank_transform([5.0, 1.0, 3.0])
    np.testing.assert_allclose(r, [0.75, 0.25, 0.5])
    assert np.all((r > 0) & (r < 1))


class TestChi:
    def test_perfect_dependence(self):
        rng = np.random.default_rng(2)
        x = rng.random(500)
        for u in (0.5, 0.9, 0.95):
            assert chi_u(x, x, u) == 1.0

    def test_independent_approaches_one_minus_u(self):
        rng = np.random.default_rng(1)
        x, y = rng.random(200000), rng.random(200000)
        for u in (0.9, 0.95):
            k = 200000 * (1 - u)
            se = np.sqrt(u * (1 - u) / k)
            assert chi_u(x, y, u) == pytest.approx(1 - u, abs=3 * se)

    def test_no_exceedances(self):
        with pytest.raises(DataError):
            chi_u(np.arange(5.0), np.arange(5.0), 0.99)

    def test_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(3)
        x, y = rng.random(300), rng.random(300)
        assert chi_u(np.exp(x), y ** 3, 0.8) == chi_u(x, y, 0.8)


class TestChibar:
    def test_perfect_dependence_is_one(self):
        rng = np.random.default_rng(4)
        x = rng.random(400)
        assert chibar_u(x, x, 0.9) == pytest.approx(1.0, abs=1e-12)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(1)
        x, y = rng.random(200000), rng.random(200000)
        assert chibar_u(x, y, 0.9) == pytest.approx(0.0, abs=0.02)

    def test_negative_association_negative(self):
        # mild negative coupling so joint exceedances still exist at u=0.8
        rng = np.random.default_rng(8)
        z = rng.multivariate_normal([0, 0], [[1, -0.4], [-0.4, 1]], size=50000)
        assert chibar_u(z[:, 0], z[:, 1], 0.8) < 0.0

    def test_no_joint_exceedances(self):
        x = np.arange(20.0)
        with pytest.raises(DataError):
            chibar_u(x, -x, 0.9)


class TestBootstrap:
    def test_constant_statistic_zero_width(self):
        x = np.full(50, 3.0)
        y = np.full(50, 7.0)
        lo, hi = bootstrap_ci(lambda a, b: float(np.mean(a)), x, y, 0.95, 200, seed=1)
        assert lo == hi == 3.0

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(6)
        x, y = rng.random(80), rng.random(80)
        a = bootstrap_ci(kendall_tau, x, y, 0.95, 150, seed=42)
        b = bootstrap_ci(kendall_tau, x, y, 0.95, 150, seed=42)
        assert a == b

    def test_requires_enough_replicates(self):
        with pytest.raises(DataError):
            bootstrap_ci(kendall_tau, np.arange(9.0), np.arange(9.0), 0.95, 50)

    def test_undefined_statistic_capped(self):
        x = np.full(20, 1.0)
        with pytest.raises(DataError):
            bootstrap_ci(kendall_tau, x, x, 0.95, 100, max_redraw_factor=1)

    def test_coverage_on_gaussian_copula(self):
        true_tau = 2 / np.pi * np.arcsin(0.5)
        cover = 0
        for exp in range(200):
            rng = np.random.default_rng(30000 + exp)
            z = rng.multivariate_normal([0, 0], [[1, 0.5], [0.5, 1]], size=250)
            lo, hi = bootstrap_ci(kendall_tau, z[:, 0], z[:, 1], 0.95, 200, seed=exp)
            cover += lo <= true_tau <= hi
        assert 0.92 <= cover / 200 <= 0.98


class TestQuadrants:
    def test_reference_point_is_ne(self):
        q = quadrant_split([-80.0], [40.0])
        assert q["NE"].tolist() == [0]

    def test_boundary_goes_southwest(self):
        q = quadrant_split([-100.0], [37.5])
        assert q["SW"].tolist() == [0]

    def test_four_corners(self):
        lon = [-80.0, -80.0, -120.0, -120.0]
        lat = [45.0, 30.0, 30.0, 45.0]
        q = quadrant_split(lon, lat)
        assert q["NE"].tolist() == [0]
        assert q["SE"].tolist() == [1]
        assert q["SW"].tolist() == [2]
        assert q["NW"].tolist() == [3]

    def test_partition_is_complete(self):
        rng = np.random.default_rng(10)
        lon = rng.uniform(-125, -65, 200)
        lat = rng.uniform(25, 50, 200)
        q = quadrant_split(lon, lat)
        merged = np.sort(np.concatenate(list(q.values())))
        np.testing.assert_array_equal(merged, np.arange(200))


def test_dependence_report_fields():
    rng = np.random.default_rng(11)
    x = rng.random(300)
    y = 0.5 * x + 0.5 * rng.random(300)
    rep = dependence_report(x, y, region="NE", u=0.8, n_boot=150, seed=3)
    assert rep.region == "NE"
    assert rep.n == 300
    assert -1 <= rep.tau <= 1
    assert rep.tau_ci[0] <= rep.tau <= rep.tau_ci[1]
    assert 0 <= rep.chi <= 1
    assert -1 < rep.chibar <= 1

