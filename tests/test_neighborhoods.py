"""Neighborhood tests: every indexed query is checked against a
brute-force all-pairs haversine filter, and the covariate bisection is
checked against exhaustive bipartition enumeration."""

import itertools

import numpy as np
import pytest

from firemarg.data import build_dataset
from firemarg.errors import DataError
from firemarg.geo import haversine_km
from firemarg.neighborhoods import (
    Neighborhood,
    NeighborhoodSpec,
    bisect_split,
    build_neighborhood,
    cluster_neighborhood,
    fitting_sample,
    spatial_neighborhood,
    temporal_neighborhood,
)

from conftest import make_grid_columns


def brute_force_members(ds, center, radius_km, year_half_width=0):
    years = range(int(ds.year[center]) - year_half_width,
                  int(ds.year[center]) + year_half_width + 1)
    mask = (ds.month == ds.month[center]) & np.isin(ds.year, list(years))
    ids = np.flatnonzero(mask)
    d = haversine_km(ds.lon[center], ds.lat[center], ds.lon[ids], ds.lat[ids],
                     radius_km=ds.radius_km)
    return ids[np.atleast_1d(d) <= radius_km]


@pytest.fixture(scope="module")
def multi_ds():
    cols = make_grid_columns(nx=12, ny=12, months=(4, 6, 8),
                             years=(1999, 2000, 2001), seed=2)
    return build_dataset(**cols)


class TestSpatial:
    def test_matches_brute_force_on_random_queries(self, multi_ds):
        rng = np.random.default_rng(0)
        for _ in range(300):
            center = int(rng.integers(0, multi_ds.n))
            radius = float(rng.uniform(0.0, 500.0))
            got = spatial_neighborhood(multi_ds, center, radius).members
            want = brute_force_members(multi_ds, center, radius)
            np.testing.assert_array_equal(got, want)

    def test_zero_radius_collocated_only(self, multi_ds):
        nb = spatial_neighborhood(multi_ds, 40, 0.0)
        assert nb.members.tolist() == [40]

    def test_axial_neighbors_at_55km_spacing(self):
        # 0.5 deg at the equator is ~55.7 km; diagonals are ~78.7 km
        cols = make_grid_columns(nx=5, ny=5, lon0=-1.0, lat0=-1.0, seed=1)
        ds = build_dataset(**cols)
        center = 12  # middle of the 5x5 grid
        nb = spatial_neighborhood(ds, center, 60.0)
        assert nb.members.size == 5
        assert center in nb.members
        got = set(nb.members.tolist()) - {center}
        assert got == {7, 11, 13, 17}

    def test_whole_domain_radius(self, multi_ds):
        nb = spatial_neighborhood(multi_ds, 0, 20015.0)
        same_slice = (multi_ds.month == multi_ds.month[0]) & (multi_ds.year == multi_ds.year[0])
        assert nb.members.size == np.count_nonzero(same_slice)

    def test_monotone_in_radius(self, multi_ds):
        rng = np.random.default_rng(4)
        for _ in range(30):
            center = int(rng.integers(0, multi_ds.n))
            r1, r2 = sorted(rng.uniform(0, 400, 2))
            a = spatial_neighborhood(multi_ds, center, r1).members
            b = spatial_neighborhood(multi_ds, center, r2).members
            assert set(a) <= set(b)

    def test_symmetry(self, multi_ds):
        rng = np.random.default_rng(5)
        for _ in range(20):
            i = int(rng.integers(0, multi_ds.n))
            r = float(rng.uniform(50, 300))
            for j in spatial_neighborhood(multi_ds, i, r).members:
                assert i in spatial_neighborhood(multi_ds, int(j), r).members


class TestTemporal:
    def test_zero_half_width_is_spatial(self, multi_ds):
        a = temporal_neighborhood(multi_ds, 100, 150.0, 0).members
        b = spatial_neighborhood(multi_ds, 100, 150.0).members
        np.testing.assert_array_equal(a, b)

    def test_interior_year_unions_three_slices(self, multi_ds):
        center = next(i for i in range(multi_ds.n) if multi_ds.year[i] == 2000)
        got = temporal_neighborhood(multi_ds, center, 120.0, 1).members
        want = brute_force_members(multi_ds, center, 120.0, year_half_width=1)
        np.testing.assert_array_equal(got, want)
        years = set(multi_ds.year[got].tolist())
        assert years == {1999, 2000, 2001}

    def test_boundary_year_truncates(self, multi_ds):
        center = next(i for i in range(multi_ds.n) if multi_ds.year[i] == 1999)
        got = temporal_neighborhood(multi_ds, center, 100.0, 6).members
        assert set(multi_ds.year[got].tolist()) <= {1999, 2000, 2001}
        want = brute_force_members(multi_ds, center, 100.0, year_half_width=6)
        np.testing.assert_array_equal(got, want)

    def test_monotone_in_half_width(self, multi_ds):
        center = next(i for i in range(multi_ds.n) if multi_ds.year[i] == 2000)
        a = temporal_neighborhood(multi_ds, center, 200.0, 1).members
        b = temporal_neighborhood(multi_ds, center, 200.0, 2).members
        assert set(a) <= set(b)


def wss(values):
    return float(np.sum((values - values.mean()) ** 2)) if values.size else 0.0


class TestBisectSplit:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(6)
        for trial in range(40):
            n = int(rng.integers(2, 11))
            values = np.round(rng.normal(0, 1, n), 2)
            if values.min() == values.max():
                continue
            mask = bisect_split(values)
            got = wss(values[mask]) + wss(values[~mask])
            best = min(
                wss(values[list(combo)]) + wss(np.delete(values, list(combo)))
                for k in range(1, n)
                for combo in itertools.combinations(range(n), k))
            assert got == pytest.approx(best, abs=1e-12)

    def test_constant_returns_none(self):
        assert bisect_split(np.full(6, 2.0)) is None

    def test_never_splits_ties_apart(self):
        values = np.array([1.0, 1.0, 1.0, 5.0, 1.0])
        mask = bisect_split(values)
        assert mask.tolist() == [True, True, True, False, True]


class TestCluster:
    def test_two_obvious_groups(self):
        cols = make_grid_columns(nx=6, ny=1, lon0=-100.0, lat0=40.0, seed=7)
        cols["altitude"] = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        ds = build_dataset(**cols)
        nb = cluster_neighborhood(ds, 0, 5000.0, "altitude")
        assert nb.members.tolist() == [0, 1, 2]
        assert not nb.degenerate_split
        high = cluster_neighborhood(ds, 4, 5000.0, "altitude")
        assert high.members.tolist() == [3, 4, 5]

    def test_constant_covariate_degenerate(self):
        cols = make_grid_columns(nx=4, ny=1, seed=8)
        cols["altitude"] = np.full(4, 700.0)
        ds = build_dataset(**cols)
        nb = cluster_neighborhood(ds, 1, 5000.0, "altitude")
        assert nb.degenerate_split
        assert nb.members.size == 4

    def test_two_members_forced_singleton(self):
        cols = make_grid_columns(nx=2, ny=1, seed=9)
        cols["altitude"] = np.array([100.0, 900.0])
        ds = build_dataset(**cols)
        nb = cluster_neighborhood(ds, 0, 5000.0, "altitude")
        assert nb.members.tolist() == [0]
        assert not nb.degenerate_split

    def test_singleton_neighborhood_flagged(self, multi_ds):
        nb = cluster_neighborhood(multi_ds, 3, 0.0, "altitude")
        assert nb.degenerate_split
        assert nb.members.tolist() == [3]

    def test_subset_of_spatial(self, multi_ds):
        rng = np.random.default_rng(10)
        for _ in range(20):
            center = int(rng.integers(0, multi_ds.n))
            r = float(rng.uniform(50, 300))
            clustered = cluster_neighborhood(multi_ds, center, r, "clim_temp").members
            spatial = spatial_neighborhood(multi_ds, center, r).members
            assert set(clustered) <= set(spatial)
            assert center in clustered


class TestSpecAndSamples:
    def test_spec_validation(self):
        with pytest.raises(DataError):
            NeighborhoodSpec(variant="radial")
        with pytest.raises(DataError):
            NeighborhoodSpec(variant="spatial", radius_km=-1.0)
        with pytest.raises(DataError):
            NeighborhoodSpec(variant="temporal", year_half_width=0)
        with pytest.raises(DataError):
            NeighborhoodSpec(variant="cluster")

    def test_dispatch(self, multi_ds):
        center = 50
        spatial = build_neighborhood(multi_ds, center, NeighborhoodSpec("spatial", 150.0))
        np.testing.assert_array_equal(
            spatial.members, spatial_neighborhood(multi_ds, center, 150.0).members)
        temporal = build_neighborhood(
            multi_ds, center, NeighborhoodSpec("temporal", 150.0, year_half_width=2))
        np.testing.assert_array_equal(
            temporal.members,
            temporal_neighborhood(multi_ds, center, 150.0, 2).members)
        cluster = build_neighborhood(
            multi_ds, center,
            NeighborhoodSpec("cluster", 150.0, cluster_covariate="altitude"))
        np.testing.assert_array_equal(
            cluster.members,
            cluster_neighborhood(multi_ds, center, 150.0, "altitude").members)

    def test_sample_extraction_skips_missing(self):
        cols = make_grid_columns(nx=5, ny=5, cnt_missing_frac=0.3,
                                 ba_missing_frac=0.3, seed=11)
        ds = build_dataset(**cols)
        spec = NeighborhoodSpec(radius_km=10000.0)
        members = spatial_neighborhood(ds, 0, 10000.0).members[1:]
        cs, source = fitting_sample(ds, 0, "cnt", spec)
        assert source == "neighborhood"
        assert not np.any(np.isnan(cs))
        assert cs.size == np.count_nonzero(~np.isnan(ds.cnt[members]))
        bs, _ = fitting_sample(ds, 0, "ba", spec)
        assert bs.size == np.count_nonzero(~np.isnan(ds.bap[members]))

    def test_sample_exclusion(self, multi_ds):
        nb = spatial_neighborhood(multi_ds, 10, 200.0)
        sample, _ = fitting_sample(multi_ds, 10, "cnt",
                                   NeighborhoodSpec(radius_km=200.0))
        assert not np.isnan(multi_ds.cnt[10])
        assert sample.size == np.count_nonzero(~np.isnan(multi_ds.cnt[nb.members])) - 1

    @pytest.mark.parametrize("variable", ["cnt", "ba"])
    def test_fitting_sample_ladder(self, variable):
        # one parallel, ~46 km between cells; ids 0-4 in 2000, 5-9 in
        # 2001, all in month 6; the center (1) is observed on every rung
        spec = NeighborhoodSpec(radius_km=50.0)
        rungs = (((), "neighborhood", [0, 2]),
                 ((0, 2), "slice", [3, 4]),
                 ((0, 2, 3, 4), "month", [5, 6, 7, 8, 9]),
                 ((0, 2, 3, 4, 5, 6, 7, 8, 9), "month", []))
        for masked, source, expected in rungs:
            cols = make_grid_columns(nx=5, ny=1, years=(2000, 2001), seed=8)
            cols["cnt"] = np.arange(10.0) + 1.0
            cols["ba"] = np.arange(10.0) + 1.0
            cols[variable][list(masked)] = np.nan
            ds = build_dataset(**cols)
            column = ds.cnt if variable == "cnt" else ds.bap
            sample, got = fitting_sample(ds, 1, variable, spec)
            assert got == source
            assert column[1] not in sample
            np.testing.assert_array_equal(np.sort(sample), np.sort(column[expected]))
