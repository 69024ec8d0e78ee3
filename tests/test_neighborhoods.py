"""Neighborhood tests: every indexed query is checked against a
brute-force all-pairs haversine filter, and the covariate bisection is
checked against exhaustive bipartition enumeration."""

import itertools
import math

import numpy as np
import pytest

from firemarg import neighborhoods
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
    fitting_samples,
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

    def test_window_past_the_data_with_an_absent_cell(self):
        # years 1999-2001; one cell absent from (6, 2000), one from (4, 1999)
        cols = make_grid_columns(nx=12, ny=12, months=(4, 6, 8),
                                 years=(1999, 2000, 2001), seed=2)
        gone = [np.flatnonzero((cols["month"] == m) & (cols["year"] == y))[k]
                for m, y, k in ((6, 2000, 77), (4, 1999, 5))]
        keep = np.setdiff1d(np.arange(cols["lon"].size), gone)
        ds = build_dataset(**{k: (v[keep] if isinstance(v, np.ndarray) else v)
                              for k, v in cols.items()})
        assert np.count_nonzero(ds.slots < 0) == 2
        rng = np.random.default_rng(9)
        for center in rng.integers(0, ds.n, 60).tolist():
            radius = float(rng.uniform(0.0, 300.0))
            for ky in (0, 1, 3):
                got = temporal_neighborhood(ds, center, radius, ky).members
                want = brute_force_members(ds, center, radius, year_half_width=ky)
                np.testing.assert_array_equal(got, want)

    def test_one_distance_call_whatever_the_window(self, multi_ds, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return haversine_km(*args, **kwargs)

        monkeypatch.setattr(neighborhoods, "haversine_km", counted)
        for ky in (0, 1, 6):
            temporal_neighborhood(multi_ds, 100, 150.0, ky)
        assert len(calls) == 3

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

    def test_spec_rejects_nan_radius(self):
        # a NaN radius would give an empty neighborhood, center included
        with pytest.raises(DataError, match="radius_km must be nonnegative"):
            NeighborhoodSpec(radius_km=math.nan)

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


def reference_sample(ds, center, variable, spec):
    """The one-center ladder on brute-force members: neighborhood, then
    (month, year) slice, then month pool, center and NaNs left out."""
    column = ds.cnt if variable == "cnt" else ds.bap
    ky = spec.year_half_width if spec.variant == "temporal" else 0
    members = brute_force_members(ds, center, spec.radius_km, ky)
    if spec.variant == "cluster" and members.size >= 2:
        x = ds.covariate(spec.cluster_covariate)[members]
        if np.std(x) > 0:
            low = bisect_split((x - np.mean(x)) / np.std(x))
            if low is not None:
                members = members[low == low[members == center][0]]
    same_month = ds.month == ds.month[center]
    rungs = (("neighborhood", members),
             ("slice", np.flatnonzero(same_month & (ds.year == ds.year[center]))),
             ("month", np.flatnonzero(same_month)))
    for source, ids in rungs:
        sample = column[ids[ids != center]]
        sample = sample[~np.isnan(sample)]
        if sample.size:
            break
    return sample, source


def drop_rows(cols, rows):
    keep = np.setdiff1d(np.arange(cols["lon"].size), rows)
    return build_dataset(**{k: (v[keep] if isinstance(v, np.ndarray) else v)
                            for k, v in cols.items()})


SPECS = (NeighborhoodSpec("spatial"),
         NeighborhoodSpec("temporal", year_half_width=1),
         NeighborhoodSpec("temporal", year_half_width=3),
         NeighborhoodSpec("cluster", cluster_covariate="altitude"))


class TestStackedSamples:
    @pytest.fixture(scope="class")
    def gappy_ds(self):
        # two absent (cell, slice) pairs, a third of each variable
        # missing, and the (8, 2000) counts all missing: radius 0 takes
        # the slice rung, and (8, 2000) the month rung
        cols = make_grid_columns(nx=12, ny=12, months=(4, 6, 8),
                                 years=(1999, 2000, 2001), seed=2,
                                 cnt_missing_frac=0.3, ba_missing_frac=0.3)
        cols["cnt"][(cols["month"] == 8) & (cols["year"] == 2000)] = np.nan
        gone = [np.flatnonzero((cols["month"] == m) & (cols["year"] == y))[k]
                for m, y, k in ((6, 2000, 77), (4, 1999, 5))]
        return drop_rows(cols, gone)

    def assert_matches_reference(self, ds, centers, spec, variables=("cnt", "ba")):
        for variable in variables:
            got = fitting_samples(ds, centers, variable, spec)
            assert len(got) == len(centers)
            for center, (sample, source) in zip(centers, got):
                want, want_source = reference_sample(ds, center, variable, spec)
                assert source == want_source
                assert sample.dtype == want.dtype
                np.testing.assert_array_equal(sample, want)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.variant}{s.year_half_width}")
    @pytest.mark.parametrize("radius", [0.0, 40.0, 120.0, 300.0])
    def test_matches_the_reference_ladder(self, gappy_ds, spec, radius):
        rng = np.random.default_rng(int(radius) + spec.year_half_width)
        centers = rng.choice(gappy_ds.n, 120, replace=False).tolist()
        spec = NeighborhoodSpec(spec.variant, radius, spec.year_half_width,
                                spec.cluster_covariate)
        self.assert_matches_reference(gappy_ds, centers, spec)

    def test_every_rung_is_taken(self, gappy_ds):
        sources = {source for spec in (NeighborhoodSpec(radius_km=0.0),
                                       NeighborhoodSpec(radius_km=100.0))
                   for _, source in fitting_samples(gappy_ds, np.arange(gappy_ds.n),
                                                    "cnt", spec)}
        assert sources == {"neighborhood", "slice", "month"}

    def test_radius_at_an_exact_cell_distance_is_closed(self, gappy_ds):
        rng = np.random.default_rng(3)
        for center in rng.choice(gappy_ds.n, 20, replace=False).tolist():
            same = np.flatnonzero((gappy_ds.month == gappy_ds.month[center])
                                  & (gappy_ds.year == gappy_ds.year[center]))
            d = haversine_km(gappy_ds.lon[center], gappy_ds.lat[center],
                             gappy_ds.lon[same], gappy_ds.lat[same],
                             radius_km=gappy_ds.radius_km)
            for radius in np.unique(d)[1:6].tolist():
                for spec in SPECS:
                    spec = NeighborhoodSpec(spec.variant, radius, spec.year_half_width,
                                            spec.cluster_covariate)
                    self.assert_matches_reference(gappy_ds, [center], spec)
                members = spatial_neighborhood(gappy_ds, center, radius).members
                assert same[d == radius][0] in members

    @pytest.mark.parametrize("factor", [1.0, 1.5, 2.5])
    def test_radius_past_half_the_circumference(self, gappy_ds, factor):
        radius = factor * math.pi * gappy_ds.radius_km
        centers = list(range(0, gappy_ds.n, 7))
        for spec in SPECS:
            self.assert_matches_reference(
                gappy_ds, centers, NeighborhoodSpec(spec.variant, radius, spec.year_half_width,
                                                    spec.cluster_covariate))
        same = (gappy_ds.month == gappy_ds.month[0]) & (gappy_ds.year == gappy_ds.year[0])
        assert spatial_neighborhood(gappy_ds, 0, radius).members.size == np.count_nonzero(same)

    @pytest.mark.parametrize("lon0", [178.0, -181.0])
    def test_grid_across_the_antimeridian(self, lon0):
        cols = make_grid_columns(nx=10, ny=6, lon0=lon0, lat0=60.0, years=(2000, 2001),
                                 seed=4, cnt_missing_frac=0.2, ba_missing_frac=0.2)
        cols["lon"] = (cols["lon"] + 180.0) % 360.0 - 180.0
        ds = build_dataset(**cols)
        assert ds.cell_lon.min() < -179.0 and ds.cell_lon.max() > 179.0
        for radius in (0.0, 30.0, 60.0, 150.0):
            for spec in SPECS[:2]:
                self.assert_matches_reference(
                    ds, list(range(ds.n)),
                    NeighborhoodSpec(spec.variant, radius, spec.year_half_width))
        # cells either side of the antimeridian are neighbors
        east = int(np.argmax(ds.lon))
        members = spatial_neighborhood(ds, east, 60.0).members
        assert np.any(ds.lon[members] < 0.0)

    def test_grid_whose_band_reaches_a_pole(self):
        # every longitude at 80.5-89.5 N, 1 degree apart: the longitude
        # window bites, and poleward members need a wider one than the
        # center's own latitude allows
        cols = make_grid_columns(nx=360, ny=10, lon0=-180.0, lat0=80.5, spacing=1.0,
                                 years=(2000, 2001), seed=5, cnt_missing_frac=0.2)
        ds = build_dataset(**cols)
        centers = list(range(0, ds.n, 97))
        for radius in (0.0, 250.0, 800.0):
            for spec in SPECS:
                self.assert_matches_reference(
                    ds, centers, NeighborhoodSpec(spec.variant, radius, spec.year_half_width,
                                                  spec.cluster_covariate))

    def test_batch_order_and_size_do_not_matter(self, gappy_ds, monkeypatch):
        rng = np.random.default_rng(8)
        centers = rng.choice(gappy_ds.n, 200, replace=False)
        centers[:10] = centers[10]          # repeated centers too
        for spec in SPECS:
            spec = NeighborhoodSpec(spec.variant, 150.0, spec.year_half_width,
                                    spec.cluster_covariate)
            batch = fitting_samples(gappy_ds, centers, "ba", spec)
            backward = fitting_samples(gappy_ds, centers[::-1], "ba", spec)[::-1]
            ones = [fitting_sample(gappy_ds, c, "ba", spec) for c in centers.tolist()]
            monkeypatch.setattr(neighborhoods, "QUERY_BLOCK", 500)
            blocked = fitting_samples(gappy_ds, centers, "ba", spec)
            monkeypatch.undo()
            for other in (backward, ones, blocked):
                for (a, sa), (b, sb) in zip(batch, other):
                    assert sa == sb
                    np.testing.assert_array_equal(a, b)

    def test_one_distance_call_per_block(self, gappy_ds, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return haversine_km(*args, **kwargs)

        monkeypatch.setattr(neighborhoods, "haversine_km", counted)
        spec = NeighborhoodSpec("temporal", 150.0, year_half_width=1)
        fitting_samples(gappy_ds, np.arange(300), "cnt", spec)
        assert len(calls) == 1
        monkeypatch.setattr(neighborhoods, "QUERY_BLOCK", 1)
        fitting_samples(gappy_ds, np.arange(30), "cnt", spec)
        assert len(calls) == 1 + 30
        # a 2000 km band holds all 144 cells of the slice: 4 centers a block
        monkeypatch.setattr(neighborhoods, "QUERY_BLOCK", 4 * 144)
        fitting_samples(gappy_ds, np.arange(40), "cnt", NeighborhoodSpec(radius_km=2000.0))
        assert len(calls) == 1 + 30 + 10
        assert fitting_samples(gappy_ds, [], "cnt", spec) == []
