"""Geometry tests.

Expected values were frozen from two independent oracles:
  * distances: 3-D unit-vector angle via atan2(|a x b|, a.b), scaled by R
  * areas: adaptive quadrature of R^2 cos(phi) over the cell
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firemarg.errors import GeometryError
from firemarg.geo import (
    EARTH_RADIUS_KM,
    haversine_km,
    rescaled_thresholds,
    zone_area_km2,
)

# (lon1, lat1, lon2, lat2) -> km, from the vector-angle oracle
DIST_CASES = [
    ((0.0, 0.0, 0.0, 0.0), 0.0),
    ((0.0, 0.0, 1.0, 0.0), 111.319490793),
    ((0.0, 0.0, 0.0, 1.0), 111.319490793),
    ((-100.0, 37.5, -100.5, 38.0), 70.956405036),
    ((-124.25, 40.25, -67.25, 44.75), 4608.781395528),
    ((10.0, 89.5, -170.0, 89.5), 111.319490793),
    ((-180.0, 0.0, 180.0, 0.0), 0.0),
    ((0.0, -45.0, 0.0, 45.0), 10018.754171395),
]

# lat center of a 0.5 x 0.5 deg cell -> km^2, from the quadrature oracle
AREA_CASES = [
    (0.0, 3097.997427347),
    (0.25, 3097.967936644),
    (37.5, 2457.806607199),
    (44.75, 2200.152466620),
    (60.0, 1548.998713673),
    (89.75, 13.517520939),
]


@pytest.mark.parametrize("args,expected", DIST_CASES)
def test_haversine_frozen(args, expected):
    assert haversine_km(*args) == pytest.approx(expected, abs=1e-6)


def test_haversine_vectorized():
    lons = np.array([0.0, -100.0])
    lats = np.array([0.0, 37.5])
    d = haversine_km(lons, lats, np.array([1.0, -100.5]), np.array([0.0, 38.0]))
    assert d.shape == (2,)
    assert d[0] == pytest.approx(111.319490793, abs=1e-6)
    assert d[1] == pytest.approx(70.956405036, abs=1e-6)


def test_haversine_rejects_nan():
    with pytest.raises(GeometryError):
        haversine_km(float("nan"), 0.0, 0.0, 0.0)


@pytest.mark.parametrize("radius", [0.0, -6371.0, math.nan])
def test_haversine_rejects_a_non_positive_radius(radius):
    with pytest.raises(GeometryError, match="radius_km must be positive"):
        haversine_km(0.0, 0.0, 1.0, 1.0, radius_km=radius)


finite_lon = st.floats(min_value=-180.0, max_value=180.0)
finite_lat = st.floats(min_value=-90.0, max_value=90.0)


@settings(max_examples=200, deadline=None)
@given(finite_lon, finite_lat, finite_lon, finite_lat)
def test_haversine_symmetric_nonnegative(lon1, lat1, lon2, lat2):
    d12 = haversine_km(lon1, lat1, lon2, lat2)
    d21 = haversine_km(lon2, lat2, lon1, lat1)
    assert d12 >= 0.0
    assert d12 == pytest.approx(d21, abs=1e-9)
    assert d12 <= math.pi * EARTH_RADIUS_KM + 1e-9


@settings(max_examples=200, deadline=None)
@given(finite_lon, finite_lat, finite_lon, finite_lat, finite_lon, finite_lat)
def test_haversine_triangle_inequality(lon1, lat1, lon2, lat2, lon3, lat3):
    d13 = haversine_km(lon1, lat1, lon3, lat3)
    d12 = haversine_km(lon1, lat1, lon2, lat2)
    d23 = haversine_km(lon2, lat2, lon3, lat3)
    assert d13 <= d12 + d23 + 1e-9


@pytest.mark.parametrize("lat_center,expected", AREA_CASES)
def test_zone_area_frozen(lat_center, expected):
    # expected values carry 9 decimals, so compare absolutely at that scale
    assert zone_area_km2(0.0, lat_center, 0.5, 0.5) == pytest.approx(expected, abs=5e-9)


def test_zone_area_independent_of_longitude():
    a = zone_area_km2(-124.25, 42.25, 0.5, 0.5)
    b = zone_area_km2(12.75, 42.25, 0.5, 0.5)
    assert a == pytest.approx(b, rel=1e-15)


def test_zone_area_tiles_the_sphere():
    lat_centers = np.arange(-89.75, 90.0, 0.5)
    total = 720 * sum(zone_area_km2(0.0, c, 0.5, 0.5) for c in lat_centers)
    assert total == pytest.approx(4.0 * math.pi * EARTH_RADIUS_KM ** 2, rel=1e-12)


def test_zone_area_rejects_pole_crossing():
    with pytest.raises(GeometryError):
        zone_area_km2(0.0, 89.9, 0.5, 0.5)


def test_rescaled_thresholds_flags_saturated():
    grid = np.array([0.0, 10.0, 100.0, 1000.0])
    scaled, forced = rescaled_thresholds(grid, capacity=100.0)
    np.testing.assert_allclose(scaled, [0.0, 0.1, 1.0, 10.0])
    # zero is never forced even though every BAP >= 0; saturation needs u > 0
    assert forced.tolist() == [False, False, True, True]


def test_rescaled_thresholds_zero_never_forced():
    scaled, forced = rescaled_thresholds(np.array([0.0]), capacity=1e-12)
    assert not forced[0]
