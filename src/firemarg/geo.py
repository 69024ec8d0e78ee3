"""Spherical geometry: great-circle distance, grid-cell surface area,
and rescaling of burnt-area thresholds to a proportion of burnable cell
area.

All distances are kilometres, all areas square kilometres, all angles
degrees at the API boundary (radians internally).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, GeometryError

# Default matches the WGS84 equatorial radius used by common geodesic tools.
EARTH_RADIUS_KM = 6378.137

# Acres per square kilometre: burnt-area inputs default to acres.
ACRES_PER_KM2 = 247.105381

# Relative slack allowed when a burnt fraction exceeds 1 from rounding alone.
BAP_CLAMP_RTOL = 1e-9


def haversine_km(lon1, lat1, lon2, lat2, radius_km: float = EARTH_RADIUS_KM):
    """Great-circle distance between two points, in km.

    Accepts scalars or numpy arrays (broadcasting applies). Symmetric,
    nonnegative, zero only for coincident points.
    """
    if not radius_km > 0:                 # NaN fails too
        raise GeometryError(f"radius_km must be positive, got {radius_km}")
    lon1, lat1, lon2, lat2 = (np.asarray(a, dtype=float) for a in (lon1, lat1, lon2, lat2))
    if not (np.all(np.isfinite(lon1)) and np.all(np.isfinite(lat1))
            and np.all(np.isfinite(lon2)) and np.all(np.isfinite(lat2))):
        raise GeometryError("non-finite coordinate")
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dphi = p2 - p1
    dlam = np.radians(lon2) - np.radians(lon1)
    h = np.sin(dphi / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlam / 2.0) ** 2
    d = 2.0 * radius_km * np.arcsin(np.minimum(1.0, np.sqrt(h)))
    return float(d) if d.ndim == 0 else d


def zone_area_km2(lon_center: float, lat_center: float,
                  lon_width_deg: float, lat_height_deg: float,
                  radius_km: float = EARTH_RADIUS_KM) -> float:
    """Surface area of a lon/lat-aligned cell on a sphere.

    Uses the spherical-zone identity: the area between two parallels is
    proportional to the difference of their sines, so the cell area is
    R^2 * dlam * (sin(lat_top) - sin(lat_bottom)).
    """
    if lon_width_deg <= 0 or lat_height_deg <= 0:
        raise GeometryError("cell widths must be positive")
    if not (math.isfinite(lon_center) and math.isfinite(lat_center)):
        raise GeometryError("non-finite cell center")
    lat_lo = lat_center - lat_height_deg / 2.0
    lat_hi = lat_center + lat_height_deg / 2.0
    if lat_lo < -90.0 or lat_hi > 90.0:
        raise GeometryError(
            f"cell [{lat_lo}, {lat_hi}] crosses a pole; latitudes must stay in [-90, 90]")
    dlam = math.radians(lon_width_deg)
    return radius_km ** 2 * dlam * (math.sin(math.radians(lat_hi)) - math.sin(math.radians(lat_lo)))


def rescaled_thresholds(thresholds, capacity):
    """Rescale absolute burnt-area thresholds to the proportion scale.

    ``capacity`` is the burnable capacity in burnt-area units
    (true area times unit scale): one cell's, or a column of them, one
    row of the result per cell. Returns ``(scaled, forced_one)`` where
    ``forced_one`` flags every strictly positive threshold at or above the
    proportion bound of 1: no observation can exceed capacity, so the
    predicted probability there is exactly 1.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(capacity <= 0):
        raise DataError(f"capacity must be positive, got {np.min(capacity)}")
    scaled = thresholds / capacity
    forced_one = (scaled >= 1.0) & (thresholds > 0)
    return scaled, forced_one
