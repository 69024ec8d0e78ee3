"""Synthetic data with known ground truth for pipeline verification.

The generator plants spatial parameter fields in one of two shapes.
The default tiles the domain with square blocks (side block_km), each
block getting one of the configured regimes, alternating like a
checkerboard so every block border is a contrast. regime_layout="bands"
cycles the regimes along longitude in straight bands exactly block_km
wide, which makes the cross-band marginal scale equal the band width.
Either way, neighborhoods smaller than the planted scale share a
marginal and larger ones mix regimes; that is what lets
cross-validation recover a planted radius.

Counts drive burnt areas: a zero count forces a zero burnt area, and a
positive count draws a positive burnt-area proportion from a clipped
lognormal. Missingness is planted as spatially clustered blobs per
(month, year) slice with a configurable overlap between the two masks,
mimicking the non-random validation patterns of the source data.
mask_layout="border_stripes" instead hides the two columns straddling
each band border over a short row segment, which puts every count
surrogate at a known, identical distance from the nearest regime
contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .counts import ZinbParams, zinb_cdf
from .data import Dataset, build_dataset
from .errors import DataError
from .geo import ACRES_PER_KM2, EARTH_RADIUS_KM, zone_area_km2

KM_PER_DEG = math.pi * EARTH_RADIUS_KM / 180.0


@dataclass(frozen=True)
class SyntheticSpec:
    nx: int = 20
    ny: int = 20
    lon0: float = -112.0
    lat0: float = 33.0
    spacing: float = 0.5
    months: tuple = (6,)
    years: tuple = (2000,)
    block_km: float = 300.0
    regime_layout: str = "checker"  # or "bands": lon-direction stripes
    mask_layout: str = "blobs"     # or "border_stripes": mask along band borders
    cnt_regimes: tuple = (ZinbParams(0.15, 1.0, 2.0), ZinbParams(0.55, 8.0, 0.8))
    ba_regimes: tuple = ((-4.5, 0.8), (-2.5, 1.2))   # lognormal (mu, sd) of positive BAP
    year_drift: float = 0.0        # multiplies the count mean by exp(drift * (y - y0))
    cnt_missing_rate: float = 0.1
    ba_missing_rate: float = 0.1
    mask_overlap: float = 0.4      # fraction of the BA mask copied from the CNT mask
    mask_blob_cells: float = 1.5   # blob radius in grid cells
    water_frac: float = 0.0
    small_area_frac: float = 0.0   # cells given a tiny area fraction

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise DataError("grid must be at least 2x2")
        span_km = min(self.nx, self.ny) * self.spacing * KM_PER_DEG
        if self.block_km <= 0.0 or self.block_km >= span_km:
            raise DataError(
                f"marginal scale {self.block_km} km does not fit the "
                f"{span_km:.0f} km domain; no regime contrast is possible")
        if len(self.cnt_regimes) != len(self.ba_regimes):
            raise DataError("count and burnt-area regimes must pair up")
        for rate in (self.cnt_missing_rate, self.ba_missing_rate):
            if not 0.0 <= rate <= 0.5:
                raise DataError("missing rates must lie in [0, 0.5]")
        if not 0.0 <= self.mask_overlap <= 1.0:
            raise DataError("mask overlap must lie in [0, 1]")
        if self.regime_layout not in ("checker", "bands"):
            raise DataError(f"unknown regime layout {self.regime_layout!r}")
        if self.mask_layout not in ("blobs", "border_stripes"):
            raise DataError(f"unknown mask layout {self.mask_layout!r}")
        if self.mask_layout == "border_stripes" and self.regime_layout != "bands":
            raise DataError("border-stripe masks need the bands regime layout")


@dataclass(frozen=True)
class GroundTruth:
    """Planted parameters and pre-mask values, for oracle checks."""

    regime: np.ndarray          # per-observation regime id (-1 for water)
    pi: np.ndarray
    mu: np.ndarray              # drift-adjusted count mean per observation
    r: np.ndarray
    bap_zero: np.ndarray        # true zero probability of BAP
    bap_mu: np.ndarray          # lognormal location of positive BAP
    bap_sd: np.ndarray
    cnt_full: np.ndarray        # values before masking
    ba_full: np.ndarray
    capacity: np.ndarray
    water_cells: np.ndarray = field(default=None)

    def true_cnt_cdf(self, i: int, thresholds) -> np.ndarray:
        if self.pi[i] == 1.0:
            return np.ones(np.asarray(thresholds).size)
        params = ZinbParams(float(self.pi[i]), float(self.mu[i]), float(self.r[i]))
        return zinb_cdf(params, thresholds)

    def true_bap_cdf(self, i: int, bap_thresholds) -> np.ndarray:
        """CDF of BAP: atom at zero plus clipped-lognormal positive part."""
        x = np.asarray(bap_thresholds, dtype=float)
        z = self.bap_zero[i]
        out = np.full(x.shape, z)
        pos = x > 0.0
        with np.errstate(divide="ignore"):
            t = (np.log(x[pos]) - self.bap_mu[i]) / self.bap_sd[i]
        out[pos] = z + (1.0 - z) * ndtr(t)
        out[x >= 1.0] = 1.0
        return out

    def true_ba_cdf(self, i: int, ba_thresholds) -> np.ndarray:
        return self.true_bap_cdf(i, np.asarray(ba_thresholds, float) / self.capacity[i])


def _blob_mask(rng, cell_lon, cell_lat, n_slice_cells, target: int,
               blob_cells: float, spacing: float, forbidden=None) -> np.ndarray:
    """Pick ~target cells as a union of round blobs; deterministic given rng."""
    chosen = np.zeros(n_slice_cells, dtype=bool)
    forbidden = np.zeros(n_slice_cells, dtype=bool) if forbidden is None else forbidden
    radius_deg = blob_cells * spacing
    guard = 0
    order: list[int] = []
    while len(order) < target and guard < 100 * max(target, 1):
        guard += 1
        center = int(rng.integers(0, n_slice_cells))
        near = ((np.abs(cell_lon - cell_lon[center]) <= radius_deg)
                & (np.abs(cell_lat - cell_lat[center]) <= radius_deg))
        for idx in np.flatnonzero(near):
            if not chosen[idx] and not forbidden[idx] and len(order) < target:
                chosen[idx] = True
                order.append(int(idx))
    return chosen


def _border_stripe_mask(rng, cell_regime, nx: int, ny: int,
                        target: int) -> np.ndarray:
    """Mask the two columns straddling each band border over a short
    row segment, so every masked cell's nearest observed neighbour sits
    two columns from the border."""
    col_regime = cell_regime[:nx]
    borders = np.flatnonzero(col_regime[:-1] != col_regime[1:])
    # a surrogate column needs a full neighborhood, so borders hugging the
    # east or west grid edge are not masked
    borders = borders[(borders >= 4) & (borders <= nx - 6)]
    if borders.size == 0:
        raise DataError("no band borders inside the grid to mask along")
    rows = max(1, round(target / (2 * borders.size)))
    rows = min(rows, ny)
    # keep segments off the first and last grid rows, else edge surrogates
    # lose half their neighborhood and the planted geometry breaks
    lo = min(2, max(0, (ny - rows) // 2))
    hi = ny - rows - lo
    chosen = np.zeros(nx * ny, dtype=bool)
    for j in borders:
        start = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        for row in range(start, start + rows):
            chosen[row * nx + j] = True
            chosen[row * nx + j + 1] = True
    return chosen


def generate(spec: SyntheticSpec, seed: int) -> tuple[Dataset, GroundTruth]:
    """Build a synthetic Dataset plus its generating ground truth."""
    rng = np.random.default_rng(seed)

    cell_lon, cell_lat = np.meshgrid(
        spec.lon0 + spec.spacing * np.arange(spec.nx),
        spec.lat0 + spec.spacing * np.arange(spec.ny))
    cell_lon = cell_lon.ravel()
    cell_lat = cell_lat.ravel()
    n_cells = cell_lon.size
    lat_mid = float(np.mean(cell_lat))

    # checkerboard regime field over blocks of side block_km, or
    # lon-direction bands exactly block_km wide
    bx = np.floor((cell_lon - spec.lon0) * KM_PER_DEG
                  * math.cos(math.radians(lat_mid)) / spec.block_km).astype(int)
    by = np.floor((cell_lat - spec.lat0) * KM_PER_DEG / spec.block_km).astype(int)
    cell_regime = (bx if spec.regime_layout == "bands"
                   else bx + by) % len(spec.cnt_regimes)

    water_cells = np.zeros(n_cells, dtype=bool)
    if spec.water_frac > 0:
        k = int(round(spec.water_frac * n_cells))
        water_cells[rng.choice(n_cells, size=k, replace=False)] = True

    area_fraction = rng.uniform(0.7, 1.0, n_cells)
    if spec.small_area_frac > 0:
        k = int(round(spec.small_area_frac * n_cells))
        tiny = rng.choice(np.flatnonzero(~water_cells), size=k, replace=False)
        area_fraction[tiny] = rng.uniform(1e-4, 1e-3, k)

    land_cover = rng.uniform(0.0, 0.04, (n_cells, 18))
    land_cover[water_cells, 17] = rng.uniform(0.95, 1.0, int(water_cells.sum()))

    capacity_cell = np.array([
        zone_area_km2(lo, la, spec.spacing, spec.spacing) * frac * ACRES_PER_KM2
        for lo, la, frac in zip(cell_lon, cell_lat, area_fraction)])

    blocks = [(m, y) for y in spec.years for m in spec.months]
    n = n_cells * len(blocks)
    lon = np.tile(cell_lon, len(blocks))
    lat = np.tile(cell_lat, len(blocks))
    month = np.repeat([m for m, _ in blocks], n_cells)
    year = np.repeat([y for _, y in blocks], n_cells)
    regime = np.tile(cell_regime, len(blocks))
    water = np.tile(water_cells, len(blocks))
    capacity = np.tile(capacity_cell, len(blocks))

    def cell_param(values) -> np.ndarray:
        return np.tile(np.asarray(values, dtype=float)[cell_regime], len(blocks))

    pi = cell_param([z.pi for z in spec.cnt_regimes])
    mu = cell_param([z.mu for z in spec.cnt_regimes])
    r_disp = cell_param([z.r for z in spec.cnt_regimes])
    bap_mu = cell_param([b[0] for b in spec.ba_regimes])
    bap_sd = cell_param([b[1] for b in spec.ba_regimes])
    if spec.year_drift != 0.0:
        shift = spec.year_drift * (year - spec.years[0])
        mu = mu * np.exp(shift)
        bap_mu = bap_mu + shift
    pi[water] = 1.0
    regime = regime.copy()
    regime[water] = -1

    # counts, then burnt areas driven by them
    zero = rng.random(n) < pi
    cnt = rng.negative_binomial(r_disp, r_disp / (r_disp + mu), size=n).astype(float)
    cnt[zero] = 0.0
    bap = np.zeros(n)
    fire = cnt > 0
    bap[fire] = np.minimum(
        rng.lognormal(bap_mu[fire], bap_sd[fire]), 1.0)
    ba = bap * capacity
    bap_zero = pi + (1.0 - pi) * np.exp(
        r_disp * (np.log(r_disp) - np.log(r_disp + mu)))
    bap_zero[water] = 1.0

    # clustered missingness per slice, with controlled mask overlap
    cnt_obs = cnt.copy()
    ba_obs = ba.copy()
    for b, (m, y) in enumerate(blocks):
        sl = slice(b * n_cells, (b + 1) * n_cells)
        cnt_target = int(round(spec.cnt_missing_rate * n_cells))
        ba_target = int(round(spec.ba_missing_rate * n_cells))
        if spec.mask_layout == "border_stripes":
            cnt_mask = _border_stripe_mask(rng, cell_regime, spec.nx, spec.ny,
                                           cnt_target)
        else:
            cnt_mask = _blob_mask(rng, cell_lon, cell_lat, n_cells, cnt_target,
                                  spec.mask_blob_cells, spec.spacing)
        ba_mask = np.zeros(n_cells, dtype=bool)
        n_shared = int(round(spec.mask_overlap * ba_target))
        cnt_idx = np.flatnonzero(cnt_mask)
        if n_shared and cnt_idx.size:
            take = min(n_shared, cnt_idx.size)
            ba_mask[rng.choice(cnt_idx, size=take, replace=False)] = True
        remaining = ba_target - int(ba_mask.sum())
        if remaining > 0:
            extra = _blob_mask(rng, cell_lon, cell_lat, n_cells, remaining,
                               spec.mask_blob_cells, spec.spacing,
                               forbidden=cnt_mask | ba_mask)
            ba_mask |= extra
        cnt_obs[sl][cnt_mask] = np.nan
        ba_obs[sl][ba_mask] = np.nan

    climate = np.column_stack([
        rng.normal(15.0, 5.0, n) + 5.0 * regime,
        rng.normal(80.0, 20.0, n)])
    altitude = rng.uniform(0.0, 2500.0, n)

    ds = build_dataset(
        lon=lon, lat=lat, month=month, year=year,
        area_fraction=np.tile(area_fraction, len(blocks)),
        cnt=cnt_obs, ba=ba_obs, land_cover=np.tile(land_cover, (len(blocks), 1)),
        climate=climate, climate_names=("clim_temp", "clim_precip"),
        altitude=altitude,
        lon_width=spec.spacing, lat_height=spec.spacing,
        year_range=(min(spec.years), max(spec.years)),
        month_range=(min(spec.months), max(spec.months)))

    truth = GroundTruth(
        regime=regime, pi=pi, mu=mu, r=r_disp,
        bap_zero=bap_zero, bap_mu=bap_mu, bap_sd=bap_sd,
        cnt_full=cnt, ba_full=ba, capacity=capacity, water_cells=water)
    return ds, truth


def radius_recovery_preset() -> SyntheticSpec:
    """Scene tuned so count CV recovers the planted 150 km radius.

    Two lon-direction bands with well separated count humps meet at a
    single border, and the stripe mask puts every surrogate two columns
    away from it. Radii of 125 km and below then see too few own-band
    cells for a parametric fit, while 200 km and up absorb cells from
    the foreign band, so the window around 150 km wins the grid search.
    """
    return SyntheticSpec(
        nx=12, ny=19, spacing=0.62,
        regime_layout="bands", mask_layout="border_stripes",
        cnt_regimes=(ZinbParams(0.35, 12.0, 8.0),
                     ZinbParams(0.02, 60.0, 30.0)),
        ba_regimes=((-4.5, 0.8), (-3.5, 1.0)),
        cnt_missing_rate=1 / 6,   # one full-height two-column stripe
        ba_missing_rate=0.05,
        mask_overlap=0.4, mask_blob_cells=1.2)
