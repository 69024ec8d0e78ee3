"""Neighborhood construction for marginal pooling.

Three variants share the same spatial core (same month, great-circle
distance at most radius_km):

  * spatial  - same year only
  * temporal - years within +/- year_half_width of the center's year
  * cluster  - spatial members sharing the center's side of a two-way
               covariate split

A query measures distances once per cell of the dataset's grid, over
the latitude band that the radius allows (great-circle distance >= R *
|delta lat|), in one haversine call whatever the year window; the cells
within the radius then map to their rows in the window's slices.

`fitting_sample` is the one sampling ladder that prediction and
cross-validation fit on: the neighborhood, widened to the (month, year)
slice and then the same-month pool when it has no observed value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError
from .geo import haversine_km

VARIANTS = ("spatial", "temporal", "cluster")


@dataclass(frozen=True)
class NeighborhoodSpec:
    variant: str = "spatial"
    radius_km: float = 100.0
    year_half_width: int = 0
    cluster_covariate: str | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DataError(f"unknown variant {self.variant!r}")
        if not self.radius_km >= 0:       # NaN fails too
            raise DataError("radius_km must be nonnegative")
        if self.variant == "temporal" and self.year_half_width < 1:
            raise DataError("temporal variant needs year_half_width >= 1")
        if self.variant == "cluster" and not self.cluster_covariate:
            raise DataError("cluster variant needs a covariate name")


@dataclass(frozen=True)
class Neighborhood:
    center: int
    members: np.ndarray     # ascending observation ids, includes the center
    degenerate_split: bool = False


def temporal_neighborhood(ds: Dataset, center: int, radius_km: float,
                          year_half_width: int) -> Neighborhood:
    """Same month, years within +/- year_half_width of the center's,
    distance <= radius_km (closed ball)."""
    # latitude band prefilter: d >= R * |dphi| makes a wider band impossible
    band_deg = math.degrees(radius_km / ds.radius_km) + 1e-9
    lat0 = ds.lat[center]
    lo = np.searchsorted(ds.cell_lat, lat0 - band_deg, side="left")
    hi = np.searchsorted(ds.cell_lat, lat0 + band_deg, side="right")
    dist = haversine_km(ds.lon[center], lat0, ds.cell_lon[lo:hi],
                        ds.cell_lat[lo:hi], radius_km=ds.radius_km)
    year = int(ds.year[center])
    members = ds.rows(int(ds.month[center]), year - year_half_width,
                      year + year_half_width, lo + (dist <= radius_km).nonzero()[0])
    return Neighborhood(center=center, members=members)


def spatial_neighborhood(ds: Dataset, center: int, radius_km: float) -> Neighborhood:
    """Same month, same year, distance <= radius_km (closed ball)."""
    return temporal_neighborhood(ds, center, radius_km, 0)


def bisect_split(values: np.ndarray) -> np.ndarray | None:
    """Exact variance-minimizing two-way split of a 1-D sample.

    Returns a boolean mask for the lower cluster, or None when no valid
    split exists (all values equal). Clusters are value intervals, so
    the scan only considers boundaries between distinct adjacent order
    statistics; within-cluster sums of squares come from prefix sums.
    Ties in the objective take the leftmost boundary.
    """
    n = values.size
    order = np.argsort(values, kind="stable")
    s = values[order]
    if s[0] == s[-1]:
        return None
    c1 = np.cumsum(s)
    c2 = np.cumsum(s * s)
    k = np.arange(1, n)            # size of the left cluster
    left_ss = c2[:-1] - c1[:-1] ** 2 / k
    right_n = n - k
    right_sum = c1[-1] - c1[:-1]
    right_ss = (c2[-1] - c2[:-1]) - right_sum ** 2 / right_n
    total = left_ss + right_ss
    valid = s[1:] > s[:-1]         # only splits between distinct values
    total[~valid] = np.inf
    k_best = int(np.argmin(total)) + 1
    boundary = 0.5 * (s[k_best - 1] + s[k_best])
    return values <= boundary


def cluster_neighborhood(ds: Dataset, center: int, radius_km: float,
                         covariate: str) -> Neighborhood:
    """Keep the spatial members on the center's side of a covariate split.

    The covariate is standardized over the neighborhood and split into
    two groups by exact variance-minimizing bisection. Neighborhoods
    that cannot be split (size < 2 or constant covariate) are returned
    whole with the degenerate flag set.
    """
    base = spatial_neighborhood(ds, center, radius_km)
    members = base.members
    if members.size < 2:
        return Neighborhood(center=center, members=members, degenerate_split=True)
    x = ds.covariate(covariate)[members]
    sd = float(np.std(x))
    if sd == 0.0:
        return Neighborhood(center=center, members=members, degenerate_split=True)
    z = (x - float(np.mean(x))) / sd
    low_mask = bisect_split(z)
    if low_mask is None:
        return Neighborhood(center=center, members=members, degenerate_split=True)
    center_low = bool(low_mask[np.searchsorted(members, center)])
    keep = low_mask if center_low else ~low_mask
    return Neighborhood(center=center, members=members[keep])


def build_neighborhood(ds: Dataset, center: int, spec: NeighborhoodSpec) -> Neighborhood:
    if spec.variant == "spatial":
        return spatial_neighborhood(ds, center, spec.radius_km)
    if spec.variant == "temporal":
        return temporal_neighborhood(ds, center, spec.radius_km, spec.year_half_width)
    return cluster_neighborhood(ds, center, spec.radius_km, spec.cluster_covariate)


def _ladder(ds: Dataset, center: int, spec: NeighborhoodSpec):
    """(source, candidate ids) of each rung, narrowest first."""
    yield "neighborhood", build_neighborhood(ds, center, spec).members
    month, year = int(ds.month[center]), int(ds.year[center])
    yield "slice", ds.rows(month, year, year)
    yield "month", ds.rows(month)


def fitting_sample(ds: Dataset, center: int, variable: str,
                   spec: NeighborhoodSpec) -> tuple[np.ndarray, str]:
    """Observed values of `variable` ("cnt" counts, "ba" burnt-area
    proportions) that the model of one index is fitted on, with the
    rung they came from: "neighborhood", "slice" or "month".

    A neighborhood with no observed member widens to the center's
    (month, year) slice, then to the same-month pool across years. The
    center itself is always left out: a predicted index's own value is
    missing anyway, and a CV surrogate must not see its own value.
    Prediction and cross-validation share this ladder, so every radius
    scores every CV pair. The sample is empty only when the month has
    no other observed value.
    """
    column = ds.cnt if variable == "cnt" else ds.bap
    for source, ids in _ladder(ds, center, spec):
        sample = column[ids[ids != center]]
        sample = sample[~np.isnan(sample)]
        if sample.size:
            break
    return sample, source
