"""Neighborhood construction for marginal pooling.

Three variants share the same spatial core (same month, great-circle
distance at most radius_km):

  * spatial  - same year only
  * temporal - years within +/- year_half_width of the center's year
  * cluster  - spatial members sharing the center's side of a two-way
               covariate split

Queries are stacked: one call answers a whole batch of centers. The
centers are grouped by grid cell, and each distinct cell is measured
against the cells that can lie within the radius, all in one haversine
call: the latitude band the radius allows (great-circle distance >= R
* |delta lat|), pruned to a longitude window (`_lon_bounds`). The cells
within the radius (the closed ball) then map through the slot rows of
each center's year window, and each center's ids are sorted ascending.
Batches are cut into blocks of at most QUERY_BLOCK entries, one
distance call each, so their temporaries stay bounded. A one-center
query (`build_neighborhood`, `fitting_sample` and the variant
functions) is a batch of one, so the query exists once.

`fitting_samples` is the one sampling ladder that prediction and
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

# A block of a stacked query holds at most this many (center, band
# cell, slice) entries, so that its temporaries stay near 2 MB each; a
# center whose band alone is larger forms a block of its own.
QUERY_BLOCK = 1 << 18


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


def _lon_bounds(ds: Dataset, radius_km: float, lat: np.ndarray,
                band_deg: float) -> np.ndarray:
    """Upper bound on |sin(delta lon / 2)| for a cell of the latitude
    band within radius_km of a center at `lat`: haversine's h <=
    sin^2(r / 2R) and h >= cos(phi0) cos(phi) sin^2(delta lon / 2),
    where both cosines are at least cos(|phi0| + band). A relative
    slack of 1e-9 covers rounding; past r = pi R, every longitude."""
    if radius_km >= math.pi * ds.radius_km:
        return np.full(lat.shape, np.inf)
    edge = np.radians(np.minimum(90.0, np.abs(lat) + band_deg))
    return math.sin(radius_km / (2.0 * ds.radius_km)) / np.cos(edge) * (1.0 + 1e-9)


def _per_center(owner: np.ndarray, values: np.ndarray, size: int) -> list:
    """values split by owner (ascending) into `size` arrays."""
    ends = np.cumsum(np.bincount(owner, minlength=size)).tolist()
    return [values[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _blocks(ds: Dataset, centers: np.ndarray, radius_km: float,
            year_half_width: int):
    """Yield (positions, owner, ids) per block of the batch: the
    neighborhoods (same month, years within +/- year_half_width,
    distance <= radius_km, center included) of centers[positions], as
    ids ascending within each owner, an index into positions. Owners
    ascend. Each block makes one distance call."""
    lat, lon = ds.lat[centers], ds.lon[centers]
    cell = np.searchsorted(ds.cell_lat + 1j * ds.cell_lon, lat + 1j * lon)
    band_deg = math.degrees(radius_km / ds.radius_km) + 1e-9
    lo = np.searchsorted(ds.cell_lat, lat - band_deg, side="left")
    hi = np.searchsorted(ds.cell_lat, lat + band_deg, side="right")
    bound = _lon_bounds(ds, radius_km, lat, band_deg)
    keys = np.array([m + 1j * y for m, y in ds.slice_keys])
    month, year = ds.month[centers], ds.year[centers]
    first = np.searchsorted(keys, month + 1j * (year - year_half_width), side="left")
    last = np.searchsorted(keys, month + 1j * (year + year_half_width), side="right")

    # centers of one cell share a block, and their distances
    order = np.argsort(cell, kind="stable")
    ends = np.cumsum(((hi - lo) * (last - first))[order])
    start = 0
    while start < order.size:
        limit = (ends[start - 1] if start else 0) + QUERY_BLOCK
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        pos = order[start:stop]
        start = stop

        distinct, one, of = np.unique(cell[pos], return_index=True,
                                      return_inverse=True)
        size = (hi - lo)[pos[one]]
        pair = np.repeat(np.arange(distinct.size), size)
        cand = np.arange(pair.size) + np.repeat(lo[pos[one]] - np.cumsum(size) + size, size)
        lon0, lat0 = ds.cell_lon[distinct], ds.cell_lat[distinct]
        # the delta lon that haversine_km computes, to the bit
        dlam = np.radians(ds.cell_lon[cand]) - np.radians(lon0)[pair]
        near = np.abs(np.sin(dlam / 2.0)) <= bound[pos[one]][pair]
        pair, cand = pair[near], cand[near]
        dist = haversine_km(lon0[pair], lat0[pair], ds.cell_lon[cand],
                            ds.cell_lat[cand], radius_km=ds.radius_km)
        inside = np.atleast_1d(dist <= radius_km)
        cand = cand[inside]
        count = np.bincount(pair[inside], minlength=distinct.size)

        # each center's member cells, through the slot rows of its window
        width, offset = count[of], (np.cumsum(count) - count)[of]
        entries = width * (last - first)[pos]
        owner = np.repeat(np.arange(pos.size), entries)
        k = np.arange(owner.size) - np.repeat(np.cumsum(entries) - entries, entries)
        w = width[owner]
        ids = ds.slots[first[pos][owner] + k // w, cand[offset[owner] + k % w]]
        present = ids >= 0
        key = np.sort(owner[present] * ds.n + ids[present])
        yield pos, key // ds.n, key % ds.n


def temporal_neighborhood(ds: Dataset, center: int, radius_km: float,
                          year_half_width: int) -> Neighborhood:
    """Same month, years within +/- year_half_width of the center's,
    distance <= radius_km (closed ball)."""
    _, _, members = next(_blocks(ds, np.array([center]), radius_km, year_half_width))
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


def _cluster_split(ds: Dataset, center: int, members: np.ndarray,
                   covariate: str) -> Neighborhood:
    """The spatial members on the center's side of the covariate split."""
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


def cluster_neighborhood(ds: Dataset, center: int, radius_km: float,
                         covariate: str) -> Neighborhood:
    """Keep the spatial members on the center's side of a covariate split.

    The covariate is standardized over the neighborhood and split into
    two groups by exact variance-minimizing bisection. Neighborhoods
    that cannot be split (size < 2 or constant covariate) are returned
    whole with the degenerate flag set.
    """
    members = spatial_neighborhood(ds, center, radius_km).members
    return _cluster_split(ds, center, members, covariate)


def build_neighborhood(ds: Dataset, center: int, spec: NeighborhoodSpec) -> Neighborhood:
    if spec.variant == "spatial":
        return spatial_neighborhood(ds, center, spec.radius_km)
    if spec.variant == "temporal":
        return temporal_neighborhood(ds, center, spec.radius_km, spec.year_half_width)
    return cluster_neighborhood(ds, center, spec.radius_km, spec.cluster_covariate)


def _widened(ds: Dataset, center: int, column: np.ndarray) -> tuple[np.ndarray, str]:
    """The center's sample from its (month, year) slice, or from the
    same-month pool when the slice has no observed value."""
    month, year = int(ds.month[center]), int(ds.year[center])
    for source in ("slice", "month"):
        ids = ds.rows(month, year, year) if source == "slice" else ds.rows(month)
        sample = column[ids[ids != center]]
        sample = sample[~np.isnan(sample)]
        if sample.size:
            break
    return sample, source


def fitting_samples(ds: Dataset, centers, variable: str,
                    spec: NeighborhoodSpec) -> list:
    """(sample, source) of each center, in order: the observed values
    of `variable` ("cnt" counts, "ba" burnt-area proportions) that its
    model is fitted on, and the rung they came from: "neighborhood",
    "slice" or "month".

    The neighborhoods of the whole batch come from one stacked query
    (module docstring). One with no observed member widens to the
    center's (month, year) slice, then to the same-month pool across
    years. The center itself is always left out: a predicted index's
    own value is missing anyway, and a CV surrogate must not see its
    own value. Prediction and cross-validation share this ladder, so
    every radius scores every CV pair. A sample is empty only when the
    month has no other observed value. Values keep the ascending id
    order of their rows.
    """
    column = ds.cnt if variable == "cnt" else ds.bap
    centers = np.asarray(centers, dtype=np.int64).reshape(-1)
    ky = spec.year_half_width if spec.variant == "temporal" else 0
    samples = [None] * centers.size
    for pos, owner, ids in _blocks(ds, centers, spec.radius_km, ky):
        if spec.variant == "cluster":
            kept = [_cluster_split(ds, c, members, spec.cluster_covariate).members
                    for c, members in zip(centers[pos].tolist(),
                                          _per_center(owner, ids, pos.size))]
            owner = np.repeat(np.arange(pos.size), [m.size for m in kept])
            ids = np.concatenate(kept)
        other = ids != centers[pos][owner]
        owner, values = owner[other], column[ids[other]]
        observed = ~np.isnan(values)
        for p, sample in zip(pos.tolist(), _per_center(owner[observed], values[observed],
                                                       pos.size)):
            samples[p] = sample
    return [(sample, "neighborhood") if sample.size else _widened(ds, center, column)
            for center, sample in zip(centers.tolist(), samples)]


def fitting_sample(ds: Dataset, center: int, variable: str,
                   spec: NeighborhoodSpec) -> tuple[np.ndarray, str]:
    """`fitting_samples` of one center."""
    return fitting_samples(ds, [center], variable, spec)[0]
