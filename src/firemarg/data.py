"""Dataset representation, default threshold grids, and CSV ingestion.

A Dataset holds one row per (grid cell, month, year) as parallel numpy
columns. Counts and burnt areas use NaN for missing; everything else is
required. Derived geometry (cell areas, burnt-area capacity, burnt-area
proportion) and the cell grid are computed once at construction, after
which the object is read-only and safe to share across worker processes.

The cell grid says which rows share a cell (lon, lat), a slice (month,
year) or a month; `Dataset.rows` reads whole slices and months from
it. It holds the cells sorted by latitude, the slices in (month, year)
order and a dense slot array, (slice, cell) -> row id or -1 where the
cell is absent. That assumes a complete grid, where every slice repeats
the same cells (the EVA table has exactly one slot per row); scattered
points would not.

`ingest` reads a data file column-wise: the header with the csv module,
then the whole numeric body in one np.loadtxt call, comma-separated
with '"' quoting. An empty or "NA" value (surrounding whitespace
ignored) marks a missing count or burnt area; no other column may be
missing. Rows are validated as arrays afterwards; only a file that
fails to parse is re-read row by row, to name the faulty line.
"""

from __future__ import annotations

import csv
import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, IngestError
from .geo import ACRES_PER_KM2, BAP_CLAMP_RTOL, EARTH_RADIUS_KM, zone_area_km2

N_LAND_COVER = 18

DEFAULT_MONTH_RANGE = (3, 9)
DEFAULT_YEAR_RANGE = (1993, 2015)


def default_cnt_thresholds() -> np.ndarray:
    """Count thresholds: 0..9, then 10..30 by 2, then 40..100 by 10."""
    return np.concatenate([
        np.arange(0, 10),
        np.arange(10, 31, 2),
        np.arange(40, 101, 10),
    ]).astype(float)


def default_ba_thresholds() -> np.ndarray:
    """Burnt-area thresholds from 0 to 100000 (in BA units, e.g. acres)."""
    return np.array([
        0, 1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100,
        150, 200, 250, 300, 400, 500, 1000, 1500, 2000,
        5000, 10000, 20000, 30000, 40000, 50000, 100000,
    ], dtype=float)


@dataclass(frozen=True)
class Dataset:
    lon: np.ndarray
    lat: np.ndarray
    month: np.ndarray
    year: np.ndarray
    area_fraction: np.ndarray
    cnt: np.ndarray            # float with NaN = missing
    ba: np.ndarray             # float with NaN = missing
    land_cover: np.ndarray     # (n, 18)
    climate: np.ndarray        # (n, n_climate)
    climate_names: tuple[str, ...]
    altitude: np.ndarray
    cnt_thresholds: np.ndarray
    ba_thresholds: np.ndarray
    radius_km: float
    unit_scale: float
    lon_width: float
    lat_height: float
    # derived at build time
    total_area: np.ndarray = field(repr=False, default=None)
    true_area: np.ndarray = field(repr=False, default=None)
    capacity: np.ndarray = field(repr=False, default=None)
    bap: np.ndarray = field(repr=False, default=None)
    cnt_missing: np.ndarray = field(repr=False, default=None)
    ba_missing: np.ndarray = field(repr=False, default=None)
    cell_lat: np.ndarray = field(repr=False, default=None)   # ascending
    cell_lon: np.ndarray = field(repr=False, default=None)
    slice_keys: tuple = field(repr=False, default=None)       # (month, year), ascending
    slots: np.ndarray = field(repr=False, default=None)       # (slice, cell) -> row

    @property
    def n(self) -> int:
        return self.lon.size

    def rows(self, month, first_year=-math.inf, last_year=math.inf) -> np.ndarray:
        """Ascending ids of the rows in every (month, year) slice with
        first_year <= year <= last_year; a cell absent from a slice adds
        no row."""
        lo = bisect_left(self.slice_keys, (month, first_year))
        hi = bisect_right(self.slice_keys, (month, last_year))
        ids = self.slots[lo:hi]
        return np.sort(ids[ids >= 0])

    def covariate(self, name: str) -> np.ndarray:
        """Resolve a covariate column by name: climate names, altitude,
        or lc1..lc18."""
        if name == "altitude":
            return self.altitude
        if name in self.climate_names:
            return self.climate[:, self.climate_names.index(name)]
        if name.startswith("lc"):
            k = int(name[2:])
            if 1 <= k <= N_LAND_COVER:
                return self.land_cover[:, k - 1]
        raise DataError(f"unknown covariate {name!r}")


def build_dataset(lon, lat, month, year, area_fraction, cnt, ba, land_cover,
                  climate, altitude, climate_names=(),
                  cnt_thresholds=None, ba_thresholds=None,
                  radius_km: float = EARTH_RADIUS_KM,
                  unit_scale: float = ACRES_PER_KM2,
                  lon_width: float = 0.5, lat_height: float = 0.5,
                  month_range=DEFAULT_MONTH_RANGE,
                  year_range=DEFAULT_YEAR_RANGE) -> Dataset:
    """Assemble and validate a Dataset from parallel columns."""
    month = np.asarray(month, dtype=float)
    year = np.asarray(year, dtype=float)
    for name, col, (lo, hi) in (("month", month, month_range),
                                ("year", year, year_range)):
        # a plain int64 cast would read month 6.5 as 6; NaN fails every comparison
        bad = ~((col >= lo) & (col <= hi) & (col == np.floor(col)))
        if np.any(bad):
            raise DataError(f"{name} must be a whole number in [{lo}, {hi}] "
                            f"at index {int(np.argmax(bad))}")
    month, year = month.astype(np.int64), year.astype(np.int64)
    lon = np.asarray(lon, dtype=float)
    n = lon.size
    lat = np.asarray(lat, dtype=float)
    area_fraction = np.asarray(area_fraction, dtype=float)
    cnt = np.asarray(cnt, dtype=float)
    ba = np.asarray(ba, dtype=float)
    land_cover = np.asarray(land_cover, dtype=float).reshape(n, -1)
    climate = np.asarray(climate, dtype=float).reshape(n, -1)
    altitude = np.asarray(altitude, dtype=float)
    climate_names = tuple(climate_names) if climate_names else tuple(
        f"clim{k + 1}" for k in range(climate.shape[1]))

    for name, col in (("lat", lat), ("month", month), ("year", year),
                      ("area", area_fraction), ("cnt", cnt), ("ba", ba),
                      ("altitude", altitude)):
        if col.shape != (n,):
            raise DataError(f"column {name} has shape {col.shape}, expected ({n},)")
    if land_cover.shape != (n, N_LAND_COVER):
        raise DataError(f"land cover must have {N_LAND_COVER} columns")
    if len(climate_names) != climate.shape[1]:
        raise DataError("climate names do not match climate columns")

    if not (np.all(np.isfinite(lon)) and np.all(np.isfinite(lat))):
        raise DataError("non-finite coordinate")
    bad = ~((area_fraction > 0.0) & (area_fraction <= 1.0))
    if np.any(bad):
        raise DataError(f"area fraction outside (0,1] at index {int(np.argmax(bad))}")
    observed_cnt = ~np.isnan(cnt)
    if np.any((cnt[observed_cnt] < 0) | (cnt[observed_cnt] != np.floor(cnt[observed_cnt]))):
        raise DataError("counts must be nonnegative integers or missing")
    observed_ba = ~np.isnan(ba)
    if np.any(ba[observed_ba] < 0):
        raise DataError("burnt area must be nonnegative or missing")
    # write_csv would write NaN as NA, which ingest rejects; +-inf round-trips
    lc_names = tuple(f"lc{k}" for k in range(1, N_LAND_COVER + 1))
    for names, values in ((("altitude",), altitude[:, None]), (lc_names, land_cover),
                          (climate_names, climate)):
        nan = np.isnan(values)
        if np.any(nan):
            i, k = np.argwhere(nan)[0]
            raise DataError(f"column {names[k]} may not be missing (NaN) at index {i}")
    if not np.all((land_cover >= 0) & (land_cover <= 1)):
        raise DataError("land-cover fractions must lie in [0,1]")

    cnt_t = default_cnt_thresholds() if cnt_thresholds is None else np.asarray(cnt_thresholds, float)
    ba_t = default_ba_thresholds() if ba_thresholds is None else np.asarray(ba_thresholds, float)
    for grid, label in ((cnt_t, "cnt"), (ba_t, "ba")):
        if not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
            raise DataError(f"{label} thresholds must be finite and strictly increasing")
    # a count grid may start below 0 (the CDF is 0 there), but burnt-area
    # thresholds are rescaled to proportions, which are never negative
    if np.any(ba_t < 0):
        raise DataError(f"burnt-area threshold grid must be nonnegative, got {ba_t[0]:g}")

    # the cell grid; a complex key orders and compares as its pair, and
    # sorts several times faster than np.unique(..., axis=0) on two columns
    cells, cell_of = np.unique(lat + 1j * lon, return_inverse=True)
    slices, slice_of = np.unique(month + 1j * year, return_inverse=True)
    slots = np.full((slices.size, cells.size), -1, dtype=np.int64)
    slots[slice_of, cell_of] = np.arange(n)
    if np.count_nonzero(slots >= 0) < n:
        _, first, key = np.unique(slice_of * cells.size + cell_of,
                                  return_index=True, return_inverse=True)
        i = int(np.argmax(first[key] != np.arange(n)))
        raise DataError(f"repeated (lon, lat, month, year) key at index {i}, "
                        f"first seen at index {first[key[i]]}")
    total_area = np.array([
        zone_area_km2(c.imag, c.real, lon_width, lat_height, radius_km)
        for c in cells.tolist()])[cell_of]
    true_area = total_area * area_fraction
    capacity = true_area * unit_scale

    bap = np.full(n, np.nan)
    bap[observed_ba] = ba[observed_ba] / capacity[observed_ba]
    over = observed_ba & (bap > 1.0 + BAP_CLAMP_RTOL)
    if np.any(over):
        i = int(np.argmax(over))
        raise DataError(
            f"burnt area exceeds cell capacity at index {i}: "
            f"{ba[i]} > {capacity[i]:.6g}")
    np.clip(bap, None, 1.0, out=bap)

    ds = Dataset(
        lon=lon, lat=lat, month=month, year=year, area_fraction=area_fraction,
        cnt=cnt, ba=ba, land_cover=land_cover, climate=climate,
        climate_names=climate_names, altitude=altitude,
        cnt_thresholds=cnt_t, ba_thresholds=ba_t,
        radius_km=radius_km, unit_scale=unit_scale,
        lon_width=lon_width, lat_height=lat_height,
        total_area=total_area, true_area=true_area, capacity=capacity,
        bap=bap,
        cnt_missing=np.flatnonzero(np.isnan(cnt)),
        ba_missing=np.flatnonzero(np.isnan(ba)),
        cell_lat=cells.real.copy(), cell_lon=cells.imag.copy(),
        slice_keys=tuple((int(k.real), int(k.imag)) for k in slices.tolist()),
        slots=slots,
    )
    for arr in (ds.lon, ds.lat, ds.month, ds.year, ds.area_fraction, ds.cnt,
                ds.ba, ds.land_cover, ds.climate, ds.altitude, ds.total_area,
                ds.true_area, ds.capacity, ds.bap, ds.cell_lat, ds.cell_lon,
                ds.slots):
        arr.setflags(write=False)
    return ds


# Canonical column names: the data file's header must carry each of them.
BASE_COLUMNS = ("lon", "lat", "month", "year", "area", "cnt", "ba", "altitude")
MISSING_TOKENS = {"", "NA"}
WRITE_BLOCK = 4096         # rows formatted per write by write_csv


def _to_float(raw: str) -> float:
    """float(raw) on a stripped token, accepting what np.loadtxt accepts:
    float() alone also reads digit-group underscores ("1_0") and
    non-ASCII digits, which the body parser rejects."""
    if "_" in raw or not raw.isascii():
        raise ValueError(raw)
    return float(raw)


def _missing_as_nan(raw: str) -> float:
    """np.loadtxt converter of the cnt and ba columns."""
    raw = raw.strip()
    return math.nan if raw in MISSING_TOKENS else _to_float(raw)


def _ignored(raw: str) -> float:
    """np.loadtxt converter of a column ingest does not read."""
    return 0.0


def _parse_value(raw: str, column: str, line: int) -> float:
    raw = raw.strip()
    if raw in MISSING_TOKENS:
        if column in ("cnt", "ba"):
            return math.nan
        raise IngestError(f"column {column} may not be missing", row=line)
    try:
        return _to_float(raw)
    except ValueError:
        raise IngestError(f"cannot parse {column}={raw!r}", row=line) from None


def _records(fh):
    """(file line, fields) of each data row as the csv module splits the
    file, blank lines skipped: how the error paths number rows."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader, None)
    for fields in reader:
        if fields:
            yield reader.line_num, fields


def _check_rows(values: np.ndarray, col: dict, lines) -> None:
    """Raise at the first row that repeats an earlier row's (lon, lat,
    month, year) key or has an area fraction that is not positive; the
    key is checked first. `col` maps a column name to its column of
    `values`, and `lines()` gives the file line of each row."""
    key = values[:, [col[name] for name in ("lon", "lat", "month", "year")]]
    order = np.lexsort(key.T)      # stable: equal keys adjacent, in row order
    repeats = order[1:][np.all(key[order[1:]] == key[order[:-1]], axis=1)]
    bad_area = np.flatnonzero(~(values[:, col["area"]] > 0.0))
    if not (repeats.size or bad_area.size):
        return
    lines = lines()
    n = values.shape[0]
    row = min(repeats.min(initial=n), bad_area.min(initial=n))
    if repeats.size and repeats.min() == row:
        first = int(np.flatnonzero(np.all(key == key[row], axis=1))[0])
        raise IngestError(
            f"duplicate (lon, lat, month, year) key {tuple(key[row].tolist())}, "
            f"first seen at row {lines[first]}", row=lines[row])
    raise IngestError(
        f"area fraction must be positive, got {values[row, col['area']].item()}",
        row=lines[row])


def _first_fault(fh, names: list, col: dict, width: int) -> IngestError | None:
    """Error path, once np.loadtxt has rejected the body: the fault at the
    earliest file line, found row by row with `_parse_value` and then
    raised by `_check_rows` when an earlier row repeats a key or has a
    bad area. None when no row is at fault."""
    rows, lines = [], []
    for line, fields in _records(fh):
        try:
            if len(fields) != width:
                raise IngestError("wrong number of fields", row=line)
            rows.append([_parse_value(fields[col[name]], name, line)
                         for name in names])
        except IngestError as fault:
            _check_rows(np.array(rows).reshape(len(rows), len(names)),
                        {name: k for k, name in enumerate(names)},
                        lambda: lines)
            return fault
        lines.append(line)
    return None


def ingest(path, **dataset_kwargs) -> Dataset:
    """Read a CSV into a Dataset.

    The header, read with the csv module, names the canonical columns
    (lon, lat, month, year, area, cnt, ba, lc1..lc18, altitude); climate
    covariates are every other column starting with "clim", and any
    further column is ignored. Where a name repeats, its last column
    counts. The body is parsed in one np.loadtxt call: fields split at
    commas, '"' quotes a field, blank lines are skipped, and each value
    is a float literal, surrounding whitespace ignored. A cnt or ba
    value that is empty or "NA" is missing (NaN); every other column is
    required. A row with the wrong number of fields, a missing or
    unparseable value, a (lon, lat, month, year) key seen on an earlier
    row or an area fraction that is not positive raises IngestError at
    the earliest such row, numbered by its 1-based file line (the header
    is line 1).
    """
    lc_names = [f"lc{k}" for k in range(1, N_LAND_COVER + 1)]
    required = list(BASE_COLUMNS) + lc_names
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}") from exc
    with fh:
        first_line = fh.readline()
        if not first_line:
            raise IngestError("empty file")
        header = next(csv.reader([first_line]))
        missing_headers = set(required) - set(header)
        if missing_headers:
            raise IngestError(f"missing columns: {sorted(missing_headers)}")
        climate_cols = [h for h in header
                        if h not in required and h.startswith("clim")]
        names = list(dict.fromkeys(required + climate_cols))
        col = {name: k for k, name in enumerate(header)}
        width = len(header)
        converters = {k: _ignored for k in
                      set(range(width)) - {col[name] for name in names}}
        converters[col["cnt"]] = converters[col["ba"]] = _missing_as_nan
        try:
            with warnings.catch_warnings():
                # a body without rows is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(fh, delimiter=",", quotechar='"',
                                    comments=None, ndmin=2,
                                    converters=converters)
        except ValueError as exc:
            fault = _first_fault(fh, names, col, width)
            raise fault or IngestError(f"cannot parse {path}: {exc}") from None
        if values.shape[0] == 0:
            raise IngestError("no data rows")
        # np.loadtxt checks that rows agree with each other, not with the header
        if values.shape[1] != width:
            raise IngestError("wrong number of fields", row=next(_records(fh))[0])
        _check_rows(values, col, lambda: [line for line, _ in _records(fh)])

    columns = {name: values[:, col[name]].copy() for name in BASE_COLUMNS}
    try:
        return build_dataset(
            lon=columns["lon"], lat=columns["lat"],
            month=columns["month"], year=columns["year"],
            area_fraction=columns["area"], cnt=columns["cnt"], ba=columns["ba"],
            land_cover=values[:, [col[name] for name in lc_names]],
            climate=values[:, [col[c] for c in climate_cols]],
            altitude=columns["altitude"], climate_names=tuple(climate_cols),
            **dataset_kwargs)
    except DataError as exc:
        raise IngestError(str(exc)) from exc


def write_csv(dataset: Dataset, path) -> None:
    """Export a Dataset in the canonical column layout (round-trippable).

    The bytes are those of csv.writer given each value as f"{x:.17g}",
    or "NA" for NaN. The header goes through csv.writer, since a climate
    name may need quoting; no numeric field does, so each row is one
    %-format of a line template ('%.17g' % x == f"{x:.17g}"), written a
    block of rows at a time, with the "nan" it gives for NaN made "NA".
    """
    lc_names = [f"lc{k}" for k in range(1, N_LAND_COVER + 1)]
    header = list(BASE_COLUMNS) + lc_names + list(dataset.climate_names)
    line = "%.17g,%.17g,%d,%d" + ",%.17g" * (len(header) - 4) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, dataset.n, WRITE_BLOCK):
            s = slice(lo, lo + WRITE_BLOCK)
            block = np.column_stack((
                dataset.lon[s], dataset.lat[s], dataset.month[s],
                dataset.year[s], dataset.area_fraction[s], dataset.cnt[s],
                dataset.ba[s], dataset.altitude[s], dataset.land_cover[s],
                dataset.climate[s]))
            text = "".join([line % row for row in zip(*block.T.tolist())])
            fh.write(text.replace("nan", "NA"))


@dataclass(frozen=True)
class PredictionTable:
    """Predicted CDF rows for the missing indices of one variable."""

    variable: str              # "cnt" or "ba"
    indices: np.ndarray        # missing observation ids, ascending
    thresholds: np.ndarray
    rows: np.ndarray           # (len(indices), len(thresholds))

    def __post_init__(self):
        if self.rows.shape != (self.indices.size, self.thresholds.size):
            raise DataError("prediction table shape mismatch")

    def row_for(self, index: int) -> np.ndarray:
        pos = np.searchsorted(self.indices, index)
        if pos >= self.indices.size or self.indices[pos] != index:
            raise DataError(f"index {index} not in table")
        return self.rows[pos]
