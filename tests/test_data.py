"""Dataset construction, thresholds, and CSV ingestion tests."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from firemarg import data
from firemarg.data import (
    BASE_COLUMNS,
    N_LAND_COVER,
    build_dataset,
    default_ba_thresholds,
    default_cnt_thresholds,
    ingest,
    write_csv,
    PredictionTable,
)
from firemarg.errors import DataError, IngestError
from firemarg.geo import zone_area_km2
from firemarg.synth import SyntheticSpec, generate

from conftest import make_grid_columns


class TestThresholds:
    def test_cnt_grid(self):
        t = default_cnt_thresholds()
        assert t.size == 28
        expected = list(range(10)) + list(range(10, 31, 2)) + list(range(40, 101, 10))
        assert t.tolist() == [float(v) for v in expected]
        assert 12.0 in t and 11.0 not in t

    def test_ba_grid(self):
        t = default_ba_thresholds()
        assert t.size == 28
        assert t[0] == 0.0 and t[1] == 1.0 and t[-1] == 100000.0
        assert {150.0, 250.0, 1500.0, 5000.0, 50000.0} <= set(t.tolist())

    def test_strictly_increasing(self):
        assert np.all(np.diff(default_cnt_thresholds()) > 0)
        assert np.all(np.diff(default_ba_thresholds()) > 0)


class TestBuildDataset:
    def test_derived_geometry(self, grid_ds):
        i = 17
        area = zone_area_km2(grid_ds.lon[i], grid_ds.lat[i], 0.5, 0.5)
        assert grid_ds.total_area[i] == pytest.approx(area, rel=1e-14)
        assert grid_ds.true_area[i] == pytest.approx(area * grid_ds.area_fraction[i])
        assert grid_ds.capacity[i] == pytest.approx(grid_ds.true_area[i] * grid_ds.unit_scale)
        assert grid_ds.bap[i] == pytest.approx(grid_ds.ba[i] / grid_ds.capacity[i])

    def test_missing_masks(self):
        cols = make_grid_columns(cnt_missing_frac=0.2, ba_missing_frac=0.15, seed=3)
        ds = build_dataset(**cols)
        np.testing.assert_array_equal(ds.cnt_missing, np.flatnonzero(np.isnan(ds.cnt)))
        np.testing.assert_array_equal(ds.ba_missing, np.flatnonzero(np.isnan(ds.ba)))
        assert ds.cnt_missing.size > 0 and ds.ba_missing.size > 0

    def test_immutable(self, grid_ds):
        with pytest.raises(ValueError):
            grid_ds.cnt[0] = 5.0

    def test_rejects_bad_month(self):
        cols = make_grid_columns()
        cols["month"] = np.full_like(cols["month"], 12)
        with pytest.raises(DataError, match="month"):
            build_dataset(**cols)

    def test_rejects_fractional_month_and_year(self):
        # a plain integer cast would read month 6.5 as 6
        for name, bad in (("month", 6.5), ("year", 2000.25), ("month", np.nan)):
            cols = make_grid_columns()
            cols[name] = np.asarray(cols[name], dtype=float)
            cols[name][3] = bad
            with pytest.raises(DataError, match=f"{name} must be a whole number"):
                build_dataset(**cols)

    def test_rejects_non_finite_thresholds(self):
        # np.diff(grid) <= 0 is False at NaN, so a NaN grid passed that test
        for grid in ({"ba_thresholds": [0.0, np.nan, 10.0]},
                     {"cnt_thresholds": [0.0, 1.0, np.inf]},
                     {"cnt_thresholds": [-np.inf, 0.0, 1.0]}):
            with pytest.raises(DataError, match="finite and strictly increasing"):
                build_dataset(**make_grid_columns(), **grid)

    def test_rejects_negative_burnt_area_thresholds(self):
        # a proportion is never negative, so the run would fail later
        # in tune or predict, naming no setting
        with pytest.raises(DataError, match="burnt-area threshold grid"):
            build_dataset(**make_grid_columns(), ba_thresholds=[-1.0, 0.0, 10.0, 100.0])
        # a count CDF is 0 below zero, so a count grid may start there
        ds = build_dataset(**make_grid_columns(), cnt_thresholds=[-1.0, 0.0, 1.0])
        assert ds.cnt_thresholds[0] == -1.0

    def test_rejects_fractional_count(self):
        cols = make_grid_columns()
        cols["cnt"][0] = 2.5
        with pytest.raises(DataError, match="integer"):
            build_dataset(**cols)

    def test_rejects_overflowing_ba(self):
        cols = make_grid_columns()
        cols["ba"][3] = 1e12
        with pytest.raises(DataError, match="capacity"):
            build_dataset(**cols)

    def test_rejects_bad_area_fraction(self):
        cols = make_grid_columns()
        cols["area_fraction"][5] = 0.0
        with pytest.raises(DataError, match="area fraction"):
            build_dataset(**cols)

    def test_covariate_lookup(self, grid_ds):
        np.testing.assert_array_equal(grid_ds.covariate("altitude"), grid_ds.altitude)
        np.testing.assert_array_equal(grid_ds.covariate("clim_temp"),
                                      grid_ds.climate[:, 0])
        np.testing.assert_array_equal(grid_ds.covariate("lc18"),
                                      grid_ds.land_cover[:, 17])
        with pytest.raises(DataError):
            grid_ds.covariate("nope")

    def test_grid_holds_every_row_once(self, grid_ds):
        slotted = np.sort(grid_ds.slots[grid_ds.slots >= 0])
        assert slotted.tolist() == list(range(grid_ds.n))
        assert grid_ds.rows(6).tolist() == list(range(grid_ds.n))

    def test_rejects_repeated_key(self):
        # a slot holds one row: the repeated row would vanish from the grid
        cols = make_grid_columns(nx=3, ny=3)
        cols = {k: (np.concatenate([v, v[4:5]]) if isinstance(v, np.ndarray) else v)
                for k, v in cols.items()}
        with pytest.raises(DataError, match="repeated [(]lon, lat, month, year[)] "
                                            "key at index 9, first seen at index 4"):
            build_dataset(**cols)


HEADER = ("lon,lat,month,year,area,cnt,ba,altitude,"
          + ",".join(f"lc{k}" for k in range(1, 19)) + ",clim_t")
LC = ",".join(["0.01"] * 18)


def _write(tmp_path, rows):
    path = tmp_path / "data.csv"
    path.write_text("\n".join([HEADER] + rows) + "\n")
    return path


class TestIngest:
    def test_missing_cnt_counted(self, tmp_path):
        rows = [
            f"-100.25,40.25,6,2000,0.9,3,120.5,800,{LC},14.2",
            f"-100.25,40.75,6,2000,0.9,,0,650,{LC},13.1",
            f"-99.75,40.25,6,2000,1.0,NA,55,700,{LC},15.0",
        ]
        ds = ingest(_write(tmp_path, rows))
        assert ds.n == 3
        assert ds.cnt_missing.tolist() == [1, 2]
        assert ds.ba_missing.size == 0
        assert ds.climate_names == ("clim_t",)

    def test_zero_area_rejected_with_row(self, tmp_path):
        rows = [
            f"-100.25,40.25,6,2000,0.9,3,120.5,800,{LC},14.2",
            f"-100.25,40.75,6,2000,0,1,0,650,{LC},13.1",
        ]
        with pytest.raises(IngestError, match="row 3"):
            ingest(_write(tmp_path, rows))

    def test_duplicate_key_rejected(self, tmp_path):
        row = f"-100.25,40.25,6,2000,0.9,3,120.5,800,{LC},14.2"
        with pytest.raises(IngestError, match="duplicate"):
            ingest(_write(tmp_path, [row, row]))

    def test_unparseable_value_names_row(self, tmp_path):
        rows = [f"-100.25,40.25,6,2000,0.9,x,120.5,800,{LC},14.2"]
        with pytest.raises(IngestError, match="row 2"):
            ingest(_write(tmp_path, rows))

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("lon,lat\n1,2\n")
        with pytest.raises(IngestError, match="missing columns"):
            ingest(path)

    def test_missing_coordinate_rejected(self, tmp_path):
        rows = [f",40.25,6,2000,0.9,3,120.5,800,{LC},14.2"]
        with pytest.raises(IngestError, match="lon"):
            ingest(_write(tmp_path, rows))

    def test_fractional_month_rejected(self, tmp_path):
        rows = [f"-100.25,40.25,6.5,2000,0.9,3,120.5,800,{LC},14.2"]
        with pytest.raises(IngestError, match="month must be a whole number in"):
            ingest(_write(tmp_path, rows))

    def test_round_trip(self, tmp_path):
        cols = make_grid_columns(nx=4, ny=4, cnt_missing_frac=0.2,
                                 ba_missing_frac=0.2, seed=5)
        original = build_dataset(**cols)
        path = tmp_path / "export.csv"
        write_csv(original, path)
        again = ingest(path)
        np.testing.assert_array_equal(original.lon, again.lon)
        np.testing.assert_array_equal(original.cnt, again.cnt)
        np.testing.assert_array_equal(original.ba, again.ba)
        np.testing.assert_array_equal(original.land_cover, again.land_cover)
        np.testing.assert_array_equal(original.climate, again.climate)
        np.testing.assert_array_equal(original.cnt_missing, again.cnt_missing)
        np.testing.assert_array_equal(original.ba_missing, again.ba_missing)


def test_prediction_table_lookup():
    table = PredictionTable(
        variable="cnt", indices=np.array([2, 5, 9]),
        thresholds=np.array([0.0, 1.0]),
        rows=np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]))
    np.testing.assert_allclose(table.row_for(5), [0.3, 0.4])
    with pytest.raises(DataError):
        table.row_for(4)
    with pytest.raises(DataError):
        PredictionTable(variable="cnt", indices=np.array([1]),
                        thresholds=np.array([0.0]), rows=np.zeros((2, 1)))


def reference_ingest(path, **dataset_kwargs):
    """The row-by-row reader `ingest` replaced: csv.DictReader, one
    float() per value and a dict of seen keys. Kept as the reference
    that the columnar reader must match bit for bit."""
    def parse(raw, column, line):
        raw = raw.strip()
        if raw in ("", "NA"):
            if column in ("cnt", "ba"):
                return math.nan
            raise IngestError(f"column {column} may not be missing", row=line)
        try:
            return float(raw)
        except ValueError:
            raise IngestError(f"cannot parse {column}={raw!r}", row=line) from None

    columns = {name: [] for name in BASE_COLUMNS}
    lc_names = [f"lc{k}" for k in range(1, N_LAND_COVER + 1)]
    for name in lc_names:
        columns[name] = []
    seen_keys: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestError("empty file")
        missing_headers = set(columns) - set(reader.fieldnames)
        if missing_headers:
            raise IngestError(f"missing columns: {sorted(missing_headers)}")
        climate_cols = [h for h in reader.fieldnames
                        if h not in columns and h.startswith("clim")]
        for name in climate_cols:
            columns[name] = []
        for record in reader:
            line = reader.line_num
            if None in record or any(v is None for v in record.values()):
                raise IngestError("wrong number of fields", row=line)
            for name in columns:
                columns[name].append(parse(record[name], name, line))
            key = (columns["lon"][-1], columns["lat"][-1],
                   columns["month"][-1], columns["year"][-1])
            if key in seen_keys:
                raise IngestError(
                    f"duplicate (lon, lat, month, year) key {key}, "
                    f"first seen at row {seen_keys[key]}", row=line)
            seen_keys[key] = line
            if not (columns["area"][-1] > 0.0):
                raise IngestError(
                    f"area fraction must be positive, got {columns['area'][-1]}",
                    row=line)
    if not columns["lon"]:
        raise IngestError("no data rows")
    n = len(columns["lon"])
    climate = (np.column_stack([columns[c] for c in climate_cols])
               if climate_cols else np.empty((n, 0)))
    try:
        return build_dataset(
            lon=columns["lon"], lat=columns["lat"], month=columns["month"],
            year=columns["year"], area_fraction=columns["area"],
            cnt=columns["cnt"], ba=columns["ba"],
            land_cover=np.column_stack([columns[name] for name in lc_names]),
            climate=climate, altitude=columns["altitude"],
            climate_names=tuple(climate_cols), **dataset_kwargs)
    except DataError as exc:
        raise IngestError(str(exc)) from exc


def assert_same_dataset(new, ref):
    """Every array of two Datasets equal bit for bit, with its dtype and
    shape, and every other field equal."""
    for f in dataclasses.fields(new):
        a, b = getattr(new, f.name), getattr(ref, f.name)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def _ingest_both(path):
    """(ingest, reference_ingest) of one file: Datasets, or the messages
    of the IngestErrors they raise."""
    results = []
    for reader in (ingest, reference_ingest):
        try:
            results.append(reader(path))
        except IngestError as exc:
            results.append(str(exc))
    return results


# scenes shaped like the benchmark's workloads, at a tenth of their size
@pytest.mark.parametrize("spec", [
    SyntheticSpec(nx=8, ny=6, months=(6,), years=(2000, 2001),
                  cnt_missing_rate=0.14, ba_missing_rate=0.14,
                  mask_blob_cells=0.4),
    SyntheticSpec(nx=9, ny=6, lon0=-125.0, lat0=25.0,
                  months=tuple(range(3, 10)), years=(2000,),
                  cnt_missing_rate=0.14, ba_missing_rate=0.14,
                  water_frac=0.03, small_area_frac=0.02),
])
def test_ingest_matches_the_row_reader_on_synthetic_scenes(tmp_path, spec):
    ds, _ = generate(spec, seed=11)
    path = tmp_path / "scene.csv"
    write_csv(ds, path)
    new, ref = _ingest_both(path)
    assert_same_dataset(new, ref)
    assert_same_dataset(new, ds)


def _reference_write_csv(dataset, path):
    """The row-by-row csv.writer export that `write_csv` replaced."""
    lc_names = [f"lc{k}" for k in range(1, N_LAND_COVER + 1)]
    header = list(BASE_COLUMNS) + lc_names + list(dataset.climate_names)

    def fmt(x):
        return "NA" if isinstance(x, float) and math.isnan(x) else f"{x:.17g}"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [fmt(float(dataset.lon[i])), fmt(float(dataset.lat[i])),
                   int(dataset.month[i]), int(dataset.year[i]),
                   fmt(float(dataset.area_fraction[i])),
                   fmt(float(dataset.cnt[i])), fmt(float(dataset.ba[i])),
                   fmt(float(dataset.altitude[i]))]
            row += [fmt(float(v)) for v in dataset.land_cover[i]]
            row += [fmt(float(v)) for v in dataset.climate[i]]
            writer.writerow(row)


def test_write_csv_bytes_match_csv_writer(tmp_path, monkeypatch):
    """NaN counts and burnt areas (and a NaN or infinite covariate, which
    build_dataset lets through), -0.0, a subnormal, whole-number floats
    and a climate name that needs quoting, over blocks of 3 rows with a
    short last block."""
    monkeypatch.setattr(data, "WRITE_BLOCK", 3)
    cols = make_grid_columns(nx=4, ny=2, years=(2000, 2001),
                             cnt_missing_frac=0.3, ba_missing_frac=0.3, seed=9)
    cols["cnt"][[0, 5]] = np.nan
    cols["ba"][[0, 6]] = np.nan
    cols["lon"][1] = -0.0
    cols["altitude"][:4] = [-0.0, 800.0, 2.0 ** -1074, 1e300]
    cols["land_cover"][2, :3] = [2.0 ** -1074, 0.0, 1.0]
    cols["climate"][3] = [np.nan, np.inf]
    cols["climate"][4] = [14.0, -np.inf]
    cols["climate_names"] = ("clim_temp", 'clim "wet, or not"')
    ds = build_dataset(**cols)
    assert ds.n == 16
    path, ref = tmp_path / "scene.csv", tmp_path / "ref.csv"
    write_csv(ds, path)
    _reference_write_csv(ds, ref)
    assert path.read_bytes() == ref.read_bytes()
    assert b'"clim ""wet, or not"""\r\n' in path.read_bytes()
    assert path.read_bytes().count(b",NA") >= 4


def _hand_file(tmp_path, header, rows, newline="\n"):
    path = tmp_path / "hand.csv"
    path.write_bytes(newline.join([header] + rows).encode() + newline.encode())
    return path


LC_HEAD = ",".join(f"lc{k}" for k in range(1, 19))


@pytest.mark.parametrize("header, rows, newline", [
    # missing tokens, padded and quoted, and quoted numbers
    (HEADER, [
        f'-100.25,40.25,6,2000,0.9,"",NA,800,{LC},14.2',
        f'-100.25,40.75,6,2000,0.9, NA ,"NA",650,{LC},13.1',
        f'"-99.75", 40.25 ,6,"2000",\t1.0\t,,"",700,{LC},"1e1"',
        f'-99.75,40.75,6,2000," 0.5 ",  7 ," 12.5",-3,{LC}, 15 ',
    ], "\n"),
    # climate columns first and between the others, extra columns with
    # text, a quoted comma and numbers ignored; CRLF and a blank line
    ("clim_a,lon,lat,id,month,year,area,cnt,ba,clim_b,altitude,note,"
     + LC_HEAD + ",xclim", [
        f'1.5,-100.25,40.25,abc,6,2000,0.9,3,120.5,-2,800,"x, y",{LC},zz',
        "",
        f'2.5,-100.25,40.75,,6,2000,0.9,,0,-1,650,NA,{LC},9',
    ], "\r\n"),
    # no climate column at all
    ("lon,lat,month,year,area,cnt,ba,altitude," + LC_HEAD, [
        f"-100.25,40.25,6,2000,0.9,3,120.5,800,{LC}",
    ], "\n"),
])
def test_ingest_matches_the_row_reader_on_hand_written_files(tmp_path, header,
                                                            rows, newline):
    new, ref = _ingest_both(_hand_file(tmp_path, header, rows, newline))
    assert_same_dataset(new, ref)


GOOD = [f"-100.25,40.25,6,2000,0.9,3,120.5,800,{LC},14.2",
        f"-100.25,40.75,6,2000,0.9,,0,650,{LC},13.1",
        f"-99.75,40.25,6,2000,1.0,NA,55,700,{LC},15.0",
        f"-99.75,40.75,6,2000,1.0,2,5,700,{LC},15.0"]


def _with(row: int, text: str) -> list:
    rows = list(GOOD)
    rows[row] = text
    return rows


@pytest.mark.parametrize("rows, message", [
    (_with(1, f"-100.25,40.75,6,2000,0.9,,0,650,{LC}"),
     "row 3: wrong number of fields"),
    ([r + ",1" for r in GOOD], "row 2: wrong number of fields"),
    (_with(2, f"-99.75,40.25,6,2000,1.0,x,55,700,{LC},15.0"),
     "row 4: cannot parse cnt='x'"),
    (_with(0, f"NA,40.25,6,2000,0.9,3,120.5,800,{LC},14.2"),
     "row 2: column lon may not be missing"),
    (_with(2, GOOD[0]),
     "row 4: duplicate (lon, lat, month, year) key "
     "(-100.25, 40.25, 6.0, 2000.0), first seen at row 2"),
    (_with(1, f"-100.25,40.75,6,2000,0,1,0,650,{LC},13.1"),
     "row 3: area fraction must be positive, got 0.0"),
    # a repeated key with a zero area: the key is checked first
    (_with(2, GOOD[0].replace(",0.9,", ",0,")),
     "row 4: duplicate (lon, lat, month, year) key "
     "(-100.25, 40.25, 6.0, 2000.0), first seen at row 2"),
    # two faults: the earlier line is reported, whichever kind it is
    (_with(1, GOOD[0])[:3] + [f"-99.75,40.75,6,2000,1.0,2,5,x,{LC},15.0"],
     "row 3: duplicate (lon, lat, month, year) key "
     "(-100.25, 40.25, 6.0, 2000.0), first seen at row 2"),
    (_with(1, f"-100.25,40.75,6,2000,-1,1,0,650,{LC},13.1")[:3]
     + [f"-99.75,40.75,6,2000,1.0,2,5,700,{LC}"],
     "row 3: area fraction must be positive, got -1.0"),
    (_with(1, f"-100.25,40.75,6,2000,0.9,1,0,y,{LC},13.1")[:3]
     + [f"-99.75,40.75,6,2000,0,2,5,700,{LC},15.0"],
     "row 3: cannot parse altitude='y'"),
    (_with(1, f"-100.25,40.75,6,2000,0,1,0,650,{LC},13.1")[:3] + [GOOD[0]],
     "row 3: area fraction must be positive, got 0.0"),
    # a blank line counts as a file line
    (GOOD[:2] + ["", f"-99.75,40.25,6,2000,1.0,x,55,700,{LC},15.0"],
     "row 5: cannot parse cnt='x'"),
    ([], "no data rows"),
])
def test_ingest_names_the_line_and_fault_of_the_row_reader(tmp_path, rows, message):
    new, ref = _ingest_both(_write(tmp_path, rows))
    assert new == ref == message


def test_ingest_rejects_digit_group_underscores(tmp_path):
    # the one token float() reads and np.loadtxt does not
    path = _write(tmp_path, _with(0, f"-100.25,40.25,6,2000,0.9,3,120.5,1_0,{LC},14.2"))
    new, ref = _ingest_both(path)
    assert new == "row 2: cannot parse altitude='1_0'"
    assert ref.altitude[0] == 10.0


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="0123456789.eE+-_ \tnaNAifIFty\"", max_size=7),
       st.sampled_from(["cnt", "altitude"]))
def test_ingest_reads_a_token_as_the_row_reader_does(tmp_path_factory, token, column):
    assume("_" not in token)
    fields = GOOD[0].split(",")
    fields[{"cnt": 5, "altitude": 7}[column]] = token
    path = _write(tmp_path_factory.mktemp("token"), [",".join(fields)])
    new, ref = _ingest_both(path)
    if isinstance(ref, str):
        assert new == ref
    else:
        assert_same_dataset(new, ref)


def reference_derived_grid(ds):
    """Cell areas and cell grid as a per-row construction gives them: one
    zone_area_km2 call per row; cells as sorted (lat, lon) pairs and
    slices as sorted (month, year) pairs, each row put in its slot."""
    total_area = np.array([
        zone_area_km2(lo, la, ds.lon_width, ds.lat_height, ds.radius_km)
        for lo, la in zip(ds.lon, ds.lat)])
    cells = sorted(set(zip(ds.lat.tolist(), ds.lon.tolist())))
    slices = sorted(set(zip(ds.month.tolist(), ds.year.tolist())))
    slots = np.full((len(slices), len(cells)), -1, dtype=np.int64)
    for i in range(ds.n):
        slots[slices.index((int(ds.month[i]), int(ds.year[i]))),
              cells.index((float(ds.lat[i]), float(ds.lon[i])))] = i
    return total_area, cells, slices, slots


def test_areas_and_grid_match_the_per_row_construction():
    # shuffled rows, with one cell absent from one slice
    cols = make_grid_columns(nx=5, ny=4, months=(6, 7), years=(2000, 2001, 2002),
                             seed=7)
    keep = np.random.default_rng(7).permutation(cols["lon"].size)[1:]
    cols = {k: (v[keep] if isinstance(v, np.ndarray) else v) for k, v in cols.items()}
    ds = build_dataset(**cols)
    total_area, cells, slices, slots = reference_derived_grid(ds)
    assert ds.total_area.tobytes() == total_area.tobytes()
    assert ds.cell_lat.tobytes() == np.array([la for la, _ in cells]).tobytes()
    assert ds.cell_lon.tobytes() == np.array([lo for _, lo in cells]).tobytes()
    assert ds.slice_keys == tuple(slices)
    assert ds.slots.dtype == slots.dtype and ds.slots.tobytes() == slots.tobytes()
    assert np.count_nonzero(ds.slots < 0) == 1
    # rows of a month over a year window, past the data on either side too
    for month in (5, 6, 7):
        for first, last in ((2000, 2000), (2001, 2002), (1990, 2001), (2002, 2030),
                            (2003, 2010), (-math.inf, math.inf)):
            want = np.flatnonzero((ds.month == month) & (ds.year >= first)
                                  & (ds.year <= last))
            assert ds.rows(month, first, last).tolist() == want.tolist()
