"""Dataset construction, thresholds, and CSV ingestion tests."""

import numpy as np
import pytest

from firemarg.data import (
    build_dataset,
    default_ba_thresholds,
    default_cnt_thresholds,
    ingest,
    write_csv,
    PredictionTable,
)
from firemarg.errors import DataError, IngestError
from firemarg.geo import zone_area_km2

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

    def test_spatial_index_covers_all(self, grid_ds):
        total = sum(v.ids.size for v in grid_ds.spatial_index.values())
        assert total == grid_ds.n


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
