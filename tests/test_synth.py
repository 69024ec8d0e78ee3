"""Synthetic generator tests: planted parameters must be recoverable
from the generated data."""

import numpy as np
import pytest

from firemarg.counts import ZinbParams
from firemarg.data import ingest, write_csv
from firemarg.errors import DataError
from firemarg.synth import GroundTruth, SyntheticSpec, generate


def test_deterministic():
    spec = SyntheticSpec(nx=8, ny=8)
    a, _ = generate(spec, seed=5)
    b, _ = generate(spec, seed=5)
    np.testing.assert_array_equal(a.cnt, b.cnt)
    np.testing.assert_array_equal(a.ba, b.ba)
    c, _ = generate(spec, seed=6)
    assert np.nansum(np.abs(a.cnt - c.cnt)) > 0


def test_zero_missing_rate_gives_no_validation_indices():
    spec = SyntheticSpec(nx=6, ny=6, cnt_missing_rate=0.0, ba_missing_rate=0.0)
    ds, _ = generate(spec, seed=1)
    assert ds.cnt_missing.size == 0
    assert ds.ba_missing.size == 0


def test_full_overlap_equalizes_masks():
    spec = SyntheticSpec(nx=10, ny=10, cnt_missing_rate=0.1,
                         ba_missing_rate=0.1, mask_overlap=1.0)
    ds, _ = generate(spec, seed=2)
    np.testing.assert_array_equal(ds.cnt_missing, ds.ba_missing)


def test_partial_overlap_rate():
    spec = SyntheticSpec(nx=16, ny=16, cnt_missing_rate=0.15,
                         ba_missing_rate=0.15, mask_overlap=0.4)
    ds, _ = generate(spec, seed=3)
    shared = np.intersect1d(ds.cnt_missing, ds.ba_missing).size
    assert shared == pytest.approx(0.4 * ds.ba_missing.size, abs=2)


def test_count_coupling():
    ds, truth = generate(SyntheticSpec(nx=10, ny=10), seed=4)
    zero = truth.cnt_full == 0
    assert np.all(truth.ba_full[zero] == 0.0)
    assert np.all(truth.ba_full[~zero] > 0.0)


def test_zero_fraction_matches_planted():
    # one regime pair, enough observations for the law of large numbers
    spec = SyntheticSpec(
        nx=50, ny=50, months=(6, 7), block_km=2000.0,
        cnt_regimes=(ZinbParams(0.3, 3.0, 1.5),) * 2,
        ba_regimes=((-4.0, 1.0),) * 2,
        cnt_missing_rate=0.0, ba_missing_rate=0.0)
    ds, truth = generate(spec, seed=7)
    assert ds.n == 5000
    z_true = truth.bap_zero[0]
    assert np.mean(truth.cnt_full == 0) == pytest.approx(z_true, abs=0.02)
    assert np.mean(ds.bap == 0) == pytest.approx(z_true, abs=0.02)


def test_regime_field_is_blockwise():
    spec = SyntheticSpec(nx=20, ny=20, block_km=300.0)
    ds, truth = generate(spec, seed=8)
    assert set(np.unique(truth.regime)) <= {0, 1}
    # both regimes present and spatially contiguous in lat bands
    assert 0 in truth.regime and 1 in truth.regime


def test_true_cdfs_are_valid_rows():
    ds, truth = generate(SyntheticSpec(nx=8, ny=8, water_frac=0.05), seed=9)
    grid = ds.cnt_thresholds
    for i in (0, 10, ds.n - 1):
        row = truth.true_cnt_cdf(i, grid)
        assert np.all(np.diff(row) >= 0)
        assert np.all((row >= 0) & (row <= 1))
        brow = truth.true_ba_cdf(i, ds.ba_thresholds)
        assert np.all(np.diff(brow) >= -1e-12)
        assert np.all((brow >= 0) & (brow <= 1))


def test_water_cells_zero_and_flagged():
    ds, truth = generate(SyntheticSpec(nx=10, ny=10, water_frac=0.1), seed=10)
    water = truth.water_cells
    assert np.any(water)
    assert np.all(ds.land_cover[water, 17] > 0.94)
    assert np.all(truth.cnt_full[water] == 0)
    row = truth.true_cnt_cdf(int(np.flatnonzero(water)[0]), ds.cnt_thresholds)
    np.testing.assert_allclose(row, 1.0)


def test_small_area_cells_saturate_thresholds():
    ds, truth = generate(SyntheticSpec(nx=10, ny=10, small_area_frac=0.05), seed=11)
    assert np.any(ds.capacity < ds.ba_thresholds[-1])


def test_year_drift_shifts_mean():
    spec = SyntheticSpec(nx=12, ny=12, years=(2000, 2005), year_drift=0.2,
                         cnt_missing_rate=0.0, ba_missing_rate=0.0)
    ds, truth = generate(spec, seed=12)
    early = ds.year == 2000
    late = ds.year == 2005
    assert truth.mu[late].mean() == pytest.approx(
        truth.mu[early].mean() * np.exp(0.2 * 5), rel=1e-9)
    assert ds.cnt[late].mean() > ds.cnt[early].mean()


def test_round_trip_through_csv(tmp_path):
    ds, _ = generate(SyntheticSpec(nx=6, ny=6, water_frac=0.05), seed=13)
    path = tmp_path / "synth.csv"
    write_csv(ds, path)
    again = ingest(path, year_range=(2000, 2000), month_range=(6, 6))
    np.testing.assert_array_equal(ds.cnt, again.cnt)
    np.testing.assert_array_equal(ds.ba, again.ba)
    np.testing.assert_array_equal(ds.cnt_missing, again.cnt_missing)
    np.testing.assert_allclose(ds.capacity, again.capacity, rtol=1e-12)


def test_infeasible_specs_rejected():
    with pytest.raises(DataError, match="scale"):
        SyntheticSpec(nx=4, ny=4, block_km=500.0)
    with pytest.raises(DataError, match="overlap"):
        SyntheticSpec(mask_overlap=1.5)
    with pytest.raises(DataError, match="rates"):
        SyntheticSpec(cnt_missing_rate=0.9)


def test_border_stripes_straddle_the_band_border():
    from firemarg.synth import radius_recovery_preset

    spec = radius_recovery_preset()
    ds, truth = generate(spec, seed=20)
    col_reg = truth.regime[:spec.nx]
    border = int(np.flatnonzero(col_reg[:-1] != col_reg[1:])[0])
    cols = np.unique(ds.cnt_missing % spec.nx)
    np.testing.assert_array_equal(cols, [border, border + 1])
    # full-height stripe, one masked column per side
    assert ds.cnt_missing.size == 2 * spec.ny


def test_border_stripe_surrogates_sit_one_column_out():
    from firemarg.synth import radius_recovery_preset
    from firemarg.tuning import build_cv_plan

    spec = radius_recovery_preset()
    ds, _ = generate(spec, seed=21)
    plan = build_cv_plan(ds, "cnt")
    assert not plan.skipped
    for i, s in plan.pairs:
        assert s // spec.nx == i // spec.nx        # same grid row
        assert abs(s % spec.nx - i % spec.nx) == 1  # adjacent column
        assert s not in ds.cnt_missing


def test_short_border_stripes_avoid_the_grid_edge_rows():
    spec = SyntheticSpec(nx=12, ny=15, spacing=0.62,
                         regime_layout="bands", mask_layout="border_stripes",
                         cnt_missing_rate=8 / 180, ba_missing_rate=0.05)
    starts = set()
    for seed in range(10):
        ds, _ = generate(spec, seed=seed)
        rows = ds.cnt_missing // 12
        assert rows.min() >= 2 and rows.max() <= 15 - 3
        starts.add(int(rows.min()))
    assert len(starts) > 1   # the segment position is drawn, not fixed


def test_border_stripe_layout_validation():
    with pytest.raises(DataError, match="bands"):
        SyntheticSpec(mask_layout="border_stripes")
    with pytest.raises(DataError, match="mask layout"):
        SyntheticSpec(mask_layout="stripes")
    # the only border sits too close to the lon edge to host a stripe
    edge = SyntheticSpec(nx=8, ny=8, regime_layout="bands",
                         mask_layout="border_stripes",
                         cnt_missing_rate=0.1, ba_missing_rate=0.05)
    with pytest.raises(DataError, match="border"):
        generate(edge, seed=0)
