"""Inference-rule tests."""

import numpy as np
import pytest

from firemarg.data import PredictionTable, build_dataset
from firemarg.rules import (
    ALL_ONE,
    TAIL_ONE,
    ZERO_AT_ZERO,
    RowRules,
    anomalous_rows,
    apply_overrides,
    calibrate_water_cut,
    deduce_from_pair,
    deduce_from_water,
    forced_labels,
    resolve_forced,
    saturation_flags,
)

from conftest import make_grid_columns


def _ds(**tweaks):
    cols = make_grid_columns(nx=4, ny=4, seed=20)
    for key, edits in tweaks.items():
        col = cols[key].copy()
        for idx, value in edits.items():
            col[idx] = value
        cols[key] = col
    return build_dataset(**cols)


def _forced(ds, mask, variable):
    """The indices a mask over the variable's missing indices selects."""
    missing = ds.cnt_missing if variable == "cnt" else ds.ba_missing
    return set(missing[mask].tolist())


class TestPairRule:
    def test_zero_ba_forces_zero_cnt(self):
        ds = _ds(cnt={2: np.nan}, ba={2: 0.0})
        zero, positive = deduce_from_pair(ds)["cnt"]
        assert 2 in _forced(ds, zero, "cnt")
        assert 2 not in _forced(ds, positive, "cnt")

    def test_positive_ba_forces_positive_cnt(self):
        ds = _ds(cnt={3: np.nan}, ba={3: 40.0})
        pair = deduce_from_pair(ds)
        zero, positive = pair["cnt"]
        assert _forced(ds, positive, "cnt") == {3}
        assert not zero.any()
        assert not any(mask.any() for mask in pair["ba"])

    def test_symmetric_for_ba(self):
        ds = _ds(ba={5: np.nan, 6: np.nan}, cnt={5: 0.0, 6: 4.0})
        zero, positive = deduce_from_pair(ds)["ba"]
        assert _forced(ds, zero, "ba") == {5}
        assert _forced(ds, positive, "ba") == {6}

    def test_both_missing_no_deduction(self):
        ds = _ds(cnt={7: np.nan}, ba={7: np.nan})
        for variable, masks in deduce_from_pair(ds).items():
            assert all(7 not in _forced(ds, m, variable) for m in masks)


class TestWaterRule:
    def test_strict_cut(self):
        cols = make_grid_columns(nx=4, ny=1, seed=21)
        cols["cnt"] = np.array([np.nan, np.nan, np.nan, 2.0])
        lc = cols["land_cover"].copy()
        lc[0, 17] = 0.95
        lc[1, 17] = 0.94
        lc[2, 17] = 0.0
        cols["land_cover"] = lc
        ds = build_dataset(**cols)
        wet = deduce_from_water(ds, water_cut=0.94)["cnt"]
        assert _forced(ds, wet, "cnt") == {0}
        assert _forced(ds, resolve_forced(ds, water=deduce_from_water(ds))["cnt"].all_one,
                       "cnt") == {0}

    def test_covers_both_variables(self):
        cols = make_grid_columns(nx=3, ny=1, seed=22)
        cols["cnt"] = np.array([np.nan, 1.0, 0.0])
        cols["ba"] = np.array([np.nan, np.nan, 0.0])
        lc = cols["land_cover"].copy()
        lc[:, 17] = 0.99
        cols["land_cover"] = lc
        ds = build_dataset(**cols)
        water = deduce_from_water(ds)
        assert {(i, v) for v, mask in water.items()
                for i in _forced(ds, mask, v)} == {(0, "cnt"), (0, "ba"), (1, "ba")}


class TestCalibration:
    def _water_ds(self):
        cols = make_grid_columns(nx=6, ny=6, seed=23)
        lc = cols["land_cover"].copy()
        water = np.arange(12)
        lc[:, 17] = 0.0
        lc[water, 17] = 0.92
        cols["land_cover"] = lc
        cols["cnt"][water] = 0.0
        cols["ba"][water] = 0.0
        # keep some dry-land zeros too so the signal is specific to water
        return build_dataset(**cols)

    def test_finds_planted_cut(self):
        ds = self._water_ds()
        cut = calibrate_water_cut(ds, target_prob=0.999)
        assert cut <= 0.91
        # everything above the returned cut really is all-zero
        above = ds.land_cover[:, 17] > cut
        assert np.all(ds.cnt[above] == 0)

    def test_no_qualifying_cut_returns_default(self):
        cols = make_grid_columns(nx=4, ny=4, seed=24)
        cols["cnt"] = np.maximum(cols["cnt"], 1.0)  # zeros nowhere
        ds = build_dataset(**cols)
        assert calibrate_water_cut(ds, target_prob=0.999) == 0.94

    def test_zero_target_returns_smallest_cut(self):
        ds = self._water_ds()
        grid = np.array([0.5, 0.7, 0.9])
        assert calibrate_water_cut(ds, target_prob=0.0, grid=grid) == 0.5

    def test_anomalies_detected(self):
        ds = _ds(cnt={1: 3.0}, ba={1: 0.0})
        assert 1 in anomalous_rows(ds)


class TestResolveAndApply:
    def test_pair_beats_water(self, caplog):
        # index 4: count missing, burnt area positive, on water
        ds = _ds(cnt={4: np.nan}, ba={4: 40.0})
        water = {v: np.ones(m.size, dtype=bool)
                 for v, m in (("cnt", ds.cnt_missing), ("ba", ds.ba_missing))}
        with caplog.at_level("WARNING", logger="firemarg.rules"):
            rules = resolve_forced(ds, pair=deduce_from_pair(ds), water=water)["cnt"]
        assert _forced(ds, rules.zero_at_zero, "cnt") == {4}
        assert 4 not in _forced(ds, rules.all_one, "cnt")
        assert not np.any(rules.all_one & rules.zero_at_zero)
        assert len(caplog.records) == 1
        assert caplog.records[0].getMessage().startswith("1 water rows have a positive partner")

    def test_tail_one_kept_alongside(self):
        rules = RowRules(all_one=np.array([True, False, False, False]),
                         zero_at_zero=np.array([False, True, True, False]))
        tail = np.array([True, True, False, False])
        assert forced_labels(rules, tail) == [
            f"{ALL_ONE}+{TAIL_ONE}", f"{TAIL_ONE}+{ZERO_AT_ZERO}", ZERO_AT_ZERO, ""]
        assert forced_labels(rules) == [ALL_ONE, ZERO_AT_ZERO, ZERO_AT_ZERO, ""]

    @staticmethod
    def _resolved(variable, n, all_one=(), zero_at_zero=()):
        masks = {}
        for name, positions in (("all_one", all_one), ("zero_at_zero", zero_at_zero)):
            masks[name] = np.zeros(n, dtype=bool)
            masks[name][list(positions)] = True
        other = "ba" if variable == "cnt" else "cnt"
        return {variable: RowRules(**masks),
                other: RowRules(np.zeros(0, bool), np.zeros(0, bool))}

    def test_apply_all_one(self):
        table = PredictionTable("cnt", np.array([2, 5]), np.array([0.0, 1.0, 5.0]),
                                np.full((2, 3), 0.3))
        out = apply_overrides(table, self._resolved("cnt", 2, all_one=[1]))
        np.testing.assert_allclose(out.rows[1], 1.0)
        np.testing.assert_allclose(out.rows[0], 0.3)
        # original untouched
        np.testing.assert_allclose(table.rows[1], 0.3)

    def test_apply_zero_at_zero(self):
        table = PredictionTable("cnt", np.array([2]), np.array([0.0, 1.0, 5.0]),
                                np.array([[0.4, 0.6, 0.9]]))
        out = apply_overrides(table, self._resolved("cnt", 1, zero_at_zero=[0]))
        np.testing.assert_allclose(out.rows[0], [0.0, 0.6, 0.9])
        assert np.all(np.diff(out.rows[0]) >= 0)

    def test_zero_at_zero_without_zero_threshold(self):
        table = PredictionTable("cnt", np.array([2]), np.array([1.0, 5.0]),
                                np.array([[0.6, 0.9]]))
        out = apply_overrides(table, self._resolved("cnt", 1, zero_at_zero=[0]))
        np.testing.assert_array_equal(out.rows, table.rows)

    def test_wrong_variable_ignored(self):
        table = PredictionTable("ba", np.array([2]), np.array([0.0, 1.0]),
                                np.array([[0.4, 0.6]]))
        resolved = self._resolved("cnt", 1, all_one=[0])
        resolved["ba"] = RowRules(np.zeros(1, bool), np.zeros(1, bool))
        out = apply_overrides(table, resolved)
        np.testing.assert_allclose(out.rows, table.rows)


def test_saturation_flags_small_capacity():
    cols = make_grid_columns(nx=3, ny=1, seed=25)
    cols["ba"] = np.array([np.nan, np.nan, 10.0])
    # shrink one cell's burnable area so high thresholds exceed capacity
    cols["area_fraction"] = np.array([1e-4, 0.9, 0.9])
    ds = build_dataset(**cols)
    assert ds.ba_missing.tolist() == [0, 1]
    flags = saturation_flags(ds)
    t = ds.ba_thresholds
    for row, i in zip(flags, ds.ba_missing):
        np.testing.assert_array_equal(row, (t > 0) & (t / ds.capacity[i] >= 1.0))
    assert flags[0, -1] and not flags[0, 0]
    assert not flags[1].any()
