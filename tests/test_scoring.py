"""Scoring tests, including the exhaustive propriety check."""

import itertools

import numpy as np
import pytest

from firemarg.errors import DataError
from firemarg.scoring import (
    ScoreConfig,
    default_weights,
    expected_score,
    pooled_ecdf_row,
    score_one,
    score_rows,
)


def test_default_weights_ramp():
    w = default_weights(5)
    np.testing.assert_allclose(w, [1.0, 1.75, 2.5, 3.25, 4.0])
    assert default_weights(1).tolist() == [1.0]
    # endpoints are pinned at 1 and 4 for any grid length
    w28 = default_weights(28)
    assert w28[0] == 1.0 and w28[-1] == 4.0


def test_config_validation():
    with pytest.raises(DataError):
        ScoreConfig(thresholds=np.array([1.0, 1.0, 2.0]))
    with pytest.raises(DataError):
        ScoreConfig(thresholds=np.array([0.0, 1.0]), weights=np.array([1.0]))
    with pytest.raises(DataError):
        ScoreConfig(thresholds=np.array([0.0, 1.0]), weights=np.array([0.0, 0.0]))
    with pytest.raises(DataError):
        ScoreConfig(thresholds=np.array([0.0, 1.0]), weights=np.array([1.0, -1.0]))
    for bad in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [np.nan]):
        with pytest.raises(DataError, match="finite"):
            ScoreConfig(thresholds=np.array(bad))


def test_config_rejects_non_finite_weights():
    # a NaN weight scores every row NaN, and NaN CV totals would leave
    # the grid search's minimum arbitrary
    for bad in ([1.0, np.nan, 1.0], [1.0, np.inf, 1.0]):
        with pytest.raises(DataError, match="weights must be finite"):
            ScoreConfig(np.array([0.0, 1.0, 2.0]), np.array(bad))


def test_perfect_forecast_scores_zero():
    cfg = ScoreConfig(thresholds=np.array([0.0, 1.0, 5.0, 10.0]))
    observed = 3.0
    row = (observed <= cfg.thresholds).astype(float)
    assert score_one(row, observed, cfg) == 0.0


def test_single_threshold_arithmetic():
    cfg = ScoreConfig(thresholds=np.array([2.0]), weights=np.array([1.0]))
    assert score_one([0.5], 7.0, cfg) == pytest.approx(0.25)
    assert score_one([0.5], 1.0, cfg) == pytest.approx(0.25)
    assert score_one([0.9], 7.0, cfg) == pytest.approx(0.81)


def test_weights_scale_linearly():
    t = np.array([0.0, 1.0])
    a = score_one([0.2, 0.6], 0.5, ScoreConfig(t, np.array([1.0, 1.0])))
    b = score_one([0.2, 0.6], 0.5, ScoreConfig(t, np.array([2.0, 2.0])))
    assert b == pytest.approx(2 * a)


def test_row_validation():
    cfg = ScoreConfig(thresholds=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(DataError):
        score_one([0.1, 0.5], 1.0, cfg)
    with pytest.raises(DataError):
        score_one([0.5, 0.4, 0.9], 1.0, cfg)
    with pytest.raises(DataError):
        score_one([0.0, 0.5, 1.2], 1.0, cfg)
    good = [0.1, 0.5, 0.9]
    for bad in ([0.1, np.nan, 0.9], [0.0, 0.5, 1.2], [-0.1, 0.5, 0.9],
                [0.5, 0.4, 0.9], [0.1, 0.5]):
        with pytest.raises(DataError):
            score_one(bad, 1.0, cfg)
        if len(bad) == len(good):
            # one bad row anywhere in a batch rejects the batch
            with pytest.raises(DataError):
                score_rows([[good, good], [good, bad]], 1.0, cfg)
        else:
            with pytest.raises(DataError):
                score_rows([bad, bad], [1.0, 2.0], cfg)
    # tiny float noise is tolerated and clipped: the row scores as if
    # its last value were exactly 1
    assert score_rows([1.0, 1.0, 1.0 + 1e-12], 0.0, cfg) == 0.0


def test_score_rows_equals_score_one_bit_for_bit():
    rng = np.random.default_rng(5)
    for k in (1, 3, 8, 9, 17, 28, 40):
        cfg = ScoreConfig(np.cumsum(rng.uniform(0.1, 2.0, k)),
                          rng.uniform(0.0, 4.0, k))
        rows = np.sort(rng.random((4, 6, k)), axis=-1)
        rows[0, 0] = 1.0                       # rows at the bounds
        rows[0, 1] = 0.0
        observed = rng.uniform(-1.0, cfg.thresholds[-1] + 1.0, (4, 6))
        observed[1, :2] = cfg.thresholds[:1]   # ties with a threshold
        batch = score_rows(rows, observed, cfg)
        assert batch.shape == (4, 6)
        for idx in np.ndindex(4, 6):
            assert batch[idx] == score_one(rows[idx], observed[idx], cfg)
        # a scalar observation broadcasts over the rows
        assert np.array_equal(score_rows(rows[2], observed[2, 0], cfg),
                              [score_one(r, observed[2, 0], cfg) for r in rows[2]])


def test_zero_weight_threshold_is_inert():
    t2 = np.array([0.0, 1.0])
    t3 = np.array([0.0, 0.5, 1.0])
    a = score_one([0.2, 0.8], 0.7, ScoreConfig(t2, np.array([1.0, 2.0])))
    b = score_one([0.2, 0.5, 0.8], 0.7, ScoreConfig(t3, np.array([1.0, 0.0, 2.0])))
    assert a == pytest.approx(b)


def _monotone_grid_rows(step=0.05):
    levels = np.round(np.arange(0.0, 1.0 + 1e-9, step), 10)
    for combo in itertools.combinations_with_replacement(levels, 3):
        yield np.array(combo)


def test_propriety_exhaustive():
    """The true CDF row minimizes expected score over every monotone
    forecast row on a 0.05 grid, across random weight vectors."""
    rng = np.random.default_rng(77)
    support = np.array([0.0, 1.0, 2.0])
    thresholds = np.array([0.0, 1.0, 2.0])
    rows = list(_monotone_grid_rows())
    for trial in range(5):
        # probabilities in 0.05 steps so the true CDF row is on the grid
        q = rng.multinomial(20, [1 / 3] * 3) / 20.0
        weights = rng.uniform(0.1, 5.0, size=3)
        cfg = ScoreConfig(thresholds, weights)
        true_row = np.cumsum(q)
        best = min(rows, key=lambda r: expected_score(r, support, q, cfg))
        np.testing.assert_allclose(best, true_row, atol=1e-12)


def test_pooled_ecdf_row():
    sample = np.array([0.0, 0.0, 1.0, 3.0])
    t = np.array([0.0, 1.0, 2.0, 5.0])
    np.testing.assert_allclose(pooled_ecdf_row(sample, t), [0.5, 0.75, 0.75, 1.0])
    with pytest.raises(DataError):
        pooled_ecdf_row(np.array([]), t)
