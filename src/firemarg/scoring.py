"""Threshold-weighted squared-error score for predicted CDF rows.

For a predicted CDF row p over ordered thresholds u_1..u_K and an
observed value y, the score is sum_k w_k * (1{y <= u_k} - p_k)^2.
Lower is better; the rule is proper on finite threshold grids. Weights
default to a linear ramp that up-weights the upper tail but are a
config input so alternative weightings drop in verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

ROW_TOL = 1e-9


def default_weights(n_thresholds: int) -> np.ndarray:
    """Linear tail-up-weighting ramp: w_k = 1 + 3*(k-1)/(K-1)."""
    if n_thresholds < 1:
        raise DataError("need at least one threshold")
    if n_thresholds == 1:
        return np.ones(1)
    k = np.arange(n_thresholds, dtype=float)
    return 1.0 + 3.0 * k / (n_thresholds - 1)


def check_weights(weights, name: str = "weights") -> None:
    """DataError unless finite, nonnegative and not all zero: a NaN weight
    gives NaN scores, and NaN CV totals leave the grid search's minimum arbitrary."""
    w = np.asarray(weights, dtype=float)
    if not (np.all((w >= 0) & np.isfinite(w)) and np.any(w > 0)):
        raise DataError(f"{name} must be finite, nonnegative and not all zero")


@dataclass(frozen=True)
class ScoreConfig:
    thresholds: np.ndarray
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=float)
        if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0):
            raise DataError("thresholds must be a finite, strictly increasing vector")
        w = self.weights
        w = default_weights(t.size) if w is None else np.asarray(w, dtype=float)
        if w.shape != t.shape:
            raise DataError(
                f"weights length {w.size} does not match {t.size} thresholds")
        check_weights(w)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "weights", w)


def score_rows(rows, observed, config: ScoreConfig) -> np.ndarray:
    """Score of each predicted CDF row (the last axis of rows) against
    its observation.

    rows has shape (..., K) for K thresholds and observed broadcasts to
    rows.shape[:-1]; the result has that shape. Every row must lie in
    [0, 1] to ROW_TOL (and is then clipped into it) and must not
    decrease by more than ROW_TOL. Each row's weighted squared errors
    are summed alone along the last axis, so a row scores the same bits
    in any batch.
    """
    rows = np.asarray(rows, dtype=float)
    k = config.thresholds.size
    if rows.ndim == 0 or rows.shape[-1] != k:
        raise DataError(f"row has shape {rows.shape}, expected (..., {k})")
    if np.any(~np.isfinite(rows)) or np.any(rows < -ROW_TOL) or np.any(rows > 1 + ROW_TOL):
        raise DataError("row values must lie in [0, 1]")
    if np.any(np.diff(rows, axis=-1) < -ROW_TOL):
        raise DataError("row must be non-decreasing across thresholds")
    rows = np.clip(rows, 0.0, 1.0)
    observed = np.broadcast_to(np.asarray(observed, dtype=float), rows.shape[:-1])
    indicator = (observed[..., None] <= config.thresholds).astype(float)
    return np.sum(config.weights * (indicator - rows) ** 2, axis=-1)


def score_one(predicted_cdf, observed: float, config: ScoreConfig) -> float:
    """Score of one predicted CDF row: score_rows on a single row."""
    if np.ndim(predicted_cdf) != 1:
        raise DataError(f"row has shape {np.shape(predicted_cdf)}, "
                        f"expected ({config.thresholds.size},)")
    return float(score_rows(predicted_cdf, observed, config))


def expected_score(forecast_row, support, probs, config: ScoreConfig) -> float:
    """Exact expected score under a finite discrete truth distribution.

    Used by propriety checks: enumerates the support instead of
    sampling, so the minimizer can be verified exhaustively.
    """
    support = np.asarray(support, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if abs(probs.sum() - 1.0) > 1e-12 or np.any(probs < 0):
        raise DataError("probs must be a distribution")
    return float(sum(p * score_one(forecast_row, y, config)
                     for y, p in zip(support, probs)))


def pooled_ecdf_row(sample, thresholds) -> np.ndarray:
    """Empirical CDF of a pooled sample evaluated at the thresholds.

    This is the benchmark forecaster's row: every missing index in a
    pool shares it.
    """
    sample = np.sort(np.asarray(sample, dtype=float))
    if sample.size == 0:
        raise DataError("pooled sample must be nonempty")
    return np.searchsorted(sample, thresholds, side="right") / sample.size
