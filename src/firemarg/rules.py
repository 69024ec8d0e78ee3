"""Deterministic inference rules for missing values.

Two sources of certainty exist before any model is fitted: the paired
variable (zero burnt area forces a zero count and vice versa; a
positive value forces the other variable positive) and water cells
(land-cover class 18 above a cut is practically certain to be zero for
both variables). Each rule is a boolean mask over a variable's missing
indices, in index order; `resolve_forced` merges the masks and
`apply_overrides` writes them into the predicted rows after model
fitting. Deduced values are never inserted into neighborhood samples.

A third, geometric certainty, probability 1 at every burnt-area
threshold at or above the cell capacity, has one pin:
`burnt_area.cdf_rows` sets those entries when it builds the rows.
`saturation_flags` only finds them, for the `tail_one` label.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from .data import Dataset, PredictionTable
from .errors import DataError
from .geo import rescaled_thresholds

log = logging.getLogger(__name__)

ALL_ONE = "all_one"
ZERO_AT_ZERO = "zero_at_zero"
TAIL_ONE = "tail_one"

DEFAULT_WATER_CUT = 0.94
DEFAULT_WATER_TARGET = 0.999
WATER_LC = 18


class RowRules(NamedTuple):
    """Rule masks over one variable's missing indices, in index order."""
    all_one: np.ndarray        # the value is surely zero: the row is all 1
    zero_at_zero: np.ndarray   # the value is surely positive: 0 at threshold 0


def deduce_from_pair(ds: Dataset) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Cross-variable deduction where exactly one of the pair is known.

    Per variable, the masks (partner known zero, partner known positive)
    over its missing indices. A known zero on either side forces the
    other to zero (CDF is 1 everywhere); a known positive forces the
    other positive (CDF is 0 at threshold 0). A missing partner is NaN
    and in neither mask, so indices missing both variables yield nothing.
    """
    return {variable: (known == 0.0, known > 0.0) for variable, known in
            (("cnt", ds.bap[ds.cnt_missing]), ("ba", ds.cnt[ds.ba_missing]))}


def deduce_from_water(ds: Dataset, water_cut: float = DEFAULT_WATER_CUT) -> dict[str, np.ndarray]:
    """Per variable, the mask of its missing indices on water cells
    (lc18 strictly above the cut), where both variables are forced to
    zero."""
    water = ds.land_cover[:, WATER_LC - 1] > water_cut
    return {"cnt": water[ds.cnt_missing], "ba": water[ds.ba_missing]}


def saturation_flags(ds: Dataset) -> np.ndarray:
    """Burnt-area thresholds at or above capacity: one row per index of
    ds.ba_missing, one column per threshold. `burnt_area.cdf_rows` has
    already pinned these entries to 1; a row with any flag is labelled
    TAIL_ONE."""
    return rescaled_thresholds(ds.ba_thresholds, ds.capacity[ds.ba_missing, None])[1]


def anomalous_rows(ds: Dataset) -> np.ndarray:
    """Indices where both variables are observed but disagree about zero
    (positive count with zero burnt area, or the reverse). These are
    aggregation artefacts; they are logged and kept out of calibration."""
    both = ~np.isnan(ds.cnt) & ~np.isnan(ds.bap)
    bad = both & (((ds.cnt > 0) & (ds.bap == 0.0)) | ((ds.cnt == 0) & (ds.bap > 0.0)))
    return np.flatnonzero(bad)


def default_water_grid() -> np.ndarray:
    return np.round(np.arange(0.50, 1.00, 0.01), 2)


def calibrate_water_cut(ds: Dataset, target_prob: float = DEFAULT_WATER_TARGET,
                        grid=None) -> float:
    """Smallest grid cut whose above-cut cells are almost surely zero.

    Scans the cut grid in increasing order and returns the first cut c
    such that, among non-missing non-anomalous observations with
    lc18 > c, the zero fraction strictly exceeds target_prob for both
    variables. Falls back to the conventional 0.94 when no cut
    qualifies.
    """
    grid = default_water_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DataError("cut grid must be nonempty")
    exclude = np.zeros(ds.n, dtype=bool)
    anomalies = anomalous_rows(ds)
    if anomalies.size:
        log.warning("excluding %d anomalous rows from water calibration",
                    anomalies.size)
        exclude[anomalies] = True
    lc18 = ds.land_cover[:, WATER_LC - 1]
    cnt_ok = ~np.isnan(ds.cnt) & ~exclude
    ba_ok = ~np.isnan(ds.bap) & ~exclude
    for cut in np.sort(grid):
        above = lc18 > cut
        cnt_sel = above & cnt_ok
        ba_sel = above & ba_ok
        if not (np.any(cnt_sel) and np.any(ba_sel)):
            continue
        cnt_zero = np.count_nonzero(ds.cnt[cnt_sel] == 0) / np.count_nonzero(cnt_sel)
        ba_zero = np.count_nonzero(ds.bap[ba_sel] == 0) / np.count_nonzero(ba_sel)
        if cnt_zero > target_prob and ba_zero > target_prob:
            return float(cut)
    return DEFAULT_WATER_CUT


def resolve_forced(ds: Dataset, pair: dict | None = None,
                   water: dict | None = None) -> dict[str, RowRules]:
    """RowRules per variable from the masks of `deduce_from_pair` and
    `deduce_from_water` (None for a rule that is off).

    The pair rule is a logical certainty while the water rule is
    empirical, so a known positive partner beats water: that row is
    ZERO_AT_ZERO, not ALL_ONE, and one warning counts such conflicts.
    """
    resolved = {}
    conflicts = 0
    for variable, missing in (("cnt", ds.cnt_missing), ("ba", ds.ba_missing)):
        none = np.zeros(missing.size, dtype=bool)
        zero, positive = (none, none) if pair is None else pair[variable]
        wet = none if water is None else water[variable]
        conflicts += int(np.count_nonzero(wet & positive))
        resolved[variable] = RowRules(all_one=zero | (wet & ~positive),
                                      zero_at_zero=positive)
    if conflicts:
        log.warning("%d water rows have a positive partner: keeping %s from "
                    "the pair rule, dropping %s from the water rule",
                    conflicts, ZERO_AT_ZERO, ALL_ONE)
    return resolved


def apply_overrides(table: PredictionTable, resolved: dict) -> PredictionTable:
    """Return a copy of the table with its variable's rules written in.

    The table's rows are the variable's missing indices in order, as
    the masks are. ALL_ONE replaces the whole row with ones;
    ZERO_AT_ZERO pins the zero-threshold entry, if the grid has one,
    to 0. Both preserve row monotonicity.
    """
    rules = resolved[table.variable]
    rows = table.rows.copy()
    rows[rules.all_one] = 1.0
    zero_pos = np.flatnonzero(table.thresholds == 0.0)
    if zero_pos.size:
        rows[rules.zero_at_zero, zero_pos[0]] = 0.0
    return PredictionTable(variable=table.variable, indices=table.indices,
                           thresholds=table.thresholds, rows=rows)


def forced_labels(rules: RowRules, tail_one=None) -> list[str]:
    """Each row's rule kinds, "+"-joined in name order ("" for none);
    tail_one flags the rows labelled TAIL_ONE."""
    tail_one = np.zeros_like(rules.all_one) if tail_one is None else tail_one
    kinds = (ALL_ONE, TAIL_ONE, ZERO_AT_ZERO)
    names = ["+".join(k for bit, k in enumerate(kinds) if code >> bit & 1)
             for code in range(2 ** len(kinds))]
    codes = rules.all_one + 2 * tail_one + 4 * rules.zero_at_zero
    return [names[code] for code in codes.tolist()]
