"""Output checks computed apart from the program.

Everything here reads only files: the scene's input CSV, its withheld
truth and the artifacts one `firemarg run` wrote. The threshold grids,
score weights, cell geometry and the pooled same-month ECDF forecast
are written out again from the method's definition instead of being
imported from `firemarg`, so a fault in the program cannot hide itself
by also changing the reference.

Each emitted CDF row is one checked operation; so is each run-level
check (no rows beyond the masked ones, the score total, the ECDF
comparison, the tuning table and the byte-identical repeat).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# The EVA 2021 challenge grids: counts 0..9, 10..30 by 2, 40..100 by 10;
# burnt areas (acres) from 0 to 100000.
CNT_GRID = np.array(list(range(10)) + list(range(10, 31, 2))
                    + list(range(40, 101, 10)), dtype=float)
BA_GRID = np.array([0, 1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 150, 200,
                    250, 300, 400, 500, 1000, 1500, 2000, 5000, 10000, 20000,
                    30000, 40000, 50000, 100000], dtype=float)

# Geometry of the scenes: 0.5 degree cells on the WGS84 equatorial
# sphere, burnt areas in acres.
EARTH_RADIUS_KM = 6378.137
ACRES_PER_KM2 = 247.105381
CELL_DEG = 0.5
WATER_CUT = 0.94           # land-cover class 18 strictly above this is water

# The default tuning grid: radii 50..400 km by 25, quantiles 0.05..0.95.
TUNING_RADII = [float(r) for r in range(50, 401, 25)]
TUNING_QUANTILES = [round(0.05 * k, 2) for k in range(1, 20)]

SCORE_RTOL = 1e-9


def weights(n: int) -> np.ndarray:
    """w_k = 1 + 3(k-1)/(K-1), k = 1..K."""
    return 1.0 + 3.0 * np.arange(n) / (n - 1)


def weighted_score(row, observed: float, grid: np.ndarray) -> float:
    """sum_k w_k (1{y <= u_k} - p_k)^2"""
    indicator = (observed <= grid).astype(float)
    return float(np.sum(weights(grid.size) * (indicator - row) ** 2))


@dataclass
class Tally:
    """Checked operations and those that failed, with the first reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


@dataclass(frozen=True)
class Scene:
    month: np.ndarray
    cnt: np.ndarray            # NaN where masked
    ba: np.ndarray
    water: np.ndarray
    capacity: np.ndarray       # burnable acres per row
    cnt_truth: dict            # masked index -> withheld value
    ba_truth: dict

    def masked(self, variable: str) -> np.ndarray:
        return np.flatnonzero(np.isnan(self.cnt if variable == "cnt" else self.ba))


def _value(raw: str) -> float:
    return math.nan if raw in ("", "NA") else float(raw)


def read_scene(data_path: str, truth_path: str) -> Scene:
    with open(data_path, newline="") as fh:
        reader = csv.DictReader(fh)
        cols = {name: [] for name in ("lat", "month", "area", "cnt", "ba", "lc18")}
        for rec in reader:
            for name, values in cols.items():
                values.append(_value(rec[name]))
    cols = {name: np.array(values) for name, values in cols.items()}
    lat = np.radians(cols["lat"])
    half = np.radians(CELL_DEG / 2.0)
    cell_km2 = (EARTH_RADIUS_KM ** 2 * np.radians(CELL_DEG)
                * (np.sin(lat + half) - np.sin(lat - half)))
    cnt_truth, ba_truth = {}, {}
    with open(truth_path, newline="") as fh:
        for rec in csv.DictReader(fh):
            i = int(rec["index"])
            if rec["cnt"] != "NA":
                cnt_truth[i] = float(rec["cnt"])
            if rec["ba"] != "NA":
                ba_truth[i] = float(rec["ba"])
    return Scene(month=cols["month"].astype(int), cnt=cols["cnt"], ba=cols["ba"],
                 water=cols["lc18"] > WATER_CUT,
                 capacity=cell_km2 * cols["area"] * ACRES_PER_KM2,
                 cnt_truth=cnt_truth, ba_truth=ba_truth)


def _read_rows(path: str) -> dict:
    """index -> (thresholds, probabilities) as written, in file order."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    idx = data[:, 0].astype(np.int64)
    order = np.argsort(idx, kind="stable")
    uniq, counts = np.unique(idx[order], return_counts=True)
    blocks = np.split(data[order, 1:], np.cumsum(counts)[:-1])
    return {int(i): (b[:, 0], b[:, 1]) for i, b in zip(uniq, blocks)}


def _row_ok(thresholds, row, grid, other: float, water: bool,
            saturated) -> bool:
    if thresholds.size != grid.size or not np.array_equal(thresholds, grid):
        return False
    if not (np.all(row >= 0.0) and np.all(row <= 1.0)
            and np.all(np.diff(row) >= 0.0)):
        return False
    # pair rule first: a known value on the other variable is a certainty
    # and beats the water rule
    if other == 0.0:
        return bool(np.all(row == 1.0))
    if other > 0.0:
        if row[0] != 0.0:
            return False
    elif water and not np.all(row == 1.0):
        return False
    return saturated is None or bool(np.all(row[saturated] == 1.0))


def _ecdf_total(scene: Scene, variable: str, truth: dict, grid) -> float:
    """Score of the pooled same-month ECDF: every masked row of a month
    gets the ECDF of all observed values of that month, all years."""
    column = scene.cnt if variable == "cnt" else scene.ba
    total = 0.0
    pools = {}
    for i, y in truth.items():
        m = int(scene.month[i])
        if m not in pools:
            pool = np.sort(column[(scene.month == m) & ~np.isnan(column)])
            pools[m] = np.searchsorted(pool, grid, side="right") / pool.size
        total += weighted_score(pools[m], y, grid)
    return total


def file_hashes(out_dir: str) -> dict:
    """sha256 of each prediction CSV, for byte-for-byte comparisons."""
    out = {}
    for name in ("predictions_cnt.csv", "predictions_ba.csv"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _check_tuning(out_dir: str, selected: dict, tally: Tally) -> None:
    with open(os.path.join(out_dir, "tuning.csv"), newline="") as fh:
        recs = list(csv.DictReader(fh))
    cnt = [(float(r["score"]), float(r["radius_km"])) for r in recs
           if r["variable"] == "cnt"]
    ba = [(float(r["score"]), float(r["radius_km"]), float(r["quantile"]))
          for r in recs if r["variable"] == "ba"]
    grid_ok = (sorted(r for _, r in cnt) == TUNING_RADII
               and sorted((r, q) for _, r, q in ba)
               == [(r, q) for r in TUNING_RADII for q in TUNING_QUANTILES])
    tally.check(len(recs) == len(cnt) + len(ba) and grid_ok,
                f"tuning.csv: {len(cnt)} + {len(ba)} rows, not the "
                f"{len(TUNING_RADII)} + {len(TUNING_RADII) * len(TUNING_QUANTILES)} "
                "grid candidates")
    # smallest score wins; ties go to the smaller radius, then quantile
    best_cnt = min(cnt) if cnt else None
    best_ba = min(ba) if ba else None
    tally.check(best_cnt is not None and best_ba is not None
                and selected["k1_cnt"] == best_cnt[1]
                and (selected["k1_bap"], selected["k2_bap"]) == best_ba[1:],
                f"selected {selected} is not the tuning.csv minimum "
                f"{best_cnt} / {best_ba}")


def check_run(scene: Scene, out_dir: str, tuned: bool, tally: Tally,
              reference: dict | None = None) -> dict:
    """Check one run's artifacts against the scene; `reference` holds the
    prediction hashes of an earlier run of the same code and scene."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    model_total = 0.0
    ecdf_total = 0.0
    for variable, grid, truth in (("cnt", CNT_GRID, scene.cnt_truth),
                                  ("ba", BA_GRID, scene.ba_truth)):
        rows = _read_rows(os.path.join(out_dir, f"predictions_{variable}.csv"))
        masked = scene.masked(variable)
        other = scene.ba if variable == "cnt" else scene.cnt
        for i in masked.tolist():
            entry = rows.get(i)
            saturated = None
            if variable == "ba":
                saturated = (grid > 0) & (grid >= scene.capacity[i] * (1 + 1e-9))
            ok = entry is not None and _row_ok(entry[0], entry[1], grid,
                                               other[i], scene.water[i],
                                               saturated)
            tally.check(ok, f"{out_dir}: {variable} row {i} is not a valid "
                            "CDF row obeying the rules")
        tally.check(set(rows) == set(masked.tolist()),
                    f"{out_dir}: {variable} rows for unmasked indices")
        for i, y in truth.items():
            if i in rows:
                model_total += weighted_score(rows[i][1], y, grid)
        ecdf_total += _ecdf_total(scene, variable, truth, grid)

    reported = manifest["score"]["total"]
    tally.check(abs(reported - model_total) <= SCORE_RTOL * abs(model_total),
                f"{out_dir}: score total {reported!r} != recomputed "
                f"{model_total!r}")
    tally.check(reported < ecdf_total,
                f"{out_dir}: score total {reported:.6g} not below the pooled "
                f"ECDF's {ecdf_total:.6g}")
    if tuned:
        _check_tuning(out_dir, manifest["selected"], tally)
    hashes = file_hashes(out_dir)
    tally.check(reference is None or hashes == reference,
                f"{out_dir}: predictions differ from the first run's")
    return {"score_total": reported, "ecdf_total": ecdf_total,
            "hashes": hashes, "selected": manifest["selected"]}
