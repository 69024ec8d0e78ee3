"""End-to-end prediction: per-index model fits, rule overrides, the
pooled-empirical benchmark, scoring against withheld truth, and the
`run` orchestration that writes all artifacts. Its stages
(`load_dataset`, `tune_parameters`, `predict_missing`) are what the
`ingest`, `explore`, `tune` and `predict` commands call.

Burnt-area rows are modelled in proportion space and emitted against
the absolute threshold grid; the rescaling by cell capacity stays
internal. Per-index predictions are independent, so the worker pool
cannot change any value: results are merged in index order.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .burnt_area import cdf_row
from .config import RunConfig, config_hash
from .data import Dataset, PredictionTable, ingest
from .errors import DataError, FiremargError
from .neighborhoods import NeighborhoodSpec, fitting_sample
from .rules import (
    DEFAULT_WATER_CUT,
    anomalous_rows,
    apply_overrides,
    calibrate_water_cut,
    deduce_from_pair,
    deduce_from_water,
    resolve_forced,
    saturation_flags,
)
from .scoring import ScoreConfig, pooled_ecdf_row, score_rows
from .tuning import TuningGrid, TuningResult, fit_model, select_parameters

# bench/tracer.py wraps these names in this module; nothing here calls them
from .burnt_area import fit_mixture  # noqa: F401
from .counts import fit_zinb  # noqa: F401
from .neighborhoods import build_neighborhood  # noqa: F401
from .scoring import score_one  # noqa: F401

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Diagnostic:
    index: int
    variable: str
    source: str          # neighborhood | slice | month
    sample_size: int
    model: str           # zinb | mixture | empirical
    fallback: str        # empty when the primary model fit
    forced: str          # rule kinds applied to the row, "+"-joined


def _predict_one(ds: Dataset, i: int, variable: str, spec: NeighborhoodSpec,
                 k2: float | None):
    sample, source = fitting_sample(ds, i, variable, spec)
    if not sample.size:
        raise DataError(f"no observed {variable} values for month {int(ds.month[i])}")
    model = fit_model(sample, variable, k2)
    grid = ds.cnt_thresholds if variable == "cnt" else ds.ba_thresholds
    row = cdf_row(model, grid, float(ds.capacity[i]))
    diag = Diagnostic(index=i, variable=variable, source=source,
                      sample_size=int(sample.size), model=model.kind,
                      fallback=model.fallback_reason or "", forced="")
    return row, diag


# The Dataset of a pool worker, set once by _init_worker when the
# worker starts, so chunk payloads carry only indices and settings.
_WORKER_DS: Dataset | None = None


def _init_worker(ds: Dataset) -> None:
    global _WORKER_DS
    _WORKER_DS = ds


def _predict_block(payload):
    indices, variable, spec, k2 = payload
    return [(int(i),) + _predict_one(_WORKER_DS, int(i), variable, spec, k2)
            for i in indices]


def _predict_variable(ds: Dataset, variable: str, spec: NeighborhoodSpec,
                      k2: float | None, workers: int):
    missing = ds.cnt_missing if variable == "cnt" else ds.ba_missing
    grid = ds.cnt_thresholds if variable == "cnt" else ds.ba_thresholds
    if missing.size == 0:
        return np.zeros((0, grid.size)), []
    if workers > 1 and missing.size > 1:
        chunks = np.array_split(missing, min(workers * 4, missing.size))
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(ds,)) as pool:
            blocks = list(pool.map(_predict_block,
                                   [(c, variable, spec, k2) for c in chunks]))
        results = {i: (row, diag) for block in blocks for i, row, diag in block}
    else:
        results = {}
        for i in missing:
            row, diag = _predict_one(ds, int(i), variable, spec, k2)
            results[int(i)] = (row, diag)
    rows = np.vstack([results[int(i)][0] for i in missing])
    diags = [results[int(i)][1] for i in missing]
    return rows, diags


@dataclass(frozen=True)
class PredictResult:
    cnt: PredictionTable
    ba: PredictionTable
    diagnostics: tuple


def predict_tables(ds: Dataset, cnt_spec: NeighborhoodSpec,
                   bap_spec: NeighborhoodSpec, k2: float,
                   pair_rule: bool = True, water_rule: bool = True,
                   water_cut: float = DEFAULT_WATER_CUT,
                   workers: int = 1) -> PredictResult:
    """Model-based CDF rows for every missing index, rules applied last."""
    cnt_rows, cnt_diags = _predict_variable(ds, "cnt", cnt_spec, None, workers)
    ba_rows, ba_diags = _predict_variable(ds, "ba", bap_spec, k2, workers)
    cnt_table = PredictionTable("cnt", ds.cnt_missing.copy(),
                                ds.cnt_thresholds, cnt_rows)
    ba_table = PredictionTable("ba", ds.ba_missing.copy(),
                               ds.ba_thresholds, ba_rows)

    rule_lists = []
    if pair_rule:
        rule_lists.append(deduce_from_pair(ds))
    if water_rule:
        rule_lists.append(deduce_from_water(ds, water_cut=water_cut))
    rule_lists.append(saturation_flags(ds))
    resolved = resolve_forced(*rule_lists)
    cnt_table = apply_overrides(cnt_table, resolved)
    ba_table = apply_overrides(ba_table, resolved)

    forced: dict = {}
    for (index, variable, _), fp in resolved.items():
        forced.setdefault((index, variable), []).append(fp.kind)
    diags = tuple(
        replace(d, forced="+".join(sorted(forced.get((d.index, d.variable), []))))
        for d in cnt_diags + ba_diags)
    return PredictResult(cnt=cnt_table, ba=ba_table, diagnostics=diags)


def benchmark_tables(ds: Dataset) -> PredictResult:
    """Pooled empirical CDF over all non-missing same-month observations."""
    tables = {}
    for variable in ("cnt", "ba"):
        missing = ds.cnt_missing if variable == "cnt" else ds.ba_missing
        column = ds.cnt if variable == "cnt" else ds.ba
        grid = ds.cnt_thresholds if variable == "cnt" else ds.ba_thresholds
        pool_rows = {}
        rows = np.zeros((missing.size, grid.size))
        for pos, i in enumerate(missing):
            m = int(ds.month[i])
            if m not in pool_rows:
                sample = column[ds.month == m]
                sample = sample[~np.isnan(sample)]
                if sample.size == 0:
                    raise DataError(f"no observed {variable} values for month {m}")
                pool_rows[m] = pooled_ecdf_row(sample, grid)
            rows[pos] = pool_rows[m]
        tables[variable] = PredictionTable(variable, missing.copy(), grid, rows)
    return PredictResult(cnt=tables["cnt"], ba=tables["ba"], diagnostics=())


@dataclass(frozen=True)
class ScoreReport:
    cnt_score: float
    ba_score: float
    cnt_scored: int
    ba_scored: int
    cnt_skipped: int          # indices absent from the truth mapping
    ba_skipped: int

    @property
    def total(self) -> float:
        return self.cnt_score + self.ba_score


def score_tables(cnt_table: PredictionTable, ba_table: PredictionTable,
                 cnt_truth: dict, ba_truth: dict,
                 cnt_weights=None, ba_weights=None) -> ScoreReport:
    """Total weighted score of both tables against observed truth values."""
    totals = {}
    for table, truth, weights in ((cnt_table, cnt_truth, cnt_weights),
                                  (ba_table, ba_truth, ba_weights)):
        config = ScoreConfig(table.thresholds, weights)
        scored = [pos for pos, i in enumerate(table.indices) if int(i) in truth]
        observed = [truth[int(table.indices[pos])] for pos in scored]
        scores = score_rows(table.rows[scored], observed, config)
        totals[table.variable] = (float(np.sum(scores)), len(scored),
                                  table.indices.size - len(scored))
    return ScoreReport(cnt_score=totals["cnt"][0], ba_score=totals["ba"][0],
                       cnt_scored=totals["cnt"][1], ba_scored=totals["ba"][1],
                       cnt_skipped=totals["cnt"][2], ba_skipped=totals["ba"][2])


def write_prediction_csv(table: PredictionTable, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "threshold", "probability"])
        for pos, i in enumerate(table.indices):
            for u, p in zip(table.thresholds, table.rows[pos]):
                writer.writerow([int(i), f"{u:.17g}", f"{p:.17g}"])


def read_prediction_csv(path: str, variable: str) -> PredictionTable:
    by_index: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["index", "threshold", "probability"]:
            raise DataError(f"{path}: not a prediction file")
        for rec in reader:
            by_index.setdefault(int(rec["index"]), []).append(
                (float(rec["threshold"]), float(rec["probability"])))
    if not by_index:
        raise DataError(f"{path}: empty prediction file")
    indices = np.array(sorted(by_index), dtype=np.int64)
    first = sorted(by_index[int(indices[0])])
    thresholds = np.array([u for u, _ in first])
    rows = np.zeros((indices.size, thresholds.size))
    for pos, i in enumerate(indices):
        pairs = sorted(by_index[int(i)])
        if [u for u, _ in pairs] != list(thresholds):
            raise DataError(f"{path}: inconsistent thresholds at index {int(i)}")
        rows[pos] = [p for _, p in pairs]
    return PredictionTable(variable, indices, thresholds, rows)


def write_diagnostics_csv(diagnostics, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "variable", "source", "sample_size",
                         "model", "fallback", "forced"])
        for d in diagnostics:
            writer.writerow([d.index, d.variable, d.source, d.sample_size,
                             d.model, d.fallback, d.forced])


def write_score_csv(report: ScoreReport, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "scored", "skipped", "score"])
        writer.writerow(["cnt", report.cnt_scored, report.cnt_skipped,
                         f"{report.cnt_score:.17g}"])
        writer.writerow(["ba", report.ba_scored, report.ba_skipped,
                         f"{report.ba_score:.17g}"])
        writer.writerow(["total", report.cnt_scored + report.ba_scored,
                         report.cnt_skipped + report.ba_skipped,
                         f"{report.total:.17g}"])


def write_tuning_csv(result: TuningResult, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "radius_km", "quantile", "score"])
        for radius, score in result.cnt_scores:
            writer.writerow(["cnt", f"{radius:g}", "", f"{score:.17g}"])
        for radius, q, score in result.bap_scores:
            writer.writerow(["ba", f"{radius:g}", f"{q:g}", f"{score:.17g}"])


def write_truth_csv(indices_cnt, cnt_values: dict, indices_ba, ba_values: dict,
                    path: str) -> None:
    """Withheld values for masked indices; NA where a variable is not masked."""
    every = sorted(set(int(i) for i in indices_cnt) | set(int(i) for i in indices_ba))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "cnt", "ba"])
        for i in every:
            cnt = cnt_values.get(i)
            ba = ba_values.get(i)
            writer.writerow([i,
                             "NA" if cnt is None else f"{cnt:.17g}",
                             "NA" if ba is None else f"{ba:.17g}"])


def read_truth_csv(path: str) -> tuple[dict, dict]:
    """Withheld (cnt, ba) values by index. Each must be finite and
    nonnegative, and a count a whole number: a NaN truth would score as
    if it lay above every threshold."""
    truth: dict = {"cnt": {}, "ba": {}}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["index", "cnt", "ba"]:
            raise DataError(f"{path}: not a truth file")
        for rec in reader:
            i = int(rec["index"])
            for variable, values in truth.items():
                raw = rec[variable]
                if raw in ("", "NA"):
                    continue
                try:
                    value = float(raw)
                except ValueError:
                    value = math.nan
                whole = variable == "ba" or value.is_integer()
                if not (math.isfinite(value) and value >= 0 and whole):
                    kind = "whole number" if variable == "cnt" else "number"
                    raise DataError(f"{path}:{reader.line_num}: {variable} truth "
                                    f"{raw!r} is not a finite nonnegative {kind}")
                values[i] = value
    return truth["cnt"], truth["ba"]


@dataclass(frozen=True)
class RunArtifacts:
    config: RunConfig
    dataset: Dataset
    result: PredictResult
    tuning: TuningResult | None
    report: ScoreReport | None
    paths: dict


def choose_water_cut(ds: Dataset, config: RunConfig) -> float:
    """The lc18 cut of the water rule: calibrated on the data when
    config.calibrate_water is set, config.water_cut otherwise."""
    if config.calibrate_water:
        return calibrate_water_cut(ds, target_prob=config.water_target)
    return config.water_cut


def load_dataset(config: RunConfig) -> Dataset:
    """Stage ingest: config.data_path on the config's threshold grids
    and cell geometry."""
    return ingest(config.data_path,
                  cnt_thresholds=config.cnt_thresholds,
                  ba_thresholds=config.ba_thresholds,
                  radius_km=config.earth_radius_km,
                  unit_scale=config.unit_scale,
                  lon_width=config.lon_width,
                  lat_height=config.lat_height)


def _spec(config: RunConfig, radius_km: float) -> NeighborhoodSpec:
    return NeighborhoodSpec(variant=config.variant, radius_km=float(radius_km),
                            year_half_width=config.ky,
                            cluster_covariate=config.cluster_covariate)


def tune_parameters(ds: Dataset, config: RunConfig) -> TuningResult:
    """Stage tune: cross-validation over the config's radius and
    quantile grids, with its neighborhood variant and score weights."""
    return select_parameters(
        ds, TuningGrid(radii=config.radii),
        TuningGrid(radii=config.radii, quantiles=config.quantiles),
        base_spec=_spec(config, config.radii[0]),
        cnt_weights=config.cnt_weights, ba_weights=config.ba_weights)


def _workers(config: RunConfig) -> int:
    return config.workers or os.cpu_count() or 1


def predict_missing(ds: Dataset, config: RunConfig, water_cut: float) -> PredictResult:
    """Stage predict: predict_tables at the config's k1/k2 (all set),
    with its rules and the given water cut."""
    return predict_tables(ds, _spec(config, config.k1_cnt),
                          _spec(config, config.k1_bap), config.k2_bap,
                          pair_rule=config.pair_rule,
                          water_rule=config.water_rule,
                          water_cut=water_cut, workers=_workers(config))


def write_predictions(result: PredictResult, out_dir: str) -> dict:
    """Both prediction tables and the diagnostics, by file name."""
    paths = {name: os.path.join(out_dir, name) for name in
             ("predictions_cnt.csv", "predictions_ba.csv", "diagnostics.csv")}
    write_prediction_csv(result.cnt, paths["predictions_cnt.csv"])
    write_prediction_csv(result.ba, paths["predictions_ba.csv"])
    write_diagnostics_csv(result.diagnostics, paths["diagnostics.csv"])
    return paths


def run_all(config: RunConfig) -> RunArtifacts:
    """ingest -> rules -> tune -> predict -> score, all artifacts on disk."""
    stage = "ingest"
    try:
        ds = load_dataset(config)
        os.makedirs(config.out_dir, exist_ok=True)

        stage = "rules"
        bad = anomalous_rows(ds)
        if bad.size:
            log.warning("%d rows disagree about zero across variables", bad.size)
        water_cut = choose_water_cut(ds, config)

        stage = "tune"
        tuning = None
        if config.k1_cnt is None or config.k1_bap is None or config.k2_bap is None:
            tuning = tune_parameters(ds, config)
            config = replace(
                config,
                k1_cnt=config.k1_cnt if config.k1_cnt is not None else tuning.cnt_radius,
                k1_bap=config.k1_bap if config.k1_bap is not None else tuning.bap_radius,
                k2_bap=config.k2_bap if config.k2_bap is not None else tuning.bap_quantile)

        stage = "predict"
        result = predict_missing(ds, config, water_cut)

        stage = "score"
        report = None
        if config.truth_path is not None:
            cnt_truth, ba_truth = read_truth_csv(config.truth_path)
            report = score_tables(result.cnt, result.ba, cnt_truth, ba_truth,
                                  cnt_weights=config.cnt_weights,
                                  ba_weights=config.ba_weights)

        stage = "write"
        paths = write_predictions(result, config.out_dir)
        paths["manifest.json"] = os.path.join(config.out_dir, "manifest.json")
        if tuning is not None:
            paths["tuning.csv"] = os.path.join(config.out_dir, "tuning.csv")
            write_tuning_csv(tuning, paths["tuning.csv"])
        if report is not None:
            paths["scores.csv"] = os.path.join(config.out_dir, "scores.csv")
            write_score_csv(report, paths["scores.csv"])

        manifest = {
            "version": __version__,
            "config_hash": config_hash(config),
            "seed": config.seed,
            "workers": _workers(config),
            "selected": {"k1_cnt": config.k1_cnt, "k1_bap": config.k1_bap,
                         "k2_bap": config.k2_bap, "variant": config.variant,
                         "ky": config.ky},
            "water_cut": water_cut,
            "rows": {"cnt_missing": int(ds.cnt_missing.size),
                     "ba_missing": int(ds.ba_missing.size),
                     "total": int(ds.n)},
            "score": None if report is None else {
                "cnt": report.cnt_score, "ba": report.ba_score,
                "total": report.total},
        }
        with open(paths["manifest.json"], "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except FiremargError as exc:
        raise FiremargError(f"stage {stage}: {exc}") from exc
    return RunArtifacts(config=config, dataset=ds, result=result,
                        tuning=tuning, report=report, paths=paths)
