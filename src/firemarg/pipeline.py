"""End-to-end prediction: model fits per chunk of missing indices,
rule overrides, the pooled-empirical benchmark, scoring against
withheld truth, and the `run` orchestration that writes all artifacts.
Its stages (`load_dataset`, `tune_parameters`, `predict_missing`) are
what the `ingest`, `explore`, `tune` and `predict` commands call.

The missing indices of each variable are split into consecutive
chunks, and one worker pool runs the chunks of both variables. A chunk
builds its indices' samples with one stacked `fitting_samples` query;
its count models come from one stacked `fit_zinbs` call, and its
burnt-area models from one `fit_mixture` call per index. One
`cdf_rows` call then builds all of the chunk's rows with the family's
stacked row kernel, as in cross-validation. Burnt-area rows are
modelled in proportion space and emitted against the absolute
threshold grid; the rescaling by cell capacity stays internal. Samples,
fits and rows of a stacked call equal lone calls bit for bit, so a row
does not depend on its chunk, and the worker pool cannot change any
value: each variable's chunks are joined back in index order.
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
from .burnt_area import cdf_rows, fit_mixture
from .config import RunConfig, config_hash, short_number
from .counts import fit_zinbs
from .data import Dataset, PredictionTable, _to_float, ingest
from .errors import DataError, FiremargError
from .neighborhoods import NeighborhoodSpec, fitting_samples
from .rules import (
    DEFAULT_WATER_CUT,
    anomalous_rows,
    apply_overrides,
    calibrate_water_cut,
    deduce_from_pair,
    deduce_from_water,
    forced_labels,
    resolve_forced,
    saturation_flags,
)
from .scoring import ROW_TOL, ScoreConfig, pooled_ecdf_row, score_rows
from .tuning import TuningGrid, TuningResult, select_parameters

# bench/tracer.py wraps these names in this module; nothing here calls them
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


# The Dataset of a pool worker, set once by _init_worker when the
# worker starts, so chunk payloads carry only indices and settings.
_WORKER_DS: Dataset | None = None


def _init_worker(ds: Dataset) -> None:
    global _WORKER_DS
    _WORKER_DS = ds


def _predict_block(payload, ds: Dataset | None = None):
    """(rows, diagnostics) of one chunk, in index order, on ds or, in a
    pool worker, on the worker's Dataset. Count models are fitted by one
    `fit_zinbs` call, burnt-area models one index at a time, and the
    rows, one array, are built by one `cdf_rows` call on all of them."""
    indices, variable, spec, k2 = payload
    ds = _WORKER_DS if ds is None else ds
    samples, sources = zip(*fitting_samples(ds, indices, variable, spec))
    for i, sample in zip(indices.tolist(), samples):
        if not sample.size:
            raise DataError(f"no observed {variable} values for month {int(ds.month[i])}")
    if variable == "cnt":
        grid, models = ds.cnt_thresholds, fit_zinbs(samples)
    else:
        grid, models = ds.ba_thresholds, [fit_mixture(s, k2) for s in samples]
    rows = cdf_rows(models, grid, ds.capacity[indices])[0]
    return rows, [Diagnostic(index=i, variable=variable, source=source,
                             sample_size=int(sample.size), model=model.kind,
                             fallback=model.fallback_reason or "", forced="")
                  for i, sample, source, model in zip(indices.tolist(), samples, sources, models)]


def _predict_rows(ds: Dataset, jobs, workers: int) -> list:
    """(rows, diagnostics) of each (variable, spec, k2) job, in order.
    Each variable's missing indices are split into `workers * 4`
    consecutive chunks, and every chunk of every job runs on one worker
    pool; the results are joined back by job in index order."""
    payloads, chunks = [], []
    for variable, spec, k2 in jobs:
        missing = ds.cnt_missing if variable == "cnt" else ds.ba_missing
        parts = (np.array_split(missing, min(workers * 4, missing.size))
                 if missing.size else [])
        payloads += [(c, variable, spec, k2) for c in parts]
        chunks.append(len(parts))
    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(ds,)) as pool:
            blocks = list(pool.map(_predict_block, payloads))
    else:
        blocks = [_predict_block(p, ds) for p in payloads]
    out = []
    for (variable, _, _), n in zip(jobs, chunks):
        # chunks are consecutive and map keeps their order: index order;
        # the empty block shapes a variable with no missing index
        grid = ds.cnt_thresholds if variable == "cnt" else ds.ba_thresholds
        rows = np.concatenate([np.empty((0, grid.size))] + [r for r, _ in blocks[:n]])
        out.append((rows, [d for _, diags in blocks[:n] for d in diags]))
        blocks = blocks[n:]
    return out


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
    (cnt_rows, cnt_diags), (ba_rows, ba_diags) = _predict_rows(
        ds, (("cnt", cnt_spec, None), ("ba", bap_spec, k2)), workers)
    cnt_table = PredictionTable("cnt", ds.cnt_missing.copy(),
                                ds.cnt_thresholds, cnt_rows)
    ba_table = PredictionTable("ba", ds.ba_missing.copy(),
                               ds.ba_thresholds, ba_rows)

    resolved = resolve_forced(
        ds, pair=deduce_from_pair(ds) if pair_rule else None,
        water=deduce_from_water(ds, water_cut=water_cut) if water_rule else None)
    cnt_table = apply_overrides(cnt_table, resolved)
    ba_table = apply_overrides(ba_table, resolved)

    labels = (forced_labels(resolved["cnt"])
              + forced_labels(resolved["ba"], saturation_flags(ds).any(axis=1)))
    diags = tuple(replace(d, forced=label)
                  for d, label in zip(cnt_diags + ba_diags, labels))
    return PredictResult(cnt=cnt_table, ba=ba_table, diagnostics=diags)


def benchmark_tables(ds: Dataset) -> PredictResult:
    """Pooled empirical CDF over all non-missing same-month observations."""
    tables = {}
    for variable in ("cnt", "ba"):
        missing = ds.cnt_missing if variable == "cnt" else ds.ba_missing
        column = ds.cnt if variable == "cnt" else ds.ba
        grid = ds.cnt_thresholds if variable == "cnt" else ds.ba_thresholds
        months = ds.month[missing]
        rows = np.zeros((missing.size, grid.size))
        for m in dict.fromkeys(months.tolist()):
            sample = column[ds.rows(m)]
            sample = sample[~np.isnan(sample)]
            if sample.size == 0:
                raise DataError(f"no observed {variable} values for month {m}")
            rows[months == m] = pooled_ecdf_row(sample, grid)
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
    """One (index, threshold, probability) line per cell of the table,
    as csv.writer writes them (no field needs quoting), one joined
    string per row."""
    thresholds = [f"{u:.17g}" for u in table.thresholds.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("index,threshold,probability\r\n")
        for i, row in zip(table.indices.tolist(), table.rows.tolist()):
            fh.write("".join([f"{i},{u},{p:.17g}\r\n"
                              for u, p in zip(thresholds, row)]))


def _csv_records(path: str, header: tuple, kind: str):
    """(line, record) of each data row of a CSV file whose header is
    exactly `header`. Another header, or a row with a field missing or
    extra, or a file that cannot be opened, raises DataError naming the
    path (and the line)."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(header):
            raise DataError(f"{path}: not a {kind} file")
        for rec in reader:
            if None in rec or None in rec.values():
                raise DataError(f"{path}:{reader.line_num}: expected "
                                f"{len(header)} fields")
            yield reader.line_num, rec


def _parse(raw: str, cast, path: str, line: int, column: str):
    """cast(raw), or DataError naming path:line when raw does not parse
    or breaks ingest's token rule (`data._to_float`)."""
    try:
        _to_float(raw)
        return cast(raw)
    except ValueError:
        raise DataError(f"{path}:{line}: cannot parse {column}={raw!r}") from None


def read_prediction_csv(path: str, variable: str) -> PredictionTable:
    """A prediction table, one (index, threshold) pair per line; every
    index must carry the same threshold grid. Thresholds must be finite
    and probabilities lie in [0, 1] to `scoring.ROW_TOL`, as
    `score_rows` requires."""
    by_index: dict = {}
    first_line: dict = {}
    for line, rec in _csv_records(path, ("index", "threshold", "probability"),
                                  "prediction"):
        i = _parse(rec["index"], int, path, line, "index")
        u = _parse(rec["threshold"], float, path, line, "threshold")
        if not math.isfinite(u):
            raise DataError(f"{path}:{line}: threshold {u} is not finite")
        if (i, u) in first_line:
            raise DataError(f"{path}:{line}: repeated (index, threshold) "
                            f"({i}, {u:g}), first seen at line {first_line[i, u]}")
        first_line[i, u] = line
        p = _parse(rec["probability"], float, path, line, "probability")
        if not -ROW_TOL <= p <= 1.0 + ROW_TOL:       # NaN fails too
            raise DataError(f"{path}:{line}: probability {p} is not in [0, 1]")
        by_index.setdefault(i, []).append((u, p))
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
            writer.writerow(["cnt", short_number(radius), "", f"{score:.17g}"])
        for radius, q, score in result.bap_scores:
            writer.writerow(["ba", short_number(radius), short_number(q),
                             f"{score:.17g}"])


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
    """Withheld (cnt, ba) values by index, one row per index. Each must
    be finite and nonnegative, and a count a whole number: a NaN truth
    would score as if it lay above every threshold."""
    truth: dict = {"cnt": {}, "ba": {}}
    first_line: dict = {}
    for line, rec in _csv_records(path, ("index", "cnt", "ba"), "truth"):
        i = _parse(rec["index"], int, path, line, "index")
        if i in first_line:
            raise DataError(f"{path}:{line}: repeated index {i}, first seen "
                            f"at line {first_line[i]}")
        first_line[i] = line
        for variable, values in truth.items():
            raw = rec[variable]
            if raw in ("", "NA"):
                continue
            try:
                value = _to_float(raw)
            except ValueError:
                value = math.nan
            whole = variable == "ba" or value.is_integer()
            if not (math.isfinite(value) and value >= 0 and whole):
                kind = "whole number" if variable == "cnt" else "number"
                raise DataError(f"{path}:{line}: {variable} truth "
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
    """ingest -> rules -> tune -> predict -> score, all artifacts on disk.
    The truth CSV, when given, is read and checked at ingest, so a bad
    one fails before any fit."""
    stage = "ingest"
    try:
        ds = load_dataset(config)
        truth = None if config.truth_path is None else read_truth_csv(config.truth_path)
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
        if truth is not None:
            report = score_tables(result.cnt, result.ba, *truth,
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
