"""Command-line interface.

Settings flags by command; each takes only those its handler reads:

    config, run     --config --seed --workers --no-rules --variant --k1 --k2
                    --ky --weights
    predict         --config --workers --no-rules --variant --k1 --k2 --ky
    tune            --config --variant --ky --weights
    score           --config --weights
    synth, explore  --config --seed
    ingest          --config

Flags override the config file, which overrides built-in defaults.
Numbers are read by ingest's token rule (data._to_float), so "1_0" fails.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .config import (RunConfig, _integer, _numbers, format_config, load_config,
                     with_overrides)
from .data import _to_float, write_csv
from .dependence import dependence_report, quadrant_split
from .errors import DataError, FiremargError
from .neighborhoods import VARIANTS
from .pipeline import (
    choose_water_cut,
    load_dataset,
    predict_missing,
    read_prediction_csv,
    read_truth_csv,
    run_all,
    score_tables,
    tune_parameters,
    write_predictions,
    write_score_csv,
    write_truth_csv,
    write_tuning_csv,
)
from .rules import anomalous_rows
from .synth import SyntheticSpec, generate

log = logging.getLogger(__name__)


def _integers(raw: str) -> tuple:
    return tuple(_integer(t) for t in raw.replace(",", " ").split())


def _flag_type(parse, kind: str):
    """parse as an argparse type: a token it rejects is reported as
    "invalid <kind>: '<token>'" after the flag's name."""
    def read(raw: str):
        try:
            return parse(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind}: {raw!r}") from None
    return read


_NUMBER = _flag_type(_to_float, "number")
_INTEGER = _flag_type(_integer, "integer")
_NUMBERS = _flag_type(_numbers, "list of numbers")
_INTEGERS = _flag_type(_integers, "list of integers")


def _read_weights(path: str) -> tuple:
    """Score weights, one per nonblank line; DataError naming the path,
    and the line for a value that does not parse, or saying that the
    file holds none."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read weights {path}: {exc}") from exc
    weights = []
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                weights.append(_to_float(line.strip()))
            except ValueError:
                raise DataError(f"{path}:{number}: cannot parse weight "
                                f"{line.strip()!r}") from None
    if not weights:
        raise DataError(f"weights file {path} holds no weights")
    return tuple(weights)


# The settings flags by argparse dest; each command adds those it reads.
_SETTINGS = {
    "config": dict(metavar="FILE", help="INI config file"),
    "seed": dict(type=_INTEGER),
    "workers": dict(type=_INTEGER),
    "no_rules": dict(action="store_true", help="disable the pair and water deductions"),
    "variant": dict(choices=VARIANTS),
    "k1": dict(type=_NUMBER, metavar="KM", help="neighborhood radius for both variables"),
    "k2": dict(type=_NUMBER, metavar="LEVEL",
               help="non-exceedance level of the burnt-area tail threshold"),
    "ky": dict(type=_INTEGER, help="year half-width (temporal variant)"),
    "weights": dict(metavar="FILE", help="score weights, one per line, applied to both grids"),
}


def _config_from_args(args, **extra) -> RunConfig:
    config = load_config(args.config)
    overrides = dict(seed=args.seed, workers=args.workers,
                     variant=args.variant, ky=args.ky, k2_bap=args.k2)
    if args.k1 is not None:
        overrides.update(k1_cnt=args.k1, k1_bap=args.k1)
    if args.no_rules:
        overrides.update(pair_rule=False, water_rule=False)
    if args.weights:
        w = _read_weights(args.weights)
        overrides.update(cnt_weights=w, ba_weights=w)
    overrides.update(extra)
    return with_overrides(config, **overrides)


def cmd_config(args) -> int:
    print(format_config(None if args.defaults else _config_from_args(args)), end="")
    return 0


def cmd_ingest(args) -> int:
    ds = load_dataset(_config_from_args(args, data_path=args.data))
    bad = anomalous_rows(ds)
    print(f"rows: {ds.n}")
    print(f"slices: {len(ds.slice_keys)}")
    print(f"missing cnt: {ds.cnt_missing.size}")
    print(f"missing ba: {ds.ba_missing.size}")
    print(f"zero-disagreement rows: {bad.size}")
    if args.out:
        write_csv(ds, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_synth(args) -> int:
    config = _config_from_args(args)
    spec = SyntheticSpec(
        nx=args.nx, ny=args.ny, spacing=args.spacing,
        months=args.months, years=args.years,
        block_km=args.block_km, year_drift=args.drift,
        cnt_missing_rate=args.rate, ba_missing_rate=args.rate,
        mask_overlap=args.overlap, water_frac=args.water_frac,
        small_area_frac=args.small_area_frac)
    ds, truth = generate(spec, seed=config.seed)
    os.makedirs(args.out, exist_ok=True)
    data_path = os.path.join(args.out, "data.csv")
    truth_path = os.path.join(args.out, "truth.csv")
    write_csv(ds, data_path)
    write_truth_csv(ds.cnt_missing,
                    {int(i): float(truth.cnt_full[i]) for i in ds.cnt_missing},
                    ds.ba_missing,
                    {int(i): float(truth.ba_full[i]) for i in ds.ba_missing},
                    truth_path)
    print(f"wrote {data_path} ({ds.n} rows, {ds.cnt_missing.size} cnt / "
          f"{ds.ba_missing.size} ba masked)")
    print(f"wrote {truth_path}")
    return 0


def cmd_explore(args) -> int:
    config = _config_from_args(args, data_path=args.data)
    ds = load_dataset(config)
    paired = ~np.isnan(ds.cnt) & ~np.isnan(ds.ba)
    regions = {"ALL": np.flatnonzero(paired)}
    for name, ids in quadrant_split(ds.lon, ds.lat).items():
        regions[name] = ids[paired[ids]]

    lines = ["region,n,u,tau,tau_lo,tau_hi,chi,chi_lo,chi_hi,"
             "chibar,chibar_lo,chibar_hi"]
    for name, ids in regions.items():
        for u in args.levels:
            try:
                rep = dependence_report(ds.cnt[ids], ds.ba[ids], name, u,
                                        n_boot=args.boot, seed=config.seed)
                lines.append(
                    f"{rep.region},{rep.n},{rep.u:g},"
                    f"{rep.tau:.6f},{rep.tau_ci[0]:.6f},{rep.tau_ci[1]:.6f},"
                    f"{rep.chi:.6f},{rep.chi_ci[0]:.6f},{rep.chi_ci[1]:.6f},"
                    f"{rep.chibar:.6f},{rep.chibar_ci[0]:.6f},{rep.chibar_ci[1]:.6f}")
            except FiremargError as exc:
                log.warning("region %s at u=%g: %s", name, u, exc)
                lines.append(f"{name},{ids.size},{u:g}" + ",NA" * 9)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_tune(args) -> int:
    config = _config_from_args(args, data_path=args.data, out_dir=args.out)
    result = tune_parameters(load_dataset(config), config)
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "tuning.csv")
    write_tuning_csv(result, path)
    print(f"selected k1_cnt={result.cnt_radius:g} km, "
          f"k1_bap={result.bap_radius:g} km, k2_bap={result.bap_quantile:g}")
    print(f"wrote {path}")
    return 0


def cmd_predict(args) -> int:
    config = _config_from_args(args, data_path=args.data, out_dir=args.out)
    if config.k1_cnt is None or config.k1_bap is None or config.k2_bap is None:
        raise FiremargError("k1/k2 not set: run `tune` first, set them in the "
                            "config, or pass --k1/--k2")
    ds = load_dataset(config)
    result = predict_missing(ds, config, choose_water_cut(ds, config))
    os.makedirs(config.out_dir, exist_ok=True)
    for path in write_predictions(result, config.out_dir).values():
        print(f"wrote {path}")
    return 0


def cmd_score(args) -> int:
    config = _config_from_args(args)
    cnt_table = read_prediction_csv(
        os.path.join(args.pred, "predictions_cnt.csv"), "cnt")
    ba_table = read_prediction_csv(
        os.path.join(args.pred, "predictions_ba.csv"), "ba")
    cnt_truth, ba_truth = read_truth_csv(args.truth)
    report = score_tables(cnt_table, ba_table, cnt_truth, ba_truth,
                          cnt_weights=config.cnt_weights,
                          ba_weights=config.ba_weights)
    out = args.out or os.path.join(args.pred, "scores.csv")
    write_score_csv(report, out)
    print(f"cnt score: {report.cnt_score:.6f} ({report.cnt_scored} rows)")
    print(f"ba score: {report.ba_score:.6f} ({report.ba_scored} rows)")
    print(f"total: {report.total:.6f}")
    print(f"wrote {out}")
    return 0


def cmd_run(args) -> int:
    config = _config_from_args(args, data_path=args.data, truth_path=args.truth,
                               out_dir=args.out)
    artifacts = run_all(config)
    for name in sorted(artifacts.paths):
        print(f"wrote {artifacts.paths[name]}")
    if artifacts.tuning is not None:
        sel = artifacts.config
        print(f"selected k1_cnt={sel.k1_cnt:g} km, k1_bap={sel.k1_bap:g} km, "
              f"k2_bap={sel.k2_bap:g}")
    if artifacts.report is not None:
        print(f"total score: {artifacts.report.total:.6f}")
    return 0


def _add_command(sub, name, handler, help, settings) -> argparse.ArgumentParser:
    """Subcommand `name`, run by `handler`, with the named settings flags."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler)
    for setting in settings:
        p.add_argument("--" + setting.replace("_", "-"), **_SETTINGS[setting])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firemarg",
        description="Marginal models for gridded wildfire counts and burnt areas.")
    parser.set_defaults(**dict.fromkeys(_SETTINGS))   # None where a command has no flag
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "config", cmd_config, "print the effective configuration",
                     _SETTINGS)
    p.add_argument("--defaults", action="store_true",
                   help="print built-in defaults, ignoring --config")

    p = _add_command(sub, "ingest", cmd_ingest, "validate a data file and summarize it",
                     ["config"])
    p.add_argument("--data", metavar="FILE")
    p.add_argument("--out", metavar="FILE", help="write the normalized CSV")

    p = _add_command(sub, "synth", cmd_synth, "generate a synthetic dataset with truth",
                     ["config", "seed"])
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--nx", type=_INTEGER, default=20)
    p.add_argument("--ny", type=_INTEGER, default=20)
    p.add_argument("--spacing", type=_NUMBER, default=0.5)
    p.add_argument("--months", type=_INTEGERS, default="6")
    p.add_argument("--years", type=_INTEGERS, default="2000")
    p.add_argument("--block-km", type=_NUMBER, default=300.0)
    p.add_argument("--drift", type=_NUMBER, default=0.0)
    p.add_argument("--rate", type=_NUMBER, default=0.1,
                   help="missingness rate for both variables")
    p.add_argument("--overlap", type=_NUMBER, default=0.4)
    p.add_argument("--water-frac", type=_NUMBER, default=0.0)
    p.add_argument("--small-area-frac", type=_NUMBER, default=0.0)

    p = _add_command(sub, "explore", cmd_explore, "dependence diagnostics per region",
                     ["config", "seed"])
    p.add_argument("--data", metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--levels", type=_NUMBERS, default="0.9,0.95,0.99")
    p.add_argument("--boot", type=_INTEGER, default=1000)

    p = _add_command(sub, "tune", cmd_tune, "cross-validate k1 and k2",
                     ["config", "variant", "ky", "weights"])
    p.add_argument("--data", metavar="FILE")
    p.add_argument("--out", metavar="DIR")

    p = _add_command(sub, "predict", cmd_predict, "write prediction tables",
                     ["config", "workers", "no_rules", "variant", "k1", "k2", "ky"])
    p.add_argument("--data", metavar="FILE")
    p.add_argument("--out", metavar="DIR")

    p = _add_command(sub, "score", cmd_score, "score prediction tables against truth",
                     ["config", "weights"])
    p.add_argument("--pred", required=True, metavar="DIR")
    p.add_argument("--truth", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE")

    p = _add_command(sub, "run", cmd_run,
                     "all stages: ingest, rules, tune, predict, score", _SETTINGS)
    p.add_argument("--data", metavar="FILE")
    p.add_argument("--truth", metavar="FILE")
    p.add_argument("--out", metavar="DIR")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FiremargError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
