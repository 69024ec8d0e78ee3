import argparse
import csv
import json
import os
import re

import numpy as np
import pytest

from firemarg.cli import build_parser, main
from firemarg.config import RunConfig, format_config, load_config
from firemarg.data import default_cnt_thresholds
from firemarg.pipeline import read_prediction_csv


@pytest.fixture
def synth_dir(tmp_path):
    out = str(tmp_path / "synth")
    code = main(["synth", "--out", out, "--seed", "7", "--nx", "8", "--ny", "8",
                 "--rate", "0.15"])
    assert code == 0
    return out


def test_config_defaults_round_trip(capsys):
    assert main(["config", "--defaults"]) == 0
    printed = capsys.readouterr().out
    assert load_config(text=printed) == RunConfig()


def test_config_reflects_flags(tmp_path, capsys):
    path = tmp_path / "base.ini"
    path.write_text(format_config(RunConfig(seed=3)))
    assert main(["config", "--config", str(path), "--k1", "125", "--k2", "0.5",
                 "--no-rules"]) == 0
    printed = capsys.readouterr().out
    config = load_config(text=printed)
    assert config.seed == 3
    assert config.k1_cnt == 125.0 and config.k1_bap == 125.0
    assert config.k2_bap == 0.5
    assert config.pair_rule is False and config.water_rule is False


def test_synth_then_ingest(synth_dir, capsys):
    assert main(["ingest", "--data", os.path.join(synth_dir, "data.csv")]) == 0
    out = capsys.readouterr().out
    assert "rows: 64" in out
    assert "missing cnt: 10" in out


def test_predict_requires_parameters(synth_dir, capsys):
    code = main(["predict", "--data", os.path.join(synth_dir, "data.csv"),
                 "--out", synth_dir])
    assert code == 2
    assert "k1/k2 not set" in capsys.readouterr().err


def test_predict_score_run_agree(tmp_path, synth_dir, capsys):
    data = os.path.join(synth_dir, "data.csv")
    truth = os.path.join(synth_dir, "truth.csv")
    pred_dir = str(tmp_path / "pred")
    assert main(["predict", "--data", data, "--out", pred_dir,
                 "--k1", "150", "--k2", "0.5"]) == 0
    assert main(["score", "--pred", pred_dir, "--truth", truth]) == 0
    score_out = capsys.readouterr().out

    run_dir = str(tmp_path / "run")
    assert main(["run", "--data", data, "--truth", truth, "--out", run_dir,
                 "--k1", "150", "--k2", "0.5"]) == 0
    run_out = capsys.readouterr().out
    total = [line for line in score_out.splitlines() if line.startswith("total:")]
    assert total and total[0].split()[1] in run_out

    with open(os.path.join(pred_dir, "predictions_cnt.csv"), "rb") as fh:
        pred_bytes = fh.read()
    with open(os.path.join(run_dir, "predictions_cnt.csv"), "rb") as fh:
        assert fh.read() == pred_bytes


def test_score_rejects_unparseable_prediction(tmp_path, synth_dir, capsys):
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    (pred_dir / "predictions_cnt.csv").write_text(
        "index,threshold,probability\n0,0,0.5\n0,1,abc\n")
    code = main(["score", "--pred", str(pred_dir),
                 "--truth", os.path.join(synth_dir, "truth.csv")])
    assert code == 2
    assert "predictions_cnt.csv:3: cannot parse probability='abc'" in \
        capsys.readouterr().err


def test_score_reports_a_missing_prediction_dir(tmp_path, synth_dir, capsys):
    missing = str(tmp_path / "no_pred")
    code = main(["score", "--pred", missing,
                 "--truth", os.path.join(synth_dir, "truth.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot open ")
    assert "predictions_cnt.csv" in err


def test_predict_calibrates_water_cut_as_run_does(tmp_path):
    out = str(tmp_path / "synth")
    assert main(["synth", "--out", out, "--seed", "3", "--water-frac", "0.1",
                 "--rate", "0.14"]) == 0
    data = os.path.join(out, "data.csv")
    with open(data, newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    # ten masked land rows become water above the calibrated cut (0.5)
    # but stay below the configured one (0.94)
    land = [r for r in rows
            if "NA" in (r["cnt"], r["ba"]) and float(r["lc18"]) < 0.5][:10]
    assert len(land) == 10
    for r in land:
        r["lc18"] = "0.7"
    with open(data, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    config = tmp_path / "water.ini"
    config.write_text(format_config(RunConfig(calibrate_water=True,
                                              water_target=0.5)))
    flags = ["--data", data, "--config", str(config), "--k1", "150",
             "--k2", "0.8", "--workers", "1"]
    pred_dir, run_dir = str(tmp_path / "pred"), str(tmp_path / "run")
    assert main(["predict", "--out", pred_dir] + flags) == 0
    assert main(["run", "--out", run_dir] + flags) == 0

    with open(os.path.join(run_dir, "manifest.json")) as fh:
        assert json.load(fh)["water_cut"] < RunConfig().water_cut
    for name in ("predictions_cnt.csv", "predictions_ba.csv"):
        with open(os.path.join(pred_dir, name), "rb") as fh:
            pred_bytes = fh.read()
        with open(os.path.join(run_dir, name), "rb") as fh:
            assert fh.read() == pred_bytes


def test_no_rules_changes_predictions(tmp_path, synth_dir):
    data = os.path.join(synth_dir, "data.csv")
    on = str(tmp_path / "on")
    off = str(tmp_path / "off")
    for out, extra in ((on, []), (off, ["--no-rules"])):
        assert main(["predict", "--data", data, "--out", out,
                     "--k1", "150", "--k2", "0.5"] + extra) == 0
    with_rules = read_prediction_csv(os.path.join(on, "predictions_cnt.csv"), "cnt")
    without = read_prediction_csv(os.path.join(off, "predictions_cnt.csv"), "cnt")
    assert not np.array_equal(with_rules.rows, without.rows)


def test_weights_file_changes_scores(tmp_path, synth_dir, capsys):
    data = os.path.join(synth_dir, "data.csv")
    truth = os.path.join(synth_dir, "truth.csv")
    weights = tmp_path / "w.txt"
    weights.write_text("2.0\n" * 28)
    totals = []
    for extra in ([], ["--weights", str(weights)]):
        out = str(tmp_path / f"r{len(totals)}")
        assert main(["run", "--data", data, "--truth", truth, "--out", out,
                     "--k1", "150", "--k2", "0.5"] + extra) == 0
        printed = capsys.readouterr().out
        line = [x for x in printed.splitlines() if x.startswith("total score:")]
        totals.append(float(line[0].split()[-1]))
    assert totals[0] != totals[1]


@pytest.mark.parametrize("content, message", [
    (None, "cannot read weights"),
    ("1.0\nabc\n", "w.txt:2: cannot parse weight 'abc'"),
])
def test_bad_weights_file_is_a_cli_error(tmp_path, synth_dir, capsys, content, message):
    weights = tmp_path / "w.txt"
    if content is not None:
        weights.write_text(content)
    code = main(["run", "--data", os.path.join(synth_dir, "data.csv"),
                 "--out", str(tmp_path / "out"), "--weights", str(weights)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert str(weights) in err


def test_run_rejects_non_finite_score_weights(tmp_path, synth_dir, capsys):
    # NaN CV totals would leave the tuned radius to the order of the grid
    weights = ["1"] * default_cnt_thresholds().size
    weights[1] = "nan"
    config_path = tmp_path / "nan.ini"
    config_path.write_text("[model]\nradii = 100 150\nquantiles = 0.5\n"
                           f"[score]\ncnt_weights = {' '.join(weights)}\n"
                           "[run]\nworkers = 1\n")
    code = main(["run", "--data", os.path.join(synth_dir, "data.csv"),
                 "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "weights must be finite" in err


def test_tune_command(tmp_path, synth_dir, capsys):
    data = os.path.join(synth_dir, "data.csv")
    config_path = tmp_path / "t.ini"
    config_path.write_text(format_config(RunConfig(
        radii=(100.0, 150.0), quantiles=(0.5,))))
    out = str(tmp_path / "tuned")
    assert main(["tune", "--data", data, "--config", str(config_path),
                 "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "selected k1_cnt=" in printed
    lines = open(os.path.join(out, "tuning.csv")).read().splitlines()
    assert lines[0] == "variable,radius_km,quantile,score"
    assert len(lines) == 1 + 2 + 2       # two cnt radii, two ba combinations


def test_tune_writes_the_tuning_csv_of_run(tmp_path, synth_dir):
    data = os.path.join(synth_dir, "data.csv")
    config_path = tmp_path / "t.ini"
    config_path.write_text(format_config(RunConfig(
        radii=(100.0, 150.0), quantiles=(0.4, 0.6), workers=1)))
    tune_dir, run_dir = str(tmp_path / "tune"), str(tmp_path / "run")
    for command, out in (("tune", tune_dir), ("run", run_dir)):
        assert main([command, "--data", data, "--config", str(config_path),
                     "--out", out]) == 0
    with open(os.path.join(tune_dir, "tuning.csv"), "rb") as fh:
        tuned = fh.read()
    with open(os.path.join(run_dir, "tuning.csv"), "rb") as fh:
        assert fh.read() == tuned


def test_explore_command(tmp_path, synth_dir):
    data = os.path.join(synth_dir, "data.csv")
    out = str(tmp_path / "dep.csv")
    assert main(["explore", "--data", data, "--levels", "0.9", "--boot", "100",
                 "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("region,n,u,tau")
    assert len(lines) == 6               # ALL plus four quadrants
    all_row = lines[1].split(",")
    assert all_row[0] == "ALL"
    assert -1.0 <= float(all_row[3]) <= 1.0


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# The settings flags each command takes: those its handler reads.
ALL_SETTINGS = ("--config", "--seed", "--workers", "--no-rules", "--variant",
                "--k1", "--k2", "--ky", "--weights")
COMMAND_SETTINGS = {
    "config": ALL_SETTINGS,
    "ingest": ("--config",),
    "synth": ("--config", "--seed"),
    "explore": ("--config", "--seed"),
    "tune": ("--config", "--variant", "--ky", "--weights"),
    "predict": ("--config", "--workers", "--no-rules", "--variant", "--k1",
                "--k2", "--ky"),
    "score": ("--config", "--weights"),
    "run": ALL_SETTINGS,
}
REQUIRED = {"synth": ["--out", "d"], "score": ["--pred", "d", "--truth", "t.csv"]}
FLAG_VALUES = {"--config": ["c.ini"], "--seed": ["3"], "--workers": ["2"],
               "--no-rules": [], "--variant": ["temporal"], "--k1": ["100"],
               "--k2": ["0.5"], "--ky": ["2"], "--weights": ["w.txt"]}


def test_settings_flag_slots():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    slots = {name: tuple(flag for action in sub._actions
                         for flag in action.option_strings if flag in ALL_SETTINGS)
             for name, sub in commands.items()}
    assert slots == COMMAND_SETTINGS
    assert sum(map(len, slots.values())) == 36


@pytest.mark.parametrize("command", sorted(COMMAND_SETTINGS))
@pytest.mark.parametrize("flag", ALL_SETTINGS)
def test_command_takes_only_the_settings_it_reads(command, flag, capsys):
    argv = [command] + REQUIRED.get(command, []) + [flag] + FLAG_VALUES[flag]
    if flag in COMMAND_SETTINGS[command]:
        args = build_parser().parse_args(argv)
        assert getattr(args, flag[2:].replace("-", "_")) not in (None, False)
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, token", [
    (["predict", "--k1", "1_0"], "--k1", "1_0"),
    (["run", "--seed", "1_0"], "--seed", "1_0"),
    (["synth", "--out", "d", "--months", "6 1_0"], "--months", "6 1_0"),
    (["synth", "--out", "d", "--nx", "1_0"], "--nx", "1_0"),
    (["explore", "--levels", "0.9 0.9_5"], "--levels", "0.9 0.9_5"),
])
def test_digit_group_underscores_rejected_in_flags(argv, flag, token, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid" in err and repr(token) in err


@pytest.mark.parametrize("text, key", [
    ("[model]\nradii = 1_00 200\n", "radii"),
    ("[model]\nk1_cnt = 1_0\n", "k1_cnt"),
    ("[run]\nseed = 1_0\n", "seed"),
])
def test_digit_group_underscores_rejected_in_config_values(tmp_path, capsys, text, key):
    path = tmp_path / "u.ini"
    path.write_text(text)
    assert main(["config", "--config", str(path)]) == 2
    assert f"error: bad value for {key!r}: " in capsys.readouterr().err


def test_digit_group_underscores_rejected_in_weights_file(tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("1\n1_0\n")
    assert main(["config", "--weights", str(weights)]) == 2
    assert f"{weights}:2: cannot parse weight '1_0'" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["", "\n  \n\n"])
def test_empty_weights_file_is_named(tmp_path, capsys, content):
    weights = tmp_path / "w.txt"
    weights.write_text(content)
    assert main(["config", "--weights", str(weights)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: weights file {weights} holds no weights\n"


@pytest.mark.parametrize("argv, flag, token", [
    (["predict", "--k1", "1_0"], "--k1", "1_0"),
    (["predict", "--workers", "two"], "--workers", "two"),
    (["synth", "--out", "d", "--months", "6 1_0"], "--months", "6 1_0"),
    (["synth", "--out", "d", "--spacing", "0,5"], "--spacing", "0,5"),
    (["explore", "--levels", "0.9 x"], "--levels", "0.9 x"),
    (["explore", "--boot", "1e3"], "--boot", "1e3"),
])
def test_flag_errors_name_the_flag_and_token_only(argv, flag, token, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    line = capsys.readouterr().err.strip().splitlines()[-1]
    assert f"argument {flag}: invalid " in line and line.endswith(repr(token))
    # no private function name such as _to_float or _integers
    assert not re.search(r"(^|\W)_\w", line.split(": error: ", 1)[1])
