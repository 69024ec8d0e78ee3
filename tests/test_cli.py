import csv
import json
import os

import numpy as np
import pytest

from firemarg.cli import main
from firemarg.config import RunConfig, format_config, load_config
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
