"""Command-line interface tests, including a small end-to-end run."""

import json

import numpy as np
import pytest

from gaborboost import ebm
from gaborboost.cli import main
from gaborboost.dataio import FeatureRow, write_feature_table

FAST_TRAIN = ["--max-rounds", "200", "--patience", "10", "--max-pairs", "0"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "generate" in capsys.readouterr().out


def test_no_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--bogus"])
    assert exc.value.code == 2


def test_missing_dataset_reports_error(tmp_path, capsys):
    rc = main(["tabularize", "--data", str(tmp_path / "nowhere"),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_model_reports_error(tmp_path, capsys):
    rc = main(["explain", "--model", str(tmp_path / "no.json"),
               "--out", str(tmp_path / "e.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_rejects_binary_model(tmp_path, capsys):
    rng = np.random.default_rng(0)
    table = rng.normal(size=(40, 2))
    y = (table[:, 0] > 0).astype(float)
    model = ebm.train_binary(table, y, ebm.TrainConfig(max_pairs=0, seed=0))
    path = tmp_path / "binary.json"
    ebm.save_model(model, path)
    rc = main(["evaluate", "--model", str(path), "--table", str(path)])
    assert rc == 1
    assert "one-vs-rest" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(
        "width = 32\nheight = 16\nlongitudinal = 2\npartial = 2\nvortex = 2\n"
        "noise = 0.0\nseed = 3\n"
    )
    out = tmp_path / "data"
    rc = main(["generate", "--out", str(out), "--config", str(cfg)])
    assert rc == 0
    assert len(list(out.glob("*.pgm"))) == 6

    # an explicit flag beats the config value
    out2 = tmp_path / "data2"
    rc = main(["generate", "--out", str(out2), "--config", str(cfg), "--vortex", "3"])
    assert rc == 0
    assert len(list(out2.glob("vortex_*.pgm"))) == 3


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("window-size = 9\n")
    rc = main(["generate", "--out", str(tmp_path / "d"), "--config", str(cfg)])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


def test_tabularize_tiny_images_reports_error(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path), "--width", "6", "--height", "6",
                 "--longitudinal", "2", "--partial", "1", "--vortex", "1"]) == 0
    capsys.readouterr()
    rc = main(["tabularize", "--data", str(tmp_path), "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "too small" in err
    assert len(err.splitlines()) == 1


def test_pipeline_smoke(tmp_path, capsys):
    """generate -> tabularize -> train -> explain -> evaluate -> cv."""
    data = tmp_path / "data"
    table = tmp_path / "features.csv"
    model = tmp_path / "model.json"
    explanation = tmp_path / "explain.json"
    svg_dir = tmp_path / "svg"
    scores = tmp_path / "scores.json"
    report = tmp_path / "report.json"

    assert main(["generate", "--out", str(data), "--width", "48", "--height", "24",
                 "--longitudinal", "10", "--partial", "10", "--vortex", "10",
                 "--noise", "0.01", "--seed", "5"]) == 0
    assert (data / "labels.csv").exists()
    assert len(list(data.glob("*.pgm"))) == 30

    assert main(["tabularize", "--data", str(data), "--out", str(table)]) == 0
    assert "wrote 30 rows" in capsys.readouterr().out

    assert main(["train", "--table", str(table), "--features", "GF",
                 "--out", str(model), *FAST_TRAIN]) == 0
    loaded = ebm.load_model(model)
    assert loaded.classes == ("longitudinal", "partial", "vortex")

    assert main(["explain", "--model", str(model), "--out", str(explanation),
                 "--svg-dir", str(svg_dir)]) == 0
    bundle = json.loads(explanation.read_text())
    assert bundle["classes"] == ["longitudinal", "partial", "vortex"]
    assert list(svg_dir.glob("*.svg"))

    assert main(["evaluate", "--model", str(model), "--table", str(table),
                 "--out", str(scores)]) == 0
    summary = json.loads(scores.read_text())
    assert set(summary) >= {"accuracy", "precision", "recall", "confusion"}

    assert main(["cv", "--table", str(table), "--features", "GF",
                 "--repeats", "1", "--k", "6", "--out", str(report),
                 *FAST_TRAIN]) == 0
    out = capsys.readouterr().out
    assert "method" in out and "GF" in out
    parsed = json.loads(report.read_text())
    assert parsed["feature_set"] == "GF"
    assert len(parsed["cells"]) == 6


@pytest.fixture
def small_table(tmp_path):
    """A 30-row feature table whose three classes differ in q_tl."""
    rows = [
        FeatureRow(f"{cls}_{i}", 4.0, 6.0, 0.785, 0.5, 0.25, float(c) + 0.01 * i, 1.26, 0.5,
                   0.75, 2.5, 1.68, 0.992, 0.667, cls)
        for c, cls in enumerate(("longitudinal", "partial", "vortex"))
        for i in range(10)
    ]
    path = tmp_path / "features.csv"
    write_feature_table(rows, path)
    return path


@pytest.mark.parametrize("argv, message", [
    (["cv", "--repeats", "0"], "repeats"),
    (["train", "--learning-rate", "nan"], "learning_rate"),
    (["train", "--max-rounds", "-1"], "max_rounds"),
    (["cv", "--val-fraction", "1.5"], "val_fraction"),
])
def test_bad_training_options_report_one_error(small_table, tmp_path, capsys, argv, message):
    command, *flags = argv
    out = tmp_path / ("report.json" if command == "cv" else "model.json")
    rc = main([command, "--table", str(small_table), "--out", str(out), *FAST_TRAIN, *flags])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not out.exists()
