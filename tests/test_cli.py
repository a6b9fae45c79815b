"""Command-line interface tests, including a small end-to-end run."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gaborboost
from gaborboost import cli, ebm
from gaborboost.cli import _config_argv, _train_config, build_parser, main
from gaborboost.dataio import FeatureRow, load_dataset, read_feature_table, write_feature_table
from gaborboost.errors import ConfigError
from gaborboost.features import tabularize
from gaborboost.physfit import fit_image, fit_rows

FAST_TRAIN = ["--max-rounds", "200", "--patience", "10", "--max-pairs", "0"]


def test_cli_import_leaves_out_scipy_oracles():
    """At run time scipy serves only scipy.fft; the rest of scipy is test
    oracles, whose import would slow every command's start."""
    src = str(Path(gaborboost.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    oracles = {f"scipy.{name}" for name in
               ("signal", "ndimage", "optimize", "integrate", "stats", "interpolate")}
    probe = f"import sys, gaborboost.cli; print(sorted({oracles!r} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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


@pytest.mark.parametrize("command", ["explain", "evaluate"])
def test_evaluate_rejects_binary_model(tmp_path, capsys, command):
    """explain and evaluate read the same files: a bare member model is neither's."""
    path = tmp_path / "binary.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "binary", "feature_names": ["f0"],
                                "intercept": 0.0, "bins": [[]], "importances": {},
                                "shapes": [{"feature": 0, "scores": [0.0, 0.0]}],
                                "pairs": []}))
    out = tmp_path / "out.json"
    table = ["--table", str(path)] if command == "evaluate" else []
    rc = main([command, "--model", str(path), "--out", str(out), *table])
    assert rc == 1
    assert one_error_line(capsys, "'binary'")
    assert not out.exists()


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    out = tmp_path / "data"
    cfg.write_text(
        f"out = {out}\nwidth = 32\nheight = 16\nlongitudinal = 2\npartial = 2\nvortex = 2\n"
        "noise = 0.0\nseed = 3\n"
    )
    rc = main(["generate", "--config", str(cfg)])
    assert rc == 0
    assert len(list(out.glob("*.pgm"))) == 6

    # an explicit flag beats the config value
    out2 = tmp_path / "data2"
    rc = main(["generate", "--out", str(out2), "--config", str(cfg), "--vortex", "3"])
    assert rc == 0
    assert len(list(out2.glob("vortex_*.pgm"))) == 3


@pytest.mark.parametrize("spelling", [["--config={}"], ["--conf", "{}"]])
def test_config_flag_spellings_are_read(tmp_path, spelling):
    """argparse accepts --config=PATH and abbreviations; both must load the file."""
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("width = 32\nheight = 16\nlongitudinal = 2\npartial = 2\nvortex = 1\n")
    out = tmp_path / "data"
    assert main(["generate", "--out", str(out), *(a.format(cfg) for a in spelling)]) == 0
    assert len(list(out.glob("*.pgm"))) == 5


@pytest.mark.parametrize("word, value", [("TRUE", True), ("on", True), ("Off", False),
                                         ("0", False)])
def test_config_booleans(tmp_path, word, value):
    cfg = tmp_path / "cv.cfg"
    cfg.write_text(f"balance = {word}\n")
    argv = ["cv", "--table", "t.csv", "--config", str(cfg)]
    parser, by_name = build_parser()
    assert parser.parse_args(_config_argv(argv, by_name)).balance is value


def test_config_mistyped_boolean_reports_error(tmp_path, capsys):
    cfg = tmp_path / "cv.cfg"
    cfg.write_text("balance = ture\n")
    rc = main(["cv", "--table", str(tmp_path / "t.csv"), "--config", str(cfg)])
    assert rc == 1
    assert one_error_line(capsys, "cv.cfg", "'balance'", "'ture'")


def test_repeatable_flags_add_to_config_list(tmp_path):
    """--flip and --merge on the command line extend the config's list."""
    cfg = tmp_path / "tab.cfg"
    cfg.write_text("flip = vortex\nmerge = partial=vortex\n")
    argv = ["tabularize", "--data", "d", "--out", "o.csv", "--config", str(cfg),
            "--flip", "partial", "--merge", "vortex=longitudinal"]
    parser, by_name = build_parser()
    args = parser.parse_args(_config_argv(argv, by_name))
    assert args.flip == ["vortex", "partial"]
    assert args.merge == ["partial=vortex", "vortex=longitudinal"]


@pytest.mark.parametrize("command, keys", [
    ("generate", ["out"]),
    ("tabularize", ["data", "out"]),
    ("train", ["table", "out"]),
    ("cv", ["table"]),
    ("explain", ["model", "out"]),
    ("evaluate", ["model", "table"]),
])
def test_required_options_can_come_from_config(tmp_path, monkeypatch, command, keys):
    cfg = tmp_path / "req.cfg"
    cfg.write_text("".join(f"{key} = {key}-from-file\n" for key in keys))
    seen = {}
    monkeypatch.setattr(cli, f"_cmd_{command}", lambda args: seen.update(vars(args)))
    assert main([command, "--config", str(cfg)]) == 0
    assert {key: seen[key] for key in keys} == {key: f"{key}-from-file" for key in keys}


@pytest.mark.parametrize("line, message", [
    ("k = abc", "argument --k: invalid int value: 'abc'"),
    ("features = GF+XYZ", "argument --features: invalid choice: 'GF+XYZ'"),
    ("learning-rate = 0_5", "argument --learning-rate: invalid float value: '0_5'"),
])
def test_config_bad_value_is_the_flags_usage_error(tmp_path, capsys, line, message):
    """A value in the file is parsed as the same flag on the command line."""
    cfg = tmp_path / "cv.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["cv", "--table", "t.csv", "--config", str(cfg)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_config_empty_value_reports_error(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("width = 32\nout =\n")
    assert main(["generate", "--config", str(cfg)]) == 1
    assert one_error_line(capsys, "gen.cfg", "line 2", "'out'")


def test_config_without_path_is_the_subcommands_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cv", "--table", "t.csv", "--config"])
    assert exc.value.code == 2
    assert "gaborboost cv: error: argument --config" in capsys.readouterr().err


def test_fit_physics_is_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit-physics", "--data", "d", "--table", "t.csv", "--out", "o.csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["cv", "--table", "t.csv"],
                                  ["train", "--table", "t.csv", "--out", "m.json"]])
def test_training_flags_default_to_train_config(argv):
    parser, _ = build_parser()
    assert _train_config(parser.parse_args(argv)) == ebm.TrainConfig()


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("window-size = 9\n")
    rc = main(["generate", "--out", str(tmp_path / "d"), "--config", str(cfg)])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("lines, fragments", [
    ("k = 3\nk = 4\n", ["'k' set twice", "lines 1 and 2"]),
    ("merge = a=b\n# comment\nmerge = c=d\n", ["'merge' set twice", "lines 1 and 3"]),
], ids=["k", "merge"])
def test_config_repeated_key_reports_error(small_table, tmp_path, capsys, lines, fragments):
    """A repeated key is an error, not a silent choice of its last value."""
    cfg = tmp_path / "cv.cfg"
    cfg.write_text(lines)
    out = tmp_path / "report.json"
    rc = main(["cv", "--table", str(small_table), "--out", str(out), "--config", str(cfg)])
    assert rc == 1
    assert one_error_line(capsys, "cv.cfg", *fragments)
    assert not out.exists()


def test_config_key_set_by_both_spellings_reports_error(small_table, tmp_path, capsys):
    """``-`` and ``_`` spell one key; setting it both ways is an error, not
    a silent choice of the later line."""
    cfg = tmp_path / "cv.cfg"
    cfg.write_text("max-rounds = 3\nmax_rounds = 4\n")
    out = tmp_path / "report.json"
    rc = main(["cv", "--table", str(small_table), "--out", str(out), "--config", str(cfg)])
    assert rc == 1
    assert one_error_line(capsys, "cv.cfg", "'max-rounds' and 'max_rounds' both set --max-rounds")
    assert not out.exists()


@pytest.mark.parametrize("lines, message", [
    ("window-size = 9\nmax-rounds = 3\nmax_rounds = 4\n",
     "'max-rounds' and 'max_rounds' both set --max-rounds"),
    ("balance = ture\nmax-rounds = 3\nmax_rounds = 4\n",
     "'max-rounds' and 'max_rounds' both set --max-rounds"),
    ("with-physics = 1\nwith_physics = 0\n",
     "'with-physics' and 'with_physics' both set --with-physics"),
], ids=["after-unknown-key", "after-bad-boolean", "flag-cv-lacks"])
def test_config_flag_set_twice_is_reported_before_key_errors(tmp_path, capsys, lines, message):
    """The whole file is checked for a flag set twice, under one spelling or
    two, before any key is matched to the subcommand's flags."""
    cfg = tmp_path / "cv.cfg"
    cfg.write_text(lines)
    rc = main(["cv", "--table", str(tmp_path / "t.csv"), "--config", str(cfg)])
    assert rc == 1
    assert one_error_line(capsys, "cv.cfg", message)


def test_config_file_is_read(tmp_path):
    """Comments and blank lines are skipped, spaces around keys and values
    dropped, and the pairs spliced in as flags in file order."""
    path = tmp_path / "run.conf"
    path.write_text(
        "# comment line\n"
        "seed = 7\n"
        "\n"
        "features=GF+EGF  # trailing comment\n"
    )
    argv = ["cv", "--table", "t.csv", "--config", str(path)]
    expected = ["cv", "--seed=7", "--features=GF+EGF", *argv[1:]]
    assert _config_argv(argv, build_parser()[1]) == expected


def test_config_file_rejects_bare_words(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("seed 7\n")
    with pytest.raises(ConfigError, match="line 1"):
        _config_argv(["cv", "--config", str(path)], build_parser()[1])


def test_config_file_rejects_empty_key(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("=3\n")
    with pytest.raises(ConfigError, match="empty key"):
        _config_argv(["cv", "--config", str(path)], build_parser()[1])


@pytest.mark.parametrize("argv, message", [
    (["cv", "--table", "t.csv", "--learning-rate", "0_5"],
     "argument --learning-rate: invalid float value: '0_5'"),
    (["cv", "--table", "t.csv", "--max-rounds", "1_0"],
     "argument --max-rounds: invalid int value: '1_0'"),
    (["cv", "--table", "t.csv", "--k", "\u0663"], "argument --k: invalid int value: '\u0663'"),
    (["generate", "--out", "d", "--width", "1_28"], "argument --width: invalid int value: '1_28'"),
    (["generate", "--out", "d", "--noise", "\u0660.5"],
     "argument --noise: invalid float value: '\u0660.5'"),
], ids=["float-underscore", "int-underscore", "int-arabic-indic", "generate-underscore",
        "generate-arabic-indic"])
def test_numeric_flags_read_plain_numbers_only(capsys, argv, message):
    """int() and float() read "1_0" as 10 and Arabic-Indic digits as digits;
    a numeric flag takes the plain ASCII numbers a CSV cell takes."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_numeric_flags_still_read_spaced_and_special_numbers():
    parser, _ = build_parser()
    args = parser.parse_args(["cv", "--table", "t.csv", "--k", " 3 ", "--learning-rate", "1e-1"])
    assert (args.k, args.learning_rate) == (3, 0.1)
    assert parser.parse_args(["generate", "--out", "d", "--noise", "inf"]).noise == float("inf")


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


@pytest.mark.parametrize("command", ["train", "cv"])
def test_no_rows_left_reports_one_error(small_table, tmp_path, capsys, command):
    """A PF table whose every fit failed leaves no rows, and no output file."""
    nan = float("nan")
    rows = [replace(r, pf_amp=nan, pf_center=nan, pf_width=nan, pf_skew=nan, pf_offset=nan)
            for r in read_feature_table(small_table)]
    write_feature_table(rows, small_table)
    out = tmp_path / "out.json"
    rc = main([command, "--table", str(small_table), "--features", "PF", "--out", str(out),
               *FAST_TRAIN])
    assert rc == 1
    assert one_error_line(capsys, "'PF'", "30 of 30 dropped")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "cv"])
def test_empty_table_reports_one_error(tmp_path, capsys, command):
    """A header-only table says so, not that physics fits dropped its rows."""
    table, out = tmp_path / "empty.csv", tmp_path / "out.json"
    write_feature_table([], table)
    rc = main([command, "--table", str(table), "--out", str(out), *FAST_TRAIN])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "no rows" in err
    assert "physics" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "cv"])
def test_one_class_table_reports_one_error(small_table, tmp_path, capsys, command):
    """A model of one class cannot be wrong, so training refuses to make one."""
    rows = [r for r in read_feature_table(small_table) if r.label == "vortex"]
    write_feature_table(rows, small_table)
    out = tmp_path / "out.json"
    folds = ["--k", "3"] if command == "cv" else []
    rc = main([command, "--table", str(small_table), "--out", str(out), *FAST_TRAIN, *folds])
    assert rc == 1
    assert one_error_line(capsys, "two classes", "'vortex'")
    assert not out.exists()


def test_repeated_table_id_reports_one_error(small_table, tmp_path, capsys):
    """A repeated row could sit in a training and a test fold at once."""
    lines = small_table.read_text().splitlines(keepends=True)
    small_table.write_text("".join(lines + lines[1:3]))
    out = tmp_path / "report.json"
    rc = main(["cv", "--table", str(small_table), "--k", "3", "--out", str(out), *FAST_TRAIN])
    assert rc == 1
    assert one_error_line(capsys, "'longitudinal_0' listed twice", "lines 2 and 32")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["cv", "--repeats", "0"], "repeats"),
    (["train", "--learning-rate", "nan"], "learning_rate"),
    (["train", "--max-rounds", "-1"], "max_rounds"),
    (["cv", "--val-fraction", "1.5"], "val_fraction"),
    (["cv", "--seed", "-1"], "seed"),
    (["train", "--seed", "-1"], "seed"),
])
def test_bad_training_options_report_one_error(small_table, tmp_path, capsys, argv, message):
    command, *flags = argv
    out = tmp_path / ("report.json" if command == "cv" else "model.json")
    rc = main([command, "--table", str(small_table), "--out", str(out), *FAST_TRAIN, *flags])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not out.exists()


def one_error_line(capsys, *fragments):
    err = capsys.readouterr().err.splitlines()
    return (len(err) == 1 and err[0].startswith("error:")
            and all(f in err[0] for f in fragments))


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed"),
    (["--noise", "nan"], "noise_sigma"),
    (["--noise", "inf"], "noise_sigma"),
])
def test_bad_generate_options_report_one_error(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    rc = main(["generate", "--out", str(out), "--longitudinal", "1", "--partial", "1",
               "--vortex", "1", *flags])
    assert rc == 1
    assert one_error_line(capsys, message)
    assert not out.exists()


@pytest.fixture
def small_images(tmp_path):
    """Nine 96x48 images, three per class."""
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--width", "96", "--height", "48",
                 "--longitudinal", "3", "--partial", "3", "--vortex", "3",
                 "--seed", "5"]) == 0
    return data


def test_with_physics_matches_fit_rows(small_images, tmp_path, capsys):
    """--with-physics writes the Gabor table with fit_rows' columns filled in."""
    both, expected = tmp_path / "both.csv", tmp_path / "expected.csv"
    capsys.readouterr()
    assert main(["tabularize", "--data", str(small_images), "--out", str(both),
                 "--with-physics"]) == 0
    assert capsys.readouterr().out.rstrip().endswith(" (0 fits failed)")
    ds = load_dataset(small_images)
    rows, failed = fit_rows(tabularize(ds), ds.images)
    write_feature_table(rows, expected)
    assert failed == 0
    assert both.read_bytes() == expected.read_bytes()


def test_with_physics_fits_flipped_images(small_images, tmp_path):
    """--with-physics fits the mirrored image the Gabor pass saw, not the
    image as stored."""
    flipped = tmp_path / "flipped.csv"
    assert main(["tabularize", "--data", str(small_images), "--out", str(flipped),
                 "--flip", "vortex", "--with-physics"]) == 0
    ds = load_dataset(small_images)
    stored = {name: fit_image(img).center for name, img in zip(ds.names, ds.images)}
    for row in read_feature_table(flipped):
        if row.label == "vortex":
            assert row.pf_center == pytest.approx(95 - stored[row.id], abs=1e-3)
        else:
            assert row.pf_center == stored[row.id]


def test_duplicate_manifest_entry_reports_error(small_images, tmp_path, capsys):
    manifest = small_images / "labels.csv"
    first = manifest.read_text().splitlines()[1]
    manifest.write_text(manifest.read_text() + first + "\n")
    rc = main(["tabularize", "--data", str(small_images), "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert one_error_line(capsys, "listed twice", "lines 2 and 11")


@pytest.fixture
def small_model(small_table, tmp_path):
    path = tmp_path / "model.json"
    assert main(["train", "--table", str(small_table), "--out", str(path), *FAST_TRAIN]) == 0
    return path


def test_explain_svgs_are_named_by_class_index(small_table, tmp_path):
    """A label is never a path: class 'a/x' gets importance_0.svg."""
    rows = [replace(r, label="a/x" if r.label == "longitudinal" else "b")
            for r in read_feature_table(small_table)]
    write_feature_table(rows, small_table)
    model, svg_dir = tmp_path / "model.json", tmp_path / "svg"
    assert main(["train", "--table", str(small_table), "--out", str(model), *FAST_TRAIN]) == 0
    assert main(["explain", "--model", str(model), "--out", str(tmp_path / "explain.json"),
                 "--svg-dir", str(svg_dir)]) == 0
    assert sorted(p.name for p in svg_dir.iterdir()) == ["importance_0.svg", "importance_1.svg"]
    assert "importances: a/x" in (svg_dir / "importance_0.svg").read_text()


def test_evaluate_names_zero_division_classes(small_model, small_table, tmp_path):
    rows = [r for r in read_feature_table(small_table) if r.label == "longitudinal"]
    table, scores = tmp_path / "longitudinal.csv", tmp_path / "scores.json"
    write_feature_table(rows, table)
    assert main(["evaluate", "--model", str(small_model), "--table", str(table),
                 "--out", str(scores)]) == 0
    flags = json.loads(scores.read_text())["zero_division"]
    assert "recall:partial" in flags and "recall:vortex" in flags


def test_evaluate_unknown_label_reports_error(small_model, small_table, tmp_path, capsys):
    rows = read_feature_table(small_table)
    rows[0] = replace(rows[0], label="mystery")
    table = tmp_path / "mystery.csv"
    write_feature_table(rows, table)
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(small_model), "--table", str(table)])
    assert rc == 1
    assert one_error_line(capsys, "['mystery'] not covered by the model")


@pytest.mark.parametrize("column, value", [("q_tl", float("nan")), ("q_tr", float("inf"))])
def test_evaluate_rejects_non_finite_features(small_model, small_table, tmp_path, capsys,
                                              column, value):
    """A NaN or infinite model input is an error, not a prediction."""
    rows = read_feature_table(small_table)
    rows[4] = replace(rows[4], **{column: value})
    table, scores = tmp_path / "bad.csv", tmp_path / "scores.json"
    write_feature_table(rows, table)
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(small_model), "--table", str(table),
               "--out", str(scores)])
    assert rc == 1
    assert one_error_line(capsys, "'longitudinal_4'", f"non-finite value {value}",
                          f"column {column!r}")
    assert not scores.exists()


def test_train_rejects_non_finite_features(small_table, tmp_path, capsys):
    rows = read_feature_table(small_table)
    rows[12] = replace(rows[12], egf_tl_tr=float("-inf"))
    write_feature_table(rows, small_table)
    out = tmp_path / "model.json"
    rc = main(["train", "--table", str(small_table), "--out", str(out), *FAST_TRAIN])
    assert rc == 1
    assert one_error_line(capsys, "row 'partial_2': non-finite value -inf in column 'egf_tl_tr'")
    assert not out.exists()


@pytest.mark.parametrize("name, raw, message", [
    ("img.pgm", b"P2\n2 2\n10\n0 1\n2 99\n", "line 5: pixel '99' is not an integer in 0..10"),
    ("img.pgm", b"P5\n2 2\n100\n" + bytes([0, 1, 250, 3]), "pixel (0, 1) is 250, above maxval 100"),
    ("img.csv", b'1,2\n"3\n",4\n', "line 2: line break in value '3\\n'"),
    ("img.pgm", b"P5\n0 2\n255\n", "non-positive dimensions 0x2"),
    ("img.pgm", b"P5\n2 2\n0\n" + bytes(4), "maxval 0 out of range"),
    ("img.pgm", b"P5\n2 2\n65536\n" + bytes(8), "maxval 65536 out of range"),
    ("img.pgm", b"P2\n2 2\n10\n0 1\n2\n", "expected 4 pixels, found 3"),
], ids=["p2", "p5", "csv", "zero-width", "maxval-0", "maxval-65536", "p2-short"])
def test_tabularize_rejects_values_an_image_cannot_hold(tmp_path, capsys, name, raw, message):
    data = tmp_path / "data"
    data.mkdir()
    (data / "labels.csv").write_text(f"filename,label\n{name},vortex\n")
    (data / name).write_bytes(raw)
    out = tmp_path / "t.csv"
    rc = main(["tabularize", "--data", str(data), "--out", str(out)])
    assert rc == 1
    assert one_error_line(capsys, name, message)
    assert not out.exists()


def test_tabularize_merge_without_equals_reports_error(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "labels.csv").write_text("filename,label\nimg.pgm,vortex\n")
    (data / "img.pgm").write_bytes(b"P2\n2 1\n10\n0 5\n")
    out = tmp_path / "t.csv"
    rc = main(["tabularize", "--data", str(data), "--out", str(out), "--merge", "a"])
    assert rc == 1
    assert one_error_line(capsys, "--merge expects OLD=NEW, got 'a'")
    assert not out.exists()


@pytest.mark.parametrize("merge", ["vortex=", "=partial"], ids=["empty-new", "empty-old"])
def test_tabularize_merge_rejects_empty_class(small_images, tmp_path, capsys, merge):
    """A class label is never empty, so neither side of --merge may be."""
    out = tmp_path / "t.csv"
    capsys.readouterr()
    rc = main(["tabularize", "--data", str(small_images), "--out", str(out), "--merge", merge])
    assert rc == 1
    assert one_error_line(capsys, "--merge expects non-empty OLD and NEW", repr(merge))
    assert not out.exists()


def test_tabularize_rejects_empty_manifest_label(small_images, tmp_path, capsys):
    manifest = small_images / "labels.csv"
    lines = manifest.read_text().splitlines()
    lines[3] = lines[3].split(",")[0] + ","
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "t.csv"
    capsys.readouterr()
    rc = main(["tabularize", "--data", str(small_images), "--out", str(out)])
    assert rc == 1
    assert one_error_line(capsys, "labels.csv", "line 4: empty label")
    assert not out.exists()


def test_train_rejects_empty_table_label(small_table, tmp_path, capsys):
    lines = small_table.read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0] + ","
    small_table.write_text("\n".join(lines) + "\n")
    out = tmp_path / "model.json"
    rc = main(["train", "--table", str(small_table), "--out", str(out), *FAST_TRAIN])
    assert rc == 1
    assert one_error_line(capsys, small_table.name, "line 5: empty label")
    assert not out.exists()


@pytest.mark.parametrize("raw", ["1_0", "x", "\u0663"])
def test_tabularize_rejects_non_plain_thread_count(small_images, tmp_path, capsys, monkeypatch,
                                                   raw):
    monkeypatch.setenv("GABORBOOST_THREADS", raw)
    out = tmp_path / "t.csv"
    capsys.readouterr()
    rc = main(["tabularize", "--data", str(small_images), "--out", str(out)])
    assert rc == 1
    assert one_error_line(capsys, "GABORBOOST_THREADS", repr(raw))
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda text: "", "empty feature table"),
    (lambda text: text.replace("q_tl,q_tr", "q_tr,q_tl", 1), "header mismatch"),
], ids=["0-byte", "columns-reordered"])
def test_cv_rejects_malformed_table(small_table, tmp_path, capsys, edit, message):
    small_table.write_text(edit(small_table.read_text()))
    out = tmp_path / "report.json"
    rc = main(["cv", "--table", str(small_table), "--out", str(out), *FAST_TRAIN])
    assert rc == 1
    assert one_error_line(capsys, small_table.name, message)
    assert not out.exists()

@pytest.mark.parametrize("key, value, message", [
    ("feature", 99, "feature index 99 out of range"),
    ("feature", -1, "feature index -1 out of range"),
    ("feature", 1, "shape 0 is for feature 1"),
    ("scores", [0.0], "has scores of shape (1,), expected (2,)"),
])
def test_evaluate_rejects_malformed_shape(small_model, small_table, capsys, key, value, message):
    obj = json.loads(small_model.read_text())
    obj["models"][0]["shapes"][0][key] = value
    small_model.write_text(json.dumps(obj))
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(small_model), "--table", str(small_table)])
    assert rc == 1
    assert one_error_line(capsys, message)


def _keep_three_features(obj):
    model = obj["models"][1]
    for key in ("feature_names", "bins", "shapes"):
        model[key] = model[key][:3]


def _keep_two_shapes(obj):
    for model in obj["models"]:
        for key in ("bins", "shapes"):
            model[key] = model[key][:2]


@pytest.mark.parametrize("mutate, message", [
    (lambda obj: obj.update(models=[]), "has no models"),
    (lambda obj: obj.update(classes=["a", "a", "b"]), "not distinct strings"),
    (lambda obj: obj.update(classes=[0, 1, 2]), "not distinct strings"),
    (lambda obj: obj["classes"].pop(), "2 classes but 3 models"),
    (lambda obj: obj["models"].pop(), "3 classes but 2 models"),
    (lambda obj: obj.update(classes=obj["classes"][:1], models=obj["models"][:1]),
     "at least two classes, got ['longitudinal']"),
    (_keep_three_features, "feature_names differ"),
    (_keep_two_shapes, "2 shapes and 2 bins for 10 features"),
    (lambda obj: obj["models"][0].update(intercept=float("nan")), "non-finite number NaN"),
    (lambda obj: obj["models"][2]["shapes"][2]["scores"].__setitem__(0, float("-inf")),
     "non-finite number -Infinity"),
    (lambda obj: obj["models"][1]["bins"][2].reverse(), "not strictly ascending"),
], ids=["no-models", "repeated-class", "int-classes", "2-classes-3-models",
        "3-classes-2-models", "one-class", "3-of-10-features", "2-of-10-shapes", "nan-intercept",
        "inf-score", "reversed-cuts"])
def test_evaluate_rejects_inconsistent_ensemble(small_model, small_table, tmp_path, capsys,
                                                mutate, message):
    obj = json.loads(small_model.read_text())
    mutate(obj)
    small_model.write_text(json.dumps(obj))
    out = tmp_path / "scores.json"
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(small_model), "--table", str(small_table),
               "--out", str(out)])
    assert rc == 1
    assert one_error_line(capsys, message)
    assert not out.exists()


def test_explain_rejects_member_without_intercept(small_model, tmp_path, capsys):
    obj = json.loads(small_model.read_text())
    del obj["models"][1]["intercept"]
    small_model.write_text(json.dumps(obj))
    out = tmp_path / "explain.json"
    capsys.readouterr()
    rc = main(["explain", "--model", str(small_model), "--out", str(out)])
    assert rc == 1
    assert one_error_line(capsys, "malformed model object: 'intercept'")
    assert not out.exists()

@pytest.mark.parametrize("flags", [["--merge", "vortx=partial"], ["--flip", "vortx"]])
def test_tabularize_rejects_unknown_class(small_images, tmp_path, capsys, flags):
    out = tmp_path / "t.csv"
    capsys.readouterr()
    rc = main(["tabularize", "--data", str(small_images), "--out", str(out), *flags])
    assert rc == 1
    assert one_error_line(capsys, "'vortx'", "['longitudinal', 'partial', 'vortex']")
    assert not out.exists()


def _undecodable(kind, tmp_path, small_table):
    """argv that makes the CLI read one file holding a byte that is not UTF-8."""
    data = tmp_path / "data"
    data.mkdir()
    if kind == "csv-image":
        (data / "labels.csv").write_text("filename,label\nimg.csv,vortex\n")
        (data / "img.csv").write_bytes(b"0.5,0.25\n0.5,\xff\n")
        return ["tabularize", "--data", str(data), "--out", str(tmp_path / "t.csv")], "img.csv"
    if kind == "manifest":
        (data / "labels.csv").write_bytes(b"filename,label\nimg.csv,\xff\n")
        return ["tabularize", "--data", str(data), "--out", str(tmp_path / "t.csv")], "labels.csv"
    if kind == "feature-table":
        small_table.write_bytes(small_table.read_bytes().replace(b"vortex_9", b"vortex_\xff"))
        return ["cv", "--table", str(small_table), *FAST_TRAIN], small_table.name
    config = tmp_path / "train.cfg"
    config.write_bytes(b"max-rounds = 10\n# \xff\n")
    return ["train", "--table", str(small_table), "--out", str(tmp_path / "m.json"),
            "--config", str(config)], config.name


@pytest.mark.parametrize("kind", ["csv-image", "manifest", "feature-table", "config"])
def test_undecodable_text_reports_one_error(small_table, tmp_path, capsys, kind):
    argv, name = _undecodable(kind, tmp_path, small_table)
    capsys.readouterr()
    assert main(argv) == 1
    assert one_error_line(capsys, name, "not a text file")


@pytest.mark.parametrize("kind", ["feature-table", "manifest"])
def test_oversized_csv_field_reports_one_error(small_table, tmp_path, capsys, kind):
    """A field over the csv module's 131072-character limit is one error line
    naming the file and the line, not a traceback."""
    huge = "x" * 200_000
    if kind == "feature-table":
        path = tmp_path / "huge.csv"
        path.write_text(huge + "," + small_table.read_text())
        argv = ["cv", "--table", str(path), *FAST_TRAIN]
    else:
        data = tmp_path / "data"
        data.mkdir()
        path = data / "labels.csv"
        path.write_text(f"filename,label\nimg.pgm,{huge}\n")
        argv = ["tabularize", "--data", str(data), "--out", str(tmp_path / "t.csv")]
    capsys.readouterr()
    assert main(argv) == 1
    assert one_error_line(capsys, path.name, "line 1" if kind == "feature-table" else "line 2",
                          "field larger than field limit")
