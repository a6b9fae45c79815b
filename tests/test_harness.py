"""Tests for the cross-validation harness and report assembly."""

import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from gaborboost import dataio, ebm, features, harness, render, synthgen
from gaborboost.dataio import FeatureRow
from gaborboost.ebm import TrainConfig, predict_ovr
from gaborboost.errors import ConfigError
from gaborboost.harness import (
    CvReport,
    build_matrix,
    format_report_table,
    matrix_from_names,
    mean_sigma_display,
    run_cv,
    score,
    stratified_kfold,
    train_final,
    write_report,
)

LIGHT = TrainConfig(max_rounds=200, patience=10, max_pairs=0, seed=0)


def make_row(name, label, **overrides):
    values = dict(
        id=name,
        sigma_x=4.0,
        sigma_y=6.0,
        lam=0.785,
        x_star=0.5,
        y_star=0.25,
        q_tl=1.25,
        q_tr=1.26,
        q_bl=0.5,
        q_br=0.75,
        egf_tl_bl=2.5,
        egf_tr_br=1.68,
        egf_tl_tr=0.992,
        egf_bl_br=0.667,
        label=label,
    )
    values.update(overrides)
    return FeatureRow(**values)


def separable_rows(per_class=30):
    """Three classes told apart by q_tl alone; everything else constant."""
    rows = []
    for ci, cls in enumerate(("alpha", "beta", "gamma")):
        for i in range(per_class):
            rows.append(make_row(f"{cls}_{i:03d}", cls, q_tl=float(ci)))
    return rows


# ---------------------------------------------------------------------------
# fold assignment


def test_stratified_kfold_small_balanced_case():
    labels = ["A"] * 6 + ["B"] * 6
    folds = stratified_kfold(labels, k=6, seed=0)
    assert len(folds) == 6
    for fold in folds:
        assert len(fold) == 2
        assert sorted(labels[i] for i in fold) == ["A", "B"]
    all_indices = sorted(i for fold in folds for i in fold)
    assert all_indices == list(range(12))


def test_stratified_kfold_per_class_counts():
    labels = ["big"] * 2229 + ["mid"] * 796 + ["rare"] * 66
    folds = stratified_kfold(labels, k=6, seed=3)
    for fold in folds:
        fold_labels = [labels[i] for i in fold]
        assert fold_labels.count("rare") == 11
        assert fold_labels.count("big") in (371, 372)
        assert fold_labels.count("mid") in (132, 133)


def test_stratified_kfold_partition_property():
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        counts = rng.integers(k, 40, size=int(rng.integers(1, 4)))
        labels = [f"c{ci}" for ci, n in enumerate(counts) for _ in range(n)]
        folds = stratified_kfold(labels, k=k, seed=int(rng.integers(1000)))
        seen = sorted(i for fold in folds for i in fold)
        assert seen == list(range(len(labels)))
        for ci, n in enumerate(counts):
            per_fold = [sum(1 for i in fold if labels[i] == f"c{ci}") for fold in folds]
            assert max(per_fold) - min(per_fold) <= 1


def test_stratified_kfold_seed_control():
    labels = ["A"] * 30 + ["B"] * 30
    a = stratified_kfold(labels, k=5, seed=0)
    b = stratified_kfold(labels, k=5, seed=0)
    c = stratified_kfold(labels, k=5, seed=1)
    assert a == b
    assert a != c


def test_stratified_kfold_rejects_bad_input():
    with pytest.raises(ConfigError):
        stratified_kfold(["A"] * 10, k=1, seed=0)
    with pytest.raises(ConfigError):
        stratified_kfold(["A"] * 10 + ["B"] * 5, k=6, seed=0)
    with pytest.raises(ConfigError, match="seed"):
        stratified_kfold(["A"] * 10, k=2, seed=-1)


# ---------------------------------------------------------------------------
# metrics


def test_metrics_perfect_prediction():
    true = ["a"] * 4 + ["b"] * 7 + ["c"] * 9
    result = score(("a", "b", "c"), true, true)
    assert result["accuracy"] == 100.0
    assert result["precision"] == {"a": 100.0, "b": 100.0, "c": 100.0}
    assert result["recall"] == {"a": 100.0, "b": 100.0, "c": 100.0}
    assert result["confusion"] == [[4, 0, 0], [0, 7, 0], [0, 0, 9]]
    assert result["zero_division"] == []


def test_metrics_mixed_confusion():
    # confusion [[5, 5], [0, 10]]: half the "a" rows predicted as "b"
    result = score(("a", "b"), ["a"] * 10 + ["b"] * 10, ["a"] * 5 + ["b"] * 15)
    assert result["confusion"] == [[5, 5], [0, 10]]
    assert result["accuracy"] == 75.0
    assert result["precision"] == {"a": 100.0, "b": 100.0 * 10.0 / 15.0}
    assert result["recall"] == {"a": 50.0, "b": 100.0}
    assert result["zero_division"] == []


def test_metrics_flags_zero_division():
    # nothing predicted as "a": precision of "a" is 0/0
    result = score(("a", "b"), ["a"] * 3 + ["b"] * 7, ["b"] * 10)
    assert result["precision"]["a"] == 0.0
    assert result["zero_division"] == ["precision:a"]

    # no true "a" rows: recall of "a" is 0/0
    result = score(("a", "b"), ["b"] * 10, ["a"] * 2 + ["b"] * 8)
    assert result["recall"]["a"] == 0.0
    assert result["zero_division"] == ["recall:a"]


def test_metrics_rejects_bad_matrices():
    with pytest.raises(ConfigError, match="no rows"):
        score(("a", "b"), [], [])
    with pytest.raises(ConfigError, match="not covered"):
        score(("a", "b"), ["a", "c"], ["a", "b"])


def test_mean_sigma_display():
    assert mean_sigma_display(92.31, 0.042) == "92.3(0)"
    assert mean_sigma_display(91.43, 0.41) == "91.4(4)"
    assert mean_sigma_display(87.4, 1.3) == "87.4(1.3)"
    assert mean_sigma_display(100.0, 0.0) == "100.0(0)"


# ---------------------------------------------------------------------------
# matrix assembly


def test_build_matrix_unknown_feature_set():
    with pytest.raises(ConfigError, match="unknown feature set"):
        build_matrix(separable_rows(2), "GF+MAGIC")


def test_build_matrix_pf_requires_fit_data():
    with pytest.raises(ConfigError, match="tabularize --with-physics"):
        build_matrix(separable_rows(2), "GF+PF")


def test_build_matrix_drops_failed_fits_only_for_pf():
    rows = [
        make_row("ok", "alpha", pf_amp=0.5, pf_center=30.0, pf_width=5.0,
                 pf_skew=0.1, pf_offset=0.2),
        make_row("bad", "alpha", pf_amp=float("nan"), pf_center=float("nan"),
                 pf_width=float("nan"), pf_skew=float("nan"), pf_offset=float("nan")),
    ]
    matrix, names, labels, dropped = build_matrix(rows, "GF+PF")
    assert dropped == 1
    assert matrix.shape == (1, len(names))

    matrix, names, labels, dropped = build_matrix(rows, "GF")
    assert dropped == 0
    assert matrix.shape == (2, len(names))


def test_matrix_uses_normalized_positions():
    rows = [make_row("r0", "alpha", x_star=0.125, y_star=0.75)]
    matrix, labels, dropped = matrix_from_names(rows, ("x_star_norm", "y_star_norm"))
    np.testing.assert_allclose(matrix, [[0.125, 0.75]])
    assert labels == ["alpha"]
    assert dropped == 0


# ---------------------------------------------------------------------------
# cross-validation runs


def test_run_cv_separable_problem_is_perfect_and_deterministic():
    rows = separable_rows()
    report = run_cv(rows, "GF", repeats=1, k=6, seed=0, config=LIGHT)
    assert report.aggregates["accuracy"]["display"] == "100.0(0)"
    assert report.classes == ("alpha", "beta", "gamma")
    assert len(report.cells) == 6
    again = run_cv(rows, "GF", repeats=1, k=6, seed=0, config=LIGHT)
    assert report.to_json() == again.to_json()


def test_run_cv_aggregates_recomputable_from_cells():
    rows = separable_rows(12)
    report = run_cv(rows, "GF", repeats=2, k=4, seed=1, config=LIGHT)
    assert len(report.cells) == 8
    acc = [cell["accuracy"] for cell in report.cells]
    assert report.aggregates["accuracy"]["mean"] == pytest.approx(np.mean(acc))
    assert report.aggregates["accuracy"]["sigma"] == pytest.approx(np.std(acc))
    for cls in report.classes:
        prec = [cell["precision"][cls] for cell in report.cells]
        assert report.aggregates["precision"][cls]["mean"] == pytest.approx(np.mean(prec))


def test_report_table_and_file_output(tmp_path):
    rows = separable_rows(12)
    report = run_cv(rows, "GF", repeats=1, k=4, seed=0, config=LIGHT)
    table = format_report_table(report)
    lines = table.splitlines()
    assert lines[0].startswith("method")
    assert "precision[alpha]" in lines[0]
    assert "GF" in lines[1]

    path = tmp_path / "report.json"
    write_report(report, path)
    assert path.read_text() == report.to_json()
    assert path.read_text().endswith("\n")


def test_report_table_notes_dropped_rows():
    report = CvReport(
        feature_set="GF+PF",
        repeats=1,
        k=4,
        seed=0,
        classes=("alpha",),
        feature_names=("q_tl",),
        dropped_rows=2,
        train_config={},
        cells=[],
        aggregates={
            "accuracy": {"mean": 90.0, "sigma": 0.0, "display": "90.0(0)"},
            "precision": {"alpha": {"mean": 90.0, "sigma": 0.0, "display": "90.0(0)"}},
            "recall": {"alpha": {"mean": 90.0, "sigma": 0.0, "display": "90.0(0)"}},
        },
    )
    assert "(dropped 2 rows" in format_report_table(report)


def test_train_final_uses_all_rows():
    rows = separable_rows(10)
    ens, dropped = train_final(rows, "GF", config=LIGHT)
    assert dropped == 0
    matrix, names, labels, _ = build_matrix(rows, "GF")
    winners, _ = predict_ovr(ens, matrix)
    assert winners == labels


def test_traced_spans_keep_the_benchmark_contract(monkeypatch):
    """perfbench reads per-model and per-cell times from spans that its
    tracer makes around calls to the name ``parallel_map`` in ebm and
    harness; training must keep those spans and run on the calling thread."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    monkeypatch.setenv("GABORBOOST_THREADS", "2")
    tracer = tracing.Tracer()
    tracing.install(tracer, {"features": features, "ebm": ebm, "harness": harness,
                             "dataio": dataio, "synthgen": synthgen, "render": render})
    try:
        rows = separable_rows(20)
        harness.run_cv(rows, "GF", repeats=1, k=2, seed=0, config=LIGHT)
        harness.train_final(rows, "GF", config=LIGHT)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    index = tracing.SpanIndex(tracer.spans)
    models = index.named("ebm.train_binary")
    cells = index.named("harness.cell")
    assert len(models) == 3 * 3 and len(cells) == 2
    assert all(index.parent_name(s) == "ebm.pool_item" for s in models)
    assert all(index.parent_name(s) == "harness.run_cv" for s in cells)
    assert {s.thread for s in models} == {threading.get_ident()}


def test_benchmark_library_calls_still_work():
    """perfbench calls extract_features, tabularize, train_final and
    predict_ovr directly; a traced stream-mixed run must complete, check
    its outputs and find every name it wraps or measures."""
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-mixed",
         "--seconds", "0", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True
    assert not [line for line in lines if line.startswith(("absent:", "unwrapped"))]


def test_artifacts_identical_at_one_and_two_threads(tmp_path, monkeypatch):
    """The feature table, the CV report and the model are the same bytes
    whether the feature-extraction pool runs one thread or two."""
    config = TrainConfig(max_rounds=200, patience=10, max_pairs=3, seed=0)
    artifacts = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("GABORBOOST_THREADS", threads)
        out = tmp_path / threads
        spec = synthgen.SynthSpec(96, 48, 24, 10, 6, noise_sigma=0.02, seed=3)
        dataset, truths = synthgen.generate(spec)
        synthgen.write_dataset(dataset, truths, out / "data")
        rows = features.tabularize(dataio.load_dataset(out / "data"))
        dataio.write_feature_table(rows, out / "features.csv")
        rows = dataio.read_feature_table(out / "features.csv")
        write_report(run_cv(rows, "GF+EGF", repeats=1, k=3, seed=0, config=config), out / "report.json")
        ebm.save_model(train_final(rows, "GF+EGF", config)[0], out / "model.json")
        artifacts[threads] = [(out / name).read_bytes()
                              for name in ("features.csv", "report.json", "model.json")]
    assert artifacts["1"] == artifacts["2"]
