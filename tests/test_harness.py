"""Tests for the cross-validation harness and report assembly."""

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
    metrics,
    run_cv,
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
    split = stratified_kfold(labels, k=6, seed=0)
    assert len(split.folds) == 6
    for fold in split.folds:
        assert len(fold) == 2
        assert sorted(labels[i] for i in fold) == ["A", "B"]
    all_indices = sorted(i for fold in split.folds for i in fold)
    assert all_indices == list(range(12))


def test_stratified_kfold_per_class_counts():
    labels = ["big"] * 2229 + ["mid"] * 796 + ["rare"] * 66
    split = stratified_kfold(labels, k=6, seed=3)
    for fold in split.folds:
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
        split = stratified_kfold(labels, k=k, seed=int(rng.integers(1000)))
        seen = sorted(i for fold in split.folds for i in fold)
        assert seen == list(range(len(labels)))
        for ci, n in enumerate(counts):
            per_fold = [sum(1 for i in fold if labels[i] == f"c{ci}") for fold in split.folds]
            assert max(per_fold) - min(per_fold) <= 1


def test_stratified_kfold_seed_control():
    labels = ["A"] * 30 + ["B"] * 30
    a = stratified_kfold(labels, k=5, seed=0)
    b = stratified_kfold(labels, k=5, seed=0)
    c = stratified_kfold(labels, k=5, seed=1)
    assert a.folds == b.folds
    assert a.folds != c.folds


def test_stratified_kfold_rejects_bad_input():
    with pytest.raises(ConfigError):
        stratified_kfold(["A"] * 10, k=1, seed=0)
    with pytest.raises(ConfigError):
        stratified_kfold(["A"] * 10 + ["B"] * 5, k=6, seed=0)


# ---------------------------------------------------------------------------
# metrics


def test_metrics_perfect_prediction():
    accuracy, precision, recall, flags = metrics(np.diag([4, 7, 9]))
    assert accuracy == 100.0
    np.testing.assert_allclose(precision, 100.0)
    np.testing.assert_allclose(recall, 100.0)
    assert flags == []


def test_metrics_mixed_confusion():
    accuracy, precision, recall, flags = metrics([[5, 5], [0, 10]])
    assert accuracy == 75.0
    np.testing.assert_allclose(precision, [100.0, 100.0 * 10 / 15])
    np.testing.assert_allclose(recall, [50.0, 100.0])
    assert flags == []


def test_metrics_flags_zero_division():
    accuracy, precision, recall, flags = metrics([[0, 3], [0, 7]])
    assert precision[0] == 0.0
    assert flags == ["precision:0"]

    accuracy, precision, recall, flags = metrics([[0, 0], [2, 8]])
    assert recall[0] == 0.0
    assert "recall:0" in flags


def test_metrics_rejects_bad_matrices():
    with pytest.raises(ConfigError):
        metrics(np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        metrics(np.zeros((2, 2)))


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
    with pytest.raises(ConfigError, match="fit-physics"):
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
