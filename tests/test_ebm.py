"""Tests for the binned additive boosting trainer."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaborboost.ebm import (
    BinMap,
    EbmModel,
    OvrEnsemble,
    TrainConfig,
    _log_loss,
    _sigmoid,
    _val_split,
    build_bins,
    explain_global,
    load_model,
    predict,
    predict_logit,
    predict_ovr,
    predict_proba,
    save_model,
    train_binary,
    train_ovr,
)
from gaborboost.errors import ConfigError, ModelFormatError

FAST = TrainConfig(max_rounds=300, patience=20, max_pairs=0, seed=0)


def test_build_bins_binary_column_gets_midpoint_cut():
    bm = build_bins(np.array([[0.0], [1.0], [0.0], [1.0]]))
    np.testing.assert_allclose(bm.cuts[0], [0.5])
    assert bm.n_bins(0) == 3  # two finite bins plus the missing bin


def test_build_bins_constant_column_has_no_cuts():
    bm = build_bins(np.full((10, 1), 3.7))
    assert len(bm.cuts[0]) == 0
    assert bm.n_bins(0) == 2


def test_build_bins_quantiles_split_evenly():
    rng = np.random.default_rng(0)
    col = rng.uniform(0, 1, 1000)
    bm = build_bins(col[:, None], max_bins=4)
    idx = bm.bin_column(0, col)
    np.testing.assert_array_equal(
        np.bincount(idx, minlength=bm.n_bins(0)), [250, 250, 250, 250, 0]
    )


def test_build_bins_rejects_bad_input():
    with pytest.raises(ConfigError):
        build_bins(np.empty((0, 2)))
    with pytest.raises(ConfigError):
        build_bins(np.array([1.0, 2.0]))
    with pytest.raises(ConfigError):
        build_bins(np.array([[1.0], [2.0]]), max_bins=1)


def test_bin_column_routes_nan_and_out_of_range():
    bm = BinMap((np.array([0.0, 1.0]),))
    idx = bm.bin_column(0, np.array([-5.0, 0.5, 5.0, np.nan]))
    np.testing.assert_array_equal(idx, [0, 1, 2, 3])


def test_single_class_training_gives_intercept_only():
    rng = np.random.default_rng(1)
    table = rng.normal(size=(30, 3))
    model = train_binary(table, np.ones(30), FAST)
    assert model.intercept == pytest.approx(math.log((1 - 1e-6) / 1e-6), abs=1e-6)
    for shape in model.shapes:
        np.testing.assert_array_equal(shape.scores, 0.0)
    assert predict_proba(model, table).min() >= 0.999999
    # nothing contributes, so the importance ranking is empty
    assert explain_global(model)["importances"] == []


def test_threshold_problem_separates_cleanly():
    """Sign of a lattice-valued feature: every bin lands on one side."""
    rng = np.random.default_rng(2)
    x = rng.integers(-30, 31, size=1000) / 10.0
    y = (x > 0).astype(float)
    model = train_binary(x[:, None], y, FAST)
    pred = (predict_proba(model, x[:, None]) > 0.5).astype(float)
    assert (pred == y).mean() == 1.0

    shape = model.shapes[0]
    cuts = model.bins.cuts[0]
    reps = np.concatenate([[cuts[0] - 1], (cuts[:-1] + cuts[1:]) / 2, [cuts[-1] + 1]])
    finite = shape.scores[: len(reps)]
    assert finite[reps <= 0].max() < finite[reps > 0].min()


def test_pair_terms_solve_xor():
    """Product-sign labels defeat pure shape functions but not one pair."""
    rng = np.random.default_rng(3)
    table = rng.uniform(-1, 1, size=(2000, 2))
    y = (table[:, 0] * table[:, 1] > 0).astype(float)
    without = train_binary(table, y, TrainConfig(max_pairs=0, seed=0))
    with_pair = train_binary(table, y, TrainConfig(max_pairs=1, seed=0))
    acc_without = ((predict_proba(without, table) > 0.5) == y).mean()
    acc_with = ((predict_proba(with_pair, table) > 0.5) == y).mean()
    assert acc_without < 0.6
    assert acc_with > 0.9
    assert "feature_0 x feature_1" in with_pair.importances


def test_balance_flag_recentres_skewed_classes():
    table = np.zeros((100, 1))
    y = np.concatenate([np.ones(90), np.zeros(10)])
    plain = train_binary(table, y, FAST)
    balanced = train_binary(table, y, TrainConfig(max_pairs=0, seed=0, balance=True))
    assert predict_proba(plain, table).mean() == pytest.approx(0.9, abs=0.02)
    assert predict_proba(balanced, table).mean() == pytest.approx(0.5, abs=0.02)


def test_predict_logit_matches_manual_lookup():
    rng = np.random.default_rng(4)
    table = rng.normal(size=(300, 3))
    y = (table[:, 0] + 0.5 * table[:, 1] * table[:, 2] > 0).astype(float)
    model = train_binary(table, y, TrainConfig(max_pairs=2, seed=0))
    probe = rng.normal(size=(50, 3))

    logit = np.full(len(probe), model.intercept)
    bin_idx = model.bins.bin_matrix(probe)
    for shape in model.shapes:
        logit += shape.scores[bin_idx[:, shape.feature]]
    for pair in model.pairs:
        bi, bj = pair.bin_rows(probe)
        logit += pair.grid[bi, bj]
    np.testing.assert_allclose(predict_logit(model, probe), logit, atol=1e-12)


def test_row_order_does_not_change_the_model(tmp_path):
    rng = np.random.default_rng(5)
    table = rng.normal(size=(200, 3))
    y = (table[:, 0] > 0.2).astype(float)
    model_a = train_binary(table, y, TrainConfig(max_pairs=1, seed=0))

    perm = rng.permutation(len(y))
    model_b = train_binary(table[perm], y[perm], TrainConfig(max_pairs=1, seed=0))

    save_model(model_a, tmp_path / "a.json")
    save_model(model_b, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_validation_loss_beats_intercept_alone():
    rng = np.random.default_rng(6)
    table = rng.normal(size=(400, 2))
    y = (table[:, 0] - table[:, 1] > 0).astype(float)
    cfg = TrainConfig(max_pairs=0, seed=0)
    model = train_binary(table, y, cfg)

    is_val = _val_split(table, y, cfg)
    w = np.ones(len(y))
    fitted = _log_loss(y[is_val], predict_logit(model, table)[is_val], w[is_val])
    flat = _log_loss(y[is_val], np.full(is_val.sum(), model.intercept), w[is_val])
    assert fitted < flat


def test_save_load_round_trip_binary(tmp_path):
    rng = np.random.default_rng(7)
    table = rng.normal(size=(200, 2))
    y = (table.sum(axis=1) > 0).astype(float)
    model = train_binary(table, y, TrainConfig(max_pairs=1, seed=0))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, EbmModel)
    np.testing.assert_array_equal(
        predict_logit(loaded, table), predict_logit(model, table)
    )


def test_save_load_round_trip_ovr(tmp_path):
    rng = np.random.default_rng(8)
    table = rng.normal(size=(90, 2))
    labels = ["alpha"] * 30 + ["beta"] * 30 + ["gamma"] * 30
    ens = train_ovr(table, labels, FAST)
    assert ens.classes == ("alpha", "beta", "gamma")
    path = tmp_path / "ens.json"
    save_model(ens, path)
    loaded = load_model(path)
    assert isinstance(loaded, OvrEnsemble)
    assert loaded.classes == ens.classes
    winners_a, probs_a = predict_ovr(ens, table)
    winners_b, probs_b = predict_ovr(loaded, table)
    assert winners_a == winners_b
    np.testing.assert_array_equal(probs_a, probs_b)


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_model_rejects_wrong_schema_version(tmp_path):
    rng = np.random.default_rng(9)
    table = rng.normal(size=(40, 1))
    y = (table[:, 0] > 0).astype(float)
    model = train_binary(table, y, FAST)
    path = tmp_path / "model.json"
    save_model(model, path)
    obj = json.loads(path.read_text())
    obj["schema_version"] = 99
    path.write_text(json.dumps(obj))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_model_rejects_unknown_kind(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "mystery"}))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_intercept_only_model_predicts_half():
    model = EbmModel(("f0",), 0.0, BinMap((np.empty(0),)), [], [])
    assert predict(model, np.array([123.0])) == pytest.approx(0.5)
    shifted = EbmModel(("f0",), 2.0, BinMap((np.empty(0),)), [], [])
    assert predict(shifted, np.array([0.0])) == pytest.approx(1 / (1 + math.exp(-2)))


def test_ovr_tie_goes_to_earliest_class():
    flat = EbmModel(("f0",), 0.0, BinMap((np.empty(0),)), [], [])
    ens = OvrEnsemble(("alpha", "beta"), [flat, flat])
    winners, probs = predict_ovr(ens, np.array([[1.0], [2.0]]))
    assert winners == ["alpha", "alpha"]
    np.testing.assert_allclose(probs, 0.5)


def test_train_rejects_bad_tables():
    rng = np.random.default_rng(10)
    good = rng.normal(size=(30, 2))
    y = (good[:, 0] > 0).astype(float)
    with pytest.raises(ConfigError):
        train_binary(good[:5], y[:5], FAST)  # too few rows
    with pytest.raises(ConfigError):
        train_binary(good, y[:-1], FAST)  # misaligned labels
    poisoned = good.copy()
    poisoned[3, 1] = np.nan
    with pytest.raises(ConfigError, match="row 3, column 1"):
        train_binary(poisoned, y, FAST)
    with pytest.raises(ConfigError):
        train_binary(good, y, FAST, feature_names=("only_one",))


@pytest.mark.parametrize("field, value", [
    ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", 0.0),
    ("max_rounds", 0), ("patience", 0), ("val_fraction", 1.0), ("val_fraction", -0.1),
    ("val_fraction", math.nan), ("max_pairs", -1), ("max_bins", 1),
])
def test_train_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


def test_explain_global_shapes_align_with_bins():
    rng = np.random.default_rng(11)
    table = rng.normal(size=(200, 2))
    y = (table[:, 0] > 0).astype(float)
    model = train_binary(table, y, TrainConfig(max_pairs=1, seed=0))
    bundle = explain_global(model)
    for entry in bundle["shapes"]:
        assert len(entry["scores"]) == len(entry["cuts"]) + 2
    for entry in bundle["pairs"]:
        grid = np.asarray(entry["grid"])
        assert grid.shape == (len(entry["cuts_i"]) + 2, len(entry["cuts_j"]) + 2)
    ranked = [name for name, _ in bundle["importances"]]
    assert ranked == sorted(
        ranked, key=lambda n: (-model.importances[n], n)
    )


def test_explain_global_ovr_wraps_per_class():
    rng = np.random.default_rng(12)
    table = rng.normal(size=(60, 2))
    labels = ["a"] * 30 + ["b"] * 30
    ens = train_ovr(table, labels, FAST)
    bundle = explain_global(ens)
    assert bundle["classes"] == ["a", "b"]
    assert set(bundle["per_class"]) == {"a", "b"}
    for sub in bundle["per_class"].values():
        assert {"importances", "shapes", "pairs"} <= set(sub)


def _masked_sigmoid(z):
    """The trainer's earlier form, one stable branch per sign mask."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# Signed zeros, exp's under- and overflow region, infinities, NaN, and
# the smallest and largest subnormals.
SIGMOID_EDGES = np.array([0.0, -0.0, 700.0, -700.0, np.inf, -np.inf, np.nan,
                          5e-324, -5e-324, 2.225e-308, -2.225e-308])


@given(arrays(np.float64, st.integers(0, 300),
              elements=st.one_of(st.floats(width=64), st.floats(-40.0, 40.0))))
def test_sigmoid_is_bitwise_the_masked_form(values):
    z = np.concatenate([values, SIGMOID_EDGES])
    assert np.array_equal(_sigmoid(z), _masked_sigmoid(z), equal_nan=True)
