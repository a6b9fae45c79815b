"""Tests for the binned additive boosting trainer."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaborboost import ebm
from gaborboost.ebm import (
    EbmModel,
    OvrEnsemble,
    Term,
    TrainConfig,
    _bin_values,
    _canonical_order,
    _log_loss,
    _sigmoid,
    _val_split,
    build_bins,
    explain_global,
    load_model,
    predict_logit,
    predict_ovr,
    predict_proba,
    save_model,
    train_binary,
    train_ovr,
)
from gaborboost.errors import ConfigError, ModelFormatError
from oracles import boost_terms_reference, log_loss_reference, sigmoid_reference

FAST = TrainConfig(max_rounds=300, patience=20, max_pairs=0, seed=0)


def test_build_bins_binary_column_gets_midpoint_cut():
    cuts = build_bins(np.array([[0.0], [1.0], [0.0], [1.0]]))
    np.testing.assert_allclose(cuts[0], [0.5])
    assert len(cuts[0]) + 2 == 3  # two finite bins plus the missing bin


def test_build_bins_constant_column_has_no_cuts():
    cuts = build_bins(np.full((10, 1), 3.7))
    assert len(cuts[0]) == 0
    assert len(cuts[0]) + 2 == 2


def test_build_bins_quantiles_split_evenly():
    rng = np.random.default_rng(0)
    col = rng.uniform(0, 1, 1000)
    cuts = build_bins(col[:, None], max_bins=4)
    idx = _bin_values(cuts[0], col)
    np.testing.assert_array_equal(
        np.bincount(idx, minlength=len(cuts[0]) + 2), [250, 250, 250, 250, 0]
    )


def test_build_bins_rejects_bad_input():
    with pytest.raises(ConfigError):
        build_bins(np.empty((0, 2)))
    with pytest.raises(ConfigError):
        build_bins(np.array([1.0, 2.0]))
    with pytest.raises(ConfigError):
        build_bins(np.array([[1.0], [2.0]]), max_bins=1)


def test_bin_column_routes_nan_and_out_of_range():
    shape = Term((0,), (np.array([0.0, 1.0]),), np.zeros(4))
    idx = shape.bin_index(np.array([[-5.0], [0.5], [5.0], [np.nan]]))
    np.testing.assert_array_equal(idx, [0, 1, 2, 3])
    # A pair's index is row-major over its two axes, missing bins last.
    pair = Term((1, 0), (np.array([0.0]), np.array([0.0, 1.0])), np.arange(12.0).reshape(3, 4))
    rows = np.array([[-5.0, np.nan], [0.5, -1.0], [np.nan, 2.0]])
    np.testing.assert_array_equal(pair.bin_index(rows), [2 * 4 + 0, 0 * 4 + 1, 1 * 4 + 3])
    np.testing.assert_array_equal(pair.lookup(rows), [8.0, 1.0, 7.0])


def test_train_binary_rejects_a_single_label():
    rng = np.random.default_rng(1)
    table = rng.normal(size=(30, 3))
    for y in (np.ones(30), np.zeros(30)):
        with pytest.raises(ConfigError, match="both 0 and 1"):
            train_binary(table, y, FAST)


def test_constant_features_give_an_empty_ranking():
    table = np.full((30, 3), 2.5)
    y = (np.arange(30) % 3 == 0).astype(float)
    model = train_binary(table, y, FAST)
    for shape in model.shapes:
        np.testing.assert_array_equal(shape.scores, 0.0)
    np.testing.assert_allclose(predict_proba(model, table), y.mean())
    # nothing contributes, so the importance ranking is empty
    assert explain_global(_two_class(model))["per_class"]["pos"]["importances"] == []


def test_threshold_problem_separates_cleanly():
    """Sign of a lattice-valued feature: every bin lands on one side."""
    rng = np.random.default_rng(2)
    x = rng.integers(-30, 31, size=1000) / 10.0
    y = (x > 0).astype(float)
    model = train_binary(x[:, None], y, FAST)
    pred = (predict_proba(model, x[:, None]) > 0.5).astype(float)
    assert (pred == y).mean() == 1.0

    shape = model.shapes[0]
    cuts = shape.cuts[0]
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

    assert len(model.pairs) == 2
    # The probe holds no NaN, so a plain searchsorted finds every bin.
    logit = np.full(len(probe), model.intercept)
    for term in model.shapes + model.pairs:
        axes = tuple(np.searchsorted(c, probe[:, f], side="right")
                     for f, c in zip(term.features, term.cuts))
        logit += term.scores[axes]
    assert np.array_equal(predict_logit(model, probe), logit)


def _two_class(model):
    """A saved model is an ensemble of at least two classes; this one's
    two members are the same binary model."""
    return OvrEnsemble(("neg", "pos"), [model, model])


def _saved(ens, path):
    save_model(ens, path)
    return path.read_bytes()


def _reference_row_order_case():
    rng = np.random.default_rng(5)
    table = rng.normal(size=(200, 3))
    y = (table[:, 0] > 0.2).astype(float)
    return table, y, rng.permutation(len(y))


def _signed_zero_case():
    """Both zeros in one column: a median cut could be saved as 0.0 or -0.0."""
    rng = np.random.default_rng(0)
    table = rng.choice([-0.0, 0.0, 1.0, -1.0, 0.5], size=(40, 2))
    y = rng.integers(0, 2, 40).astype(float)
    return table, y, rng.permutation(40)


@st.composite
def tables_with_ties(draw):
    """A small table whose values repeat, signed zeros included, with
    labels of both classes, plus a row permutation."""
    n = draw(st.integers(20, 48))
    d = draw(st.integers(2, 4))
    pool = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8)) + [-0.0, 0.0]
    table = draw(arrays(np.float64, (n, d), elements=st.sampled_from(pool)))
    y = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
    y[:2] = (0.0, 1.0)
    perm = np.array(draw(st.permutations(range(n))))
    return table, y, perm


SMALL_CONFIGS = st.builds(
    TrainConfig,
    max_rounds=st.integers(1, 30),
    patience=st.integers(1, 10),
    val_fraction=st.sampled_from([0.0, 0.15, 0.4]),
    max_pairs=st.integers(1, 3),
    max_bins=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    balance=st.booleans(),
)


@settings(max_examples=40, deadline=None)
@example(case=_reference_row_order_case(), config=TrainConfig(max_pairs=1, seed=0))
@example(case=_signed_zero_case(),
         config=TrainConfig(max_rounds=20, patience=5, max_pairs=1, max_bins=2, seed=0))
@given(case=tables_with_ties(), config=SMALL_CONFIGS)
def test_row_order_does_not_change_the_model(tmp_path_factory, case, config):
    table, y, perm = case
    tmp = tmp_path_factory.mktemp("order")
    ens_a = _two_class(train_binary(table, y, config))
    ens_b = _two_class(train_binary(table[perm], y[perm], config))
    assert _saved(ens_a, tmp / "a.json") == _saved(ens_b, tmp / "b.json")


@settings(max_examples=25, deadline=None)
@given(case=tables_with_ties(), config=SMALL_CONFIGS, n_classes=st.integers(2, 3))
def test_save_load_save_is_byte_identical(tmp_path_factory, case, config, n_classes):
    table, _, perm = case
    labels = [f"c{k % n_classes}" for k in perm]
    tmp = tmp_path_factory.mktemp("resave")
    for ens in (_two_class(train_binary(table, (perm % 2).astype(float), config)),
                train_ovr(table, labels, config)):
        first = _saved(ens, tmp / "first.json")
        assert _saved(load_model(tmp / "first.json"), tmp / "second.json") == first


@st.composite
def boosting_cases(draw):
    """A table of 20 to 80 rows and 2 to 5 features whose values repeat, so
    bins tie, with labels of both classes; exactly balanced classes give
    every row weight 1.0 under ``balance``."""
    balanced = draw(st.booleans())
    n = 2 * draw(st.integers(10, 40)) if balanced else draw(st.integers(20, 80))
    d = draw(st.integers(2, 5))
    pool = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6)) + [-0.0, 0.0]
    table = draw(arrays(np.float64, (n, d), elements=st.sampled_from(pool)))
    if balanced:
        y = np.tile([0.0, 1.0], n // 2)
    else:
        y = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
        y[:2] = (0.0, 1.0)
    return table, y


BOOST_CONFIGS = st.builds(
    TrainConfig,
    learning_rate=st.sampled_from([0.05, 0.5]),
    max_rounds=st.integers(1, 25),
    patience=st.integers(1, 5),
    val_fraction=st.sampled_from([0.0, 0.2]),
    max_pairs=st.sampled_from([0, 3]),
    max_bins=st.sampled_from([4, 64]),
    seed=st.integers(0, 2**32 - 1),
    balance=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(case=boosting_cases(), config=BOOST_CONFIGS)
def test_boosting_is_bitwise_the_reference_loop(tmp_path_factory, case, config):
    """The in-place loop makes the same model and logits, to the bit, as the
    loop on fresh arrays that it replaced (and its sigmoid, which pair
    screening also reads)."""
    table, y = case
    tmp = tmp_path_factory.mktemp("boost")

    def train(boost, sigmoid, path):
        logits = []

        def recording(*args):
            logit = boost(*args)
            logits.append(logit.copy())
            return logit

        with mock.patch.object(ebm, "_boost_terms", recording), \
                mock.patch.object(ebm, "_sigmoid", sigmoid):
            model = train_binary(table, y, config)
        return _saved(_two_class(model), path), logits

    saved, logits = train(ebm._boost_terms, ebm._sigmoid, tmp / "library.json")
    saved_ref, logits_ref = train(boost_terms_reference, sigmoid_reference, tmp / "ref.json")
    assert saved == saved_ref
    assert len(logits) == len(logits_ref) == (2 if config.max_pairs else 1)
    assert all((a == b).all() for a, b in zip(logits, logits_ref))


@st.composite
def log_loss_cases(draw):
    """1 to 60 rows: logits in +-800, in +-40 or a mix of both, 0/1 labels,
    and unit or non-unit weights.  Hypothesis draws a case's shape and a
    seed and numpy draws its values, so a case costs a handful of draws
    instead of three per row."""
    n = draw(st.integers(1, 60))
    wide_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    unit_weights = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wide = rng.random(n) < wide_share
    logit = np.where(wide, rng.uniform(-800.0, 800.0, n), rng.uniform(-40.0, 40.0, n))
    y = rng.integers(0, 2, n).astype(np.float64)
    w = np.ones(n) if unit_weights else rng.uniform(0.1, 10.0, n)
    return logit, y, w


@given(log_loss_cases())
def test_log_loss_is_bitwise_the_reference(case):
    logit, y, w = case
    assert _log_loss(y, logit, w) == log_loss_reference(y, logit, w)


def test_validation_loss_beats_intercept_alone():
    rng = np.random.default_rng(6)
    table = rng.normal(size=(400, 2))
    y = (table[:, 0] - table[:, 1] > 0).astype(float)
    cfg = TrainConfig(max_pairs=0, seed=0)
    model = train_binary(table, y, cfg)

    # train_binary splits its rows after sorting them canonically.
    order = _canonical_order(table, y)
    table, y = table[order], y[order]
    is_val = _val_split(y, cfg)
    w = np.ones(len(y))
    fitted = _log_loss(y[is_val], predict_logit(model, table)[is_val], w[is_val])
    flat = _log_loss(y[is_val], np.full(is_val.sum(), model.intercept), w[is_val])
    assert fitted < flat


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
    save_model(_two_class(model), path)
    obj = json.loads(path.read_text())
    obj["schema_version"] = 99
    path.write_text(json.dumps(obj))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_model_rejects_unknown_kind(tmp_path):
    """Only the one-vs-rest ensemble is a model file; a bare member is not."""
    path = tmp_path / "model.json"
    for kind in ("mystery", "binary", None):
        path.write_text(json.dumps({"schema_version": 1, "kind": kind}))
        with pytest.raises(ModelFormatError, match=f"got {kind!r}"):
            load_model(path)


def test_intercept_only_model_predicts_half():
    model = EbmModel(("f0",), 0.0, [], [])
    assert predict_proba(model, np.array([123.0]))[0] == pytest.approx(0.5)
    shifted = EbmModel(("f0",), 2.0, [], [])
    assert predict_proba(shifted, np.array([0.0]))[0] == pytest.approx(1 / (1 + math.exp(-2)))


def test_ovr_tie_goes_to_earliest_class():
    flat = EbmModel(("f0",), 0.0, [], [])
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
    ("val_fraction", math.nan), ("max_pairs", -1), ("max_bins", 1), ("seed", -1),
])
def test_train_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


def test_explain_global_shapes_align_with_bins():
    rng = np.random.default_rng(11)
    table = rng.normal(size=(200, 2))
    y = (table[:, 0] > 0).astype(float)
    model = train_binary(table, y, TrainConfig(max_pairs=1, seed=0))
    bundle = explain_global(_two_class(model))["per_class"]["pos"]
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
