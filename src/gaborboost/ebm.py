"""Additive boosted models over binned features, with pair interactions.

A binary model is logistic(beta + sum_i f_i(x_i) + sum_ij f_ij(x_i, x_j))
where every term is a per-bin lookup table learned by cyclic gradient
boosting. Multiclass problems compose binary models one-vs-rest.
Training is fully deterministic given the table contents, the config and
the seed; row order does not matter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ModelFormatError
# Serial: boosting holds the GIL and loses in threads; perfbench wraps this name per model.
from .util import serial_map as parallel_map

SCHEMA_VERSION = 1
PAIR_BINS = 16


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    max_rounds: int = 1000
    patience: int = 50
    val_fraction: float = 0.15
    max_pairs: int = 10
    max_bins: int = 64
    seed: int = 0
    balance: bool = field(
        default=False, metadata={"help": "inverse-frequency sample weights in the loss"})

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be finite and positive, got {self.learning_rate}")
        for name in ("max_rounds", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0 <= self.val_fraction < 1:
            raise ConfigError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
        if self.max_pairs < 0:
            raise ConfigError(f"max_pairs must be at least 0, got {self.max_pairs}")
        if self.max_bins < 2:
            raise ConfigError(f"max_bins must be at least 2, got {self.max_bins}")
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")


def _bin_values(cuts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Bin index of each value: finite values by their cut points, NaN
    into the extra bin len(cuts) + 1."""
    values = np.asarray(values, dtype=np.float64)
    idx = np.searchsorted(cuts, values, side="right")
    idx[np.isnan(values)] = len(cuts) + 1
    return idx


def _quantile_cuts(values: np.ndarray, max_bins: int) -> np.ndarray:
    """Ascending cut points of finite ``values``; none for fewer than two
    distinct values."""
    distinct = np.unique(values)
    if len(distinct) <= 1:
        return np.empty(0, dtype=np.float64)
    if len(distinct) <= max_bins:
        return (distinct[:-1] + distinct[1:]) / 2.0
    qs = np.arange(1, max_bins) / max_bins
    cuts = np.quantile(values, qs)
    return np.unique(cuts)


def build_bins(table: np.ndarray, max_bins: int = 64) -> tuple[np.ndarray, ...]:
    """Ascending quantile-based cut points per feature; one bin per value
    when a feature has at most max_bins distinct values."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] < 1:
        raise ConfigError("build_bins needs a nonempty 2-D table")
    if max_bins < 2:
        raise ConfigError("max_bins must be at least 2")
    return tuple(_quantile_cuts(col[np.isfinite(col)], max_bins) for col in table.T)


@dataclass
class Term:
    """One additive term: a lookup table over one feature (a shape
    function) or two (a pair interaction).

    ``scores`` has one axis per feature.  Axis k has len(cuts[k]) + 1
    finite bins and a last bin for missing (NaN) values, so every value
    maps somewhere and out-of-range values land in the edge bins.
    """

    features: tuple[int, ...]
    cuts: tuple[np.ndarray, ...]
    scores: np.ndarray

    def bin_index(self, table: np.ndarray) -> np.ndarray:
        """Row-major flat index into ``scores`` for each row of ``table``."""
        flat = _bin_values(self.cuts[0], table[:, self.features[0]])
        for feature, cuts in zip(self.features[1:], self.cuts[1:]):
            flat = flat * (len(cuts) + 2) + _bin_values(cuts, table[:, feature])
        return flat

    def lookup(self, table: np.ndarray) -> np.ndarray:
        return self.scores.ravel()[self.bin_index(table)]


@dataclass
class EbmModel:
    feature_names: tuple[str, ...]
    intercept: float
    shapes: list[Term]  # one per feature, in feature order
    pairs: list[Term]
    importances: dict[str, float] = field(default_factory=dict)


@dataclass
class OvrEnsemble:
    classes: tuple[str, ...]
    models: list[EbmModel]


def _sigmoid(z: np.ndarray, out: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Logistic of ``z`` as where(z >= 0, 1, e) / (1 + e) with e = exp(-|z|),
    which never overflows.  ``out`` is three arrays shaped like ``z`` (the
    result, a float64 and a bool scratch) to compute without allocating."""
    p, e, nonneg = out or (np.empty_like(z), np.empty_like(z), np.empty(z.shape, dtype=bool))
    np.exp(np.negative(np.abs(z, out=e), out=e), out=e)
    np.add(e, 1.0, out=p)
    np.greater_equal(z, 0, out=nonneg)
    np.copyto(e, 1.0, where=nonneg)
    return np.divide(e, p, out=p)


def _log_loss(y: np.ndarray, logit: np.ndarray, w: np.ndarray) -> float:
    # log(1 + exp(-s)) written stably for either sign of s.
    s = np.where(y > 0.5, logit, -logit)
    loss = np.logaddexp(0.0, -s)
    loss *= w
    return float(loss.sum() / w.sum())


def _canonical_order(table: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sort rows by (label, feature values) so the validation split sees
    the same sequence no matter how the input rows were ordered."""
    keys = tuple(table[:, j] for j in range(table.shape[1] - 1, -1, -1)) + (y,)
    return np.lexsort(keys)


def _val_split(y: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """Boolean mask of validation rows (stratified, seeded); free of the
    caller's row order because ``y`` must already be in ``_canonical_order``."""
    rng = np.random.default_rng(cfg.seed)
    is_val = np.zeros(len(y), dtype=bool)
    for cls in (0.0, 1.0):
        members = np.flatnonzero(y == cls)
        k = int(round(cfg.val_fraction * members.size))
        if cfg.val_fraction > 0 and members.size >= 5:
            k = max(k, 1)
        k = min(k, members.size - 1)
        if k <= 0:
            continue
        picked = rng.permutation(members.size)[:k]
        is_val[members[picked]] = True
    return is_val


def _boost_terms(
    terms: list[Term],
    table: np.ndarray,
    logit: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    n_train: int,
    cfg: TrainConfig,
) -> np.ndarray:
    """Cyclic boosting of ``terms`` on top of ``logit`` with early stopping.

    Rows ``[:n_train]`` train and the rest validate; with no validation
    rows the loss is read on the training rows.  ``logit`` is updated in
    place, each term's scores are replaced by their best-validation-loss
    snapshot, and the matching logit vector is returned.

    Every term's scores live in one flat array, term k at
    ``offsets[k]:offsets[k + 1]``, so a best round is saved by one copy; a
    loop over several models at once would stack them at offsets of model
    times bins.  A term step works in buffers made once per stage, and
    skips multiplying by weights that are all 1.0 (``x * 1.0 == x``; the
    skip alone makes the reference-table CV about 10% faster); the
    arithmetic, and so every bit of the result, is that of a step on
    fresh arrays.
    """
    # What a term needs that no round changes (its rows' bins, the
    # per-bin training weight) is computed once per stage.
    y_train, w_train, logit_train = y[:n_train], w[:n_train], logit[:n_train]
    prepared = []
    for term in terms:
        bins = term.bin_index(table)
        bin_w = np.bincount(bins[:n_train], weights=w_train, minlength=term.scores.size)
        # An empty bin sums no residuals, so dividing its 0 by 1 updates it by 0.
        bin_w[bin_w <= 0] = 1.0
        prepared.append((bins, bins[:n_train], term.scores.size, bin_w))
    unit = bool((w == 1.0).all())
    loss_rows = slice(n_train if n_train < len(y) else 0, None)
    y_loss, w_loss, logit_loss = y[loss_rows], w[loss_rows], logit[loss_rows]

    offsets = np.cumsum([0] + [term.scores.size for term in terms])
    flat = np.concatenate([term.scores.ravel() for term in terms] or [np.empty(0)])
    scores = [flat[a:b] for a, b in zip(offsets, offsets[1:])]
    best_loss = _log_loss(y_loss, logit_loss, w_loss)
    best_flat, best_logit = flat.copy(), logit.copy()
    best_round = 0
    buffers = (np.empty(n_train), np.empty(n_train), np.empty(n_train, dtype=bool))

    for round_no in range(1, cfg.max_rounds + 1):
        for (bins, bins_train, n_bins, bin_w), score in zip(prepared, scores):
            p = _sigmoid(logit_train, out=buffers)
            residual = np.subtract(y_train, p, out=p)
            if not unit:
                residual *= w_train
            update = np.bincount(bins_train, weights=residual, minlength=n_bins)
            update *= cfg.learning_rate
            update /= bin_w
            score += update
            logit += update.take(bins)
        loss = _log_loss(y_loss, logit_loss, w_loss)
        if loss < best_loss:
            best_loss = loss
            best_flat[:] = flat
            best_logit[:] = logit
            best_round = round_no
        elif round_no - best_round >= cfg.patience:
            break
    for term, a, b in zip(terms, offsets, offsets[1:]):
        term.scores = best_flat[a:b].reshape(term.scores.shape).copy()
    return best_logit


def train_binary(
    table: np.ndarray,
    y: np.ndarray,
    config: TrainConfig = TrainConfig(),
    feature_names: tuple[str, ...] | None = None,
) -> EbmModel:
    """Fit one binary model; see the module docstring for the recipe.

    ``y`` must hold both 0 and 1.  Boosting reads the training rows first,
    then the validation rows, each block in canonical order."""
    table = np.asarray(table, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if table.ndim != 2 or len(table) != len(y):
        raise ConfigError("table and labels must align")
    if len(y) < 20:
        raise ConfigError(f"need at least 20 rows to train, got {len(y)}")
    if not ((y == 0).any() and (y == 1).any()):
        raise ConfigError(f"binary labels must hold both 0 and 1, got {np.unique(y).tolist()}")
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        r, c = bad[0]
        raise ConfigError(f"non-finite feature value at row {r}, column {c}")
    if feature_names is None:
        feature_names = tuple(f"feature_{i}" for i in range(table.shape[1]))
    if len(feature_names) != table.shape[1]:
        raise ConfigError("feature_names length does not match table width")

    # Reorder rows canonically so every accumulation below sums in the
    # same sequence no matter how the caller ordered the table; without
    # this, float addition order leaks ~1e-16 differences into the model.
    # The sort cannot tell -0.0 from 0.0, so adding 0.0 makes them one
    # value before a quantile can pick either sign for a saved cut.
    order = _canonical_order(table, y)
    table = table[order] + 0.0
    y = y[order]

    cuts = build_bins(table, config.max_bins)
    n, d = table.shape

    w = np.ones(n)
    if config.balance:
        for cls in (0.0, 1.0):
            members = y == cls
            w[members] = n / (2.0 * members.sum())

    rate = float((w * y).sum() / w.sum())
    intercept = math.log(rate / (1.0 - rate))
    shapes = [Term((i,), (cuts[i],), np.zeros(len(cuts[i]) + 2)) for i in range(d)]
    model = EbmModel(tuple(feature_names), intercept, shapes, [])

    is_val = _val_split(y, config)
    n_train = n - int(is_val.sum())
    train_first = np.argsort(is_val, kind="stable")
    rows, labels, weights = table[train_first], y[train_first], w[train_first]
    logit = _boost_terms(model.shapes, rows, np.full(n, intercept), labels, weights,
                         n_train, config)
    if config.max_pairs > 0 and d >= 2:
        model.pairs = _screen_pairs(rows[:n_train], labels[:n_train], weights[:n_train],
                                    logit[:n_train], config)
        _boost_terms(model.pairs, rows, logit, labels, weights, n_train, config)

    # Centring sums over the canonical order, which the split does not touch.
    _finalize(model, table, w)
    return model


def _screen_pairs(
    table: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    logit: np.ndarray,
    config: TrainConfig,
) -> list[Term]:
    """Rank feature pairs by the residual variance a coarse 2-D per-cell
    mean fit explains on the rows given, and keep the strongest few."""
    wr = w * (y - _sigmoid(logit))
    d = table.shape[1]

    coarse_cuts = build_bins(table, PAIR_BINS)

    scored = []
    for i in range(d):
        for j in range(i + 1, d):
            ci, cj = coarse_cuts[i], coarse_cuts[j]
            term = Term((i, j), (ci, cj), np.zeros((len(ci) + 2, len(cj) + 2)))
            flat = term.bin_index(table)
            cell_w = np.bincount(flat, weights=w, minlength=term.scores.size)
            cell_wr = np.bincount(flat, weights=wr, minlength=term.scores.size)
            occupied = cell_w > 0
            explained = float((cell_wr[occupied] ** 2 / cell_w[occupied]).sum())
            scored.append((explained, i, j, term))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    return [term for *_, term in scored[: config.max_pairs]]


def _finalize(model: EbmModel, table: np.ndarray, w: np.ndarray) -> None:
    """Center every term to weighted mean zero over the training rows,
    fold the means into the intercept, and compute importances, named
    by the term's features joined with " x "."""
    w_sum = w.sum()
    importances: dict[str, float] = {}
    for term in model.shapes + model.pairs:
        contrib = term.lookup(table)
        mean = float((w * contrib).sum() / w_sum)
        term.scores = term.scores - mean
        model.intercept += mean
        name = " x ".join(model.feature_names[f] for f in term.features)
        importances[name] = float((w * np.abs(contrib - mean)).sum() / w_sum)
    model.importances = importances


def predict_logit(model: EbmModel, table: np.ndarray) -> np.ndarray:
    table = np.atleast_2d(np.asarray(table, dtype=np.float64))
    logit = np.full(len(table), model.intercept)
    for term in model.shapes + model.pairs:
        logit += term.lookup(table)
    return logit


def predict_proba(model: EbmModel, table: np.ndarray) -> np.ndarray:
    return _sigmoid(predict_logit(model, table))


def train_ovr(
    table: np.ndarray,
    labels: list[str],
    config: TrainConfig = TrainConfig(),
    feature_names: tuple[str, ...] | None = None,
) -> OvrEnsemble:
    """One binary model per class, trained in class order; raises
    ConfigError for labels of fewer than two classes, which leave nothing
    to tell apart."""
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise ConfigError(f"need at least two classes to train, got only {list(classes)}")
    label_arr = np.asarray(labels)

    def job(cls: str) -> EbmModel:
        y = (label_arr == cls).astype(np.float64)
        return train_binary(table, y, config, feature_names)

    models = parallel_map(job, classes)
    return OvrEnsemble(classes, models)


def predict_ovr(ens: OvrEnsemble, table: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Predicted class per row plus the per-class probability matrix.

    Ties go to the earliest class in the ordered class list, which is
    what argmax's first-maximum rule produces.
    """
    table = np.atleast_2d(np.asarray(table, dtype=np.float64))
    probs = np.column_stack([predict_proba(m, table) for m in ens.models])
    winners = [ens.classes[k] for k in np.argmax(probs, axis=1)]
    return winners, probs


# ---------------------------------------------------------------------------
# serialization

def _model_to_obj(model: EbmModel) -> dict:
    return {
        # Not read back; dropping it would change the bytes, and digests, of every saved model.
        "kind": "binary",
        "feature_names": list(model.feature_names),
        "intercept": model.intercept,
        "bins": [s.cuts[0].tolist() for s in model.shapes],
        "shapes": [
            {"feature": s.features[0], "scores": s.scores.tolist()} for s in model.shapes
        ],
        "pairs": [
            {
                "i": p.features[0],
                "j": p.features[1],
                "cuts_i": p.cuts[0].tolist(),
                "cuts_j": p.cuts[1].tolist(),
                "grid": p.scores.tolist(),
            }
            for p in model.pairs
        ],
        "importances": model.importances,
    }


def _model_from_obj(obj: dict) -> EbmModel:
    try:
        names = tuple(obj["feature_names"])
        bins = [np.asarray(c, dtype=np.float64) for c in obj["bins"]]
        n_features = len(names)
        # A feature without its shape would drop out of prediction silently.
        if not len(obj["shapes"]) == len(bins) == n_features:
            raise ModelFormatError(f"{len(obj['shapes'])} shapes and {len(bins)} bins "
                                   f"for {n_features} features; expected one each per feature")

        def feature(index: object) -> int:
            # A negative index would wrap silently at prediction time.
            if not isinstance(index, int) or not 0 <= index < n_features:
                raise ModelFormatError(
                    f"feature index {index!r} out of range for {n_features} features")
            return index

        # "bins" is written from the shapes, so shape k must be feature k.
        shapes = []
        for k, s in enumerate(obj["shapes"]):
            if feature(s["feature"]) != k:
                raise ModelFormatError(f"shape {k} is for feature {s['feature']}; "
                                       "shapes must follow feature order")
            shapes.append(Term((k,), (bins[k],), np.asarray(s["scores"], dtype=np.float64)))
        pairs = [
            Term(
                (feature(p["i"]), feature(p["j"])),
                (np.asarray(p["cuts_i"], dtype=np.float64),
                 np.asarray(p["cuts_j"], dtype=np.float64)),
                np.asarray(p["grid"], dtype=np.float64),
            )
            for p in obj["pairs"]
        ]
        for term in shapes + pairs:
            expected = tuple(len(c) + 2 for c in term.cuts)
            if term.scores.shape != expected:
                raise ModelFormatError(f"term over features {list(term.features)} has scores "
                                       f"of shape {term.scores.shape}, expected {expected}")
            if any((np.diff(c) <= 0).any() for c in term.cuts):
                raise ModelFormatError(f"term over features {list(term.features)} has cuts "
                                       "that are not strictly ascending")
        return EbmModel(names, float(obj["intercept"]), shapes, pairs, dict(obj["importances"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model object: {exc}") from exc


def save_model(ens: OvrEnsemble, path: str | Path) -> None:
    """Write a one-vs-rest ensemble as deterministic JSON."""
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": "ovr",
        "classes": list(ens.classes),
        "models": [_model_to_obj(m) for m in ens.models],
    }
    Path(path).write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _finite_number(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def load_model(path: str | Path) -> OvrEnsemble:
    """Read an ensemble written by :func:`save_model`.

    Raises ModelFormatError for anything prediction could not use as
    written: another model kind, a non-finite number, a malformed term,
    fewer than two classes, or classes and models that do not pair up
    over one feature list.
    """
    try:
        # json accepts NaN, Infinity and overflowing literals unless told not to.
        obj = json.loads(Path(path).read_text(), parse_float=_finite_number,
                         parse_constant=_finite_number)
    except (OSError, ValueError) as exc:
        raise ModelFormatError(f"{path}: cannot read model: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("schema_version") != SCHEMA_VERSION:
        raise ModelFormatError(
            f"{path}: expected schema_version {SCHEMA_VERSION}, "
            f"got {obj.get('schema_version') if isinstance(obj, dict) else 'non-object'}"
        )
    if obj.get("kind") != "ovr":
        raise ModelFormatError(f"{path}: expected model kind 'ovr', got {obj.get('kind')!r}")
    classes, models = obj.get("classes"), obj.get("models")
    if not isinstance(models, list) or not models:
        raise ModelFormatError(f"{path}: one-vs-rest model has no models")
    if (not isinstance(classes, list) or not all(isinstance(c, str) for c in classes)
            or len(set(classes)) != len(classes)):
        raise ModelFormatError(f"{path}: classes {classes!r} are not distinct strings")
    if len(classes) != len(models):
        raise ModelFormatError(f"{path}: {len(classes)} classes but {len(models)} models")
    if len(classes) < 2:
        # A model of one class cannot be wrong; training refuses to make one.
        raise ModelFormatError(f"{path}: a model needs at least two classes, got {classes!r}")
    models = [_model_from_obj(m) for m in models]
    if any(m.feature_names != models[0].feature_names for m in models):
        raise ModelFormatError(f"{path}: the models' feature_names differ")
    return OvrEnsemble(tuple(classes), models)


# ---------------------------------------------------------------------------
# explanation

def _explain_model(model: EbmModel) -> dict:
    ranking = [
        [name, value]
        for name, value in sorted(
            model.importances.items(), key=lambda kv: (-kv[1], kv[0])
        )
        if value > 0
    ]
    names = model.feature_names
    shapes = [
        {"feature": names[s.features[0]], "cuts": s.cuts[0].tolist(), "scores": s.scores.tolist()}
        for s in model.shapes
    ]
    pairs = [
        {
            "features": [names[f] for f in p.features],
            "cuts_i": p.cuts[0].tolist(),
            "cuts_j": p.cuts[1].tolist(),
            "grid": p.scores.tolist(),
        }
        for p in model.pairs
    ]
    return {"importances": ranking, "shapes": shapes, "pairs": pairs}


def explain_global(ens: OvrEnsemble) -> dict:
    """JSON-ready bundle of importances, shape tables and pair grids, per class."""
    return {
        "classes": list(ens.classes),
        "per_class": {cls: _explain_model(m) for cls, m in zip(ens.classes, ens.models)},
    }
