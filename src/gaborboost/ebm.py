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
# Guard for intercepts of single-class training sets.
RATE_CLIP = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    max_rounds: int = 1000
    patience: int = 50
    val_fraction: float = 0.15
    max_pairs: int = 10
    max_bins: int = 64
    seed: int = 0
    balance: bool = False

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


@dataclass(frozen=True)
class BinMap:
    """Per-feature ascending cut points.

    Feature i has len(cuts[i]) + 1 finite bins; bin len(cuts[i]) + 1 is
    reserved for missing (NaN) values, so every value maps somewhere and
    out-of-range values land in the edge bins.
    """

    cuts: tuple[np.ndarray, ...]

    @property
    def n_features(self) -> int:
        return len(self.cuts)

    def n_bins(self, feature: int) -> int:
        return len(self.cuts[feature]) + 2

    def bin_column(self, feature: int, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        idx = np.searchsorted(self.cuts[feature], values, side="right")
        idx[np.isnan(values)] = len(self.cuts[feature]) + 1
        return idx

    def bin_matrix(self, table: np.ndarray) -> np.ndarray:
        out = np.empty(table.shape, dtype=np.int64)
        for i in range(self.n_features):
            out[:, i] = self.bin_column(i, table[:, i])
        return out


def _quantile_cuts(values: np.ndarray, max_bins: int) -> np.ndarray:
    distinct = np.unique(values)
    if len(distinct) <= 1:
        return np.empty(0, dtype=np.float64)
    if len(distinct) <= max_bins:
        return (distinct[:-1] + distinct[1:]) / 2.0
    qs = np.arange(1, max_bins) / max_bins
    cuts = np.quantile(values, qs)
    return np.unique(cuts)


def build_bins(table: np.ndarray, max_bins: int = 64) -> BinMap:
    """Quantile-based cut points per feature; one bin per value when a
    feature has at most max_bins distinct values."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] < 1:
        raise ConfigError("build_bins needs a nonempty 2-D table")
    if max_bins < 2:
        raise ConfigError("max_bins must be at least 2")
    cuts = []
    for i in range(table.shape[1]):
        col = table[:, i]
        finite = col[np.isfinite(col)]
        if finite.size == 0:
            cuts.append(np.empty(0, dtype=np.float64))
        else:
            cuts.append(np.asarray(_quantile_cuts(finite, max_bins), dtype=np.float64))
    return BinMap(tuple(cuts))


@dataclass
class ShapeFunction:
    feature: int
    scores: np.ndarray  # one entry per bin, missing bin last


@dataclass
class PairFunction:
    i: int
    j: int
    cuts_i: np.ndarray
    cuts_j: np.ndarray
    grid: np.ndarray  # (bins_i, bins_j) scores, missing bins last

    def bin_rows(self, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bi = np.searchsorted(self.cuts_i, table[:, self.i], side="right")
        bi[np.isnan(table[:, self.i])] = len(self.cuts_i) + 1
        bj = np.searchsorted(self.cuts_j, table[:, self.j], side="right")
        bj[np.isnan(table[:, self.j])] = len(self.cuts_j) + 1
        return bi, bj


@dataclass
class EbmModel:
    feature_names: tuple[str, ...]
    intercept: float
    bins: BinMap
    shapes: list[ShapeFunction]
    pairs: list[PairFunction]
    importances: dict[str, float] = field(default_factory=dict)


@dataclass
class OvrEnsemble:
    classes: tuple[str, ...]
    models: list[EbmModel]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; both branches are the textbook stable forms.
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _log_loss(y: np.ndarray, logit: np.ndarray, w: np.ndarray) -> float:
    # log(1 + exp(-s)) written stably for either sign of s.
    s = np.where(y > 0.5, logit, -logit)
    loss = np.logaddexp(0.0, -s)
    return float((w * loss).sum() / w.sum())


def _canonical_order(table: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sort rows by (label, feature values) so the validation split sees
    the same sequence no matter how the input rows were ordered."""
    keys = tuple(table[:, j] for j in range(table.shape[1] - 1, -1, -1)) + (y,)
    return np.lexsort(keys)


def _val_split(table: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """Boolean mask of validation rows (stratified, seeded, row-order free)."""
    order = _canonical_order(table, y)
    rng = np.random.default_rng(cfg.seed)
    is_val = np.zeros(len(y), dtype=bool)
    for cls in (0.0, 1.0):
        members = order[y[order] == cls]
        if members.size == 0:
            continue
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
    logit: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    is_val: np.ndarray,
    term_bins: list[tuple[np.ndarray, int]],
    term_scores: list[np.ndarray],
    cfg: TrainConfig,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Cyclic boosting over a list of terms with early stopping.

    ``term_bins`` holds (flat bin index per row, bin count) per term and
    ``term_scores`` the flat score arrays being learned (modified on a
    working copy).  Returns the best-validation-loss snapshot of the
    scores and the matching logit vector.
    """
    train = ~is_val
    have_val = bool(is_val.any())
    # Train and validation rows keep their own logits, and what a term
    # needs that no round changes (its rows' bins, the per-bin training
    # weight) is computed once per stage.
    y_train, w_train = y[train], w[train]
    logit_train, logit_val = logit[train], logit[is_val]
    terms = []
    for bins, n_bins in term_bins:
        bins_train = bins[train]
        bin_w = np.bincount(bins_train, weights=w_train, minlength=n_bins)
        # An empty bin sums no residuals, so dividing its 0 by 1 updates it by 0.
        bin_w[bin_w <= 0] = 1.0
        terms.append((bins_train, bins[is_val], n_bins, bin_w))
    # The loss is read on the validation rows, or on the training rows
    # when there are none; the logits are updated in place.
    loss_rows = is_val if have_val else train
    y_loss, w_loss = y[loss_rows], w[loss_rows]
    logit_loss = logit_val if have_val else logit_train

    scores = [s.copy() for s in term_scores]
    best_loss = _log_loss(y_loss, logit_loss, w_loss)
    best_scores = [s.copy() for s in scores]
    best_train, best_val = logit_train.copy(), logit_val.copy()
    best_round = 0

    for round_no in range(1, cfg.max_rounds + 1):
        for (bins_train, bins_val, n_bins, bin_w), score in zip(terms, scores):
            residual = y_train - _sigmoid(logit_train)
            bin_wr = np.bincount(bins_train, weights=w_train * residual, minlength=n_bins)
            update = cfg.learning_rate * bin_wr / bin_w
            score += update
            logit_train += update[bins_train]
            logit_val += update[bins_val]
        loss = _log_loss(y_loss, logit_loss, w_loss)
        if loss < best_loss:
            best_loss = loss
            best_scores = [s.copy() for s in scores]
            best_train, best_val = logit_train.copy(), logit_val.copy()
            best_round = round_no
        elif round_no - best_round >= cfg.patience:
            break
    best_logit = np.empty_like(logit)
    best_logit[train] = best_train
    best_logit[is_val] = best_val
    return best_scores, best_logit


def train_binary(
    table: np.ndarray,
    y: np.ndarray,
    config: TrainConfig = TrainConfig(),
    feature_names: tuple[str, ...] | None = None,
) -> EbmModel:
    """Fit one binary model; see the module docstring for the recipe."""
    table = np.asarray(table, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if table.ndim != 2 or len(table) != len(y):
        raise ConfigError("table and labels must align")
    if len(y) < 20:
        raise ConfigError(f"need at least 20 rows to train, got {len(y)}")
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
    order = _canonical_order(table, y)
    table = table[order]
    y = y[order]

    bins = build_bins(table, config.max_bins)
    bin_idx = bins.bin_matrix(table)
    n, d = table.shape

    w = np.ones(n)
    if config.balance:
        for cls in (0.0, 1.0):
            members = y == cls
            if members.any():
                w[members] = n / (2.0 * members.sum())

    rate = float((w * y).sum() / w.sum())
    intercept = math.log(
        min(max(rate, RATE_CLIP), 1.0 - RATE_CLIP)
        / (1.0 - min(max(rate, RATE_CLIP), 1.0 - RATE_CLIP))
    )
    shapes = [ShapeFunction(i, np.zeros(bins.n_bins(i))) for i in range(d)]
    model = EbmModel(tuple(feature_names), intercept, bins, shapes, [])

    if len(np.unique(y)) < 2:
        # Nothing to separate: keep the intercept-only model.
        _finalize(model, table, bin_idx, w)
        return model

    is_val = _val_split(table, y, config)
    logit = np.full(n, intercept)

    shape_bins = [(bin_idx[:, i], bins.n_bins(i)) for i in range(d)]
    shape_scores = [s.scores for s in shapes]
    best_scores, logit = _boost_terms(
        logit, y, w, is_val, shape_bins, shape_scores, config
    )
    for s, learned in zip(shapes, best_scores):
        s.scores = learned

    if config.max_pairs > 0 and d >= 2:
        pairs = _screen_pairs(table, y, w, is_val, logit, config)
        if pairs:
            pair_bins = []
            for p in pairs:
                bi, bj = p.bin_rows(table)
                width = len(p.cuts_j) + 2
                pair_bins.append((bi * width + bj, (len(p.cuts_i) + 2) * width))
            pair_scores = [p.grid.ravel() for p in pairs]
            best_grids, logit = _boost_terms(
                logit, y, w, is_val, pair_bins, pair_scores, config
            )
            for p, learned in zip(pairs, best_grids):
                p.grid = learned.reshape(p.grid.shape)
            model.pairs = pairs

    _finalize(model, table, bin_idx, w)
    return model


def _screen_pairs(
    table: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    is_val: np.ndarray,
    logit: np.ndarray,
    config: TrainConfig,
) -> list[PairFunction]:
    """Rank feature pairs by the residual variance a coarse 2-D per-cell
    mean fit explains, and keep the strongest few."""
    train = ~is_val
    residual = (y - _sigmoid(logit))[train]
    w_train = w[train]
    d = table.shape[1]

    coarse_cuts = []
    for i in range(d):
        col = table[train, i]
        finite = col[np.isfinite(col)]
        coarse_cuts.append(_quantile_cuts(finite, PAIR_BINS) if finite.size else np.empty(0))

    scored = []
    for i in range(d):
        bi = np.searchsorted(coarse_cuts[i], table[train, i], side="right")
        ni = len(coarse_cuts[i]) + 1
        for j in range(i + 1, d):
            bj = np.searchsorted(coarse_cuts[j], table[train, j], side="right")
            nj = len(coarse_cuts[j]) + 1
            flat = bi * nj + bj
            cell_w = np.bincount(flat, weights=w_train, minlength=ni * nj)
            cell_wr = np.bincount(flat, weights=w_train * residual, minlength=ni * nj)
            occupied = cell_w > 0
            explained = float((cell_wr[occupied] ** 2 / cell_w[occupied]).sum())
            scored.append((explained, i, j))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))

    pairs = []
    for explained, i, j in scored[: config.max_pairs]:
        ci, cj = coarse_cuts[i], coarse_cuts[j]
        grid = np.zeros((len(ci) + 2, len(cj) + 2))
        pairs.append(PairFunction(i, j, ci.copy(), cj.copy(), grid))
    return pairs


def _finalize(model: EbmModel, table: np.ndarray, bin_idx: np.ndarray, w: np.ndarray) -> None:
    """Center every term to weighted mean zero over the training rows,
    fold the means into the intercept, and compute importances."""
    w_sum = w.sum()
    importances: dict[str, float] = {}
    for shape in model.shapes:
        contrib = shape.scores[bin_idx[:, shape.feature]]
        mean = float((w * contrib).sum() / w_sum)
        shape.scores = shape.scores - mean
        model.intercept += mean
        centered = contrib - mean
        importances[model.feature_names[shape.feature]] = float(
            (w * np.abs(centered)).sum() / w_sum
        )
    for pair in model.pairs:
        bi, bj = pair.bin_rows(table)
        contrib = pair.grid[bi, bj]
        mean = float((w * contrib).sum() / w_sum)
        pair.grid = pair.grid - mean
        model.intercept += mean
        centered = contrib - mean
        name = f"{model.feature_names[pair.i]} x {model.feature_names[pair.j]}"
        importances[name] = float((w * np.abs(centered)).sum() / w_sum)
    model.importances = importances


def predict_logit(model: EbmModel, table: np.ndarray) -> np.ndarray:
    table = np.atleast_2d(np.asarray(table, dtype=np.float64))
    bin_idx = model.bins.bin_matrix(table)
    logit = np.full(len(table), model.intercept)
    for shape in model.shapes:
        logit += shape.scores[bin_idx[:, shape.feature]]
    for pair in model.pairs:
        bi, bj = pair.bin_rows(table)
        logit += pair.grid[bi, bj]
    return logit


def predict_proba(model: EbmModel, table: np.ndarray) -> np.ndarray:
    return _sigmoid(predict_logit(model, table))


def predict(model: EbmModel, row: np.ndarray) -> float:
    """Probability of the positive class for a single feature row."""
    return float(predict_proba(model, np.atleast_2d(row))[0])


def train_ovr(
    table: np.ndarray,
    labels: list[str],
    config: TrainConfig = TrainConfig(),
    feature_names: tuple[str, ...] | None = None,
) -> OvrEnsemble:
    """One binary model per class, trained in class order."""
    classes = tuple(sorted(set(labels)))
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
        "kind": "binary",
        "feature_names": list(model.feature_names),
        "intercept": model.intercept,
        "bins": [c.tolist() for c in model.bins.cuts],
        "shapes": [
            {"feature": s.feature, "scores": s.scores.tolist()} for s in model.shapes
        ],
        "pairs": [
            {
                "i": p.i,
                "j": p.j,
                "cuts_i": p.cuts_i.tolist(),
                "cuts_j": p.cuts_j.tolist(),
                "grid": p.grid.tolist(),
            }
            for p in model.pairs
        ],
        "importances": model.importances,
    }


def _model_from_obj(obj: dict) -> EbmModel:
    try:
        bins = BinMap(tuple(np.asarray(c, dtype=np.float64) for c in obj["bins"]))
        shapes = [
            ShapeFunction(s["feature"], np.asarray(s["scores"], dtype=np.float64))
            for s in obj["shapes"]
        ]
        pairs = [
            PairFunction(
                p["i"],
                p["j"],
                np.asarray(p["cuts_i"], dtype=np.float64),
                np.asarray(p["cuts_j"], dtype=np.float64),
                np.asarray(p["grid"], dtype=np.float64),
            )
            for p in obj["pairs"]
        ]
        return EbmModel(
            tuple(obj["feature_names"]),
            float(obj["intercept"]),
            bins,
            shapes,
            pairs,
            dict(obj["importances"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model object: {exc}") from exc


def save_model(model: EbmModel | OvrEnsemble, path: str | Path) -> None:
    """Write a model or ensemble as deterministic JSON."""
    if isinstance(model, OvrEnsemble):
        obj = {
            "schema_version": SCHEMA_VERSION,
            "kind": "ovr",
            "classes": list(model.classes),
            "models": [_model_to_obj(m) for m in model.models],
        }
    else:
        obj = {"schema_version": SCHEMA_VERSION, **_model_to_obj(model)}
    Path(path).write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path: str | Path) -> EbmModel | OvrEnsemble:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: cannot read model: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("schema_version") != SCHEMA_VERSION:
        raise ModelFormatError(
            f"{path}: expected schema_version {SCHEMA_VERSION}, "
            f"got {obj.get('schema_version') if isinstance(obj, dict) else 'non-object'}"
        )
    if obj.get("kind") == "ovr":
        models = [_model_from_obj(m) for m in obj.get("models", [])]
        return OvrEnsemble(tuple(obj.get("classes", ())), models)
    if obj.get("kind") == "binary":
        return _model_from_obj(obj)
    raise ModelFormatError(f"{path}: unknown model kind {obj.get('kind')!r}")


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
    shapes = []
    for s in model.shapes:
        shapes.append(
            {
                "feature": model.feature_names[s.feature],
                "cuts": model.bins.cuts[s.feature].tolist(),
                "scores": s.scores.tolist(),
            }
        )
    pairs = []
    for p in model.pairs:
        pairs.append(
            {
                "features": [model.feature_names[p.i], model.feature_names[p.j]],
                "cuts_i": p.cuts_i.tolist(),
                "cuts_j": p.cuts_j.tolist(),
                "grid": p.grid.tolist(),
            }
        )
    return {"importances": ranking, "shapes": shapes, "pairs": pairs}


def explain_global(model: EbmModel | OvrEnsemble) -> dict:
    """JSON-ready bundle of importances, shape tables and pair grids."""
    if isinstance(model, OvrEnsemble):
        return {
            "classes": list(model.classes),
            "per_class": {
                cls: _explain_model(m) for cls, m in zip(model.classes, model.models)
            },
        }
    return _explain_model(model)
