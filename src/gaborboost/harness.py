"""Experiment orchestration: feature sets, cross-validation, reports.

A run picks a feature subset from the tabular rows, performs repeated
stratified k-fold cross-validation with a fresh one-vs-rest model per
cell, and aggregates percent metrics into a JSON-ready report that can
be reproduced byte-for-byte from the same seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dataio import FeatureRow
from .ebm import OvrEnsemble, TrainConfig, predict_ovr, train_ovr
from .errors import ConfigError
# Serial: boosting holds the GIL and loses in threads; perfbench wraps this name per CV cell.
from .util import serial_map as parallel_map

# Per-row model inputs by feature-set name.  The grid-search scale
# parameters stay in the table for inspection but are not model inputs;
# positions enter in normalized form.
GF_FEATURES = ("x_star_norm", "y_star_norm", "q_tl", "q_tr", "q_bl", "q_br")
EGF_FEATURES = ("egf_tl_bl", "egf_tr_br", "egf_tl_tr", "egf_bl_br")
PF_FEATURES = ("pf_amp", "pf_center", "pf_width", "pf_skew", "pf_offset")

FEATURE_SETS = {
    "GF": GF_FEATURES,
    "GF+EGF": GF_FEATURES + EGF_FEATURES,
    "GF+PF": GF_FEATURES + PF_FEATURES,
    "GF+EGF+PF": GF_FEATURES + EGF_FEATURES + PF_FEATURES,
    "PF": PF_FEATURES,
}

# Map display feature names onto FeatureRow attributes.
_NAME_TO_COLUMN = {"x_star_norm": "x_star", "y_star_norm": "y_star"}


@dataclass(frozen=True)
class FoldSplit:
    folds: tuple[tuple[int, ...], ...]
    repeat: int
    seed: int


def stratified_kfold(labels: list[str], k: int, seed: int, repeat: int = 0) -> FoldSplit:
    """Assign indices to k folds, round-robin within each shuffled class."""
    if k < 2:
        raise ConfigError(f"k must be at least 2, got {k}")
    labels_arr = np.asarray(labels)
    classes = sorted(set(labels))
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in classes:
        members = np.flatnonzero(labels_arr == cls)
        if len(members) < k:
            raise ConfigError(
                f"class {cls!r} has {len(members)} members, fewer than k={k}"
            )
        members = members[rng.permutation(len(members))]
        for pos, idx in enumerate(members):
            folds[pos % k].append(int(idx))
    return FoldSplit(tuple(tuple(sorted(f)) for f in folds), repeat, seed)


def metrics(confusion: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, list[str]]:
    """Percent accuracy, per-class precision and recall from a confusion
    matrix with true classes on rows.  0/0 counts as 0 and is flagged."""
    m = np.asarray(confusion, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"confusion matrix must be square, got {m.shape}")
    total = m.sum()
    if total == 0:
        raise ConfigError("empty confusion matrix")
    accuracy = 100.0 * np.trace(m) / total
    flags: list[str] = []
    n = m.shape[0]
    precision = np.zeros(n)
    recall = np.zeros(n)
    for c in range(n):
        col = m[:, c].sum()
        row = m[c, :].sum()
        if col == 0:
            flags.append(f"precision:{c}")
        else:
            precision[c] = 100.0 * m[c, c] / col
        if row == 0:
            flags.append(f"recall:{c}")
        else:
            recall[c] = 100.0 * m[c, c] / row
    return float(accuracy), precision, recall, flags


def matrix_from_names(
    rows: list[FeatureRow], names: tuple[str, ...]
) -> tuple[np.ndarray, list[str], int]:
    """Feature matrix and labels for the given model-input names.

    Rows whose physics fit failed (NaN PF columns) are dropped when any
    PF column is requested; the count of dropped rows is returned.
    """
    uses_pf = any(n in PF_FEATURES for n in names)
    if uses_pf and rows and not rows[0].has_pf:
        raise ConfigError(
            f"columns {sorted(set(names) & set(PF_FEATURES))} need PF data; run fit-physics"
        )
    kept = [r for r in rows if not (uses_pf and r.pf_failed)] if uses_pf else list(rows)
    dropped = len(rows) - len(kept)
    matrix = np.array(
        [[float(r.value(_NAME_TO_COLUMN.get(n, n))) for n in names] for r in kept],
        dtype=np.float64,
    ).reshape(len(kept), len(names))
    return matrix, [r.label for r in kept], dropped


def build_matrix(
    rows: list[FeatureRow], feature_set: str
) -> tuple[np.ndarray, tuple[str, ...], list[str], int]:
    """Feature matrix, feature names, labels, and dropped-row count for a
    named feature set."""
    if feature_set not in FEATURE_SETS:
        raise ConfigError(
            f"unknown feature set {feature_set!r}; choose from {sorted(FEATURE_SETS)}"
        )
    names = FEATURE_SETS[feature_set]
    matrix, labels, dropped = matrix_from_names(rows, names)
    return matrix, names, labels, dropped


def mean_sigma_display(mean: float, sigma: float) -> str:
    """Compact "mean(σ)" notation with σ in units of the last digit.

    92.31 ± 0.042 renders as "92.3(0)"; σ too large for one digit falls
    back to its own one-decimal form, e.g. "87.4(1.3)".
    """
    scaled = round(sigma * 10)
    if scaled <= 9:
        return f"{mean:.1f}({scaled})"
    return f"{mean:.1f}({sigma:.1f})"


@dataclass
class CvReport:
    feature_set: str
    repeats: int
    k: int
    seed: int
    classes: tuple[str, ...]
    feature_names: tuple[str, ...]
    dropped_rows: int
    train_config: dict
    cells: list[dict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)

    def to_json(self) -> str:
        obj = asdict(self)
        obj["classes"] = list(self.classes)
        obj["feature_names"] = list(self.feature_names)
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _aggregate(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    sigma = float(arr.std())  # population sigma across repeat x fold cells
    return {"mean": mean, "sigma": sigma, "display": mean_sigma_display(mean, sigma)}


def run_cv(
    rows: list[FeatureRow],
    feature_set: str = "GF+EGF",
    repeats: int = 5,
    k: int = 6,
    seed: int = 0,
    config: TrainConfig = TrainConfig(),
) -> CvReport:
    """Repeated stratified k-fold cross-validation with a fresh ensemble
    per cell; repeat r uses fold seed ``seed + r``."""
    if repeats < 1:
        raise ConfigError(f"repeats must be at least 1, got {repeats}")
    matrix, names, labels, dropped = build_matrix(rows, feature_set)
    if len(labels) == 0:
        raise ConfigError("no rows left to cross-validate")
    classes = tuple(sorted(set(labels)))
    labels_arr = np.asarray(labels)

    jobs = []
    for repeat in range(repeats):
        split = stratified_kfold(labels, k, seed + repeat, repeat)
        for fold_no, fold in enumerate(split.folds):
            jobs.append((repeat, fold_no, np.asarray(fold, dtype=np.int64)))

    def evaluate(job: tuple[int, int, np.ndarray]) -> dict:
        repeat, fold_no, test_idx = job
        mask = np.zeros(len(labels), dtype=bool)
        mask[test_idx] = True
        ens = train_ovr(matrix[~mask], list(labels_arr[~mask]), config, names)
        predicted, _ = predict_ovr(ens, matrix[mask])
        confusion = np.zeros((len(classes), len(classes)))
        index = {c: i for i, c in enumerate(classes)}
        for true, pred in zip(labels_arr[mask], predicted):
            confusion[index[true], index[pred]] += 1
        accuracy, precision, recall, flags = metrics(confusion)
        named_flags = []
        for flag in flags:
            kind, idx = flag.split(":")
            named_flags.append(f"{kind}:{classes[int(idx)]}")
        return {
            "repeat": repeat,
            "fold": fold_no,
            "accuracy": accuracy,
            "precision": {c: precision[i] for i, c in enumerate(classes)},
            "recall": {c: recall[i] for i, c in enumerate(classes)},
            "zero_division": sorted(named_flags),
            "confusion": confusion.astype(int).tolist(),
        }

    cells = parallel_map(evaluate, jobs)

    aggregates = {"accuracy": _aggregate([c["accuracy"] for c in cells])}
    aggregates["precision"] = {
        cls: _aggregate([c["precision"][cls] for c in cells]) for cls in classes
    }
    aggregates["recall"] = {
        cls: _aggregate([c["recall"][cls] for c in cells]) for cls in classes
    }

    return CvReport(
        feature_set=feature_set,
        repeats=repeats,
        k=k,
        seed=seed,
        classes=classes,
        feature_names=names,
        dropped_rows=dropped,
        train_config=asdict(config),
        cells=cells,
        aggregates=aggregates,
    )


def format_report_table(report: CvReport) -> str:
    """Readable one-method summary table of the aggregate metrics."""
    lines = []
    header = ["method", "accuracy"]
    for cls in report.classes:
        header.append(f"precision[{cls}]")
    for cls in report.classes:
        header.append(f"recall[{cls}]")
    row = [report.feature_set, report.aggregates["accuracy"]["display"]]
    for cls in report.classes:
        row.append(report.aggregates["precision"][cls]["display"])
    for cls in report.classes:
        row.append(report.aggregates["recall"][cls]["display"])
    widths = [max(len(h), len(v)) for h, v in zip(header, row)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    if report.dropped_rows:
        lines.append(f"(dropped {report.dropped_rows} rows with failed physics fits)")
    return "\n".join(lines)


def write_report(report: CvReport, path: str | Path) -> None:
    Path(path).write_text(report.to_json())


def train_final(
    rows: list[FeatureRow],
    feature_set: str = "GF+EGF",
    config: TrainConfig = TrainConfig(),
) -> tuple[OvrEnsemble, int]:
    """Train one ensemble on every usable row; returns it plus the count
    of rows dropped for failed physics fits."""
    matrix, names, labels, dropped = build_matrix(rows, feature_set)
    ens = train_ovr(matrix, labels, config, names)
    return ens, dropped
