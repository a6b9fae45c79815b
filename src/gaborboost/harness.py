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
from typing import Sequence

import numpy as np

from .dataio import PF_COLUMNS, FeatureRow
from .ebm import OvrEnsemble, TrainConfig, predict_ovr, train_ovr
from .errors import ConfigError
# Serial: boosting holds the GIL and loses in threads; perfbench wraps this name per CV cell.
from .util import serial_map as parallel_map

# Per-row model inputs by feature-set name.  The grid-search scale
# parameters stay in the table for inspection but are not model inputs;
# positions enter in normalized form.
GF_FEATURES = ("x_star_norm", "y_star_norm", "q_tl", "q_tr", "q_bl", "q_br")
EGF_FEATURES = ("egf_tl_bl", "egf_tr_br", "egf_tl_tr", "egf_bl_br")

FEATURE_SETS = {
    "GF": GF_FEATURES,
    "GF+EGF": GF_FEATURES + EGF_FEATURES,
    "GF+PF": GF_FEATURES + PF_COLUMNS,
    "GF+EGF+PF": GF_FEATURES + EGF_FEATURES + PF_COLUMNS,
    "PF": PF_COLUMNS,
}


def stratified_kfold(labels: list[str], k: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Assign indices to k folds, round-robin within each shuffled class;
    returns the folds, each as ascending indices."""
    if k < 2:
        raise ConfigError(f"k must be at least 2, got {k}")
    if seed < 0:
        raise ConfigError(f"seed must be at least 0, got {seed}")
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
    return tuple(tuple(sorted(f)) for f in folds)


def score(classes: Sequence[str], true: Sequence[str], predicted: Sequence[str]) -> dict:
    """Percent accuracy, per-class precision and recall (0/0 counts as 0
    and is flagged by class name), and the integer confusion matrix with
    true classes on rows.  Raises ConfigError for true labels outside
    ``classes`` and for an empty input."""
    pos = {c: i for i, c in enumerate(classes)}
    unknown = sorted({str(t) for t in true} - set(pos))
    if unknown:
        raise ConfigError(f"labels {unknown} not covered by the model classes {list(classes)}")
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(true, predicted):
        confusion[pos[t], pos[p]] += 1
    m = confusion.astype(np.float64)
    total = m.sum()
    if total == 0:
        raise ConfigError("no rows to score")
    precision, recall, flags = {}, {}, []
    for i, c in enumerate(classes):
        col = m[:, i].sum()
        row = m[i, :].sum()
        precision[c] = 100.0 * m[i, i] / col if col else 0.0
        recall[c] = 100.0 * m[i, i] / row if row else 0.0
        if col == 0:
            flags.append(f"precision:{c}")
        if row == 0:
            flags.append(f"recall:{c}")
    return {
        "accuracy": float(100.0 * np.trace(m) / total),
        "precision": precision,
        "recall": recall,
        "confusion": confusion.tolist(),
        "zero_division": sorted(flags),
    }


def matrix_from_names(
    rows: list[FeatureRow], names: tuple[str, ...]
) -> tuple[np.ndarray, list[str], int]:
    """Feature matrix and labels for the given model-input names.

    Rows whose physics fit failed (NaN PF columns) are dropped when any
    PF column is requested; the count of dropped rows is returned.  Any
    other NaN or infinite value is a ConfigError naming its row and column.
    """
    uses_pf = any(n in PF_COLUMNS for n in names)
    if uses_pf and rows and not rows[0].has_pf:
        raise ConfigError(
            f"columns {sorted(set(names) & set(PF_COLUMNS))} need PF data; "
            "run tabularize --with-physics"
        )
    kept = [r for r in rows if not (uses_pf and r.pf_failed)] if uses_pf else list(rows)
    dropped = len(rows) - len(kept)
    matrix = np.array(
        [[float(r.value(n)) for n in names] for r in kept],
        dtype=np.float64,
    ).reshape(len(kept), len(names))
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        r, c = bad[0]
        raise ConfigError(f"row {kept[r].id!r}: non-finite value {matrix[r, c]} "
                          f"in column {names[c]!r}")
    return matrix, [r.label for r in kept], dropped


def build_matrix(
    rows: list[FeatureRow], feature_set: str
) -> tuple[np.ndarray, tuple[str, ...], list[str], int]:
    """Feature matrix, feature names, labels, and dropped-row count for a
    named feature set; raises ConfigError when no row is left."""
    if feature_set not in FEATURE_SETS:
        raise ConfigError(
            f"unknown feature set {feature_set!r}; choose from {sorted(FEATURE_SETS)}"
        )
    if not rows:
        raise ConfigError("the feature table has no rows")
    names = FEATURE_SETS[feature_set]
    matrix, labels, dropped = matrix_from_names(rows, names)
    if not labels:
        raise ConfigError(f"no rows left for feature set {feature_set!r}: {dropped} of "
                          f"{len(rows)} dropped for failed physics fits")
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
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


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
    classes = tuple(sorted(set(labels)))
    labels_arr = np.asarray(labels)

    jobs = []
    for repeat in range(repeats):
        for fold_no, fold in enumerate(stratified_kfold(labels, k, seed + repeat)):
            jobs.append((repeat, fold_no, np.asarray(fold, dtype=np.int64)))

    def evaluate(job: tuple[int, int, np.ndarray]) -> dict:
        repeat, fold_no, test_idx = job
        mask = np.zeros(len(labels), dtype=bool)
        mask[test_idx] = True
        ens = train_ovr(matrix[~mask], list(labels_arr[~mask]), config, names)
        predicted, _ = predict_ovr(ens, matrix[mask])
        return {"repeat": repeat, "fold": fold_no,
                **score(classes, labels_arr[mask], predicted)}

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
