"""Reference helpers that only the tests use.

Most check the library by independent or naive routes; ``cell_scorer``
scores a search cell by the library's own expression, so that the
reference scans break noise-level ties as the search does, and
``boost_terms_reference`` is the boosting loop as it was before it
worked in place, which the library must match bit for bit.  They are
kept out of the package's public API.
"""

from __future__ import annotations

import functools
import math
from dataclasses import fields

import numpy as np

from gaborboost.dataio import FeatureRow, GrayImage
from gaborboost.ebm import Term, TrainConfig
from gaborboost.features import GridResult, ParamGrid
from gaborboost.gabor import GaborParams, convolve, make_kernel


def value_at(kernel: np.ndarray, dx: int, dy: int) -> complex:
    """Kernel sample at integer offset (dx right, dy down) from the center."""
    return complex(kernel[dy + kernel.shape[0] // 2, dx + kernel.shape[1] // 2])


def convolve_direct(img: GrayImage, kernel: np.ndarray) -> np.ndarray:
    """Same-size convolution by plain shift-and-accumulate over reflect
    padding: the naive reference for ``gabor.convolve``."""
    kh, kw = kernel.shape
    padded = np.pad(img.data, ((kh // 2,) * 2, (kw // 2,) * 2), mode="symmetric")
    out_h, out_w = img.data.shape
    out = np.zeros((out_h, out_w), dtype=np.complex128)
    for r in range(kh):
        for c in range(kw):
            w = kernel[r, c]
            if w == 0:
                continue
            out += w * padded[kh - 1 - r : kh - 1 - r + out_h, kw - 1 - c : kw - 1 - c + out_w]
    return out


def response_norm(img: GrayImage, p: GaborParams, dc_correct: bool = True) -> float:
    """l2 norm of the complex response magnitude over the whole field."""
    kernel = make_kernel(p, dc_correct=dc_correct)
    return float(np.linalg.norm(convolve(img, kernel)))


def cell_scorer(img: GrayImage):
    """The search's score of a cell (sigma_x, sigma_y, lam) of ``img``: the
    norm of its ``convolve`` field, by the library's expression, times
    (sigma_x * sigma_y)**0.25.  Each cell is convolved once, however many
    scans ask for it."""

    @functools.cache
    def score(sx: float, sy: float, lam: float) -> float:
        field = convolve(img, make_kernel(GaborParams(sx, sy, lam=lam), dc_correct=True))
        return math.sqrt(float((field.real**2 + field.imag**2).sum())) * (sx * sy) ** 0.25

    return score


def scan_float64(
    score,
    sigma_xs: tuple[float, ...],
    sigma_ys: tuple[float, ...],
    lams: tuple[float, ...],
) -> GridResult:
    """First cell of highest ``score`` over the product of three axes, every
    cell scored: the reference for ``features._scan``, which screens every
    cell first."""
    cells = [(sx, sy, lam) for sx in sigma_xs for sy in sigma_ys for lam in lams]
    best, best_score = cells[0], -math.inf
    for cell in cells:
        if (value := score(*cell)) > best_score:
            best, best_score = cell, value
    return GridResult(*best, evaluations=len(cells))


def two_step_float64(score, grid: ParamGrid) -> GridResult:
    """The reference for ``features.two_step_optimize``: ``scan_float64`` over
    (sigma_y, lam) at the widest sigma_x, then over sigma_x."""
    first = scan_float64(score, grid.sigma_x[-1:], grid.sigma_y, grid.lam)
    second = scan_float64(score, grid.sigma_x, (first.sigma_y,), (first.lam,))
    return GridResult(second.sigma_x, second.sigma_y, second.lam,
                      evaluations=first.evaluations + second.evaluations)


def rows_close(a: FeatureRow, b: FeatureRow, tol: float = 1e-12) -> bool:
    """Field-wise comparison treating NaN as equal to NaN."""
    for f in fields(FeatureRow):
        if f.name == "roi_clamped":
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, str) or va is None or vb is None:
            if va != vb:
                return False
            continue
        if math.isnan(va) and math.isnan(vb):
            continue
        if abs(va - vb) > tol * max(1.0, abs(va), abs(vb)):
            return False
    return True


def sigmoid_reference(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; both branches are the textbook stable forms.
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def log_loss_reference(y: np.ndarray, logit: np.ndarray, w: np.ndarray) -> float:
    # log(1 + exp(-s)) written stably for either sign of s.
    s = np.where(y > 0.5, logit, -logit)
    loss = np.logaddexp(0.0, -s)
    return float((w * loss).sum() / w.sum())


def boost_terms_reference(
    terms: list[Term],
    table: np.ndarray,
    logit: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    n_train: int,
    cfg: TrainConfig,
) -> np.ndarray:
    """Cyclic boosting of ``terms`` on top of ``logit`` with early stopping,
    one fresh array per step: the reference for ``ebm._boost_terms``.

    Rows ``[:n_train]`` train and the rest validate; with no validation
    rows the loss is read on the training rows.  ``logit`` is updated in
    place, each term's scores are replaced by their best-validation-loss
    snapshot, and the matching logit vector is returned.
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
    loss_rows = slice(n_train if n_train < len(y) else 0, None)
    y_loss, w_loss, logit_loss = y[loss_rows], w[loss_rows], logit[loss_rows]

    scores = [term.scores.ravel().copy() for term in terms]
    best_loss = log_loss_reference(y_loss, logit_loss, w_loss)
    best_scores = [s.copy() for s in scores]
    best_logit = logit.copy()
    best_round = 0

    for round_no in range(1, cfg.max_rounds + 1):
        for (bins, bins_train, n_bins, bin_w), score in zip(prepared, scores):
            residual = y_train - sigmoid_reference(logit_train)
            bin_wr = np.bincount(bins_train, weights=w_train * residual, minlength=n_bins)
            update = cfg.learning_rate * bin_wr / bin_w
            score += update
            logit += update[bins]
        loss = log_loss_reference(y_loss, logit_loss, w_loss)
        if loss < best_loss:
            best_loss = loss
            best_scores = [s.copy() for s in scores]
            best_logit = logit.copy()
            best_round = round_no
        elif round_no - best_round >= cfg.patience:
            break
    for term, best in zip(terms, best_scores):
        term.scores = best.reshape(term.scores.shape)
    return best_logit
