"""Reference helpers that only the tests use.

Most check the library by independent or naive routes; ``block_scores``
is a shorthand for a library call that only tests make.  They are kept
out of the package's public API.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from gaborboost.dataio import FeatureRow, GrayImage
from gaborboost.features import GridResult
from gaborboost.gabor import GaborParams, ScoreBlock, convolve, make_kernel


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


def block_scores(
    img: GrayImage,
    sigma_x: float,
    sigma_ys: tuple[float, ...],
    lams: tuple[float, ...],
) -> np.ndarray:
    """Every cell of one ``ScoreBlock`` scored in float64: the library's
    search scores, not an independent route.  Entry [i, j] equals
    ``response_norm(img, GaborParams(sigma_x, sigma_ys[i], lam=lams[j]))``
    up to rounding."""
    return ScoreBlock(img, sigma_x, sigma_ys, lams).norms(range(len(sigma_ys)), range(len(lams)))


def scan_float64(
    img: GrayImage,
    sigma_xs: tuple[float, ...],
    sigma_ys: tuple[float, ...],
    lams: tuple[float, ...],
) -> GridResult:
    """Best cell of the product of three axes, every cell scored in float64:
    the reference for ``features._scan``, which scores in single precision
    first.  Scores and ties are as ``_scan`` documents them."""
    best_score = -math.inf
    best = (sigma_xs[0], sigma_ys[0], lams[0])
    for sx in sigma_xs:
        norms = block_scores(img, sx, sigma_ys, lams)
        for i, sy in enumerate(sigma_ys):
            for j, lam in enumerate(lams):
                score = float(norms[i, j]) * (sx * sy) ** 0.25
                if score > best_score:
                    best_score = score
                    best = (sx, sy, lam)
    evals = len(sigma_xs) * len(sigma_ys) * len(lams)
    return GridResult(*best, score=best_score, evaluations=evals)


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
