"""Reference helpers that only the tests use.

They check the library by independent or naive routes, so they are kept
out of the package's public API.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from gaborboost.dataio import FeatureRow, GrayImage
from gaborboost.gabor import ComplexKernel, GaborParams, convolve, make_kernel


def value_at(kernel: ComplexKernel, dx: int, dy: int) -> complex:
    """Kernel sample at integer offset (dx right, dy down) from the center."""
    return complex(kernel.values[dy + kernel.half_height, dx + kernel.half_width])


def response_norm(
    img: GrayImage,
    p: GaborParams,
    dc_correct: bool = True,
    backend: str = "fft",
) -> float:
    """l2 norm of the complex response magnitude over the whole field."""
    kernel = make_kernel(p, dc_correct=dc_correct)
    resp = convolve(img, kernel, backend=backend)
    return float(np.linalg.norm(resp))


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
