"""Physics-motivated profile fitting.

A longitudinal excitation shows up in the column-mean profile of an
image as a localized dip with bright shoulders. That shape is modelled
here as an inverted Ricker wavelet with a linear skew term:

    m(x) = offset - amp * (1 - xi^2) * exp(-xi^2 / 2) * (1 + skew * xi)

with xi = (x - center) / width. The five parameters are recovered with
a damped Gauss-Newton iteration using the analytic Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataio import PF_COLUMNS, FeatureRow, GrayImage
from .errors import FitError
from .util import running_median

MAX_ITERATIONS = 200
REL_COST_TOL = 1e-10
MIN_WIDTH = 0.5
# The dip must rise above the noise floor by this factor to count as real.
MIN_CONTRAST_SIGMAS = 3.0

_SHOULDER_XI = np.sqrt(3.0)  # model shoulders sit at xi = +/- sqrt(3)


@dataclass(frozen=True)
class FitResult:
    """Converged dip-model parameters for one profile."""

    amp: float
    center: float
    width: float
    skew: float
    offset: float
    residual_std: float
    iterations: int

    @property
    def params(self) -> tuple[float, float, float, float, float]:
        return (self.amp, self.center, self.width, self.skew, self.offset)


def dip_model(x: np.ndarray, amp: float, center: float, width: float,
              skew: float, offset: float) -> np.ndarray:
    """Evaluate the skewed-Ricker dip model on the given sample points."""
    xi = (np.asarray(x, dtype=np.float64) - center) / width
    ricker = (1.0 - xi**2) * np.exp(-0.5 * xi**2)
    return offset - amp * ricker * (1.0 + skew * xi)


def _jacobian(x: np.ndarray, amp: float, center: float, width: float,
              skew: float) -> np.ndarray:
    """Partial derivatives of the model w.r.t. (amp, center, width, skew, offset)."""
    xi = (x - center) / width
    gauss = np.exp(-0.5 * xi**2)
    ricker = (1.0 - xi**2) * gauss
    dricker = -xi * (3.0 - xi**2) * gauss
    shape = 1.0 + skew * xi
    core = dricker * shape + ricker * skew

    cols = np.empty((x.size, 5), dtype=np.float64)
    cols[:, 0] = -ricker * shape                  # d/d amp
    cols[:, 1] = amp * core / width               # d/d center
    cols[:, 2] = amp * core * xi / width          # d/d width
    cols[:, 3] = -amp * ricker * xi               # d/d skew
    cols[:, 4] = 1.0                              # d/d offset
    return cols


def project(img: GrayImage) -> np.ndarray:
    """Collapse an image to its column means (one value per pixel column)."""
    return img.data.mean(axis=0)


def median_level(profile: np.ndarray) -> np.ndarray:
    """Slowly varying level of a profile via a wide running median.

    The window is a quarter of the profile length (rounded up to odd) so
    dips a few pixels across leave the level essentially untouched.
    """
    y = np.asarray(profile, dtype=np.float64)
    return running_median(y, max(len(y) // 4, 3))


def initial_guess(profile: np.ndarray) -> tuple[float, float, float, float, float]:
    """Heuristic starting point: dip at the minimum, width from the shoulders."""
    y = np.asarray(profile, dtype=np.float64)
    n = len(y)
    center = float(np.argmin(y))
    offset = float(np.median(y))
    amp = max(offset - float(y.min()), 1e-6)

    idx = int(center)
    left = y[:idx]
    right = y[idx + 1:]
    width = n / 8.0
    if left.size and right.size:
        xl = int(np.argmax(left))
        xr = idx + 1 + int(np.argmax(right))
        half_span = (xr - xl) / 2.0
        if half_span >= 1.0:
            width = half_span / _SHOULDER_XI
    return amp, center, width, 0.0, offset


def fit_profile(profile: np.ndarray) -> FitResult:
    """Fit the dip model to a 1-D profile.

    Raises FitError for a flat profile, or when the iteration lands on
    an unusable optimum: sub-pixel width, negative amplitude, non-finite
    values, or a dip depth indistinguishable from the residual noise.
    """
    y = np.asarray(profile, dtype=np.float64)
    if y.ndim != 1 or y.size < 8:
        raise FitError(f"profile must be 1-D with at least 8 samples, got shape {y.shape}")
    if np.ptp(y) == 0:
        raise FitError("flat profile has no dip to fit")
    x = np.arange(y.size, dtype=np.float64)

    params = np.asarray(initial_guess(y), dtype=np.float64)
    residual = dip_model(x, *params) - y
    cost = 0.5 * float(residual @ residual)

    damping = 1e-3
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        jac = _jacobian(x, params[0], params[1], params[2], params[3])
        grad = jac.T @ residual
        hess = jac.T @ jac

        while damping < 1e12:
            try:
                step = np.linalg.solve(hess + damping * np.eye(5), -grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = params + step
            trial_residual = dip_model(x, *trial) - y
            trial_cost = 0.5 * float(trial_residual @ trial_residual)
            if np.isfinite(trial_cost) and trial_cost < cost:
                damping = max(damping / 3.0, 1e-12)
                break
            damping *= 10.0
        else:  # no damping lowers the cost
            break
        improvement = cost - trial_cost
        params, cost, residual = trial, trial_cost, trial_residual
        if improvement < REL_COST_TOL * max(cost, 1e-30):
            break

    amp, center, width, skew, offset = (float(v) for v in params)
    # (width, skew) -> (-width, -skew) leaves the model unchanged, so
    # canonicalize to a positive width before validating.
    if width < 0:
        width = -width
        skew = -skew

    if not all(np.isfinite(v) for v in (amp, center, width, skew, offset)):
        raise FitError("fit diverged to non-finite parameters")
    if width < MIN_WIDTH:
        raise FitError(f"fitted width {width:.3g} below {MIN_WIDTH} pixels")
    if amp < 0:
        raise FitError(f"fitted amplitude {amp:.3g} is negative")
    residual_std = float(np.std(dip_model(x, amp, center, width, skew, offset) - y))
    if amp < MIN_CONTRAST_SIGMAS * residual_std:
        raise FitError(
            f"dip amplitude {amp:.3g} below {MIN_CONTRAST_SIGMAS} x residual noise {residual_std:.3g}"
        )
    return FitResult(amp, center, width, skew, offset, residual_std, iterations)


def fit_image(img: GrayImage) -> FitResult:
    """Project an image to its column means, remove the slow background
    level, and fit the dip model to what remains."""
    profile = project(img)
    return fit_profile(profile - median_level(profile))


def fit_rows(
    rows: Sequence[FeatureRow], images: Sequence[GrayImage]
) -> tuple[list[FeatureRow], int]:
    """Fill the five profile-fit columns of each row from its image.

    A FitError leaves NaN columns and counts as a failed fit; any other
    exception propagates. Returns the new rows and the failed count.
    """
    out, failed = [], 0
    for row, img in zip(rows, images, strict=True):
        try:
            params = fit_image(img).params
        except FitError:
            params = (math.nan,) * len(PF_COLUMNS)
            failed += 1
        out.append(replace(row, **dict(zip(PF_COLUMNS, params))))
    return out, failed
