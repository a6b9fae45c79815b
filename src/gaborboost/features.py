"""Grid-search Gabor analysis and the tabular features built on top of it.

The pipeline per image is: flatten the smooth background, pick the best
kernel parameters from a fixed grid, locate the strongest response, and
summarise the response energy around that point as four quadrant sums
plus their pairwise ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataio import FeatureRow, GrayImage, LabeledDataset
from .errors import ConfigError, SizeError
from .gabor import GaborParams, ScoreBlock, convolve, make_kernel
from .util import parallel_map, running_median

# Quadrant ratios are guarded against empty quadrants by this epsilon.
RATIO_EPS = 1e-9

# Candidate envelope widths in pixels.  Entries wider than a quarter of
# the image width (a third of the height for the vertical axis) are
# dropped because their support would no longer fit the frame.
SIGMA_X_CANDIDATES = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)
SIGMA_Y_CANDIDATES = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)
WAVELENGTH_CANDIDATES = (4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)


@dataclass(frozen=True)
class ParamGrid:
    """Search grid for the kernel parameters, each axis sorted ascending."""

    sigma_x: tuple[float, ...]
    sigma_y: tuple[float, ...]
    lam: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("sigma_x", "sigma_y", "lam"):
            axis = getattr(self, name)
            if not axis:
                raise ConfigError(f"empty {name} axis")
            if list(axis) != sorted(axis):
                raise ConfigError(f"{name} axis must be ascending")

    @property
    def size(self) -> int:
        return len(self.sigma_x) * len(self.sigma_y) * len(self.lam)


def default_grid(width: int, height: int) -> ParamGrid:
    """Build the standard grid for an image of the given size."""
    sx = tuple(s for s in SIGMA_X_CANDIDATES if s <= width / 4)
    sy = tuple(s for s in SIGMA_Y_CANDIDATES if s <= height / 3)
    if not sx or not sy:
        raise SizeError(f"image {width}x{height} too small for any grid cell")
    lam = tuple(2.0 * math.pi / period for period in sorted(WAVELENGTH_CANDIDATES, reverse=True))
    return ParamGrid(sigma_x=sx, sigma_y=sy, lam=lam)


def flatten_background(img: GrayImage) -> GrayImage:
    """Remove the smooth per-row brightness level from an image.

    Each row is reduced by its running median over a window half the
    image width.  Broad envelopes (condensate profiles, illumination
    gradients) are cancelled almost exactly, while oscillatory structure
    much narrower than the window passes through untouched.  Without
    this step the lowest-frequency grid cells win the search on any
    image with a bright smooth blob in it, regardless of the excitation.
    """
    return GrayImage(img.data - running_median(img.data, img.width // 2))


@dataclass(frozen=True)
class GridResult:
    """Winning cell of a grid search."""

    sigma_x: float
    sigma_y: float
    lam: float
    evaluations: int


def _scan(
    img: GrayImage,
    sigma_xs: tuple[float, ...],
    sigma_ys: tuple[float, ...],
    lams: tuple[float, ...],
) -> GridResult:
    """Best cell of the product of three axes, screened in one ``ScoreBlock``
    per sigma of the axis with fewer sigmas, x on a tie.

    A cell scores the norm of its ``convolve`` field times
    (sigma_x * sigma_y)**0.25.  The raw norm grows monotonically as either
    sigma shrinks (a narrower envelope has a wider passband and collects
    more of the spectrum), so comparing it across cells always favours the
    smallest envelope on the grid; the factor removes that bias for a
    Gaussian packet, so the per-axis score peaks where the kernel sigma
    matches the packet sigma.  The search returns the first cell of
    highest score in (sigma_x, sigma_y, lam) order, every axis ascending.

    Every cell is first scored in single precision, with a margin its error
    cannot exceed (``ScoreBlock.single_norms``).  Only a cell whose score
    plus margin reaches the best score minus margin can be the best.  A
    lone such candidate wins outright; several are rescored with
    ``convolve`` and the first maximum wins.  If a single-precision score
    is not finite, every cell is rescored.  An all-zero image has an
    all-zero field in every cell, so its first cell wins unscored.
    """
    # A block filters along its one sigma's axis once for all its cells, so
    # splitting along the axis with fewer sigmas makes the fewest blocks.
    if len(sigma_xs) <= len(sigma_ys):
        axis, blocks = 0, [ScoreBlock(img, (sx,), sigma_ys, lams) for sx in sigma_xs]
    else:
        axis, blocks = 1, [ScoreBlock(img, sigma_xs, (sy,), lams) for sy in sigma_ys]
    cells = [(sx, sy, lam) for sx in sigma_xs for sy in sigma_ys for lam in lams]
    if not img.data.any():
        return GridResult(*cells[0], evaluations=len(cells))
    norms, margins = (np.concatenate(parts, axis) for parts in zip(*(b.single_norms() for b in blocks)))
    factor = np.array([[(sx * sy) ** 0.25 for sy in sigma_ys] for sx in sigma_xs])[:, :, None]
    scores, margins = (norms * factor).ravel(), (margins * factor).ravel()
    floor = float((scores - margins).max()) if np.isfinite(scores).all() else -math.inf
    candidates = np.flatnonzero(~(scores + margins < floor))  # NaN scores stay candidates
    if candidates.size == 1:
        return GridResult(*cells[candidates[0]], evaluations=len(cells))

    best, best_score = candidates[0], -math.inf
    for k in candidates:
        sx, sy, lam = cells[k]
        field = convolve(img, make_kernel(GaborParams(sx, sy, lam=lam), dc_correct=True))
        score = math.sqrt(float((field.real**2 + field.imag**2).sum())) * (sx * sy) ** 0.25
        if score > best_score:
            best, best_score = k, score
    return GridResult(*cells[best], evaluations=len(cells))


def grid_optimize(img: GrayImage, grid: ParamGrid) -> GridResult:
    """Exhaustive search over the full grid."""
    return _scan(img, grid.sigma_x, grid.sigma_y, grid.lam)


def two_step_optimize(img: GrayImage, grid: ParamGrid) -> GridResult:
    """Two-pass search: (sigma_y, lam) at the widest sigma_x, then sigma_x.

    The first pass holds sigma_x at the top of the grid, where the
    kernel is nearly frequency-pure along x, so the vertical envelope
    and the wavelength can be read off independently of the final
    horizontal width.  The second pass sweeps sigma_x alone.  Total cost
    is len(sigma_y) * len(lam) + len(sigma_x) evaluations instead of the
    full product.
    """
    first = _scan(img, grid.sigma_x[-1:], grid.sigma_y, grid.lam)
    second = _scan(img, grid.sigma_x, (first.sigma_y,), (first.lam,))
    return replace(second, evaluations=first.evaluations + second.evaluations)


def integral_image(field: np.ndarray) -> np.ndarray:
    """Cumulative 2-D sum of squared magnitude.

    Entry [i, j] holds sum(|field[:i+1, :j+1]|**2), so any rectangle's
    power is four lookups away.
    """
    arr = np.asarray(field)
    if arr.ndim != 2:
        raise SizeError("integral_image expects a 2-D array")
    power = np.abs(arr).astype(np.float64) ** 2
    return power.cumsum(axis=0).cumsum(axis=1)


def box_sum(ii: np.ndarray, row0: int, row1: int, col0: int, col1: int) -> float:
    """Sum of the source array over the inclusive box [row0..row1] x [col0..col1].

    Bounds are clamped to the array; an empty box sums to zero.
    """
    rows, cols = ii.shape
    row0 = max(row0, 0)
    col0 = max(col0, 0)
    row1 = min(row1, rows - 1)
    col1 = min(col1, cols - 1)
    if row0 > row1 or col0 > col1:
        return 0.0
    total = ii[row1, col1]
    if row0 > 0:
        total = total - ii[row0 - 1, col1]
    if col0 > 0:
        total = total - ii[row1, col0 - 1]
    if row0 > 0 and col0 > 0:
        total = total + ii[row0 - 1, col0 - 1]
    return float(total)


def locate_center(field: np.ndarray) -> tuple[int, int]:
    """Pixel (x, y) of the largest response magnitude.

    Ties resolve to the first occurrence in row-major order, i.e. the
    topmost row and then the leftmost column.
    """
    mag = np.abs(field)
    flat = int(np.argmax(mag))
    y, x = np.unravel_index(flat, mag.shape)
    return int(x), int(y)


def quad_responses(
    iu: np.ndarray,
    center: tuple[int, int],
    sigma: tuple[float, float],
) -> tuple[float, float, float, float, bool]:
    """Response norms in the four quadrants around a centre pixel.

    ``iu`` is the squared-magnitude integral image, ``center`` is (x, y)
    and ``sigma`` is (sigma_x, sigma_y).  Each quadrant is a
    sigma_x-by-sigma_y pixel box adjacent to the centre; the centre row
    and column themselves belong to no quadrant, so a reflection of the
    field maps top-left onto top-right exactly, and the root-sum-square
    of the four values equals the response norm over the union of the
    boxes.  Returns (q_tl, q_tr, q_bl, q_br, clamped) where clamped
    reports whether any box was cut off by the image border.
    """
    x, y = center
    half_w = max(int(round(sigma[0])), 1)
    half_h = max(int(round(sigma[1])), 1)
    rows, cols = iu.shape

    boxes = {
        "tl": (y - half_h, y - 1, x - half_w, x - 1),
        "tr": (y - half_h, y - 1, x + 1, x + half_w),
        "bl": (y + 1, y + half_h, x - half_w, x - 1),
        "br": (y + 1, y + half_h, x + 1, x + half_w),
    }
    clamped = False
    norms = {}
    for name, (r0, r1, c0, c1) in boxes.items():
        if r0 < 0 or c0 < 0 or r1 > rows - 1 or c1 > cols - 1:
            clamped = True
        norms[name] = math.sqrt(max(box_sum(iu, r0, r1, c0, c1), 0.0))
    return norms["tl"], norms["tr"], norms["bl"], norms["br"], clamped


def engineered_features(
    q_tl: float, q_tr: float, q_bl: float, q_br: float
) -> tuple[float, float, float, float]:
    """Vertical, diagonal and horizontal contrast ratios of the quadrant powers."""
    return (
        q_tl / (q_bl + RATIO_EPS),
        q_tr / (q_br + RATIO_EPS),
        q_tl / (q_tr + RATIO_EPS),
        q_bl / (q_br + RATIO_EPS),
    )


def extract_features(img: GrayImage, name: str, label: str) -> FeatureRow:
    """Run the full per-image analysis and package the result as a table row.

    The parameter search is ``two_step_optimize`` over ``default_grid``
    for the image's size.  The row carries no profile-fit columns; add
    them with ``physfit.fit_rows`` on the same image.
    """
    grid = default_grid(img.width, img.height)
    flat = flatten_background(img)
    cell = two_step_optimize(flat, grid)
    kernel = make_kernel(GaborParams(cell.sigma_x, cell.sigma_y, lam=cell.lam), dc_correct=True)
    field = convolve(flat, kernel)
    x_pix, y_pix = locate_center(field)
    iu = integral_image(field)
    q_tl, q_tr, q_bl, q_br, clamped = quad_responses(
        iu, (x_pix, y_pix), (cell.sigma_x, cell.sigma_y)
    )
    egf_tl_bl, egf_tr_br, egf_tl_tr, egf_bl_br = engineered_features(q_tl, q_tr, q_bl, q_br)

    return FeatureRow(
        id=name,
        sigma_x=cell.sigma_x,
        sigma_y=cell.sigma_y,
        lam=cell.lam,
        x_star=x_pix / img.width,
        y_star=y_pix / img.height,
        q_tl=q_tl,
        q_tr=q_tr,
        q_bl=q_bl,
        q_br=q_br,
        egf_tl_bl=egf_tl_bl,
        egf_tr_br=egf_tr_br,
        egf_tl_tr=egf_tl_tr,
        egf_bl_br=egf_bl_br,
        label=label,
        roi_clamped=clamped,
    )


def tabularize(dataset: LabeledDataset) -> list[FeatureRow]:
    """Extract one feature row per dataset image, in dataset order."""

    def job(index: int) -> FeatureRow:
        return extract_features(
            dataset.images[index], name=dataset.names[index], label=dataset.labels[index]
        )

    return parallel_map(job, range(len(dataset.images)))
