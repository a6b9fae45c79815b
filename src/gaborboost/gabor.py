"""Complex Gabor kernels and same-size image convolution.

Kernels are sampled on an integer offset lattice. ``sigma_x`` scales the
horizontal envelope and ``sigma_y`` the vertical one; at ``theta = 0`` the
carrier oscillates along the horizontal axis, so the filter responds to
vertical stripe structure. ``lam`` is an angular spatial frequency in
radians per pixel (a pattern of period L pixels has lam = 2*pi/L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn, fft, fftn, ifftn, next_fast_len

from .dataio import GrayImage
from .errors import ConfigError, SizeError

SUPPORT_SIGMAS = 3.0


@dataclass(frozen=True)
class GaborParams:
    sigma_x: float
    sigma_y: float
    theta: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        for name in ("sigma_x", "sigma_y", "theta", "lam"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"non-finite parameter {name}={v}")
        if self.sigma_x <= 0 or self.sigma_y <= 0:
            raise ConfigError("sigma_x and sigma_y must be positive")
        if self.lam < 0:
            raise ConfigError("lam must be nonnegative")


def make_kernel(p: GaborParams, dc_correct: bool = False) -> np.ndarray:
    """The truncated kernel for ``p``: complex128 samples at offsets
    [-hh..hh] x [-hw..hw], shape (2*hh+1, 2*hw+1), centre at [hh, hw].

    The support is cut at ceil(3 sigma) per axis. With ``dc_correct`` the
    mean of the real part over the support is subtracted, which removes the
    kernel's response to constant intensity.
    """
    hw = math.ceil(SUPPORT_SIGMAS * p.sigma_x)
    hh = math.ceil(SUPPORT_SIGMAS * p.sigma_y)
    dx = np.arange(-hw, hw + 1, dtype=np.float64)[None, :]
    dy = np.arange(-hh, hh + 1, dtype=np.float64)[:, None]
    envelope = np.exp(-(dx**2 / (2.0 * p.sigma_x**2) + dy**2 / (2.0 * p.sigma_y**2)))
    phase = p.lam * (dy * math.sin(p.theta) + dx * math.cos(p.theta))
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * p.sigma_x * p.sigma_y)
    values = norm * envelope * np.exp(1j * phase)
    if dc_correct:
        values = values - values.real.mean()
    return values


def _symmetric_map(n: int, pad: int) -> np.ndarray:
    """Source index of each position of ``np.pad(np.arange(n), pad, mode="symmetric")``;
    a pad wider than ``n`` keeps reflecting, as np.pad does."""
    pos = np.arange(-pad, n + pad) % (2 * n)
    return np.where(pos < n, pos, 2 * n - 1 - pos)


def _check_extent(kh: int, kw: int, img: GrayImage) -> None:
    if kh > 3 * img.height or kw > 3 * img.width:
        raise SizeError(
            f"kernel {kw}x{kh} exceeds 3x image extent {img.width}x{img.height}"
        )


def convolve(img: GrayImage, kernel: np.ndarray) -> np.ndarray:
    """Same-size FFT convolution of ``img`` with the odd-sized ``kernel``;
    borders use symmetric padding, which ``cell_norms`` relies on.

    The steps and transform sizes are those of
    ``scipy.signal.fftconvolve(padded, kernel, mode="valid")`` for complex
    inputs, so the output is bitwise identical to it; importing
    ``scipy.signal`` would cost about a second of start-up.
    """
    kh, kw = kernel.shape
    _check_extent(kh, kw, img)
    rows = _symmetric_map(img.height, kh // 2)
    padded = img.data[rows][:, _symmetric_map(img.width, kw // 2)].astype(np.complex128)
    fshape = [next_fast_len(n + k - 1) for n, k in zip(padded.shape, kernel.shape)]
    out = ifftn(fftn(padded, fshape) * fftn(kernel, fshape), fshape)
    return out[kh - 1 : padded.shape[0], kw - 1 : padded.shape[1]].copy()


# Margins of ``cell_norms``, each an a priori bound on the gap between its
# norm and the ``convolve`` field norm (u = 2**-53 throughout):
# - SCREEN_ERROR_K bounds every error that scales with ||image|| *
#   ||kernel||_1 by K * u * log2(256 * H * W) times that product.  Per
#   transform of length N the error is at most about 6.7 u log2 N of its
#   input's 2-norm (Higham, "Accuracy and stability of numerical
#   algorithms", section 24.1), and 256 * H * W exceeds every length used.
#   ``convolve``'s three transforms (about 20) act on the padded image,
#   whose norm is at most 4 ||image|| because no pixel appears more than 4
#   times per axis (80), and its kernel's rounding adds about 20; the
#   screen's DCT and axis spectra add about 14 each, through
#   |kernel spectrum| <= ||kernel||_1 and Parseval.  About 130 in all,
#   doubled.  The worst error seen, on unflattened offset images, was 0.05
#   of the bound with K = 1.
# - SCREEN_REL_MARGIN covers what scales with the norm itself: the
#   square roots, products and constant factors of both sides.  The worst
#   relative gap seen between the screen and ``convolve``, over every cell
#   of the full grid on 60 reference images, was 4.9e-15, so the floor is
#   200 times that.
# - The three-term energy sum is rounded as a sum of H + W products per
#   term: its error is below gamma * sum((|a b| + |c e|)**2 * P), with
#   gamma = 2 (H + W + 16) u, the 16 covering the rounding of its factors
#   and the 2 the 1 / (1 - m u) of the textbook gamma_m.
SCREEN_ERROR_K = 256.0
SCREEN_REL_MARGIN = 1e-12


def _axis_factors(sigmas: tuple[float, ...], lams: tuple[float, ...], n: int):
    """One axis's factors of the theta=0 kernels, as real spectra over the
    axis's period 2n, each divided by sigma: the envelope times each carrier
    ``exp(1j * lam * d)``, and its DC correction, the mean of that row's
    real part times the support's box, both of shape (len(sigmas),
    len(lams), 2n); and each envelope's sum over sigma, of shape
    (len(sigmas),).

    A support wider than the period wraps onto it.  The DFT of the wrapped
    taps at bin k is the DFT of the unwrapped taps over m periods at bin
    m k, so every row is transformed unwrapped, in one call.
    """
    sig = np.asarray(sigmas, dtype=np.float64)[:, None]
    halves = np.array([math.ceil(SUPPORT_SIGMAS * s) for s in sigmas])[:, None]
    d = np.arange(-halves.max(), halves.max() + 1)
    box = np.abs(d) <= halves
    env = np.where(box, np.exp(-(d**2) / (2.0 * sig**2)), 0.0) / sig
    rows = env[:, None] * np.exp(1j * np.multiply.outer(lams, d))
    m = -(-d.size // (2 * n))
    placed = np.zeros((len(sigmas), len(lams) + 1, 2 * n * m), dtype=np.complex128)
    placed[:, :-1, d % (2 * n * m)] = rows
    placed[:, -1, d % (2 * n * m)] = box
    spectra = fft(placed, axis=2)[:, :, ::m].real
    means = rows.real.sum(axis=2, keepdims=True) / (2 * halves[:, :, None] + 1)
    return spectra[:, :-1], means * spectra[:, -1:], env.sum(axis=1)


def cell_norms(
    img: GrayImage,
    sigma_xs: tuple[float, ...],
    sigma_ys: tuple[float, ...],
    lams: tuple[float, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """The ``convolve`` field norm of every theta=0, DC-corrected cell of
    the product grid, and a margin per cell that its gap to that norm cannot
    exceed, both of shape (sigma_x, sigma_y, lam): the parameter search's
    screen.  Cell [i, j, k] is the kernel ``make_kernel(GaborParams(
    sigma_xs[i], sigma_ys[j], lam=lams[k]), dc_correct=True)``.  The grid
    is validated first: a ``ConfigError`` if ``GaborParams`` would reject
    some cell, a ``SizeError`` if ``convolve`` would.

    No field is computed.  The symmetric padding makes the field a window
    of a circular convolution of the image's 2H x 2W even extension with
    the kernel wrapped onto that period, whose squared magnitude is even
    along both axes, so the window holds a quarter of the period's energy.
    By Parseval that is a sum over the extension's spectrum, whose power is
    ``P = dctn(image, type=2)**2`` folded: ky and 2H - ky share a bin, and
    so do kx and 2W - kx, the carrier's two sidebands.  The kernel's
    spectrum is ``a(ky) b(kx) - c(ky) e(kx)``, the envelope times carrier
    less the DC box, all real, so the energy is three bilinear forms
    ``A P B^T`` with A rows per sigma_y and B rows per (sigma_x, lam).  The
    kernel sums to zero, so P[0, 0] contributes nothing and is dropped.

    Both are for the image times ``2**-e``, the power of two that brings
    its largest magnitude into [0.5, 1).  That scaling is exact, so the
    norms' ratios, and the search's decisions, do not depend on the image's
    scale.  The margin is ``SCREEN_REL_MARGIN`` times the norm, plus
    ``SCREEN_ERROR_K * u * log2(256 H W) * ||image|| * ||kernel||_1``, with
    ``||kernel||_1 <= 2 * norm * sum(gy) * sum(env_x)`` because the DC term
    obeys ``|c| * (2*hh+1) * (2*hw+1) <= norm * sum(gy) * sum(env_x)``, plus
    the widening of the square root by the energy sum's rounding bound.
    """
    # A cell is invalid exactly when one of its values is, so each value is
    # checked once, beside valid ones.
    for sx in sigma_xs:
        GaborParams(sigma_x=sx, sigma_y=1.0)
    for sy in sigma_ys:
        GaborParams(sigma_x=1.0, sigma_y=sy)
    for lam in lams:
        GaborParams(sigma_x=1.0, sigma_y=1.0, lam=lam)
    hh, hw = (math.ceil(SUPPORT_SIGMAS * max(sigmas)) for sigmas in (sigma_ys, sigma_xs))
    _check_extent(2 * hh + 1, 2 * hw + 1, img)
    height, width = img.height, img.width
    _, e = math.frexp(float(np.abs(img.data).max()))
    data = np.ldexp(img.data, -e)
    power = np.square(dctn(data, type=2)) / (16.0 * height * width)
    power[0, 0] = 0.0

    ya, yc, ysum = _axis_factors(sigma_ys, (0.0,), height)
    xb, xe, xsum = _axis_factors(sigma_xs, lams, width)
    # Bins ky and 2H - ky have the same y spectra, so every bin but 0 counts
    # twice; bins kx and 2W - kx, the carrier's two sidebands, share P[:, kx].
    a, c = (f[:, 0, :height] / math.sqrt(2.0 * math.pi) for f in (ya, yc))
    weight = np.full(height, 2.0)
    weight[0] = 1.0
    rows = weight * np.stack([a * a, a * c, c * c, np.abs(a * c)])
    sides = np.stack([xb * xb, xb * xe, xe * xe, np.abs(xb * xe)]).reshape(4, -1, 2 * width)
    cols = sides[:, :, :width].copy()
    cols[:, :, 1:] += sides[:, :, : width : -1]
    shape = (4, len(sigma_ys), len(sigma_xs), len(lams))
    terms = (rows @ power @ cols.transpose(0, 2, 1)).reshape(shape).transpose(0, 2, 1, 3)
    energy = np.maximum(terms[0] - 2.0 * terms[1] + terms[2], 0.0)
    rounding = 2.0 * (height + width + 16) * 2.0**-53 * (terms[0] + 2.0 * terms[3] + terms[2])

    norms = np.sqrt(energy)
    image_norm = math.sqrt(float(np.square(data).sum()))
    unit = SCREEN_ERROR_K * 2.0**-53 * math.log2(256.0 * height * width) * image_norm
    kernel_l1 = 2.0 * np.multiply.outer(xsum, ysum / math.sqrt(2.0 * math.pi))[:, :, None]
    widening = np.sqrt(energy + rounding) - np.sqrt(np.maximum(energy - rounding, 0.0))
    return norms, SCREEN_REL_MARGIN * norms + unit * kernel_l1 + widening
