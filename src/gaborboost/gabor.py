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
from scipy.fft import fft, fftn, ifft, ifftn, next_fast_len

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


@dataclass(frozen=True)
class ComplexKernel:
    """Complex samples on [-half_width..half_width] x [-half_height..half_height]."""

    values: np.ndarray  # complex128, shape (2*half_height+1, 2*half_width+1)
    half_width: int
    half_height: int


def make_kernel(p: GaborParams, dc_correct: bool = False) -> ComplexKernel:
    """Build the truncated kernel for ``p``.

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
    return ComplexKernel(values, hw, hh)


def _pad_reflect(data: np.ndarray, hh: int, hw: int) -> np.ndarray:
    return np.pad(data, ((hh, hh), (hw, hw)), mode="symmetric")


def _check_extent(kh: int, kw: int, img: GrayImage) -> None:
    if kh > 3 * img.height or kw > 3 * img.width:
        raise SizeError(
            f"kernel {kw}x{kh} exceeds 3x image extent {img.width}x{img.height}"
        )


def _convolve_fft_valid(padded: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """FFT convolution, 'valid' output size.

    The steps and transform sizes are those of
    ``scipy.signal.fftconvolve(padded, kernel, mode="valid")`` for complex
    inputs, so the output is bitwise identical to it; importing
    ``scipy.signal`` would cost about a second of start-up.
    """
    kh, kw = kernel.shape
    full = [n + k - 1 for n, k in zip(padded.shape, kernel.shape)]
    fshape = [next_fast_len(n) for n in full]
    spectrum = fftn(padded, fshape) * fftn(kernel, fshape)
    out = ifftn(spectrum, fshape)
    return out[kh - 1 : padded.shape[0], kw - 1 : padded.shape[1]].copy()


def convolve(img: GrayImage, kernel: ComplexKernel) -> np.ndarray:
    """Same-size FFT convolution of ``img`` with ``kernel``; borders use
    reflect padding."""
    kh, kw = kernel.values.shape
    _check_extent(kh, kw, img)
    padded = _pad_reflect(img.data, kernel.half_height, kernel.half_width)
    return _convolve_fft_valid(padded.astype(np.complex128), kernel.values)


def block_scores(
    img: GrayImage,
    sigma_x: float,
    sigma_ys: tuple[float, ...],
    lams: tuple[float, ...],
) -> np.ndarray:
    """Field norms of a block of theta=0, DC-corrected kernels sharing ``sigma_x``.

    Entry [i, j] is the l2 norm of ``convolve(img, make_kernel(GaborParams(
    sigma_x, sigma_ys[i], lam=lams[j]), dc_correct=True))`` up to rounding.
    At theta=0 the kernel factors as ``norm * outer(gy, gx) - c``: a real
    vertical Gaussian ``gy``, a complex horizontal carrier ``gx``, and the
    DC-correction constant ``c = norm * mean(gy) * mean(Re gx)``.  So the
    whole block needs only 1-D transforms: one row FFT of the image, one
    inverse per lam, one column FFT per lam, one inverse per (sigma_y, lam),
    and a box sum of the padded image for the constant term.  Raises
    ``SizeError`` exactly when ``convolve`` would for some kernel of the
    block.
    """
    # Validate every cell as its own kernel would be, so bad grids fail alike.
    for sy in sigma_ys:
        for lam in lams:
            GaborParams(sigma_x=sigma_x, sigma_y=sy, lam=lam)
    height, width = img.data.shape
    hw = math.ceil(SUPPORT_SIGMAS * sigma_x)
    hhs = [math.ceil(SUPPORT_SIGMAS * sy) for sy in sigma_ys]
    hmax = max(hhs)
    _check_extent(2 * hmax + 1, 2 * hw + 1, img)

    # The image is worked on transposed, axis 0 = x and axis 1 = y, so the
    # y transforms, the most numerous, run along the contiguous axis.
    # x step: filter the x-padded columns with every carrier at once.
    # Output x reads padded x .. x + 2*hw, which is also what the circular
    # convolution at index x + 2*hw reads, so the padded length never wraps.
    dx = np.arange(-hw, hw + 1, dtype=np.float64)
    env_x = np.exp(-(dx**2) / (2.0 * sigma_x**2))
    lam_col = np.asarray(lams, dtype=np.float64)[:, None]
    gx = env_x * np.exp(1j * lam_col * dx)
    mean_re_gx = (env_x * np.cos(lam_col * dx)).mean(axis=1)
    xpad = np.pad(img.data.T, ((hw, hw), (0, 0)), mode="symmetric")
    nx = next_fast_len(xpad.shape[0])
    spectra = fft(xpad, nx, axis=0)[None] * fft(gx, nx, axis=1)[:, :, None]
    xfield = ifft(spectra, axis=1)[:, 2 * hw : 2 * hw + width]

    # y step: the symmetric padding by a smaller half-height is a crop of
    # the padding by hmax, so one transform per lam serves every sigma_y.
    # Output y reads padded y + top .. y + top + 2*hh, with top = hmax - hh,
    # which again never wraps.
    y_map = np.pad(np.arange(height), hmax, mode="symmetric")
    ny = next_fast_len(height + 2 * hmax)
    y_spectra = fft(xfield[:, :, y_map], ny, axis=2)

    # Box sums of the padded image over the kernel support, for the DC term:
    # width-(2*hw+1) sums along x, then cumulated along y.
    csum = np.cumsum(xpad[:, y_map], axis=0)
    x_sums = csum[2 * hw :] - np.pad(csum[: width - 1], ((1, 0), (0, 0)))
    y_csum = np.pad(np.cumsum(x_sums, axis=1), ((0, 0), (1, 0)))

    scores = np.empty((len(sigma_ys), len(lams)))
    for i, (sy, hh) in enumerate(zip(sigma_ys, hhs)):
        dy = np.arange(-hh, hh + 1, dtype=np.float64)
        gy = np.exp(-(dy**2) / (2.0 * sy**2))
        norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma_x * sy)
        top = hmax - hh
        box = y_csum[:, top + 2 * hh + 1 : top + 2 * hh + 1 + height] - y_csum[:, top : top + height]
        field = ifft(y_spectra * fft(norm * gy, ny), axis=2, overwrite_x=True)
        field = field[:, :, top + 2 * hh : top + 2 * hh + height]
        field -= (norm * gy.mean() * mean_re_gx)[:, None, None] * box
        scores[i] = np.sqrt((field.real**2 + field.imag**2).sum(axis=(1, 2)))
    return scores
