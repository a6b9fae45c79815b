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
    borders use symmetric padding, as in ``ScoreBlock``.

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


# Margins of single-precision field norms (see ``ScoreBlock.single_norms``):
# a relative part, 200 times the worst relative error seen on the 600
# reference images (5e-7), and the constant K of the a priori error bound,
# of which the worst error seen there reached 0.2%.
SINGLE_REL_MARGIN = 1e-4
SINGLE_ERROR_K = 16.0


class ScoreBlock:
    """Single-precision field norms of a block of theta=0, DC-corrected
    kernels sharing ``sigma_x``: the parameter search's screen.

    Cell [i, j] is the kernel ``make_kernel(GaborParams(sigma_x, sigma_ys[i],
    lam=lams[j]), dc_correct=True)``.  At theta=0 it factors as ``norm *
    outer(gy, gx) - c``: a real vertical Gaussian ``gy``, a complex
    horizontal carrier ``gx``, and the DC-correction constant ``c = norm *
    mean(gy) * mean(Re gx)``.  So a block needs only 1-D transforms: one row
    FFT of the image, one inverse per lam, one column FFT per lam, one
    inverse per (sigma_y, lam), and a box sum of the padded image for the
    constant term.

    The constructor validates every cell, raising ``SizeError`` exactly when
    ``convolve`` would for some kernel of the block, and builds what the
    cells share: the padding by the block's largest half-height, the
    transform lengths, the kernel spectra and the box sums.
    ``single_norms`` scores every cell, with a margin per cell that its
    error cannot exceed; the search rescores close calls with ``convolve``.
    """

    def __init__(
        self,
        img: GrayImage,
        sigma_x: float,
        sigma_ys: tuple[float, ...],
        lams: tuple[float, ...],
    ) -> None:
        for sy in sigma_ys:
            for lam in lams:
                GaborParams(sigma_x=sigma_x, sigma_y=sy, lam=lam)
        self.height, self.width = height, width = img.data.shape
        self.hw = hw = math.ceil(SUPPORT_SIGMAS * sigma_x)
        self.hhs = [math.ceil(SUPPORT_SIGMAS * sy) for sy in sigma_ys]
        self.hmax = hmax = max(self.hhs)
        _check_extent(2 * hmax + 1, 2 * hw + 1, img)

        # The image is worked on transposed, axis 0 = x and axis 1 = y, so
        # the y transforms, the most numerous, run along the contiguous axis.
        # Output x reads padded x .. x + 2*hw, which is also what the
        # circular convolution at index x + 2*hw reads, so the padded length
        # never wraps; likewise along y with hmax.
        self.xpad = img.data.T[_symmetric_map(width, hw)]
        self.nx = nx = next_fast_len(width + 2 * hw)
        self.y_map = _symmetric_map(height, hmax)
        self.ny = ny = next_fast_len(height + 2 * hmax)

        # Kernel factors and their spectra in float64, rounded to single
        # precision once built; the error bound covers that rounding.
        dx = np.arange(-hw, hw + 1, dtype=np.float64)
        self.env_x = np.exp(-(dx**2) / (2.0 * sigma_x**2))
        lam_col = np.asarray(lams, dtype=np.float64)[:, None]
        self.gx_hat = fft(self.env_x * np.exp(1j * lam_col * dx), nx, axis=1).astype(np.complex64)
        mean_re_gx = (self.env_x * np.cos(lam_col * dx)).mean(axis=1)
        self.gy_sums, self.gy_hats, self.dc = [], [], []
        for sy, hh in zip(sigma_ys, self.hhs):
            dy = np.arange(-hh, hh + 1, dtype=np.float64)
            gy = np.exp(-(dy**2) / (2.0 * sy**2))
            norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma_x * sy)
            self.gy_sums.append(norm * gy.sum())
            self.gy_hats.append(fft(norm * gy, ny).astype(np.complex64))
            self.dc.append((norm * gy.mean() * mean_re_gx).astype(np.float32))

        # Box sums of the padded image over the kernel support, for the DC
        # term: width-(2*hw+1) sums along x, then cumulated along y.  Both
        # cumulative sums start with a zero, so every box is one difference.
        csum = np.zeros((width + 2 * hw + 1, height + 2 * hmax))
        np.cumsum(self.xpad[:, self.y_map], axis=0, out=csum[1:])
        self.y_csum = np.zeros((width, height + 2 * hmax + 1))
        np.cumsum(csum[2 * hw + 1 :] - csum[:width], axis=1, out=self.y_csum[:, 1:])

    def single_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Every cell's field norm in single precision, and a margin that
        its error cannot exceed.

        Both are for the image times ``2**-e``, the power of two that brings
        its largest magnitude into [0.5, 1).  That scaling is exact, so no
        image overflows or underflows float32 and the norms' ratios do not
        depend on the image's scale.  The margin is the larger of
        ``SINGLE_REL_MARGIN`` times the norm and the a priori error bound of
        an FFT convolution, ``SINGLE_ERROR_K * 2**-24 * log2(nx * ny) *
        ||padded image||_2 * ||kernel||_1``, with ``||kernel||_1 <= 2 *
        norm * sum(gy) * sum(env_x)`` because the DC term obeys ``|c| *
        (2*hh+1) * (2*hw+1) <= norm * sum(gy) * sum(env_x)``.  The relative
        part alone would not do: float32 noise on a near-zero field, such as
        an unflattened constant image's, differs between cells by far more
        than 1e-4 of it.  A non-finite norm has no margin.
        """
        _, e = math.frexp(float(np.abs(self.xpad).max()))
        scaled = np.ldexp(self.xpad, -e)
        y_csum = np.ldexp(self.y_csum, -e)
        hw, hmax, width, height = self.hw, self.hmax, self.width, self.height
        # x step: filter the x-padded columns with every carrier at once.
        xspec = fft(scaled.astype(np.float32), self.nx, axis=0)
        xfield = ifft(xspec[None] * self.gx_hat[:, :, None], axis=1)
        # y step: the symmetric padding by a smaller half-height is a crop of
        # the padding by hmax, so one transform per lam serves every sigma_y.
        # Output y reads padded y + top .. y + top + 2*hh, with top = hmax - hh.
        y_spectra = fft(xfield[:, 2 * hw : 2 * hw + width, self.y_map], self.ny, axis=2)
        norms = np.empty((len(self.hhs), len(self.gx_hat)), dtype=np.float32)
        for i, hh in enumerate(self.hhs):
            top = hmax - hh
            stop = top + 2 * hh + 1
            # Differenced in float64, then rounded: the margins were calibrated so.
            box = (y_csum[:, stop : stop + height] - y_csum[:, top : top + height]).astype(np.float32)
            field = ifft(y_spectra * self.gy_hats[i], axis=2, overwrite_x=True)[:, :, stop - 1 : stop - 1 + height]
            field -= self.dc[i][:, None, None] * box
            norms[i] = np.sqrt((field.real**2 + field.imag**2).sum(axis=(1, 2)))

        counts = np.bincount(self.y_map, minlength=self.height)
        pad_norm = math.sqrt(float(np.square(scaled).sum(axis=0) @ counts))
        unit = SINGLE_ERROR_K * 2.0**-24 * math.log2(self.nx * self.ny) * pad_norm
        bounds = unit * 2.0 * np.array(self.gy_sums) * self.env_x.sum()
        return norms, np.maximum(SINGLE_REL_MARGIN * norms, bounds[:, None])
