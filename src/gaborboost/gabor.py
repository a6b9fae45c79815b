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


def _factor(sigma: float, h: int, lams: tuple[float, ...], along_x: bool):
    """One axis's factor of a theta=0 kernel over offsets [-h..h]: its
    envelope, its rows (a complex carrier per lam along x, the envelope
    itself along y) and the mean of each row's real part."""
    d = np.arange(-h, h + 1, dtype=np.float64)
    env = np.exp(-(d**2) / (2.0 * sigma**2))
    if not along_x:
        return env, env[None], env.mean()
    lam_col = np.asarray(lams, dtype=np.float64)[:, None]
    return env, env * np.exp(1j * lam_col * d), (env * np.cos(lam_col * d)).mean(axis=1)


class ScoreBlock:
    """Single-precision field norms of a block of theta=0, DC-corrected
    kernels, the parameter search's screen: the cells that share one sigma
    on the axis the block filters first.  A block holds one sigma_x, or
    several and one sigma_y; any other shape is a ``ConfigError``.

    Cell [i, j, k] is the kernel ``make_kernel(GaborParams(sigma_xs[i],
    sigma_ys[j], lam=lams[k]), dc_correct=True)``.  At theta=0 it factors
    as ``norm * outer(gy, gx) - c``: a real vertical Gaussian ``gy``, a
    complex horizontal carrier ``gx``, and the DC-correction constant ``c
    = norm * mean(Re gx) * mean(gy)``.  So a block needs only 1-D
    transforms: a block of one sigma_x filters along x with every carrier,
    then along y with every sigma_y; a block of one sigma_y filters along y
    once, then along x with every (sigma_x, lam) carrier, by the same code
    on swapped axes.  The constant term is a box sum of the padded image.

    The constructor validates every cell, raising ``SizeError`` exactly when
    ``convolve`` would for some kernel of the block, and builds what the
    cells share: the padding by the block's largest second-axis half
    support, the transform lengths, the kernel spectra and the box sums.
    ``single_norms`` scores every cell, with a margin per cell that its
    error cannot exceed; the search rescores close calls with ``convolve``.
    """

    def __init__(
        self,
        img: GrayImage,
        sigma_xs: tuple[float, ...],
        sigma_ys: tuple[float, ...],
        lams: tuple[float, ...],
    ) -> None:
        for sx in sigma_xs:
            for sy in sigma_ys:
                for lam in lams:
                    GaborParams(sigma_x=sx, sigma_y=sy, lam=lam)
        hh, hw = (math.ceil(SUPPORT_SIGMAS * max(sigmas)) for sigmas in (sigma_ys, sigma_xs))
        _check_extent(2 * hh + 1, 2 * hw + 1, img)
        x_first = len(sigma_xs) == 1
        if not x_first and len(sigma_ys) != 1:
            raise ConfigError("a block holds one sigma_x or one sigma_y")
        self.shape = (len(sigma_xs), len(sigma_ys), len(lams))
        # The image is worked on with axis 0 the axis filtered first, so the
        # second-axis transforms, the most numerous, run along the
        # contiguous axis.  Output index i reads padded i .. i + 2*h, which
        # is also what the circular convolution at index i + 2*h reads, so
        # the padded length never wraps.
        data = img.data.T if x_first else img.data
        sigma1, sigmas2 = (sigma_xs[0], sigma_ys) if x_first else (sigma_ys[0], sigma_xs)
        self.n1, self.n2 = n1, n2 = data.shape
        self.h1 = h1 = math.ceil(SUPPORT_SIGMAS * sigma1)
        self.h2s = [math.ceil(SUPPORT_SIGMAS * s) for s in sigmas2]
        self.h2max = h2max = max(self.h2s)

        self.pad1 = data[_symmetric_map(n1, h1)]
        self.len1 = next_fast_len(n1 + 2 * h1)
        self.map2 = _symmetric_map(n2, h2max)
        self.len2 = next_fast_len(n2 + 2 * h2max)

        # Kernel factors and their spectra in float64, rounded to single
        # precision once built; the error bound covers that rounding.  The
        # factor norm goes into the second axis's spectra.
        env1, rows1, mean1 = _factor(sigma1, h1, lams, x_first)
        self.env1_sum = env1.sum()
        self.hat1 = fft(rows1, self.len1, axis=1).astype(np.complex64)
        self.sums2, self.hats2, self.dc = [], [], []
        for s, h in zip(sigmas2, self.h2s):
            env, rows, mean = _factor(s, h, lams, not x_first)
            sx, sy = (sigma1, s) if x_first else (s, sigma1)
            norm = 1.0 / (math.sqrt(2.0 * math.pi) * sx * sy)
            self.sums2.append(norm * env.sum())
            # Shape (rows, 1, len2), to broadcast over the first axis's lines.
            self.hats2.append(fft(norm * rows, self.len2, axis=1).astype(np.complex64)[:, None])
            self.dc.append((norm * mean * mean1).astype(np.float32))

        # Box sums of the padded image over the kernel support, for the DC
        # term: width-(2*h1+1) sums along axis 0, then cumulated along axis
        # 1.  Both cumulative sums start with a zero, so every box is one
        # difference.
        csum = np.zeros((n1 + 2 * h1 + 1, n2 + 2 * h2max))
        np.cumsum(self.pad1[:, self.map2], axis=0, out=csum[1:])
        self.csum2 = np.zeros((n1, n2 + 2 * h2max + 1))
        np.cumsum(csum[2 * h1 + 1 :] - csum[:n1], axis=1, out=self.csum2[:, 1:])

    def single_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Every cell's field norm in single precision, and a margin that
        its error cannot exceed, both of the block's shape (sigma_x,
        sigma_y, lam).

        Both are for the image times ``2**-e``, the power of two that brings
        its largest magnitude into [0.5, 1).  That scaling is exact, so no
        image overflows or underflows float32 and the norms' ratios do not
        depend on the image's scale.  The margin is the larger of
        ``SINGLE_REL_MARGIN`` times the norm and the a priori error bound of
        a two-stage FFT convolution, ``SINGLE_ERROR_K * 2**-24 * log2(nx *
        ny) * ||padded image||_2 * ||kernel||_1``, with ``||kernel||_1 <= 2
        * norm * sum(gy) * sum(env_x)`` because the DC term obeys ``|c| *
        (2*hh+1) * (2*hw+1) <= norm * sum(gy) * sum(env_x)``.  The relative
        part alone would not do: float32 noise on a near-zero field, such as
        an unflattened constant image's, differs between cells by far more
        than 1e-4 of it.  A non-finite norm has no margin.
        """
        _, e = math.frexp(float(np.abs(self.pad1).max()))
        scaled = np.ldexp(self.pad1, -e)
        csum2 = np.ldexp(self.csum2, -e)
        h1, h2max, n1, n2 = self.h1, self.h2max, self.n1, self.n2
        # First axis: filter the padded lines with every first-axis kernel.
        spec1 = fft(scaled.astype(np.float32), self.len1, axis=0)
        field1 = ifft(spec1[None] * self.hat1[:, :, None], axis=1)
        # Second axis: the symmetric padding by a smaller half support is a
        # crop of the padding by h2max, so one transform per field serves
        # every second-axis sigma.  Output j reads padded j + top .. j +
        # top + 2*h, with top = h2max - h.
        spectra2 = fft(field1[:, 2 * h1 : 2 * h1 + n1, self.map2], self.len2, axis=2)
        norms = np.empty((len(self.h2s), len(self.dc[0])), dtype=np.float32)
        for i, h in enumerate(self.h2s):
            top = h2max - h
            stop = top + 2 * h + 1
            # Differenced in float64, then rounded: the margins were calibrated so.
            box = (csum2[:, stop : stop + n2] - csum2[:, top : top + n2]).astype(np.float32)
            field = ifft(spectra2 * self.hats2[i], axis=2, overwrite_x=True)[:, :, stop - 1 : stop - 1 + n2]
            field -= self.dc[i][:, None, None] * box
            norms[i] = np.sqrt((field.real**2 + field.imag**2).sum(axis=(1, 2)))

        counts = np.bincount(self.map2, minlength=n2)
        pad_norm = math.sqrt(float(np.square(scaled).sum(axis=0) @ counts))
        unit = SINGLE_ERROR_K * 2.0**-24 * math.log2(self.len1 * self.len2) * pad_norm
        bounds = unit * 2.0 * np.array(self.sums2) * self.env1_sum
        margins = np.maximum(SINGLE_REL_MARGIN * norms, bounds[:, None])
        return norms.reshape(self.shape), margins.reshape(self.shape)
