import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborboost.dataio import GrayImage
from gaborboost.errors import ConfigError, SizeError
from gaborboost.features import default_grid, flatten_background
from gaborboost.gabor import (
    GaborParams,
    cell_norms,
    convolve,
    make_kernel,
)
from oracles import convolve_direct, response_norm, value_at


def test_params_validation():
    with pytest.raises(ConfigError):
        GaborParams(sigma_x=0.0, sigma_y=1.0)
    with pytest.raises(ConfigError):
        GaborParams(sigma_x=1.0, sigma_y=-2.0)
    with pytest.raises(ConfigError):
        GaborParams(sigma_x=1.0, sigma_y=1.0, lam=-0.1)
    with pytest.raises(ConfigError):
        GaborParams(sigma_x=float("nan"), sigma_y=1.0)


def test_kernel_origin_value_unit_sigmas():
    k = make_kernel(GaborParams(sigma_x=1.0, sigma_y=1.0, theta=0.0, lam=0.0))
    expected = 1.0 / math.sqrt(2.0 * math.pi)
    assert value_at(k, 0, 0) == pytest.approx(complex(expected, 0.0), abs=1e-15)


def test_kernel_support_size():
    k = make_kernel(GaborParams(sigma_x=2.0, sigma_y=3.5, lam=0.5))
    assert (k.shape[1] // 2, k.shape[0] // 2) == (6, 11)
    assert k.shape == (23, 13)
    assert k.dtype == np.complex128


def test_kernel_sample_against_scalar_formula():
    """One off-origin sample cross-checked against a hand evaluation.

    At (dx, dy) = (1, 1) with sigma_x=2, sigma_y=3, theta=0, lam=1 the
    formula gives norm * exp(-(1/8 + 1/18)) * exp(i * 1).
    """
    k = make_kernel(GaborParams(sigma_x=2.0, sigma_y=3.0, theta=0.0, lam=1.0))
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * 2.0 * 3.0)
    env = math.exp(-(1.0 / 8.0 + 1.0 / 18.0))
    expected = complex(norm * env * math.cos(1.0), norm * env * math.sin(1.0))
    assert value_at(k, 1, 1) == pytest.approx(expected, abs=1e-16)
    assert value_at(k, 1, 1) == pytest.approx(
        complex(0.02999033762472965, 0.046707183481762504), abs=1e-15
    )


def test_kernel_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = GaborParams(
            sigma_x=rng.uniform(0.5, 5.0),
            sigma_y=rng.uniform(0.5, 5.0),
            theta=rng.uniform(0.0, 2.0 * math.pi),
            lam=rng.uniform(0.0, 2.0),
        )
        k = make_kernel(p, dc_correct=False)
        np.testing.assert_allclose(
            k[::-1, ::-1], np.conj(k), atol=1e-14, rtol=0.0
        )


def test_dc_correction_zeroes_real_mean():
    p = GaborParams(sigma_x=2.0, sigma_y=2.0, lam=0.9)
    k = make_kernel(p, dc_correct=True)
    assert abs(k.real.mean()) < 1e-16
    uncorrected = make_kernel(p, dc_correct=False)
    np.testing.assert_array_equal(k.imag, uncorrected.imag)


def test_convolve_constant_image_dc_corrected():
    img = GrayImage(np.full((20, 24), 0.7))
    k = make_kernel(GaborParams(sigma_x=2.0, sigma_y=2.0, lam=1.1), dc_correct=True)
    resp = convolve(img, k)
    assert resp.shape == (20, 24)
    assert np.abs(resp).max() <= 1e-9 * 0.7


def test_convolve_delta_reproduces_kernel():
    """An interior delta stamps a copy of the kernel into the response.

    True convolution writes the unflipped kernel (delta is its identity);
    conjugate symmetry makes the magnitudes match the point-reflected
    reading as well, which is all downstream consumers ever see.
    """
    img_arr = np.zeros((31, 31))
    img_arr[15, 15] = 1.0
    k = make_kernel(GaborParams(sigma_x=1.5, sigma_y=1.5, lam=0.8))
    resp = convolve(GrayImage(img_arr), k)
    hh, hw = k.shape[0] // 2, k.shape[1] // 2
    for dy in range(-hh, hh + 1):
        for dx in range(-hw, hw + 1):
            assert resp[15 + dy, 15 + dx] == pytest.approx(
                value_at(k, dx, dy), abs=1e-12
            )
            assert abs(resp[15 + dy, 15 + dx]) == pytest.approx(
                abs(value_at(k, -dx, -dy)), abs=1e-12
            )


def test_convolve_backend_equivalence():
    rng = np.random.default_rng(23)
    for _ in range(10):
        img = GrayImage(rng.random((16, 16)))
        p = GaborParams(
            sigma_x=rng.uniform(0.8, 3.0),
            sigma_y=rng.uniform(0.8, 3.0),
            theta=rng.uniform(0.0, 2.0 * math.pi),
            lam=rng.uniform(0.0, 1.5),
        )
        k = make_kernel(p, dc_correct=True)
        direct = np.abs(convolve_direct(img, k))
        fft = np.abs(convolve(img, k))
        np.testing.assert_allclose(direct, fft, atol=1e-9 * max(1.0, fft.max()))


def test_fft_backend_bitwise_matches_fftconvolve():
    from scipy.signal import fftconvolve

    rng = np.random.default_rng(29)
    for _ in range(40):
        h = int(rng.integers(6, 70))
        w = int(rng.integers(6, 130))
        img = GrayImage(rng.standard_normal((h, w)))
        cap = min(h, w) / 3.0
        p = GaborParams(
            sigma_x=rng.uniform(0.5, cap),
            sigma_y=rng.uniform(0.5, cap),
            theta=rng.uniform(0.0, 2.0 * math.pi),
            lam=rng.uniform(0.0, 1.5),
        )
        k = make_kernel(p, dc_correct=True)
        hh, hw = k.shape[0] // 2, k.shape[1] // 2
        padded = np.pad(img.data, ((hh, hh), (hw, hw)), mode="symmetric")
        expected = fftconvolve(padded.astype(np.complex128), k, mode="valid")
        assert np.array_equal(convolve(img, k), expected)


def test_convolve_kernel_too_large():
    img = GrayImage(np.ones((4, 4)))
    k = make_kernel(GaborParams(sigma_x=8.0, sigma_y=8.0))
    with pytest.raises(SizeError):
        convolve(img, k)


def test_response_norm_zero_image():
    img = GrayImage(np.zeros((12, 12)))
    assert response_norm(img, GaborParams(sigma_x=2.0, sigma_y=2.0, lam=0.8)) == 0.0


def test_response_norm_homogeneity():
    rng = np.random.default_rng(5)
    data = rng.random((14, 18))
    p = GaborParams(sigma_x=2.0, sigma_y=3.0, lam=0.6)
    base = response_norm(GrayImage(data), p)
    scaled = response_norm(GrayImage(2.5 * data), p)
    assert scaled == pytest.approx(2.5 * base, rel=1e-12)


def test_response_norm_matches_brute_force():
    rng = np.random.default_rng(17)
    img = GrayImage(rng.random((8, 8)))
    p = GaborParams(sigma_x=1.5, sigma_y=2.0, lam=0.9)
    k = make_kernel(p, dc_correct=True)
    resp = convolve(img, k)
    brute = math.sqrt(sum(abs(v) ** 2 for v in resp.ravel()))
    assert response_norm(img, p) == pytest.approx(brute, rel=1e-12)


def _assert_within_margin(img, sigma_xs, sigma_ys, lams):
    """Each screen norm lies within its margin of the 2-D ``response_norm``
    of its cell, for the image scaled by the power of two that brings its
    largest magnitude into [0.5, 1)."""
    norms, margins = cell_norms(img, sigma_xs, sigma_ys, lams)
    assert norms.dtype == margins.dtype == np.float64
    assert norms.shape == margins.shape == (len(sigma_xs), len(sigma_ys), len(lams))
    want = np.array(
        [
            [[response_norm(img, GaborParams(sx, sy, lam=lam)) for lam in lams] for sy in sigma_ys]
            for sx in sigma_xs
        ]
    )
    _, exp = math.frexp(np.abs(img.data).max())
    assert np.all(np.abs(norms - np.ldexp(want, -exp)) <= margins)


@pytest.mark.parametrize("width,height", [(96, 48), (128, 64), (160, 80), (192, 96)])
def test_block_scores_match_response_norm(width, height):
    rng = np.random.default_rng(width)
    img = flatten_background(GrayImage(rng.random((height, width))))
    grid = default_grid(width, height)
    _assert_within_margin(img, grid.sigma_x, grid.sigma_y, grid.lam)


def test_block_scores_half_height_beyond_image():
    """sigma_y=5 needs 15 rows of padding on each side of a 12-row image, so
    its kernel wraps the 24-row period of the image's even extension."""
    rng = np.random.default_rng(12)
    img = GrayImage(rng.standard_normal((12, 40)))
    _assert_within_margin(img, (1.5, 4.0), (1.0, 2.0, 5.0), (0.0, 0.5, 2.0))


def test_block_scores_half_width_beyond_image():
    """sigma_x=5 needs 15 columns of padding on each side of a 12-column image."""
    rng = np.random.default_rng(12)
    img = GrayImage(rng.standard_normal((40, 12)))
    _assert_within_margin(img, (1.0, 2.0, 5.0), (1.5, 4.0), (0.0, 0.5, 2.0))


def test_block_scores_size_error_matches_convolve():
    img = GrayImage(np.ones((6, 10)))
    for sx in (1.0, 3.0, 4.0, 6.0):
        for sy in (1.0, 2.0, 3.0, 4.0):
            grids = (((sx,), (1.0, sy)), ((1.0, sx), (sy,)))
            try:
                convolve(img, make_kernel(GaborParams(sx, sy, lam=0.5), dc_correct=True))
            except SizeError:
                for sigma_xs, sigma_ys in grids:
                    with pytest.raises(SizeError):
                        cell_norms(img, sigma_xs, sigma_ys, (0.5,))
            else:
                for sigma_xs, sigma_ys in grids:
                    cell_norms(img, sigma_xs, sigma_ys, (0.5,))


def test_block_scores_rejects_invalid_cells():
    img = GrayImage(np.ones((12, 12)))
    for sigma_xs, sigma_ys, lams in (
        ((1.0,), (1.0, -2.0), (0.5,)),
        ((1.0,), (1.0,), (0.5, float("nan"))),
        ((1.0, -2.0), (1.0,), (0.5,)),
        ((1.0, 2.0), (1.0,), (0.5, float("nan"))),
        ((1.0, 2.0), (1.0, 2.0), (0.5, -0.1)),
    ):
        with pytest.raises(ConfigError):
            cell_norms(img, sigma_xs, sigma_ys, lams)


@pytest.mark.parametrize("scale", [1.0, 1e-30, 1e30])
def test_cell_norms_lie_within_their_margin(scale):
    """The screen's norms are those of the image scaled by a power of two
    into [0.5, 1), and each lies within its margin of the float64 norm.  On
    the unflattened offset image the field is nearly zero, so the a priori
    error bound, not the relative part, sets the margin."""
    rng = np.random.default_rng(37)
    grid = default_grid(128, 64)
    flat = flatten_background(GrayImage(rng.random((64, 128))))
    for img in (flat, GrayImage(1e4 + 0.01 * rng.standard_normal((64, 128)))):
        _assert_within_margin(GrayImage(scale * img.data), grid.sigma_x, grid.sigma_y, grid.lam)


def _sigmas(n):
    """Up to three ascending sigmas whose support 2*ceil(3 sigma) + 1 fits in
    three times an extent of n, so the widest kernels wrap the 2n period of
    the image's even extension more than once."""
    top = ((3 * n - 1) // 2) / 3.0
    return st.lists(st.floats(0.1, top), min_size=1, max_size=3).map(lambda s: tuple(sorted(s)))


@st.composite
def screen_cases(draw):
    """An H x W image, 3 to 40 pixels per side, and a grid for it.  The
    image is flattened random data, or an unflattened level of 1e3 to 2e4
    with noise of 0 or 0.01, times 1, 2**-100 or 2**100."""
    height, width = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        img = flatten_background(GrayImage(rng.random((height, width))))
    else:
        noise = draw(st.sampled_from((0.0, 0.01)))
        img = GrayImage(draw(st.floats(1e3, 2e4)) + noise * rng.standard_normal((height, width)))
    img = GrayImage(img.data * draw(st.sampled_from((1.0, 2.0**-100, 2.0**100))))
    lams = st.lists(st.floats(0.0, math.pi), min_size=1, max_size=3).map(lambda s: tuple(sorted(s)))
    return img, draw(_sigmas(width)), draw(_sigmas(height)), draw(lams)


@settings(max_examples=60, deadline=None)
@given(case=screen_cases())
def test_cell_norms_within_margin_on_any_extent(case):
    """Every cell's screen norm lies within its margin of ``response_norm``,
    on images down to 3 pixels a side, with kernels that wrap the period,
    carriers up to the Nyquist frequency, and images far from unit scale:
    a wrong fold, sideband or wrap shows here."""
    _assert_within_margin(*case)
