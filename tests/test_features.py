import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaborboost import features, gabor
from gaborboost.dataio import GrayImage, LabeledDataset, flip_horizontal
from gaborboost.errors import ConfigError, SizeError
from gaborboost.features import (
    ParamGrid,
    box_sum,
    default_grid,
    engineered_features,
    extract_features,
    flatten_background,
    grid_optimize,
    integral_image,
    locate_center,
    quad_responses,
    tabularize,
    two_step_optimize,
)
from gaborboost.synthgen import SynthSpec, generate
from oracles import cell_scorer, scan_float64, two_step_float64


def gabor_packet(width, height, xc, yc, sigma_x, sigma_y, lam, amp=1.0):
    col = np.arange(width, dtype=float)[None, :]
    row = np.arange(height, dtype=float)[:, None]
    envelope = np.exp(
        -((col - xc) ** 2 / (2 * sigma_x**2) + (row - yc) ** 2 / (2 * sigma_y**2))
    )
    return GrayImage(amp * envelope * np.cos(lam * (col - xc)))


# ---------------------------------------------------------------------------
# grids


def test_param_grid_validation():
    with pytest.raises(ConfigError, match="empty"):
        ParamGrid(sigma_x=(), sigma_y=(2.0,), lam=(0.5,))
    with pytest.raises(ConfigError, match="ascending"):
        ParamGrid(sigma_x=(4.0, 2.0), sigma_y=(2.0,), lam=(0.5,))
    grid = ParamGrid(sigma_x=(2.0, 4.0), sigma_y=(2.0, 3.0, 4.0), lam=(0.5,))
    assert grid.size == 6


def test_default_grid_128x64():
    grid = default_grid(128, 64)
    assert grid.sigma_x == (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)
    assert grid.sigma_y == (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)
    assert len(grid.lam) == 7
    assert grid.lam[0] == pytest.approx(2.0 * math.pi / 32.0)
    assert grid.lam[-1] == pytest.approx(2.0 * math.pi / 4.0)


def test_default_grid_filters_large_cells():
    grid = default_grid(16, 12)
    assert grid.sigma_x == (2.0, 3.0, 4.0)
    assert grid.sigma_y == (2.0, 3.0, 4.0)


def test_default_grid_too_small():
    with pytest.raises(SizeError, match="too small"):
        default_grid(4, 4)


def test_flatten_background_kills_smooth_level():
    """A full-width parabolic profile shrinks to a small residual ripple."""
    col = np.arange(96, dtype=float)[None, :]
    smooth = np.clip(1.0 - ((col - 48) / 44.0) ** 2, 0.0, None) * np.ones((48, 1))
    flat = flatten_background(GrayImage(smooth))
    assert np.abs(flat.data).max() < 0.15


def test_flatten_background_keeps_narrow_oscillation():
    img = gabor_packet(96, 48, 48, 24, 4.0, 6.0, 1.0)
    flat = flatten_background(img)
    # the packet peak survives nearly unchanged
    assert np.abs(flat.data).max() > 0.8 * np.abs(img.data).max()


# ---------------------------------------------------------------------------
# optimizers


def test_grid_optimize_singleton():
    img = gabor_packet(48, 32, 24, 16, 3.0, 4.0, 1.0)
    grid = ParamGrid(sigma_x=(3.0,), sigma_y=(4.0,), lam=(1.0,))
    result = grid_optimize(img, grid)
    assert (result.sigma_x, result.sigma_y, result.lam) == (3.0, 4.0, 1.0)
    assert result.evaluations == 1


def test_two_step_singleton():
    img = gabor_packet(48, 32, 24, 16, 3.0, 4.0, 1.0)
    grid = ParamGrid(sigma_x=(3.0,), sigma_y=(4.0,), lam=(1.0,))
    result = two_step_optimize(img, grid)
    assert (result.sigma_x, result.sigma_y, result.lam) == (3.0, 4.0, 1.0)
    assert result.evaluations == 2


def test_grid_optimize_recovers_on_grid_packet():
    """A packet built from one grid cell maximizes that same cell."""
    grid = default_grid(128, 64)
    truth = (4.0, 6.0, 2.0 * math.pi / 8.0)
    img = gabor_packet(128, 64, 64, 32, *truth)
    result = grid_optimize(img, grid)
    assert (result.sigma_x, result.sigma_y, result.lam) == truth
    assert result.evaluations == grid.size


def test_two_step_matches_full_grid_on_packets():
    grid = default_grid(128, 64)
    for truth in ((3.0, 4.0, 2.0 * math.pi / 6.0), (8.0, 8.0, 2.0 * math.pi / 12.0)):
        img = gabor_packet(128, 64, 60, 30, *truth)
        two = two_step_optimize(img, grid)
        assert (two.sigma_x, two.sigma_y, two.lam) == truth
        assert two.evaluations == len(grid.sigma_y) * len(grid.lam) + len(grid.sigma_x)


def test_argmax_invariant_under_intensity_scaling():
    grid = ParamGrid(
        sigma_x=(2.0, 4.0), sigma_y=(2.0, 4.0), lam=(2.0 * math.pi / 8.0, 2.0 * math.pi / 4.0)
    )
    img = gabor_packet(48, 32, 24, 16, 4.0, 4.0, 2.0 * math.pi / 8.0)
    base = grid_optimize(img, grid)
    scaled = grid_optimize(GrayImage(2.0 * img.data), grid)
    assert (base.sigma_x, base.sigma_y, base.lam) == (
        scaled.sigma_x,
        scaled.sigma_y,
        scaled.lam,
    )


@pytest.mark.parametrize("width,height", [(96, 48), (128, 64), (160, 80), (192, 96)])
def test_optimizers_match_brute_force_oracle(width, height):
    """The two-step search at every size that stream-mixed requests; the full
    grid, about six times the cells, at the smallest."""
    dataset, _ = generate(SynthSpec(width, height, 2, 2, 2, noise_sigma=0.02, seed=5))
    grid = default_grid(width, height)
    for index, image in enumerate(dataset.images):
        img = flatten_background(image)
        score = cell_scorer(img)
        assert two_step_optimize(img, grid) == two_step_float64(score, grid)
        if width == 96 and index % 3 == 0:
            expected = scan_float64(score, grid.sigma_x, grid.sigma_y, grid.lam)
            assert grid_optimize(img, grid) == expected


def test_optimizers_pick_first_cell_on_constant_image():
    grid = default_grid(64, 32)
    flat = flatten_background(GrayImage(np.full((32, 64), 0.7)))
    first = (grid.sigma_x[0], grid.sigma_y[0], grid.lam[0])
    for optimize in (two_step_optimize, grid_optimize):
        result = optimize(flat, grid)
        assert (result.sigma_x, result.sigma_y, result.lam) == first
    row = extract_features(GrayImage(np.full((32, 64), 0.7)), "c", "lbl")
    assert (row.sigma_x, row.sigma_y, row.lam) == first


def test_optimizers_raise_size_error_like_convolve():
    """A cell whose kernel exceeds 3x the image extent fails the whole search."""
    img = gabor_packet(40, 12, 20, 6, 2.0, 2.0, 1.0)
    tall = ParamGrid(sigma_x=(2.0,), sigma_y=(2.0, 5.0, 6.0), lam=(1.0,))
    wide = ParamGrid(sigma_x=(2.0, 20.0), sigma_y=(2.0,), lam=(1.0,))
    for optimize in (two_step_optimize, grid_optimize):
        for grid in (tall, wide):
            with pytest.raises(SizeError, match="exceeds 3x image extent"):
                optimize(img, grid)
        fits = optimize(img, ParamGrid(sigma_x=(2.0, 4.0), sigma_y=(2.0, 5.0), lam=(1.0,)))
        assert fits.evaluations == 4


SEARCH_KINDS = ("random", "near_mirror", "offset", "constant", "scaled")


@st.composite
def search_images(draw):
    """An image kind and a 64x32 image of it.  Random, near_mirror and
    scaled images are flattened first, as ``extract_features`` does.

    near_mirror: a random half mirrored onto the other, plus noise 1e-6;
    offset: an unflattened image on a constant level of 1e3 to 2e4, with
    noise of 0, 1e-9 or 0.01; constant: one level, flattened to zero or
    not; scaled: a random image times 1e-30 or 1e30.
    """
    kind = draw(st.sampled_from(SEARCH_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.random((32, 64))
    flatten = True
    if kind == "near_mirror":
        data = np.concatenate([data[:, :32], data[:, 31::-1]], axis=1)
        data += 1e-6 * rng.standard_normal(data.shape)
    elif kind == "offset":
        noise = draw(st.sampled_from((0.0, 1e-9, 0.01)))
        data = draw(st.floats(1e3, 2e4)) + noise * rng.standard_normal(data.shape)
        flatten = False
    elif kind == "constant":
        data = np.full(data.shape, draw(st.floats(-1e3, 1e3)))
        flatten = draw(st.booleans())
    elif kind == "scaled":
        data *= draw(st.sampled_from((1e-30, 1e30)))
    img = GrayImage(data)
    return kind, flatten_background(img) if flatten else img


def _count_rescoring(monkeypatch):
    """Patch ``features.convolve`` to record each call; return the record."""
    calls, convolve = [], features.convolve

    def counted(img, kernel):
        calls.append(kernel.shape)
        return convolve(img, kernel)

    monkeypatch.setattr(features, "convolve", counted)
    return calls


@settings(max_examples=30, deadline=None)
@given(case=search_images())
@example(case=("constant", GrayImage(np.zeros((32, 64)))))
@example(case=("offset", GrayImage(np.full((32, 64), 5000.0))))
def test_search_matches_float64_scan(case):
    """Both searches pick the float64 scan's cell.  Only cells that single
    precision cannot rule out are rescored with ``convolve``, and none when
    one is left, so a search never rescores exactly one; on an all-zero
    image none are, and on any other constant image every cell is."""
    _, img = case
    grid = default_grid(64, 32)
    score = cell_scorer(img)
    with pytest.MonkeyPatch.context() as mp:
        rescored = _count_rescoring(mp)
        full = grid_optimize(img, grid)
        full_rescored = len(rescored)
        two = two_step_optimize(img, grid)
    assert full == scan_float64(score, grid.sigma_x, grid.sigma_y, grid.lam)
    assert two == two_step_float64(score, grid)
    if not img.data.any():
        assert len(rescored) == 0
    elif np.ptp(img.data) == 0:
        assert full_rescored == grid.size
    else:
        assert full_rescored <= grid.size and full_rescored != 1


def test_search_rescores_every_cell_when_a_single_score_is_not_finite(monkeypatch):
    """A NaN single-precision score gives no floor to prune by, so every
    cell is rescored, and the float64 scan's cell still wins."""
    img = gabor_packet(64, 32, 30.0, 16.0, 4.0, 3.0, 0.8)
    grid = default_grid(64, 32)
    single = gabor.ScoreBlock.single_norms

    def nan_first(block):
        scores, margins = single(block)
        scores[0, 0, 0] = np.nan
        return scores, margins

    expected = scan_float64(cell_scorer(img), grid.sigma_x, grid.sigma_y, grid.lam)
    monkeypatch.setattr(gabor.ScoreBlock, "single_norms", nan_first)
    rescored = _count_rescoring(monkeypatch)
    assert grid_optimize(img, grid) == expected
    assert len(rescored) == grid.size


def test_each_pass_screens_in_one_block(monkeypatch):
    """A block holds the cells that share one sigma on the axis it filters
    first, and the search splits its grid along the axis with fewer sigmas,
    x on a tie: ``two_step_optimize`` builds one block per pass, the full
    128x64 grid (7 sigma_x, 7 sigma_y) one block per sigma_x, and a grid of
    two sigma_y one block per sigma_y, which still picks the float64 scan's
    cell."""
    built, block = [], features.ScoreBlock

    def counted(img, *axes):
        built.append(tuple(np.size(axis) for axis in axes))
        return block(img, *axes)

    monkeypatch.setattr(features, "ScoreBlock", counted)
    img = flatten_background(gabor_packet(128, 64, 60.0, 30.0, 4.0, 3.0, 0.8))
    grid = default_grid(128, 64)
    two_step_optimize(img, grid)
    assert built == [(1, len(grid.sigma_y), len(grid.lam)), (len(grid.sigma_x), 1, 1)]
    built.clear()
    grid_optimize(img, grid)
    assert built == [(1, len(grid.sigma_y), len(grid.lam))] * len(grid.sigma_x)
    built.clear()
    axes = (grid.sigma_x, grid.sigma_y[1:3], grid.lam)
    assert grid_optimize(img, ParamGrid(*axes)) == scan_float64(cell_scorer(img), *axes)
    assert built == [(len(grid.sigma_x), 1, len(grid.lam))] * 2


# ---------------------------------------------------------------------------
# integral images and quadrants


def test_integral_image_hand_example():
    iu = integral_image(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(iu, [[1.0, 5.0], [10.0, 30.0]])


def test_integral_image_zero_field():
    np.testing.assert_array_equal(integral_image(np.zeros((4, 5))), np.zeros((4, 5)))


def test_integral_image_squares_complex_magnitude():
    field = np.array([[3.0 + 4.0j]])
    np.testing.assert_allclose(integral_image(field), [[25.0]])


def test_integral_image_rejects_1d():
    with pytest.raises(SizeError):
        integral_image(np.ones(5))


def test_box_sum_matches_brute_force():
    rng = np.random.default_rng(31)
    field = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    power = np.abs(field) ** 2
    iu = integral_image(field)
    for _ in range(100):
        r0, r1 = sorted(rng.integers(0, 32, size=2))
        c0, c1 = sorted(rng.integers(0, 32, size=2))
        brute = power[r0 : r1 + 1, c0 : c1 + 1].sum()
        assert box_sum(iu, r0, r1, c0, c1) == pytest.approx(brute, rel=1e-9)


def test_box_sum_clamps_and_empties():
    iu = integral_image(np.ones((4, 4)))
    assert box_sum(iu, -5, 10, -5, 10) == pytest.approx(16.0)
    assert box_sum(iu, 2, 1, 0, 3) == 0.0
    assert box_sum(iu, 0, 0, 0, 0) == pytest.approx(1.0)


def test_locate_center_delta_and_ties():
    field = np.zeros((6, 8))
    field[4, 5] = -2.0  # magnitude decides, sign does not
    assert locate_center(field) == (5, 4)
    assert locate_center(np.ones((3, 3))) == (0, 0)


def test_quad_responses_uniform_field():
    """Unit field, sigma 2 boxes: each quadrant holds 4 unit pixels."""
    iu = integral_image(np.ones((6, 6)))
    q_tl, q_tr, q_bl, q_br, clamped = quad_responses(iu, (2, 2), (2.0, 2.0))
    assert (q_tl, q_tr, q_bl, q_br) == (2.0, 2.0, 2.0, 2.0)
    assert not clamped


def test_quad_responses_clamps_at_border():
    iu = integral_image(np.ones((6, 6)))
    *_, clamped = quad_responses(iu, (1, 1), (2.0, 2.0))
    assert clamped


def test_quad_responses_mirror_symmetric_field():
    rng = np.random.default_rng(41)
    left = rng.random((16, 7))
    mid = rng.random((16, 1))
    field = np.concatenate([left, mid, left[:, ::-1]], axis=1)  # symmetric about x=7
    iu = integral_image(field)
    q_tl, q_tr, q_bl, q_br, _ = quad_responses(iu, (7, 8), (3.0, 3.0))
    assert q_tl == pytest.approx(q_tr, rel=1e-9)
    assert q_bl == pytest.approx(q_br, rel=1e-9)


@st.composite
def fields_with_centres(draw):
    """A complex field, a centre pixel and box sigmas.  Magnitudes stay in
    [0.5, 2] so every nonempty box holds a fixed share of the field's
    power, which keeps the integral image's rounding far below 1e-12."""
    h, w = draw(st.integers(3, 32)), draw(st.integers(3, 32))
    mag = draw(arrays(np.float64, (h, w), elements=st.floats(0.5, 2.0)))
    phase = draw(arrays(np.float64, (h, w), elements=st.floats(-math.pi, math.pi)))
    centre = (draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)))
    sigma = (draw(st.floats(0.5, 8.0)), draw(st.floats(0.5, 8.0)))
    return mag * np.exp(1j * phase), centre, sigma


@settings(max_examples=100, deadline=None)
@given(case=fields_with_centres())
def test_quadrants_swap_under_mirror(case):
    field, (x, y), sigma = case
    q_tl, q_tr, q_bl, q_br, clamped = quad_responses(integral_image(field), (x, y), sigma)
    mirrored = quad_responses(integral_image(field[:, ::-1]), (field.shape[1] - 1 - x, y), sigma)
    assert mirrored[:4] == pytest.approx((q_tr, q_tl, q_br, q_bl), rel=1e-12, abs=0.0)
    assert mirrored[4] == clamped


def test_quad_partition_matches_union_norm():
    """Root-sum-square of the quadrants equals the norm over their union."""
    rng = np.random.default_rng(43)
    field = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    power = np.abs(field) ** 2
    iu = integral_image(field)
    for _ in range(10):
        x = int(rng.integers(8, 32))
        y = int(rng.integers(8, 32))
        sx = float(rng.integers(2, 7))
        sy = float(rng.integers(2, 7))
        q = quad_responses(iu, (x, y), (sx, sy))[:4]
        hw, hh = int(sx), int(sy)
        union = (
            power[y - hh : y, x - hw : x].sum()
            + power[y - hh : y, x + 1 : x + hw + 1].sum()
            + power[y + 1 : y + hh + 1, x - hw : x].sum()
            + power[y + 1 : y + hh + 1, x + 1 : x + hw + 1].sum()
        )
        assert math.sqrt(sum(v**2 for v in q)) == pytest.approx(
            math.sqrt(union), rel=1e-9
        )


def test_engineered_features_values():
    assert engineered_features(2.0, 2.0, 2.0, 2.0) == pytest.approx(
        (1.0, 1.0, 1.0, 1.0), rel=1e-8
    )
    ratios = engineered_features(1.0, 1.0, 3.0, 0.0)
    assert ratios[3] == pytest.approx(3e9)
    # weaker bottom-left than bottom-right pushes the ratio below one
    assert engineered_features(1.0, 1.0, 0.5, 2.0)[3] < 1.0


# ---------------------------------------------------------------------------
# rows


def test_extract_features_row_contents():
    img = gabor_packet(96, 48, 40, 24, 4.0, 6.0, 2.0 * math.pi / 8.0)
    row = extract_features(img, "img_007", "longitudinal")
    assert row.id == "img_007"
    assert row.label == "longitudinal"
    assert 0.0 <= row.x_star < 1.0 and 0.0 <= row.y_star < 1.0
    assert abs(row.x_star - 40 / 96) < 0.05
    assert min(row.q_tl, row.q_tr, row.q_bl, row.q_br) >= 0.0
    assert row.pf_amp is None


def test_extract_features_flip_swaps_quadrants():
    img = gabor_packet(96, 48, 40, 22, 4.0, 6.0, 2.0 * math.pi / 8.0)
    # break the vertical symmetry so quadrants differ
    tilt = 1.0 + 0.4 * np.tanh((np.arange(48)[:, None] - 22) / 4.0) * np.ones((1, 96))
    img = GrayImage(img.data * tilt)
    row = extract_features(img, "x", "lbl")
    flipped = extract_features(flip_horizontal(img), "x", "lbl")
    assert flipped.q_tl == pytest.approx(row.q_tr, rel=1e-6)
    assert flipped.q_tr == pytest.approx(row.q_tl, rel=1e-6)
    assert flipped.q_bl == pytest.approx(row.q_br, rel=1e-6)
    assert flipped.q_br == pytest.approx(row.q_bl, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), label=st.integers(0, 2), power=st.integers(-4, 10))
def test_extract_features_scales_by_powers_of_two(seed, label, power):
    """A reference-like image times k = 2**power keeps its cell, centre and
    clamp flag, and every quadrant norm scales by exactly k: scaling by a
    power of two commutes with every rounding step.  The ratio features are
    not scale-invariant, because RATIO_EPS is absolute: a ratio
    q_a / (q_b + eps) moves by up to eps / (k * q_b) relative, under 1e-7 for
    these images (every q exceeds 0.5, k is at least 1/16)."""
    counts = [0, 0, 0]
    counts[label] = 1
    dataset, _ = generate(SynthSpec(128, 64, *counts, noise_sigma=0.02, seed=seed))
    img = dataset.images[0]
    k = 2.0**power
    base = extract_features(img, "x", "")
    scaled = extract_features(GrayImage(k * img.data), "x", "")
    for name in ("sigma_x", "sigma_y", "lam", "x_star", "y_star", "roi_clamped"):
        assert getattr(scaled, name) == getattr(base, name), name
    for name in ("q_tl", "q_tr", "q_bl", "q_br"):
        assert getattr(base, name) > 0.5
        assert getattr(scaled, name) == k * getattr(base, name), name
    for name in ("egf_tl_bl", "egf_tr_br", "egf_tl_tr", "egf_bl_br"):
        assert getattr(scaled, name) == pytest.approx(getattr(base, name), rel=1e-7, abs=0.0)


def test_tabularize_empty_dataset():
    ds = LabeledDataset([], [], [])
    assert tabularize(ds) == []


def test_tabularize_order_and_determinism():
    images = [
        gabor_packet(64, 32, 28 + 4 * i, 16, 3.0, 4.0, 2.0 * math.pi / 6.0)
        for i in range(3)
    ]
    ds = LabeledDataset(images, ["a", "b", "a"], ["n0", "n1", "n2"])
    rows = tabularize(ds)
    assert [r.id for r in rows] == ["n0", "n1", "n2"]
    again = tabularize(ds)
    assert [(r.x_star, r.q_tl) for r in rows] == [(r.x_star, r.q_tl) for r in again]
