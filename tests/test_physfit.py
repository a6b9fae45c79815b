import numpy as np
import pytest

from gaborboost import physfit
from gaborboost.dataio import FeatureRow, GrayImage
from gaborboost.errors import FitError
from gaborboost.physfit import (
    dip_model,
    fit_image,
    fit_profile,
    fit_rows,
    initial_guess,
    median_level,
    project,
)

TRUE = dict(amp=0.6, center=52.0, width=6.0, skew=0.15, offset=0.2)


def make_profile(n=128, **overrides):
    params = dict(TRUE)
    params.update(overrides)
    x = np.arange(n, dtype=float)
    return dip_model(x, **params), params


def test_dip_model_shape():
    """Inverted Ricker: minimum at the center, shoulders above the offset."""
    x = np.arange(128, dtype=float)
    y = dip_model(x, amp=0.5, center=64.0, width=5.0, skew=0.0, offset=0.1)
    assert np.argmin(y) == 64
    assert y[64] == pytest.approx(0.1 - 0.5)
    assert y.max() > 0.1  # shoulders rise above the background level
    # far away the profile returns to the offset
    assert y[0] == pytest.approx(0.1, abs=1e-12)


def test_project_column_means():
    img = GrayImage(np.array([[0.0, 1.0], [1.0, 1.0]]))
    np.testing.assert_allclose(project(img), [0.5, 1.0])


def test_median_level_tracks_slow_background():
    """The running median follows a slow ramp and ignores a narrow dip.

    On a sloped background the dipped samples displace the window median
    by a few rank positions, so a small bias near the dip is expected;
    what matters is that the level is nowhere dragged toward the dip
    floor, which sits 0.5 below the background.
    """
    x = np.arange(160, dtype=float)
    slow = 0.3 + 0.002 * x
    dip = -0.5 * np.exp(-0.5 * ((x - 60) / 2.5) ** 2)
    level = median_level(slow + dip)
    np.testing.assert_allclose(level[10:-10], slow[10:-10], atol=0.05)
    # at the dip centre the profile is 0.5 below background, the level is not
    assert level[60] > slow[60] - 0.1


def test_initial_guess_centers_on_minimum():
    y, params = make_profile(skew=0.0)
    amp, center, width, skew, offset = initial_guess(y)
    assert center == pytest.approx(params["center"], abs=1.0)
    assert skew == 0.0
    assert amp > 0 and width > 0


def test_fit_recovers_noiseless_parameters():
    y, params = make_profile()
    fit = fit_profile(y)
    assert fit.amp == pytest.approx(params["amp"], rel=1e-6)
    assert fit.center == pytest.approx(params["center"], rel=1e-6)
    assert fit.width == pytest.approx(params["width"], rel=1e-6)
    assert fit.skew == pytest.approx(params["skew"], rel=1e-6)
    assert fit.offset == pytest.approx(params["offset"], rel=1e-6)
    assert fit.residual_std < 1e-8
    assert fit.iterations <= 50


def test_fit_symmetric_profile_has_zero_skew():
    y, _ = make_profile(skew=0.0)
    fit = fit_profile(y)
    assert abs(fit.skew) < 1e-4


def test_fit_mirror_negates_skew():
    y, params = make_profile()
    fit = fit_profile(y)
    mirror = fit_profile(y[::-1].copy())
    assert mirror.skew == pytest.approx(-fit.skew, abs=1e-3)
    assert mirror.center == pytest.approx(len(y) - 1 - params["center"], abs=1e-3)
    assert mirror.width == pytest.approx(fit.width, rel=1e-6)


def test_fit_translation_equivariance():
    x = np.arange(128, dtype=float)
    base = dip_model(x, **TRUE)
    shifted = dip_model(x, **{**TRUE, "center": TRUE["center"] + 9.0})
    assert fit_profile(shifted).center == pytest.approx(
        fit_profile(base).center + 9.0, abs=1e-3
    )


def test_fit_reduces_cost_from_initial_guess():
    rng = np.random.default_rng(2)
    y, _ = make_profile()
    noisy = y + 0.01 * rng.standard_normal(len(y))
    x = np.arange(len(noisy), dtype=float)
    start = np.std(dip_model(x, *initial_guess(noisy)) - noisy)
    fit = fit_profile(noisy)
    assert fit.residual_std <= start + 1e-12


def test_fit_rejects_pure_noise():
    rng = np.random.default_rng(9)
    with pytest.raises(FitError):
        fit_profile(0.02 * rng.standard_normal(100))


def test_fit_rejects_short_profiles():
    with pytest.raises(FitError, match="at least 8"):
        fit_profile(np.zeros(5))


def _fit_from(monkeypatch, guess, profile):
    """fit_profile(profile) started from ``guess`` instead of initial_guess."""
    monkeypatch.setattr(physfit, "initial_guess", lambda y: guess)
    return fit_profile(profile)


def test_fit_from_negative_width_reports_positive_width(monkeypatch):
    """(width, skew) and (-width, -skew) are one model; the fit reports the
    positive width."""
    y, params = make_profile()
    fit = _fit_from(monkeypatch, (0.55, 51.0, -5.0, -0.1, 0.21), y)
    assert fit.width == pytest.approx(params["width"], abs=1e-6)
    assert fit.skew == pytest.approx(params["skew"], abs=1e-6)


@pytest.mark.parametrize("guess, profile, message", [
    ((0.2, 40.0, 0.2, 0.0, 0.2), np.where(np.arange(128) == 40, 0.0, 0.2),
     "fitted width 0.141 below 0.5 pixels"),
    ((-0.55, 51.0, 5.0, 0.1, 0.21), 0.4 - make_profile()[0], "fitted amplitude -0.6 is negative"),
    ((0.6, 52.0, float("nan"), 0.15, 0.2), make_profile()[0],
     "fit diverged to non-finite parameters"),
], ids=["one-pixel-dip", "bump", "nan-start"])
def test_fit_rejects_unusable_optimum(monkeypatch, guess, profile, message):
    with pytest.raises(FitError, match=message):
        _fit_from(monkeypatch, guess, profile)

def dip_image():
    x = np.arange(96, dtype=float)
    profile = dip_model(x, amp=0.5, center=40.0, width=5.0, skew=0.1, offset=0.6)
    return GrayImage(np.tile(profile, (48, 1)))


def test_fit_image_end_to_end():
    """Column projection of a 2D dip image recovers the dip geometry."""
    fit = fit_image(dip_image())
    assert fit.center == pytest.approx(40.0, abs=0.5)
    assert fit.width == pytest.approx(5.0, rel=0.2)


def test_fit_image_rejects_flat_image():
    """A constant image has a zero-range profile: no dip, not a tiny one."""
    with pytest.raises(FitError, match="flat profile"):
        fit_image(GrayImage(np.full((48, 96), 0.7)))


def table_row(name):
    return FeatureRow(name, 4.0, 6.0, 0.785, 0.5, 0.25, 1.0, 1.26, 0.5, 0.75,
                      2.5, 1.68, 0.992, 0.667, "lbl")


def test_fit_rows_failing_fit_gives_nan_columns():
    noise = GrayImage(np.random.default_rng(0).random((48, 96)))
    with pytest.raises(FitError, match=r"dip amplitude .* below 3.0 x residual noise"):
        fit_image(noise)
    rows, failed = fit_rows([table_row("noise"), table_row("dip")], [noise, dip_image()])
    assert failed == 1
    assert rows[0].has_pf and rows[0].pf_failed
    assert all(np.isnan(rows[0].value(c)) for c in ("pf_center", "pf_width", "pf_offset"))
    assert not rows[1].pf_failed
    assert rows[1].pf_center == fit_image(dip_image()).center
    assert rows[1].q_tl == table_row("dip").q_tl and rows[1].id == "dip"


def test_fit_rows_propagates_other_errors(monkeypatch):
    def explode(img):
        raise RuntimeError("not a fit failure")

    monkeypatch.setattr(physfit, "fit_image", explode)
    with pytest.raises(RuntimeError, match="not a fit failure"):
        fit_rows([table_row("x")], [dip_image()])
