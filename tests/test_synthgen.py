"""Tests for the synthetic condensate-image generator."""

import math

import numpy as np
import pytest

from gaborboost.dataio import load_dataset
from gaborboost.errors import ConfigError
from gaborboost.features import extract_features
from gaborboost.synthgen import SynthSpec, generate, write_dataset


def test_synth_spec_rejects_bad_values():
    with pytest.raises(ConfigError):
        SynthSpec(0, 64, 1, 1, 1)
    with pytest.raises(ConfigError):
        SynthSpec(128, -1, 1, 1, 1)
    with pytest.raises(ConfigError):
        SynthSpec(128, 64, 1, -2, 1)
    with pytest.raises(ConfigError):
        SynthSpec(128, 64, 1, 1, 1, noise_sigma=-0.1)
    for noise in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="noise_sigma"):
            SynthSpec(128, 64, 1, 1, 1, noise_sigma=noise)
    with pytest.raises(ConfigError, match="seed"):
        SynthSpec(128, 64, 1, 1, 1, seed=-1)


def test_counts_names_and_truth_alignment():
    spec = SynthSpec(32, 16, 2, 1, 3, seed=5)
    dataset, truths = generate(spec)
    assert len(dataset.images) == 6
    assert dataset.labels == ["longitudinal"] * 2 + ["partial"] + ["vortex"] * 3
    assert dataset.names[0] == "longitudinal_00000.pgm"
    assert dataset.names[2] == "partial_00002.pgm"
    assert dataset.names[5] == "vortex_00005.pgm"
    for name, truth in zip(dataset.names, truths):
        assert truth.filename == name
        assert 0 <= truth.dip_col < 32


def test_generate_is_deterministic():
    spec = SynthSpec(64, 32, 2, 2, 2, noise_sigma=0.03, seed=9)
    first, truths_a = generate(spec)
    second, truths_b = generate(spec)
    assert truths_a == truths_b
    for a, b in zip(first.images, second.images):
        np.testing.assert_array_equal(a.data, b.data)


def test_noiseless_longitudinal_symmetries():
    """Without noise the longitudinal class is mirror symmetric both ways.

    The background is vertically centred and the dip carrier is even
    about the dip column, so flipping top/bottom or reflecting about the
    dip column must reproduce the image exactly.
    """
    spec = SynthSpec(128, 64, 3, 0, 0, noise_sigma=0.0, seed=11)
    dataset, truths = generate(spec)
    for img, truth in zip(dataset.images, truths):
        data = img.data
        np.testing.assert_allclose(data, data[::-1, :], atol=1e-12)
        reach = min(truth.dip_col, data.shape[1] - 1 - truth.dip_col)
        for d in range(1, reach + 1):
            np.testing.assert_allclose(
                data[:, truth.dip_col - d], data[:, truth.dip_col + d], atol=1e-12
            )


def test_partial_dip_fades_below_midline():
    spec = SynthSpec(128, 64, 0, 3, 0, noise_sigma=0.0, seed=11)
    dataset, truths = generate(spec)
    for img, truth in zip(dataset.images, truths):
        data = img.data
        cols = slice(truth.dip_col - 12, truth.dip_col + 13)
        top_range = np.ptp(data[8:24, cols], axis=1).mean()
        bottom_range = np.ptp(data[40:56, cols], axis=1).mean()
        assert top_range > 3.0 * bottom_range


def test_vortex_bottom_right_shoulder_dominates():
    """The contrast tilt pumps oscillation amplitude into the lower right."""
    spec = SynthSpec(128, 64, 0, 0, 5, noise_sigma=0.0, seed=11)
    dataset, truths = generate(spec)
    for img, truth in zip(dataset.images, truths):
        data = img.data
        rows = slice(40, 56)
        right = np.ptp(data[rows, truth.dip_col + 1 : truth.dip_col + 13], axis=1).mean()
        left = np.ptp(data[rows, truth.dip_col - 12 : truth.dip_col], axis=1).mean()
        assert right > 1.5 * left


def test_extracted_features_separate_the_classes():
    """Feature extraction sees the class signatures the generator plants."""
    spec = SynthSpec(128, 64, 2, 2, 0, noise_sigma=0.0, seed=3)
    dataset, truths = generate(spec)
    rows = [
        extract_features(img, t.filename, t.label)
        for img, t in zip(dataset.images, truths)
    ]
    for row, truth in zip(rows, truths):
        # the dip column is recovered almost exactly
        assert row.x_star == pytest.approx(truth.dip_col / 128, abs=2 / 128)
    for row in rows[:2]:  # longitudinal: symmetric every which way
        assert row.egf_tl_tr == pytest.approx(1.0, rel=0.10)
        assert row.egf_bl_br == pytest.approx(1.0, rel=0.10)
        assert row.y_star == pytest.approx(0.5, abs=0.05)
    for row in rows[2:]:  # partial: dip energy concentrated in the upper half
        assert row.y_star < 0.45

    vortex_spec = SynthSpec(128, 64, 0, 0, 5, noise_sigma=0.0, seed=3)
    vortex_ds, vortex_truths = generate(vortex_spec)
    for img, t in zip(vortex_ds.images, vortex_truths):
        row = extract_features(img, t.filename, t.label)
        assert row.egf_bl_br < 1.0
        assert row.egf_tl_tr > 1.0


def test_write_dataset_round_trip(tmp_path):
    spec = SynthSpec(32, 16, 1, 1, 1, noise_sigma=0.0, seed=2)
    dataset, truths = generate(spec)
    write_dataset(dataset, truths, tmp_path)

    assert (tmp_path / "labels.csv").exists()
    truth_lines = (tmp_path / "ground_truth.csv").read_text().splitlines()
    assert truth_lines[0] == "filename,label,dip_col,extent,asym_sign"
    assert len(truth_lines) == 4

    loaded = load_dataset(tmp_path)
    assert loaded.names == sorted(dataset.names)
    assert set(loaded.labels) == {"longitudinal", "partial", "vortex"}
    # 16-bit quantisation is the only loss on the way through PGM
    by_name = dict(zip(dataset.names, dataset.images))
    for name, img in zip(loaded.names, loaded.images):
        np.testing.assert_allclose(img.data, by_name[name].data, atol=1.0 / 65535)
