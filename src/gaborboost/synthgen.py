"""Synthetic condensate-image generator for the three excitation classes.

Each image is a Thomas-Fermi-like elliptical background multiplied by a
class-specific modulation: a vertical dip with bright shoulders for the
longitudinal class, the same dip faded out below mid-height for the
partial class, and a phase-sheared dip for the vortex class whose
bottom-right shoulder outshines the bottom-left one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import GrayImage, LabeledDataset, write_pgm
from .errors import ConfigError

CLASS_NAMES = ("longitudinal", "partial", "vortex")

# Dip geometry draws, in pixels and intensity units.  The envelope width
# and carrier period are tied together so every dip is a well-resolved
# wave packet rather than a bare smooth depression.
ENVELOPE_RANGE = (4.5, 7.0)
PERIOD_PER_SIGMA = (1.6, 2.2)
DEPTH_RANGE = (0.55, 0.80)
SHEAR_RANGE = (0.8, 1.4)
TILT_RANGE = (0.5, 0.8)
CENTER_JITTER = 0.10  # dip column drawn within +/- this fraction of width

# Vertical profiles for the class modulations, in pixels.
PARTIAL_FADE_ROWS = 2.0
PARTIAL_FLOOR = 0.12
VORTEX_SHEAR_ROWS = 2.5


@dataclass(frozen=True)
class SynthSpec:
    """Size, class counts, noise level and seed for one generated set."""

    width: int
    height: int
    n_longitudinal: int
    n_partial: int
    n_vortex: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigError(f"image size {self.width}x{self.height} must be positive")
        if min(self.n_longitudinal, self.n_partial, self.n_vortex) < 0:
            raise ConfigError("class counts must be nonnegative")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigError(f"noise_sigma must be finite and nonnegative, got {self.noise_sigma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")


@dataclass(frozen=True)
class TruthRow:
    """Generator ground truth for one image."""

    filename: str
    label: str
    dip_col: int
    extent: int
    asym_sign: int


def _background(width: int, height: int, center_col: float, rng: np.random.Generator) -> np.ndarray:
    col = np.arange(width, dtype=np.float64)[None, :]
    row = np.arange(height, dtype=np.float64)[:, None]
    # The vertical center stays exactly mid-frame so noiseless images are
    # symmetric under a top/bottom flip.
    center_row = (height - 1) / 2.0
    rx = width * rng.uniform(0.40, 0.46)
    ry = height * rng.uniform(0.38, 0.44)
    return np.clip(1.0 - ((col - center_col) / rx) ** 2 - ((row - center_row) / ry) ** 2, 0.0, None)


def _render(spec: SynthSpec, label: str, index: int) -> tuple[GrayImage, TruthRow]:
    rng = np.random.default_rng([spec.seed, index])
    width, height = spec.width, spec.height
    col = np.arange(width, dtype=np.float64)[None, :]
    row = np.arange(height, dtype=np.float64)[:, None]
    center_row = (height - 1) / 2.0

    jitter = int(round(width * CENTER_JITTER))
    dip_col = width // 2 + int(rng.integers(-jitter, jitter + 1))
    envelope = rng.uniform(*ENVELOPE_RANGE)
    period = envelope * rng.uniform(*PERIOD_PER_SIGMA)
    freq = 2.0 * np.pi / period
    depth = rng.uniform(*DEPTH_RANGE)

    xi = (col - dip_col) / envelope
    packet = np.exp(-0.5 * xi**2)
    carrier = np.cos(freq * (col - dip_col))

    if label == "longitudinal":
        mod = 1.0 - depth * carrier * packet
        extent = height
        asym = 0
    elif label == "partial":
        window = PARTIAL_FLOOR + (1.0 - PARTIAL_FLOOR) / (
            1.0 + np.exp((row - center_row) / PARTIAL_FADE_ROWS)
        )
        mod = 1.0 - depth * window * carrier * packet
        extent = height // 2
        asym = 0
    elif label == "vortex":
        # Phase shear slides the lower-half pattern by a fraction of a
        # wavelength; the contrast tilt brightens the bottom-right (and
        # top-left) shoulder so the lower halves differ in amplitude,
        # not just position.
        shear = rng.uniform(*SHEAR_RANGE)
        tilt = rng.uniform(*TILT_RANGE)
        blend = np.tanh((row - center_row) / VORTEX_SHEAR_ROWS)
        sheared = carrier + shear * blend * np.sin(freq * (col - dip_col))
        contrast = 1.0 + tilt * blend * np.tanh((col - dip_col) / envelope)
        mod = 1.0 - depth * contrast * sheared * packet
        extent = height
        asym = 1
    else:
        raise ConfigError(f"unknown class {label!r}")

    data = np.clip(_background(width, height, dip_col, rng) * mod, 0.0, None)
    # Bright shoulders can exceed the background level; rescale into
    # [0, 1] so the PGM writer never clips structure away.
    peak = float(data.max())
    if peak > 1.0:
        data = data / peak
    if spec.noise_sigma > 0:
        data = data + spec.noise_sigma * rng.standard_normal((height, width))
    name = f"{label}_{index:05d}.pgm"
    return GrayImage(data), TruthRow(name, label, dip_col, extent, asym)


def generate(spec: SynthSpec) -> tuple[LabeledDataset, list[TruthRow]]:
    """Render all requested images; deterministic for a given spec."""
    counts = (spec.n_longitudinal, spec.n_partial, spec.n_vortex)
    plan = [label for label, count in zip(CLASS_NAMES, counts) for _ in range(count)]
    rendered = [_render(spec, label, index) for index, label in enumerate(plan)]
    images = [img for img, _ in rendered]
    truths = [truth for _, truth in rendered]
    labels = [t.label for t in truths]
    names = [t.filename for t in truths]
    return LabeledDataset(images, labels, names), truths


def write_truth_csv(truths: list[TruthRow], path: str | Path) -> None:
    lines = ["filename,label,dip_col,extent,asym_sign"]
    for t in truths:
        lines.append(f"{t.filename},{t.label},{t.dip_col},{t.extent},{t.asym_sign}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_dataset(dataset: LabeledDataset, truths: list[TruthRow], out_dir: str | Path) -> None:
    """Write PGM images plus labels.csv and ground_truth.csv to a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for img, name in zip(dataset.images, dataset.names):
        write_pgm(img, out / name)
    lines = ["filename,label"]
    for name, label in zip(dataset.names, dataset.labels):
        lines.append(f"{name},{label}")
    (out / "labels.csv").write_text("\n".join(lines) + "\n")
    write_truth_csv(truths, out / "ground_truth.csv")
