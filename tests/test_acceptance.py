"""Acceptance checks covering the full pipeline.

Each test prints one "[PASS]"/"[FAIL]" line with its measured numbers
(visible under ``pytest -s``) and then asserts, so both the verbose test
listing and the captured output read as a scoreboard.

The three end-to-end tests share one synthetic experiment: 600 images at
128x64 rendered with seed 7, featurized, cross-validated, and explained.
The determinism test repeats that experiment from scratch and compares
artifacts byte for byte.
"""

import bisect
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from gaborboost.dataio import (
    GrayImage,
    load_dataset,
    read_feature_table,
    write_feature_table,
)
from gaborboost.ebm import (
    OvrEnsemble,
    TrainConfig,
    explain_global,
    predict_logit,
    predict_proba,
    save_model,
    train_binary,
)
from gaborboost.features import (
    default_grid,
    grid_optimize,
    integral_image,
    box_sum,
    quad_responses,
    tabularize,
    two_step_optimize,
)
from gaborboost.gabor import GaborParams, convolve, make_kernel
from gaborboost.harness import run_cv, train_final, write_report
from gaborboost.physfit import dip_model, fit_profile
from gaborboost.synthgen import SynthSpec, generate, write_dataset
from oracles import convolve_direct


def _verdict(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


# ---------------------------------------------------------------------------
# kernels and convolution


def test_criterion_01_kernel_symmetry_and_origin():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_sym = 0.0
    worst_origin = 0.0
    for _ in range(100):
        p = GaborParams(
            sigma_x=rng.uniform(0.5, 6.0),
            sigma_y=rng.uniform(0.5, 6.0),
            theta=rng.uniform(0.0, 2.0 * math.pi),
            lam=rng.uniform(0.0, 2.0),
        )
        k = make_kernel(p, dc_correct=False)
        worst_sym = max(worst_sym, float(np.abs(k[::-1, ::-1] - np.conj(k)).max()))
        expected = 1.0 / (math.sqrt(2.0 * math.pi) * p.sigma_x * p.sigma_y)
        origin = k[k.shape[0] // 2, k.shape[1] // 2]
        worst_origin = max(worst_origin, abs(origin - expected) / expected)
    elapsed = time.perf_counter() - start
    ok = worst_sym <= 1e-14 and worst_origin <= 1e-12 and elapsed < 1.0
    _verdict(
        ok,
        f"criterion 1: kernel conjugate symmetry (max err {worst_sym:.2e}) and "
        f"origin value (max rel {worst_origin:.2e}) over 100 draws in {elapsed:.2f}s",
    )


def test_criterion_02_convolution_backends_agree():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        h = int(rng.integers(8, 65))
        w = int(rng.integers(8, 65))
        img = GrayImage(rng.standard_normal((h, w)))
        sigma_cap = min(4.0, min(h, w) / 3.0)
        p = GaborParams(
            sigma_x=rng.uniform(0.8, sigma_cap),
            sigma_y=rng.uniform(0.8, sigma_cap),
            theta=rng.uniform(0.0, 2.0 * math.pi),
            lam=rng.uniform(0.0, 1.5),
        )
        kernel = make_kernel(p, dc_correct=True)
        mag_fft = np.abs(convolve(img, kernel))
        mag_direct = np.abs(convolve_direct(img, kernel))
        scale = max(float(mag_fft.max()), 1.0)
        worst = max(worst, float(np.abs(mag_fft - mag_direct).max()) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _verdict(
        ok,
        f"criterion 2: direct vs FFT magnitudes within {worst:.2e} relative "
        f"on 200 images in {elapsed:.1f}s",
    )


def test_criterion_03_integral_image_rectangles():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        field = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        ii = integral_image(field)
        r0, r1 = sorted(rng.integers(0, 32, size=2))
        c0, c1 = sorted(rng.integers(0, 32, size=2))
        fast = box_sum(ii, int(r0), int(r1), int(c0), int(c1))
        brute = float((np.abs(field[r0 : r1 + 1, c0 : c1 + 1]) ** 2).sum())
        worst = max(worst, abs(fast - brute) / max(brute, 1e-30))
    ok = worst <= 1e-9
    _verdict(ok, f"criterion 3: 4-corner box sums within {worst:.2e} relative of brute force")


# ---------------------------------------------------------------------------
# parameter search


def test_criterion_04_two_step_matches_full_grid():
    rng = np.random.default_rng(42)
    grid = default_grid(128, 64)
    combos = [
        (sx, sy, lam)
        for sx in grid.sigma_x
        for sy in grid.sigma_y
        for lam in grid.lam
        if lam * sx >= 2.5 and 3.0 * sy <= 32.0
    ]
    expected_two = len(grid.sigma_y) * len(grid.lam) + len(grid.sigma_x)
    col = np.arange(128, dtype=np.float64)[None, :]
    row = np.arange(64, dtype=np.float64)[:, None]

    agree = 0
    counts_exact = True
    for _ in range(100):
        sx, sy, lam = combos[int(rng.integers(len(combos)))]
        xc = 64 + int(rng.integers(-8, 9))
        yc = 32 + int(rng.integers(-4, 5))
        amp = rng.uniform(0.5, 1.5)
        packet = (
            amp
            * np.exp(-((col - xc) ** 2 / (2.0 * sx**2) + (row - yc) ** 2 / (2.0 * sy**2)))
            * np.cos(lam * (col - xc))
        )
        img = GrayImage(packet)
        full = grid_optimize(img, grid)
        two = two_step_optimize(img, grid)
        if (two.sigma_x, two.sigma_y, two.lam) == (full.sigma_x, full.sigma_y, full.lam):
            agree += 1
        counts_exact = counts_exact and two.evaluations == expected_two
        counts_exact = counts_exact and full.evaluations == grid.size
    ok = agree >= 95 and counts_exact
    _verdict(
        ok,
        f"criterion 4: two-step argmax agrees with full grid on {agree}/100 packets "
        f"using exactly {expected_two} vs {grid.size} evaluations",
    )


def test_criterion_05_quadrant_partition_and_flip():
    rng = np.random.default_rng(505)
    worst_partition = 0.0
    for _ in range(50):
        field = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        ii = integral_image(field)
        half_w = int(rng.integers(2, 7))
        half_h = int(rng.integers(2, 7))
        x = int(rng.integers(half_w, 40 - half_w))
        y = int(rng.integers(half_h, 40 - half_h))
        tl, tr, bl, br, clamped = quad_responses(ii, (x, y), (half_w, half_h))
        assert not clamped
        power = 0.0
        for r0, r1, c0, c1 in (
            (y - half_h, y - 1, x - half_w, x - 1),
            (y - half_h, y - 1, x + 1, x + half_w),
            (y + 1, y + half_h, x - half_w, x - 1),
            (y + 1, y + half_h, x + 1, x + half_w),
        ):
            power += float((np.abs(field[r0 : r1 + 1, c0 : c1 + 1]) ** 2).sum())
        union_norm = math.sqrt(power)
        combined = math.sqrt(tl**2 + tr**2 + bl**2 + br**2)
        worst_partition = max(worst_partition, abs(combined - union_norm) / union_norm)

    worst_flip = 0.0
    for _ in range(50):
        field = rng.standard_normal((36, 44)) + 1j * rng.standard_normal((36, 44))
        half_w = int(rng.integers(2, 7))
        half_h = int(rng.integers(2, 7))
        x = int(rng.integers(half_w, 44 - half_w))
        y = int(rng.integers(half_h, 36 - half_h))
        quads = quad_responses(integral_image(field), (x, y), (half_w, half_h))[:4]
        mirrored = quad_responses(
            integral_image(field[:, ::-1]), (43 - x, y), (half_w, half_h)
        )[:4]
        # left/right swap within each row of quadrants
        for got, want in zip(mirrored, (quads[1], quads[0], quads[3], quads[2])):
            worst_flip = max(worst_flip, abs(got - want) / max(want, 1e-30))
    ok = worst_partition <= 1e-6 and worst_flip <= 1e-6
    _verdict(
        ok,
        f"criterion 5: quadrant root-sum-square matches ROI norm within "
        f"{worst_partition:.2e} and flip swaps quadrants within {worst_flip:.2e}",
    )


# ---------------------------------------------------------------------------
# model recovery and modularity


def test_criterion_06_shape_recovery_and_bayes_accuracy():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    n = 5000
    x = rng.uniform(-3.0, 3.0, (n, 2))
    eta = 0.5 + np.sin(x[:, 0]) + (x[:, 1] ** 2 - 3.0)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    model = train_binary(x, y, TrainConfig(max_bins=16, max_pairs=0, seed=0))

    learned_sin = model.shapes[0].lookup(x)
    learned_sq = model.shapes[1].lookup(x)
    true_sin = np.sin(x[:, 0]) - np.sin(x[:, 0]).mean()
    true_sq = (x[:, 1] ** 2) - (x[:, 1] ** 2).mean()
    r_sin = float(np.corrcoef(learned_sin, true_sin)[0, 1])
    r_sq = float(np.corrcoef(learned_sq, true_sq)[0, 1])

    x_test = np.random.default_rng(5678).uniform(-3.0, 3.0, (20000, 2))
    eta_test = 0.5 + np.sin(x_test[:, 0]) + (x_test[:, 1] ** 2 - 3.0)
    p_test = 1.0 / (1.0 + np.exp(-eta_test))
    y_test = (np.random.default_rng(9999).random(20000) < p_test).astype(float)
    accuracy = float(((predict_proba(model, x_test) > 0.5) == y_test).mean())

    def bayes_rate(x2, x1):
        p = 1.0 / (1.0 + np.exp(-(0.5 + np.sin(x1) + (x2**2 - 3.0))))
        return max(p, 1.0 - p) / 36.0

    bayes, quad_err = integrate.dblquad(bayes_rate, -3.0, 3.0, -3.0, 3.0, epsabs=1e-10)
    assert quad_err < 1e-6
    gap = abs(bayes - accuracy)
    elapsed = time.perf_counter() - start
    ok = r_sin >= 0.95 and r_sq >= 0.95 and gap <= 0.02 and elapsed < 120.0
    _verdict(
        ok,
        f"criterion 6: shape correlations r={r_sin:.3f}/{r_sq:.3f}, accuracy "
        f"{accuracy:.4f} vs Bayes {bayes:.4f} (gap {100 * gap:.2f}pp) in {elapsed:.1f}s",
    )


def _logit_from_serialized(obj: dict, row: np.ndarray) -> float:
    """Score one row using only the saved JSON object and bisect."""

    def locate(cuts: list, value: float) -> int:
        if math.isnan(value):
            return len(cuts) + 1
        return bisect.bisect_right(cuts, value)

    logit = obj["intercept"]
    for shape in obj["shapes"]:
        feature = shape["feature"]
        logit += shape["scores"][locate(obj["bins"][feature], row[feature])]
    for pair in obj["pairs"]:
        bi = locate(pair["cuts_i"], row[pair["i"]])
        bj = locate(pair["cuts_j"], row[pair["j"]])
        logit += pair["grid"][bi][bj]
    return logit


def test_criterion_07_predictions_decompose_into_lookups(tmp_path):
    rng = np.random.default_rng(707)
    table = rng.normal(size=(300, 5))
    y = (table[:, 0] + table[:, 1] * table[:, 2] > 0).astype(float)
    model = train_binary(table, y, TrainConfig(max_pairs=3, seed=0))
    path = tmp_path / "model.json"
    save_model(OvrEnsemble(("pos",), [model]), path)
    obj = json.loads(path.read_text())["models"][0]

    probe = rng.normal(size=(1000, 5))
    probe[rng.random(probe.shape) < 0.05] = np.nan
    expected = predict_logit(model, probe)
    worst = max(
        abs(_logit_from_serialized(obj, probe[i]) - expected[i]) for i in range(1000)
    )
    ok = worst <= 1e-12
    _verdict(
        ok,
        f"criterion 7: serialized per-bin lookups reproduce 1000 logits "
        f"within {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# end-to-end synthetic experiment


def _run_pipeline(root: Path) -> dict:
    start = time.perf_counter()
    spec = SynthSpec(
        width=128, height=64, n_longitudinal=400, n_partial=150, n_vortex=50,
        noise_sigma=0.02, seed=7,
    )
    dataset, truths = generate(spec)
    data_dir = root / "data"
    write_dataset(dataset, truths, data_dir)

    rows = tabularize(load_dataset(data_dir))
    table_path = root / "features.csv"
    write_feature_table(rows, table_path)
    rows = read_feature_table(table_path)

    report = run_cv(rows, "GF+EGF", repeats=1, k=6, seed=0)
    report_path = root / "report.json"
    write_report(report, report_path)

    ensemble, _ = train_final(rows, "GF+EGF")
    model_path = root / "model.json"
    save_model(ensemble, model_path)
    bundle = explain_global(ensemble)
    return {
        "elapsed": time.perf_counter() - start,
        "report": report,
        "bundle": bundle,
        "table_path": table_path,
        "report_path": report_path,
        "model_path": model_path,
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return _run_pipeline(tmp_path_factory.mktemp("experiment") / "run_a")


def _family_rank(ranking: list[str], members: set[str]) -> float:
    """Best rank of any term built from the given base features."""
    for position, term in enumerate(ranking):
        if set(term.split(" x ")) & members:
            return position
    return math.inf


def test_criterion_08_synthetic_experiment(pipeline):
    aggregates = pipeline["report"].aggregates
    accuracy = aggregates["accuracy"]["mean"]
    vortex_precision = aggregates["precision"]["vortex"]["mean"]

    vortex_terms = [
        name for name, _ in pipeline["bundle"]["per_class"]["vortex"]["importances"]
    ]
    asym_in_top7 = bool(
        {"egf_bl_br", "egf_tr_br"} & set(vortex_terms[:7])
    )
    trbr_rank = _family_rank(vortex_terms, {"q_tr", "q_br", "egf_tr_br", "egf_bl_br"})
    x_rank = _family_rank(vortex_terms, {"x_star_norm"})

    ok = (
        accuracy >= 85.0
        and vortex_precision >= 60.0
        and asym_in_top7
        and trbr_rank < x_rank
        and pipeline["elapsed"] < 600.0
    )
    _verdict(
        ok,
        f"criterion 8: accuracy {accuracy:.1f}%, vortex precision "
        f"{vortex_precision:.1f}%, asymmetry ratio in top-7 {asym_in_top7}, "
        f"TR/BR-family rank {trbr_rank} vs x* rank {x_rank}, "
        f"pipeline {pipeline['elapsed']:.0f}s",
    )


def test_criterion_09_partial_class_uses_vertical_offset(pipeline):
    partial_terms = [
        name for name, _ in pipeline["bundle"]["per_class"]["partial"]["importances"]
    ]
    position = partial_terms.index("y_star_norm") if "y_star_norm" in partial_terms else math.inf
    ok = position < 3
    _verdict(
        ok,
        f"criterion 9: normalized vertical offset ranks #{position + 1} "
        f"for the partial class (top terms {partial_terms[:3]})",
    )


def test_criterion_10_profile_fit_self_consistency():
    rng = np.random.default_rng(1010)
    x = np.arange(128, dtype=np.float64)
    worst_rel = 0.0
    worst_mirror = 0.0
    for _ in range(100):
        truth = (
            rng.uniform(0.5, 2.0),
            rng.uniform(0.3 * 128, 0.7 * 128),
            rng.uniform(3.0, 10.0),
            float(rng.uniform(0.05, 0.3) * rng.choice([-1.0, 1.0])),
            rng.uniform(0.2, 0.8),
        )
        profile = dip_model(x, *truth)
        fit = fit_profile(profile)
        for got, want in zip(fit.params, truth):
            worst_rel = max(worst_rel, abs(got - want) / abs(want))
        mirrored = fit_profile(profile[::-1])
        worst_mirror = max(worst_mirror, abs(mirrored.skew + fit.skew))
    ok = worst_rel <= 1e-4 and worst_mirror <= 1e-3
    _verdict(
        ok,
        f"criterion 10: noiseless parameter recovery within {worst_rel:.2e} relative; "
        f"mirroring negates skew within {worst_mirror:.2e}",
    )


def test_pipeline_reproduces_committed_digests(pipeline):
    """The experiment's table, report and model are the bytes whose digests
    the benchmark's reference record commits."""
    record = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "reference.json"
    expected = json.loads(record.read_text())
    for artifact in ("table", "report", "model"):
        digest = hashlib.sha256(pipeline[f"{artifact}_path"].read_bytes()).hexdigest()
        assert digest == expected[f"{artifact}_sha256"], artifact


def test_criterion_11_experiment_is_deterministic(pipeline, tmp_path_factory):
    rerun = _run_pipeline(tmp_path_factory.mktemp("experiment") / "run_b")
    same_table = (
        pipeline["table_path"].read_bytes() == rerun["table_path"].read_bytes()
    )
    same_model = (
        pipeline["model_path"].read_bytes() == rerun["model_path"].read_bytes()
    )
    same_report = (
        pipeline["report_path"].read_bytes() == rerun["report_path"].read_bytes()
    )
    ok = same_table and same_model and same_report
    _verdict(
        ok,
        f"criterion 11: rerun artifacts byte-identical "
        f"(table {same_table}, model {same_model}, report {same_report})",
    )
