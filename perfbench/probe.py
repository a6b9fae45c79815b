"""Extra calls made only by the traced run.

Two kinds: stage fill-ins, which run a reduced form of any stage the
workload itself skipped so every layer metric has spans on every
workload, and serial micro-calls, timed one at a time in the main thread
with tracing paused.  A micro-call whose library function a refactor
removed leaves its metrics absent.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback

import tracing

# Boosting rounds for the cross-validation fill-in; the full 1x6 report
# takes about 25 s, which only model-ref pays.
FILL_CV_ROUNDS = 50
PROBE_SIZE = (128, 64)


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _measure(values: dict, absent: list, names: tuple, fn) -> None:
    """Store fn()'s metrics; a library function that no longer exists
    marks ``names`` absent instead of stopping the run."""
    try:
        values.update(fn())
    except AttributeError:
        traceback.print_exc(file=sys.stderr)
        absent.extend(names)


def probe_images(lib, seed: int, count: int):
    spec = lib.synthgen.SynthSpec(PROBE_SIZE[0], PROBE_SIZE[1], count - count // 4 - 1,
                                  count // 4, 1, noise_sigma=0.02, seed=seed)
    return spec, *lib.synthgen.generate(spec)


def fill_stages(lib, bench, tracer, usage, done: set) -> None:
    """Run a reduced form of each stage in ``{"extract","cv","train","stream"} - done``.

    Spans of a fill-in are tagged ``fill-<stage>``.
    """
    if "train" not in done:
        tracer.phase = "fill-train"
        with usage.stage("train"):
            bench.train_model_request()
    if "cv" not in done:
        tracer.phase = "fill-cv"
        config = lib.ebm.TrainConfig(max_rounds=FILL_CV_ROUNDS, seed=bench.seed)
        with usage.stage("cv"):
            lib.harness.run_cv(bench.reference_rows(), "GF+EGF", repeats=1, k=6,
                               seed=bench.seed, config=config)
    if "extract" not in done:
        tracer.phase = "fill-extract"
        _, dataset, truth = probe_images(lib, bench.seed, 10)
        folder = bench.write_batch(dataset, range(len(dataset)), "probe-extract")
        with usage.stage("extract"):
            rows = lib.features.tabularize(lib.dataio.load_dataset(folder))
            lib.dataio.write_feature_table(rows, folder / "features.csv")
        dips = {t.filename: t.dip_col for t in truth}
        bench.record_rows(rows, dips, PROBE_SIZE[0])
    if "stream" not in done:
        tracer.phase = "fill-stream"
        with usage.stage("stream"):
            for image, truth in bench.stream_requests()[:4]:
                row, _ = bench.stream_request(image, truth.filename)
                bench.record_rows([row], {truth.filename: truth.dip_col}, image.width)


def micro_calls(lib, bench) -> tuple[dict, list]:
    values: dict = {}
    absent: list = []
    _, dataset, _ = probe_images(lib, bench.seed, 40)
    images = dataset.images
    gabor, features = lib.gabor, lib.features

    def convolve_widths():
        flat = features.flatten_background(images[0])
        out = {}
        for sx in (2, 16):
            params = gabor.GaborParams(sigma_x=sx, sigma_y=sx, lam=2.0 * math.pi / 8.0)
            kernel = gabor.make_kernel(params, dc_correct=True)
            out[f"gabor.convolve_ms.sx{sx}"] = 1e3 * _median_time(
                lambda: gabor.convolve(flat, kernel), 7)
        return out

    _measure(values, absent, ("gabor.convolve_ms.sx2", "gabor.convolve_ms.sx16"), convolve_widths)

    def serial_extract():
        picked = images[:3]
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        times = []
        for n, img in enumerate(picked):
            start = time.perf_counter()
            features.extract_features(img, f"probe{n}", "")
            times.append(time.perf_counter() - start)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return {"features.extract_ms_serial": 1e3 * statistics.median(times),
                "gabor.minor_faults_per_image": faults / len(picked)}

    _measure(values, absent, ("features.extract_ms_serial", "gabor.minor_faults_per_image"),
             serial_extract)

    rows = bench.reference_rows()
    matrix, names, labels, _ = lib.harness.build_matrix(rows, "GF+EGF")

    def serial_train():
        y = [1.0 if label == "vortex" else 0.0 for label in labels]
        start = time.perf_counter()
        lib.ebm.train_binary(matrix, y, lib.ebm.TrainConfig(), names)
        return {"ebm.train_binary_s_serial": time.perf_counter() - start}

    _measure(values, absent, ("ebm.train_binary_s_serial",), serial_train)

    def predict():
        ens = bench.model
        batch = _median_time(lambda: lib.ebm.predict_ovr(ens, matrix), 5)
        single = _median_time(lambda: lib.ebm.predict_ovr(ens, matrix[:1]), 201)
        return {"ebm.predict_ovr_us_per_row": 1e6 * batch / len(matrix),
                "ebm.predict_ovr_us_single": 1e6 * single}

    _measure(values, absent, ("ebm.predict_ovr_us_per_row", "ebm.predict_ovr_us_single"), predict)

    def physics():
        times, iterations = [], []
        for img in images[:20]:
            start = time.perf_counter()
            try:
                fit = lib.physfit.fit_image(img)
            except lib.errors.FitError:
                fit = None
            times.append(time.perf_counter() - start)
            if fit is not None:
                iterations.append(fit.iterations)
        return {"physfit.fit_image_ms": 1e3 * statistics.median(times),
                "physfit.fit_success_ratio": len(iterations) / len(times),
                "physfit.iterations_p50": statistics.median(iterations) if iterations else None}

    _measure(values, absent, ("physfit.fit_image_ms", "physfit.fit_success_ratio",
                              "physfit.iterations_p50"), physics)

    def synth():
        spec, _, _ = probe_images(lib, bench.seed, 40)
        return {"synthgen.generate_ms_per_image":
                1e3 * _median_time(lambda: lib.synthgen.generate(spec), 3) / 40}

    _measure(values, absent, ("synthgen.generate_ms_per_image",), synth)

    def files():
        folder = bench.write_batch(dataset, range(len(dataset)), "probe-io")
        write = _median_time(
            lambda: [lib.dataio.write_pgm(img, folder / name)
                     for img, name in zip(images, dataset.names)], 3)
        load = _median_time(lambda: lib.dataio.load_dataset(folder), 3)
        table = folder / "features.csv"
        table_write = _median_time(lambda: lib.dataio.write_feature_table(rows, table), 3)
        table_read = _median_time(lambda: lib.dataio.read_feature_table(bench.reference_table), 3)
        return {"dataio.write_pgm_ms_per_image": 1e3 * write / len(images),
                "dataio.load_ms_per_image": 1e3 * load / len(images),
                "dataio.table_write_ms": 1e3 * table_write,
                "dataio.table_read_ms": 1e3 * table_read}

    _measure(values, absent, ("dataio.write_pgm_ms_per_image", "dataio.load_ms_per_image",
                              "dataio.table_write_ms", "dataio.table_read_ms"), files)
    values["util.threads"] = lib.util.thread_count()
    return values, absent


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, on a no-op function."""
    tracer = tracing.Tracer()

    def noop():
        return None

    plain = _median_time(lambda: [noop() for _ in range(calls)], 5)
    traced = _median_time(lambda: [tracer.call("noop", noop, (), {}) for _ in range(calls)], 5)
    return max(traced - plain, 0.0) / calls
