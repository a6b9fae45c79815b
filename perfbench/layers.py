"""Per-layer metrics: what each one measures and which end-to-end metric it
should move, plus their computation from one traced run.

Each entry of ``LAYER_METRICS`` is (name, unit, better, moves), where
``moves`` names the end-to-end metric and workload the layer metric is
expected to explain.  ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import statistics

from tracing import SpanIndex, union_length

EXTRACT_MOVES = "throughput_per_s on extract-ref, latency_ms_p50 on stream-mixed"
MODEL_MOVES = "throughput_per_s and latency_ms_p50 on model-ref"

LAYER_METRICS = [
    ("gabor.convolve_calls_per_image", "count", "lower", EXTRACT_MOVES),
    ("gabor.convolve_self_ms", "ms", "lower", EXTRACT_MOVES),
    ("gabor.make_kernel_self_us", "us", "lower", EXTRACT_MOVES),
    ("gabor.convolve_ms.sx2", "ms", "lower", EXTRACT_MOVES),
    ("gabor.convolve_ms.sx16", "ms", "lower", EXTRACT_MOVES),
    ("gabor.minor_faults_per_image", "count", "lower", EXTRACT_MOVES),
    ("features.extract_ms_per_image", "ms", "lower", EXTRACT_MOVES),
    ("features.extract_ms_serial", "ms", "lower", EXTRACT_MOVES),
    ("features.pool_slowdown", "ratio", "lower", EXTRACT_MOVES),
    ("features.flatten_self_ms", "ms", "lower", EXTRACT_MOVES),
    ("features.search_self_ms", "ms", "lower", EXTRACT_MOVES),
    ("features.final_field_ms", "ms", "lower", EXTRACT_MOVES),
    ("features.quadrant_us", "us", "lower", EXTRACT_MOVES),
    ("features.dip_within_envelope_ratio", "ratio", "higher", "accuracy_pct on extract-ref"),
    ("features.roi_clamped_ratio", "ratio", "lower", "accuracy_pct on extract-ref and stream-mixed"),
    ("ebm.train_binary_s", "s", "lower", MODEL_MOVES),
    ("ebm.train_binary_s_serial", "s", "lower", MODEL_MOVES),
    ("ebm.pool_slowdown", "ratio", "lower", MODEL_MOVES),
    ("ebm.pairs_per_model", "count", "lower", MODEL_MOVES),
    ("ebm.predict_ovr_us_per_row", "us", "lower", "throughput_per_s on model-ref"),
    ("ebm.predict_ovr_us_single", "us", "lower", "latency_ms_p50 on stream-mixed"),
    ("ebm.save_model_ms", "ms", "lower", "latency_ms_p50 on model-ref"),
    ("ebm.explain_ms", "ms", "lower", "latency_ms_p50 on model-ref"),
    ("harness.cv_cell_s", "s", "lower", "throughput_per_s on model-ref"),
    ("harness.cv_self_s", "s", "lower", "throughput_per_s on model-ref"),
    ("dataio.load_ms_per_image", "ms", "lower", "throughput_per_s on extract-ref"),
    ("dataio.table_write_ms", "ms", "lower", "throughput_per_s on extract-ref"),
    ("dataio.table_read_ms", "ms", "lower", "throughput_per_s on model-ref"),
    ("dataio.write_pgm_ms_per_image", "ms", "lower", "setup_s on extract-ref"),
    ("synthgen.generate_ms_per_image", "ms", "lower", "setup_s on extract-ref and stream-mixed"),
    ("render.svg_ms", "ms", "lower", "latency_ms_p50 on model-ref"),
    ("cli.import_s", "s", "lower", "setup_s on every workload"),
    ("physfit.fit_image_ms", "ms", "lower", "none: no workload fits profiles (about 1 ms per image)"),
    ("physfit.fit_success_ratio", "ratio", "higher", "none: no workload fits profiles"),
    ("physfit.iterations_p50", "count", "lower", "none: no workload fits profiles"),
    ("util.threads", "count", "higher", "every timing metric; the thread cap they ran with"),
] + [
    (f"util.{kind}.{stage}", "ratio", better, moves)
    for stage, moves in (
        ("extract", "throughput_per_s on extract-ref"),
        ("cv", "throughput_per_s on model-ref"),
        ("train", "latency_ms_p50 on model-ref"),
        ("stream", "latency_ms_p50 on stream-mixed"),
    )
    for kind, better in (("cpu_util", "higher"), ("sys_share", "lower"))
] + [
    ("trace.overhead_pct", "%", "lower", "none: share of the traced run spent in the tracer"),
]

def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else None


def _ratio(a, b):
    return a / b if a is not None and b else None


def span_metrics(index: SpanIndex) -> dict:
    """Layer metrics read from spans; a metric with no spans is None."""
    out = {}
    extracts = index.named("features.extract_features")
    names = {s.name for s in index.spans}

    def per_extract(part: str, value):
        # None when the part was never traced, so it is not read as zero.
        return _mean(value(s) for s in extracts) if part in names else None

    out["gabor.convolve_calls_per_image"] = per_extract(
        "gabor.convolve",
        lambda s: sum(1 for d in index.descendants(s) if d.name == "gabor.convolve"))
    out["gabor.convolve_self_ms"] = _mean(1e3 * index.self_time(s) for s in index.named("gabor.convolve"))
    out["gabor.make_kernel_self_us"] = _mean(1e6 * index.self_time(s) for s in index.named("gabor.make_kernel"))
    in_pool = index.named("features.extract_features",
                          lambda s: index.parent_name(s) == "features.pool_item")
    out["features.extract_ms_per_image"] = _mean(1e3 * s.duration for s in in_pool)
    out["features.flatten_self_ms"] = _mean(1e3 * index.self_time(s) for s in index.named("features.flatten"))
    out["features.search_self_ms"] = _mean(1e3 * index.self_time(s) for s in index.named("features.search"))

    def direct(span, prefix):
        return sum(k.duration for k in index.children.get(span.id, []) if k.name.startswith(prefix))

    out["features.final_field_ms"] = per_extract("gabor.convolve", lambda s: 1e3 * direct(s, "gabor."))
    out["features.quadrant_us"] = per_extract("features.quadrant",
                                              lambda s: 1e6 * direct(s, "features.quadrant"))

    # The cv fill-in trains with fewer rounds, so its models are left out.
    trained = index.named("ebm.train_binary", lambda s: s.phase != "fill-cv"
                          and index.parent_name(s) == "ebm.pool_item")
    out["ebm.train_binary_s"] = _mean(s.duration for s in trained)
    out["ebm.pairs_per_model"] = _mean(s.note for s in index.named("ebm.train_binary") if s.note is not None)
    out["ebm.save_model_ms"] = _mean(1e3 * s.duration for s in index.named("ebm.save_model"))
    out["ebm.explain_ms"] = _mean(1e3 * s.duration for s in index.named("ebm.explain_global"))
    out["render.svg_ms"] = _mean(1e3 * s.duration for s in index.named("render.write_explanation_svgs"))

    cells = index.named("harness.cell", lambda s: index.parent_name(s) == "harness.run_cv")
    out["harness.cv_cell_s"] = _mean(s.duration for s in cells)

    def cv_self(run):
        ebm_time = [(d.start, d.end) for d in index.descendants(run) if d.name.startswith("ebm.")]
        return run.duration - union_length(ebm_time, run.start, run.end)

    out["harness.cv_self_s"] = _mean(cv_self(s) for s in index.named("harness.run_cv"))
    return out


def combine(spans: dict, micro: dict, usage: dict, extra: dict) -> dict:
    """Merge span, micro-call and stage-usage figures into the named metrics."""
    values = dict(spans)
    values.update(micro)
    values.update(extra)
    values["features.pool_slowdown"] = _ratio(values.get("features.extract_ms_per_image"),
                                              values.get("features.extract_ms_serial"))
    values["ebm.pool_slowdown"] = _ratio(values.get("ebm.train_binary_s"),
                                         values.get("ebm.train_binary_s_serial"))
    for stage, (wall, user, system) in usage.items():
        cpu = user + system
        values[f"util.cpu_util.{stage}"] = _ratio(cpu, wall)
        values[f"util.sys_share.{stage}"] = _ratio(system, cpu)
    return values
