"""gaborboost benchmark: three workloads through the library's public API.

Run from the repository root:

    python3 perfbench/run.py --workload extract-ref --seed 7 --seconds 10 --trace 0

Workloads (the seed makes every input; see README.md):

* extract-ref   600 reference images (128x64, 400/150/50, noise 0.02) as PGM
                files; timed: batches of load_dataset, tabularize and
                write_feature_table, in EXTRACT_WORKERS fresh processes.
* model-ref     the stored reference feature table; timed: read_feature_table
                and a GF+EGF 1x6 run_cv, then model requests (train_final,
                save_model, explain_global, write_explanation_svgs), then
                predict_ovr over the table.
* stream-mixed  one closed-loop caller classifying seeded images one at a
                time (extract_features, then predict_ovr), sizes rotating
                through 96x48, 128x64, 160x80 and 192x96.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` the same workload runs with spans
around the library's module boundaries and the line holds the per-layer
metrics instead.  Lines before it name each figure in the workload's own
terms and record the machine.  The exit code is 0 only when the run
completed; ``correct`` is false when any output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "data" / "reference.json"

WORKLOADS = ("extract-ref", "model-ref", "stream-mixed")
DEFAULT_SEED = {"extract-ref": 7, "model-ref": 0, "stream-mixed": 1}
SETUP_REPEATS = 3
FEATURE_SET = "GF+EGF"

REF_SPEC = dict(width=128, height=64, n_longitudinal=400, n_partial=150, n_vortex=50,
                noise_sigma=0.02)
BATCH_IMAGES = 10
# extract-ref measures in this many fresh processes, one after another, and
# reports the median: how many page faults an image costs (from none to
# about 40k) is settled per process by the allocator's history, and moves
# one process's extraction speed by up to a third.
EXTRACT_WORKERS = 3
CV_REPEATS, CV_K = 1, 6
MODEL_REQUESTS = 1
# Criterion 8 of the acceptance suite.
CV_ACCURACY_FLOOR = 85.0
VORTEX_PRECISION_FLOOR = 60.0
STREAM_SIZES = ((96, 48), (128, 64), (160, 80), (192, 96))
STREAM_CLASS_COUNTS = (17, 6, 2)
# Enough requests that ten latencies lie above the 90th percentile.
STREAM_MIN_REQUESTS = 100
# The generator's narrowest dip envelope, in pixels.
DIP_ENVELOPE_PX = 4.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "accuracy_pct": "%",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def import_library() -> SimpleNamespace:
    if not (SRC / "gaborboost" / "__init__.py").is_file():
        raise BenchError(f"no gaborboost sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gaborboost
    import gaborboost.cli  # noqa: F401  (the set-up time covers what the CLI imports)
    from gaborboost import (dataio, ebm, errors, features, gabor, harness, physfit, render,
                            synthgen, util)

    if SRC.resolve() not in Path(gaborboost.__file__).resolve().parents:
        raise BenchError(f"imported gaborboost from {gaborboost.__file__}, not {SRC}")
    return SimpleNamespace(dataio=dataio, ebm=ebm, errors=errors, features=features,
                           gabor=gabor, harness=harness, physfit=physfit, render=render,
                           synthgen=synthgen, util=util)


def child_import_s() -> float:
    """Import time of the CLI module in a fresh interpreter, as it measures it."""
    code = ("import time; t = time.perf_counter(); import gaborboost.cli; "
            "print(time.perf_counter() - t)")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    if done.returncode != 0:
        raise BenchError(f"child import failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.split()[-1])


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in 0..100) of a non-empty list."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def machine_facts(lib) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "GABORBOOST_THREADS": os.environ.get(lib.util.THREADS_ENV),
        "thread_count": lib.util.thread_count(),
        "platform": platform.platform(),
    }


class Outcome:
    """Operations attempted and failed, plus every failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


class Usage:
    """Process CPU and wall time per stage, kept apart for workload and probe."""

    def __init__(self) -> None:
        self.phase = "workload"
        self.totals: dict[tuple[str, str], list[float]] = {}

    @contextmanager
    def stage(self, name: str):
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            yield
        finally:
            after = resource.getrusage(resource.RUSAGE_SELF)
            total = self.totals.setdefault((self.phase, name), [0.0, 0.0, 0.0])
            total[0] += time.perf_counter() - start
            total[1] += after.ru_utime - before.ru_utime
            total[2] += after.ru_stime - before.ru_stime

    def stages(self, phase: str) -> set[str]:
        return {stage for (p, stage) in self.totals if p == phase}

    def by_stage(self) -> dict[str, list[float]]:
        merged = {stage: t for (p, stage), t in self.totals.items() if p == "probe"}
        merged.update({stage: t for (p, stage), t in self.totals.items() if p == "workload"})
        return merged


def cpu_jiffies():
    """(total, steal) CPU jiffies of the machine from /proc/stat, or None."""
    try:
        values = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(values), values[7] if len(values) > 7 else 0


def finite_row(row, columns) -> bool:
    return all(math.isfinite(float(row.value(c))) for c in columns)


class Bench:
    """State of one run: inputs, the trained model and the outcome."""

    def __init__(self, lib, workload: str, seed: int) -> None:
        self.lib = lib
        self.workload = workload
        self.seed = seed
        self.reference = json.loads(REFERENCE.read_text())
        self.reference_table = HERE / self.reference["table"]
        self.outcome = Outcome()
        self.usage = Usage()
        self.model = None
        self.inputs = None
        self.info: dict[str, tuple[float, str]] = {}
        # (phase, dip within envelope, roi clamped) for every extracted row
        self.row_checks: list[tuple[str, bool, bool]] = []
        self._requests = None
        self._rows = None

    # -- shared pieces ----------------------------------------------------

    def reference_rows(self):
        if self._rows is None:
            self._rows = self.lib.dataio.read_feature_table(self.reference_table)
        return self._rows

    def train_model_request(self, config=None):
        """One model request: train on the reference table, save, explain, draw."""
        lib = self.lib
        config = config or lib.ebm.TrainConfig()
        out = WORK / self.workload / "model"
        out.mkdir(parents=True, exist_ok=True)
        self.model, _ = lib.harness.train_final(self.reference_rows(), FEATURE_SET, config)
        lib.ebm.save_model(self.model, out / "model.json")
        bundle = lib.ebm.explain_global(self.model)
        lib.render.write_explanation_svgs(bundle, out / "svg")
        return (out / "model.json").read_bytes()

    def write_batch(self, dataset, indices, name: str) -> Path:
        folder = WORK / self.workload / name
        shutil.rmtree(folder, ignore_errors=True)
        folder.mkdir(parents=True)
        lines = ["filename,label"]
        for i in indices:
            self.lib.dataio.write_pgm(dataset.images[i], folder / dataset.names[i])
            lines.append(f"{dataset.names[i]},{dataset.labels[i]}")
        (folder / "labels.csv").write_text("\n".join(lines) + "\n")
        return folder

    def record_rows(self, rows, dip_col: dict, width: int) -> int:
        """Note each row's dip error and ROI clamp; return rows within the envelope."""
        within = 0
        for row in rows:
            ok = abs(round(row.x_star * width) - dip_col[row.id]) <= DIP_ENVELOPE_PX
            within += ok
            self.row_checks.append((self.usage.phase, ok, row.roi_clamped))
        return within

    def stream_requests(self):
        if self._requests is None:
            import numpy as np

            rng = np.random.default_rng(self.seed)
            per_size = []
            for width, height in STREAM_SIZES:
                spec = self.lib.synthgen.SynthSpec(width, height, *STREAM_CLASS_COUNTS,
                                                   noise_sigma=0.02, seed=self.seed)
                dataset, truth = self.lib.synthgen.generate(spec)
                order = rng.permutation(len(dataset))
                per_size.append([(dataset.images[i], truth[i]) for i in order])
            count = len(STREAM_SIZES) * len(per_size[0])
            self._requests = [per_size[i % len(per_size)][i // len(per_size)]
                              for i in range(count)]
        return self._requests

    def stream_request(self, image, name: str):
        lib = self.lib
        row = lib.features.extract_features(image, name, "")
        matrix, _, _ = lib.harness.matrix_from_names([row], lib.harness.FEATURE_SETS[FEATURE_SET])
        labels, _ = lib.ebm.predict_ovr(self.model, matrix)
        return row, labels[0]

    # -- set-up -----------------------------------------------------------

    def prepare(self):
        lib = self.lib
        digest = sha256(self.reference_table.read_bytes())
        if digest != self.reference["table_sha256"]:
            raise BenchError(f"{self.reference_table} digest {digest} does not match "
                             f"{REFERENCE.name}; regenerate with: {self.reference['command']}")
        if self.workload == "extract-ref":
            spec = lib.synthgen.SynthSpec(**REF_SPEC, seed=self.seed)
            dataset, truth = lib.synthgen.generate(spec)
            shutil.rmtree(WORK / self.workload, ignore_errors=True)
            n_batches = len(dataset) // BATCH_IMAGES
            batches = [self.write_batch(dataset, range(b, len(dataset), n_batches), f"batch{b:03d}")
                       for b in range(n_batches)]
            dip_col = {t.filename: t.dip_col for t in truth}
            (WORK / self.workload / "truth.json").write_text(json.dumps(dip_col))
            return {"batches": batches, "dip_col": dip_col}
        if self.workload == "model-ref":
            return {}
        self._requests = None
        return {"requests": self.stream_requests()}

    def setup(self, import_s: float) -> float:
        """Prepare the inputs SETUP_REPEATS times; return ``import_s``, this
        process's own import time, plus the median preparation time."""
        samples = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.inputs = self.prepare()
            samples.append(time.perf_counter() - start)
        self.info["import_s"] = (import_s, "s")
        self.info["prepare_s"] = (statistics.median(samples), "s")
        return import_s + statistics.median(samples)

    # -- timed parts ------------------------------------------------------

    def extract_inputs_on_disk(self) -> dict:
        """The inputs that set-up wrote, as an extract worker finds them."""
        folder = WORK / self.workload
        return {"batches": sorted(folder.glob("batch*")),
                "dip_col": json.loads((folder / "truth.json").read_text())}

    def extract_in_workers(self, seconds: float) -> dict:
        """Run the timed extraction in EXTRACT_WORKERS fresh processes in turn."""
        results = []
        for k in range(EXTRACT_WORKERS):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", self.workload,
                 "--seed", str(self.seed), "--seconds", str(seconds / EXTRACT_WORKERS),
                 "--worker", str(k)],
                cwd=ROOT, capture_output=True, text=True, timeout=150)
            if done.returncode != 0:
                raise BenchError(f"extract worker {k} failed: {done.stderr.strip()[-800:]}")
            results.append(json.loads(done.stdout.splitlines()[-1]))
        out = self.outcome
        for r in results:
            out.attempted += r["attempted"]
            out.failed += r["failed"]
            out.problems.extend(r["problems"])
        images = sum(r["images"] for r in results)
        within = sum(r["within"] for r in results)
        throughput = statistics.median(r["images"] / sum(r["latencies_s"]) for r in results)
        self.info["extract_images_per_s"] = (throughput, "1/s")
        self.info["features.dip_within_envelope_ratio"] = (within / images, "ratio")
        return {"throughput_per_s": throughput,
                "latencies_s": [x for r in results for x in r["latencies_s"]],
                "accuracy_pct": 100.0 * within / images,
                "peak_rss_mb": max(r["peak_rss_mb"] for r in results)}

    def run_extract(self, seconds: float, first: int = 0) -> dict:
        """Extract batches from ``first`` on for ``seconds``, after one
        untimed pass over batch ``first`` that the timed loop repeats."""
        lib, out = self.lib, self.outcome
        batches, dip_col = self.inputs["batches"], self.inputs["dip_col"]
        columns = lib.dataio.BASE_COLUMNS[1:]
        reference = None
        if self.seed == DEFAULT_SEED["extract-ref"]:
            lines = self.reference_table.read_text().splitlines()[1:]
            reference = {line.split(",", 1)[0]: line for line in lines}

        def batch(b):
            folder = batches[b % len(batches)]
            start = time.perf_counter()
            rows = lib.features.tabularize(lib.dataio.load_dataset(folder))
            lib.dataio.write_feature_table(rows, folder / "features.csv")
            return time.perf_counter() - start, rows, (folder / "features.csv").read_bytes()

        tables = {first % len(batches): sha256(batch(first)[2])}  # warm-up
        latencies, images, within = [], 0, 0
        start = time.perf_counter()
        b = first
        with self.usage.stage("extract"):
            while b == first or time.perf_counter() - start < seconds:
                try:
                    latency, rows, table = batch(b)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    out.op(False, f"batch {b} raised", BATCH_IMAGES)
                    b += 1
                    continue
                latencies.append(latency)
                images += len(rows)
                within += self.record_rows(rows, dip_col, REF_SPEC["width"])
                digest = tables.setdefault(b % len(batches), sha256(table))
                same_table = digest == sha256(table)
                lines = table.decode().splitlines()[1:]
                for row, line in zip(rows, lines):
                    ok = finite_row(row, columns) and same_table
                    if reference is not None:
                        ok = ok and reference.get(row.id) == line
                    out.op(ok, f"batch {b} row {row.id}")
                b += 1
        throughput = images / sum(latencies)
        self.info["extract_images_per_s"] = (throughput, "1/s")
        self.info["features.dip_within_envelope_ratio"] = (within / images, "ratio")
        return {"throughput_per_s": throughput, "latencies_s": latencies,
                "accuracy_pct": 100.0 * within / images, "images": images, "within": within}

    def run_model(self, seconds: float) -> dict:
        lib, out = self.lib, self.outcome
        config = lib.ebm.TrainConfig(seed=self.seed)
        default = self.seed == DEFAULT_SEED["model-ref"]
        cv_times, model_times, reports, models = [], [], set(), set()
        accuracy = None
        start = time.perf_counter()
        while not cv_times or time.perf_counter() - start < seconds:
            with self.usage.stage("cv"):
                t0 = time.perf_counter()
                rows = lib.dataio.read_feature_table(self.reference_table)
                report = lib.harness.run_cv(rows, FEATURE_SET, repeats=CV_REPEATS, k=CV_K,
                                            seed=self.seed, config=config)
                cv_times.append(time.perf_counter() - t0)
            for cell in report.cells:
                out.op(cell["accuracy"] >= CV_ACCURACY_FLOOR,
                       f"cv cell {cell['repeat']}/{cell['fold']} accuracy {cell['accuracy']:.1f}%")
            accuracy = report.aggregates["accuracy"]["mean"]
            vortex = report.aggregates["precision"]["vortex"]["mean"]
            out.check(accuracy >= CV_ACCURACY_FLOOR, f"cv accuracy {accuracy:.2f}% below floor")
            out.check(vortex >= VORTEX_PRECISION_FLOOR, f"vortex precision {vortex:.2f}% below floor")
            reports.add(sha256(report.to_json().encode()))
            with self.usage.stage("train"):
                for _ in range(MODEL_REQUESTS):
                    t0 = time.perf_counter()
                    model = self.train_model_request(config)
                    model_times.append(time.perf_counter() - t0)
                    models.add(sha256(model))
                    out.op(len(models) == 1, "model digest changed between requests")
            matrix, _, labels, _ = lib.harness.build_matrix(rows, FEATURE_SET)
            t0 = time.perf_counter()
            predicted, _ = lib.ebm.predict_ovr(self.model, matrix)
            self.info["predict_table_ms"] = (1e3 * (time.perf_counter() - t0), "ms")
            agree = sum(p == t for p, t in zip(predicted, labels)) / len(labels)
            self.info["train_accuracy_pct"] = (100.0 * agree, "%")
        out.check(len(reports) == 1, "cv report digest changed between passes")
        if default:
            out.check(reports == {self.reference["report_sha256"]},
                      "cv report differs from the acceptance report")
            out.check(models == {self.reference["model_sha256"]},
                      "model differs from the acceptance model")
        cv_s = statistics.median(cv_times)
        self.info["cv_s"] = (cv_s, "s")
        self.info["train_s"] = (statistics.median(model_times), "s")
        self.info["cv_accuracy_pct"] = (accuracy, "%")
        return {"throughput_per_s": CV_REPEATS * CV_K / cv_s, "latencies_s": model_times,
                "accuracy_pct": accuracy}

    def run_stream(self, seconds: float) -> dict:
        out = self.outcome
        requests = self.inputs["requests"]
        columns = self.lib.dataio.BASE_COLUMNS[1:]
        seen = {}
        for i in range(len(STREAM_SIZES)):  # warm-up: one request per size
            image, truth = requests[i]
            row, label = self.stream_request(image, truth.filename)
            seen[i] = (tuple(float(row.value(c)) for c in columns), label)
        latencies, right = [], 0
        start = time.perf_counter()
        i = 0
        with self.usage.stage("stream"):
            while i < STREAM_MIN_REQUESTS or time.perf_counter() - start < seconds:
                image, truth = requests[i % len(requests)]
                try:
                    t0 = time.perf_counter()
                    row, label = self.stream_request(image, truth.filename)
                    latencies.append(time.perf_counter() - t0)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    out.op(False, f"request {i} raised")
                    i += 1
                    continue
                result = (tuple(float(row.value(c)) for c in columns), label)
                first = seen.setdefault(i % len(requests), result)
                ok = finite_row(row, columns) and label in self.model.classes and first == result
                out.op(ok, f"request {i} ({truth.filename} {image.width}x{image.height})")
                right += label == truth.label
                self.record_rows([row], {truth.filename: truth.dip_col}, image.width)
                i += 1
        accuracy = 100.0 * right / len(latencies)
        self.info["stream_latency_ms_p50"] = (1e3 * percentile(latencies, 50), "ms")
        self.info["stream_latency_ms_p90"] = (1e3 * percentile(latencies, 90), "ms")
        self.info["stream_accuracy_pct"] = (accuracy, "%")
        self.info["stream_requests"] = (len(latencies), "count")
        return {"throughput_per_s": len(latencies) / sum(latencies), "latencies_s": latencies,
                "accuracy_pct": accuracy}

    def run(self, seconds: float, in_process: bool = False) -> dict:
        """The timed part; extract-ref runs in worker processes unless ``in_process``."""
        if self.workload == "stream-mixed":
            with self.usage.stage("train"):
                t0 = time.perf_counter()
                self.train_model_request()
                self.info["stream_model_train_s"] = (time.perf_counter() - t0, "s")
        timed = {"extract-ref": self.run_extract if in_process else self.extract_in_workers,
                 "model-ref": self.run_model, "stream-mixed": self.run_stream}[self.workload]
        before = cpu_jiffies()
        result = timed(seconds)
        after = cpu_jiffies()
        if before and after and after[0] > before[0]:
            # Time the hypervisor gave to other guests; wall times grow with it.
            self.info["steal_pct"] = (100.0 * (after[1] - before[1]) / (after[0] - before[0]), "%")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.info["peak_rss_mb"] = (max(rss_mb, result.get("peak_rss_mb", 0.0)), "MB")
        return result


def end_to_end(result: dict, setup_s: float, peak_rss_mb: float) -> dict:
    latencies = result["latencies_s"]
    return {
        "setup_s": setup_s,
        "throughput_per_s": result["throughput_per_s"],
        "latency_ms_p50": 1e3 * percentile(latencies, 50),
        "latency_ms_p90": 1e3 * percentile(latencies, 90),
        "accuracy_pct": result["accuracy_pct"],
        "peak_rss_mb": peak_rss_mb,
    }


def traced_run(bench: Bench, seconds: float) -> tuple[dict, list]:
    import layers
    import probe
    import tracing

    lib = bench.lib
    tracer = tracing.Tracer()
    tracing.install(tracer, vars(lib))
    try:
        start = time.perf_counter()
        bench.run(seconds, in_process=True)
        workload_wall = time.perf_counter() - start
        bench.usage.phase = "probe"
        probe.fill_stages(lib, bench, tracer, bench.usage, bench.usage.stages("workload"))
        tracer.enabled = False
        micro, absent = probe.micro_calls(lib, bench)
    finally:
        tracer.uninstall()
    spans = layers.span_metrics(tracing.SpanIndex(tracer.spans))
    workload_spans = sum(1 for s in tracer.spans if s.phase == "workload")
    checks = [c for c in bench.row_checks if c[0] == "workload"] or bench.row_checks
    extra = {
        "cli.import_s": statistics.median(child_import_s() for _ in range(SETUP_REPEATS)),
        "features.dip_within_envelope_ratio": sum(c[1] for c in checks) / len(checks),
        "features.roi_clamped_ratio": sum(c[2] for c in checks) / len(checks),
        "trace.overhead_pct": 100.0 * workload_spans * probe.span_cost_s() / workload_wall,
    }
    values = layers.combine(spans, micro, bench.usage.by_stage(), extra)
    metrics, missing = {}, list(absent)
    for name, unit, _, _ in layers.LAYER_METRICS:
        value = values.get(name)
        if value is None:
            missing.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}
    trace_file = WORK / f"trace-{bench.workload}-{bench.seed}.json"
    tracer.dump(trace_file, machine_facts(lib))
    print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    if tracer.missing:
        print(f"unwrapped (missing in the library): {', '.join(tracer.missing)}")
    return metrics, sorted(set(missing))


def extract_worker(seed: int, seconds: float, k: int) -> int:
    """One extract-ref worker: time batches from the inputs on disk and
    print the raw figures as one JSON line for the parent run."""
    bench = Bench(import_library(), "extract-ref", seed)
    bench.inputs = bench.extract_inputs_on_disk()
    first = k * len(bench.inputs["batches"]) // EXTRACT_WORKERS
    result = bench.run_extract(seconds, first)
    out = bench.outcome
    print(json.dumps({
        "latencies_s": result["latencies_s"], "images": result["images"],
        "within": result["within"], "attempted": out.attempted, "failed": out.failed,
        "problems": out.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seed = DEFAULT_SEED[args.workload] if args.seed is None else args.seed
    if args.worker is not None:
        return extract_worker(seed, args.seconds, args.worker)

    try:
        start = time.perf_counter()
        lib = import_library()
        import_s = time.perf_counter() - start
        bench = Bench(lib, args.workload, seed)
        setup_s = bench.setup(import_s)
        if args.trace:
            metrics, absent = traced_run(bench, args.seconds)
        else:
            result = bench.run(args.seconds)
            values = end_to_end(result, setup_s, bench.info["peak_rss_mb"][0])
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            absent = []
    except (BenchError, OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = bench.outcome
    print(f"workload {args.workload} seed {seed} trace {args.trace}")
    for name, (value, unit) in bench.info.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"machine: {json.dumps(machine_facts(lib), sort_keys=True)}")
    if absent:
        print(f"absent: {', '.join(absent)}")
    for problem in out.problems[:20]:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": not out.problems, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
