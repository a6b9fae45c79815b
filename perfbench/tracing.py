"""Thread-aware spans around gaborboost's module boundaries.

The tracer patches public functions from outside the package: it replaces
a module attribute with a wrapper that records one span per call, so only
callers that look the name up at call time (every in-package caller and
this benchmark) are traced.  A function that a refactor removed is noted
in ``missing`` and skipped; metrics built from its spans then come out
absent instead of failing the run.

Work that ``parallel_map`` hands to pool threads keeps the span that
submitted it as its parent, so self times and per-cell times can be read
across threads.  Spans stay in memory and are written once, by ``dump``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "phase", "note")

    def __init__(self, sid, parent, name, thread, start, end, phase, note=None):
        self.id = sid
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = start
        self.end = end
        self.phase = phase
        self.note = note

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``phase`` tags each span with the part of the run that made it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.phase = "workload"
        self.enabled = True
        self._local = threading.local()
        # next() on itertools.count and list.append are single C calls, so
        # pool threads can share them without a lock under the GIL.
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, note=None):
        """Run ``fn`` inside a span named ``name``; ``note`` summarises the result."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        sid = next(self._ids)
        span = Span(sid, stack[-1] if stack else None, name, threading.get_ident(),
                    0.0, 0.0, self.phase)
        stack.append(sid)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if note is not None:
            span.note = note(result)
        return result

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)

        traced.__wrapped__ = fn
        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def wrap_pool(self, module, name: str) -> None:
        """Trace ``module.parallel_map`` items as spans named ``name``, each a
        child of the span that called ``parallel_map``."""
        fn = getattr(module, "parallel_map", None)
        if fn is None:
            self.missing.append(f"{module.__name__}.parallel_map")
            return

        def traced_map(job, items):
            stack = self._stack()
            origin = list(stack[-1:])

            def item(x):
                own = self._stack()
                saved = own[:]
                own[:] = origin
                try:
                    return self.call(name, job, (x,), {})
                finally:
                    own[:] = saved

            return fn(item, items)

        setattr(module, "parallel_map", traced_map)
        self._patched.append((module, "parallel_map", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def dump(self, path: Path, facts: dict) -> None:
        rows = [[s.id, s.parent, s.name, s.thread, s.start, s.end, s.phase] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"machine": facts, "missing": self.missing,
                                    "columns": ["id", "parent", "name", "thread",
                                                "start", "end", "phase"],
                                    "spans": rows}))


def install(tracer: Tracer, modules) -> None:
    """Wrap every boundary this benchmark reports on.

    ``modules`` maps short names to the imported gaborboost modules.  The
    gabor functions are wrapped as features sees them and the ebm
    functions as harness sees them, because those are the names the
    callers resolve.
    """
    m = modules
    features, ebm, harness = m["features"], m["ebm"], m["harness"]
    tracer.wrap(features, "make_kernel", "gabor.make_kernel")
    tracer.wrap(features, "convolve", "gabor.convolve")
    tracer.wrap(features, "flatten_background", "features.flatten")
    tracer.wrap(features, "two_step_optimize", "features.search")
    tracer.wrap(features, "grid_optimize", "features.search")
    for attr in ("locate_center", "integral_image", "quad_responses", "engineered_features"):
        tracer.wrap(features, attr, "features.quadrant")
    tracer.wrap(features, "extract_features", "features.extract_features")
    tracer.wrap(features, "tabularize", "features.tabularize")
    tracer.wrap_pool(features, "features.pool_item")

    tracer.wrap(ebm, "train_binary", "ebm.train_binary", note=lambda model: len(model.pairs))
    tracer.wrap_pool(ebm, "ebm.pool_item")
    for attr in ("save_model", "explain_global", "predict_ovr"):
        tracer.wrap(ebm, attr, f"ebm.{attr}")
    tracer.wrap(harness, "train_ovr", "ebm.train_ovr")
    tracer.wrap(harness, "predict_ovr", "ebm.predict_ovr")
    tracer.wrap_pool(harness, "harness.cell")
    tracer.wrap(harness, "run_cv", "harness.run_cv")
    tracer.wrap(harness, "train_final", "harness.train_final")

    dataio = m["dataio"]
    for attr in ("load_dataset", "read_feature_table", "write_feature_table"):
        tracer.wrap(dataio, attr, f"dataio.{attr}")
    tracer.wrap(m["synthgen"], "generate", "synthgen.generate")
    tracer.wrap(m["render"], "write_explanation_svgs", "render.write_explanation_svgs")


# ---------------------------------------------------------------------------
# reading spans back


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """Lookups over one run's spans.  ``named`` prefers the workload's own
    spans and falls back to the probe's when the workload made none."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, name: str, where=None) -> list[Span]:
        picked = [s for s in self.spans if s.name == name and (where is None or where(s))]
        own = [s for s in picked if s.phase == "workload"]
        return own or picked

    def parent_name(self, span: Span) -> str | None:
        parent = self.by_id.get(span.parent)
        return parent.name if parent else None

    def self_time(self, span: Span) -> float:
        kids = self.children.get(span.id, [])
        return span.duration - union_length([(k.start, k.end) for k in kids], span.start, span.end)

    def descendants(self, span: Span):
        todo = list(self.children.get(span.id, []))
        while todo:
            s = todo.pop()
            yield s
            todo.extend(self.children.get(s.id, []))
