"""In-memory span tracer that measures stochnls from outside.

A probe replaces one module attribute -- the name a caller looks a public
function up by, such as ``stochnls.ensemble.evolve_path`` -- with a wrapper
that records a span (name, start, end, parent) per call.  Spans stay in
memory and are written out once, when the run ends.  A probe may also carry
a count function that derives work counts from the call's arguments and
result (substeps from a path's jump times, flops from a matrix shape); it
runs after the call's span has closed, in a span of its own, so no layer's
self time includes it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict


KERNEL_SPAN = "hostspeed.kernel"
COUNT_SPAN = "trace.count"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index, iteration]
        self.counts: list[Counter] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.iteration = -1

    def begin_iteration(self) -> None:
        self.iteration += 1
        self.counts.append(Counter())

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.iteration]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                with self.span(COUNT_SPAN):  # a child span, so no layer pays for it
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self.counts[self.iteration], result, **bound.arguments)
            return result

        return traced

    def install(self, probes) -> None:
        """probes: (module name, attribute, span name, count function or None)."""
        for module_name, attr, span_name, count in probes:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def layer_times(self) -> list[dict[str, dict[str, float]]]:
        """Per iteration: {span name: {"calls", "total_s", "self_s"}}.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children nest inside parents.
        Total time leaves out the host-speed kernel spans inside a span.
        """
        child = defaultdict(float)
        kernel = defaultdict(float)
        for i in range(len(self.spans) - 1, -1, -1):  # children before parents
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
                kernel[parent] += end - start if name == KERNEL_SPAN else kernel[i]
        per_iter = [defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                    for _ in range(self.iteration + 1)]
        for i, (name, start, end, parent, it) in enumerate(self.spans):
            entry = per_iter[it][name]
            entry["calls"] += 1
            entry["total_s"] += end - start - kernel[i]
            entry["self_s"] += end - start - child[i]
        return [dict(d) for d in per_iter]

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "iteration"]
        doc["spans"] = self.spans
        doc["counts"] = [dict(c) for c in self.counts]
        with open(path, "w") as fh:
            json.dump(doc, fh)
