"""Spans recorded from outside the program, and per-layer self times.

The benchmark never binds its telemetry as :func:`repro.obs.current`, so the
program keeps running its untraced path.  Instead a :class:`Recorder` wraps
the *instances* the benchmark creates (a pipeline's stages, a stage cache, a
replayer, ...) so each call into a public method becomes a span.  Spans live
in memory in a :class:`repro.obs.Telemetry` and are written once, as a
Chrome trace, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from typing import Iterator

from repro.obs import Telemetry
from repro.obs.export import chrome_trace

#: span name (or ``prefix.``) -> the repository layer its self time belongs to.
SPAN_LAYERS: tuple[tuple[str, str], ...] = (
    ("pipeline.run", "pipeline"),
    ("cache.", "pipeline"),
    ("stage.directory_structure", "namespace"),
    ("stage.depth_and_placement", "namespace"),
    ("stage.file_sizes", "metadata"),
    ("stage.extensions", "metadata"),
    ("stage.content", "content"),
    ("stage.on_disk_creation", "layout"),
    ("materialize", "materialize"),
    ("verify", "materialize"),
    ("trace.", "trace"),
    ("constraints.", "constraints"),
    ("iteration", "bench"),
    ("setup", "setup"),
)

LAYERS = (
    "pipeline", "namespace", "metadata", "constraints", "layout",
    "content", "materialize", "trace", "bench", "setup",
)


def layer_of(span_name: str) -> str:
    for prefix, layer in SPAN_LAYERS:
        if span_name == prefix or (prefix.endswith(".") and span_name.startswith(prefix)):
            return layer
    raise KeyError(f"span {span_name!r} maps to no layer")


class Recorder:
    """Opens spans while ``enabled``; a disabled recorder adds no wrapper at all.

    Every span carries the current ``iteration`` id and ``step`` label, so
    the spans of one workload iteration share one id.  Time spent in lazily
    consumed generators (content chunks inside a sink) cannot be a contiguous
    span; :meth:`wrap_generator` accumulates it, and :meth:`self_times` moves
    it from the enclosing layer to its own.
    """

    def __init__(self, run_id: str) -> None:
        self.telemetry = Telemetry(run_id=run_id)
        self.enabled = False
        self.iteration = "setup"
        self.step = ""
        #: (iteration, layer moved to, layer moved from) -> seconds
        self.moved: dict[tuple[str, str, str], float] = defaultdict(float)
        self._wrapped: list[tuple[object, str]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        with self.telemetry.span(name, iteration=self.iteration, step=self.step):
            yield

    def wrap(self, obj: object, method: str, name: str) -> None:
        """Replace ``obj.method`` on this instance with a spanned call."""
        if not self.enabled:
            return
        original = getattr(obj, method)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._install(obj, method, spanned)

    def _install(self, obj: object, method: str, replacement) -> None:
        if method in vars(obj):
            raise ValueError(f"{method!r} is already overridden on {obj!r}")
        setattr(obj, method, replacement)
        self._wrapped.append((obj, method))

    def unwrap_all(self) -> None:
        """Restore every wrapped instance to its class's own methods."""
        for obj, method in reversed(self._wrapped):
            delattr(obj, method)
        self._wrapped.clear()

    def wrap_generator(self, obj: object, method: str, into: str, out_of: str) -> None:
        """Time every ``next()`` of the generators ``obj.method`` returns."""
        if not self.enabled:
            return
        original = getattr(obj, method)
        key = (self.iteration, into, out_of)
        moved = self.moved

        @functools.wraps(original)
        def timed(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    moved[key] += time.perf_counter() - start
                    return
                moved[key] += time.perf_counter() - start
                yield item

        self._install(obj, method, timed)

    # Analysis -----------------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """iteration id -> layer -> self seconds (duration minus child spans)."""
        spans = self.telemetry.spans
        child_seconds: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent_id is not None:
                child_seconds[span.parent_id] += span.wall_seconds
        out: dict[str, dict[str, float]] = defaultdict(lambda: dict.fromkeys(LAYERS, 0.0))
        for span in spans:
            own = span.wall_seconds - child_seconds[span.span_id]
            out[span.labels["iteration"]][layer_of(span.name)] += own
        for (iteration, into, out_of), seconds in self.moved.items():
            out[iteration][into] += seconds
            out[iteration][out_of] -= seconds
        return dict(out)

    def span_seconds(self, iteration: str, name: str, step: str | None = None) -> float:
        """Total wall seconds of the spans called ``name`` in one iteration."""
        return sum(
            span.wall_seconds
            for span in self.telemetry.spans
            if span.name == name
            and span.labels.get("iteration") == iteration
            and (step is None or span.labels.get("step") == step)
        )

    def write_chrome_trace(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(chrome_trace(self.telemetry), handle)
