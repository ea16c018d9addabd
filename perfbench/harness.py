"""Run context shared by the workloads: timing, set-up, checks, the loop."""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import time
from collections import defaultdict
from typing import Callable

from perfbench.calibration import slowdown
from perfbench.tracing import Recorder


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def supported_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it.

    ``None`` when the sample is too small (fewer than 21 values) to support
    any percentile above the median.
    """
    count = len(values)
    percentile = int(math.floor(100.0 * (count - 10) / count)) if count else 0
    if percentile <= 50:
        return None
    ordered = sorted(values)
    rank = max(0, math.ceil(percentile / 100.0 * count) - 1)
    return percentile, float(ordered[rank])


def summarize(values: list[float]) -> dict:
    out = {"n": len(values), "median": median(values)}
    percentile = supported_percentile(values)
    if percentile is not None:
        out[f"p{percentile[0]}"] = percentile[1]
    return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS mark, so the peak that follows is new.

    A no-op where ``/proc/self/clear_refs`` is unavailable; the earlier peak
    then carries over.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def environment() -> dict:
    import numpy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 0
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": cpus,
        "platform": platform.platform(),
    }


class RunContext:
    """Everything one workload run records.

    ``samples`` holds step timings from untraced iterations only, so a traced
    run's step figures are not inflated by its spans; ``values`` holds
    per-iteration deterministic figures (counts, fidelity), which must not
    change between iterations of one seed.
    """

    def __init__(
        self, *, workload: str, seed: int, seconds: float, traced: bool, workdir: str
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.workdir = workdir
        self.recorder = Recorder(run_id=f"{workload}-{seed}")
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.setup_samples: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, float] = {}
        self.fingerprints: dict[str, str] = {}
        self.checks: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.pass_untraced: list[float] = []
        self.pass_traced: list[float] = []
        #: the untraced passes before calibration, as the wall clock read them
        self.pass_wall: list[float] = []
        self.traced_iterations: list[str] = []
        #: wall seconds of the current iteration's pass steps
        self.pass_seconds = 0.0
        #: host slowdowns sampled around set-up and the pass steps
        self.calibrations: list[float] = []
        self._calibrated_at = -1.0

    # Recording -------------------------------------------------------------------

    def calibrate(self) -> None:
        """Sample the host's slowdown, unless it was sampled just now."""
        if time.perf_counter() - self._calibrated_at > 0.01:
            self.calibrations.append(slowdown())
            self._calibrated_at = time.perf_counter()

    def speed(self, since: int = 0) -> float:
        """Factor scaling wall times to the reference host, from the slowdowns
        sampled since index ``since``."""
        return 1.0 / median(self.calibrations[since:])

    def step(
        self, name: str, fn: Callable, *args, span: str | None = None, in_pass: bool = True,
        **kwargs,
    ):
        """Time one call of a workload step; untraced iterations keep the sample.

        Returns the result and the wall seconds.  A pass step also adds them
        to :attr:`pass_seconds`, and samples the host's speed around itself.
        """
        recorder = self.recorder
        if in_pass:
            self.calibrate()
        recorder.step = name
        start = time.perf_counter()
        if span is None:
            result = fn(*args, **kwargs)
        else:
            with recorder.span(span):
                result = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        recorder.step = ""
        if in_pass:
            self.pass_seconds += seconds
            self.calibrate()
        self.sample(name, seconds)
        return result, seconds

    def sample(self, name: str, value: float) -> None:
        if not self.recorder.enabled:
            self.samples[name].append(value)

    def setup_part(self, name: str, fn: Callable, *args, **kwargs):
        """Time one piece of set-up; ``setup_s`` sums each part's median."""
        start = time.perf_counter()
        with self.recorder.span("setup"):
            result = fn(*args, **kwargs)
        self.setup_samples[name].append(time.perf_counter() - start)
        return result

    def record(self, name: str, value: float) -> None:
        """A deterministic per-iteration figure; a changed value fails a check."""
        value = float(value)
        previous = self.values.setdefault(name, value)
        self.check(f"repeatable:{name}", previous == value)

    def fingerprint(self, name: str, digest: str) -> None:
        """Record an image or archive digest; it is reported, never gated on."""
        self.fingerprints.setdefault(name, digest)

    def check(self, name: str, passed: bool) -> None:
        """A correctness check; a failed one is a failed operation."""
        tally = self.checks[name]
        tally[0] += 1
        self.attempted += 1
        if not passed:
            tally[1] += 1
            self.failed += 1
            self.correct = False

    def operations(self, attempted: int, failed: int) -> None:
        """Work items that may fail without making the output wrong."""
        self.attempted += int(attempted)
        self.failed += int(failed)

    def fresh_path(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
        return path

    # Derived ---------------------------------------------------------------------

    def setup_seconds(self) -> float:
        return sum(median(values) for values in self.setup_samples.values())


def run_loop(ctx: RunContext, iteration: Callable[[RunContext, int], float]) -> None:
    """Run iterations until the next one would end past ``ctx.seconds``.

    ``iteration`` returns the units of work it did; the iteration's pass is
    its pass-step seconds per unit (no pass for zero units), scaled by the
    host speed calibrated around those steps.  An untraced run needs one
    iteration.  A traced run alternates untraced and traced iterations and
    needs one of each, so the tracing overhead is the difference between
    the two kinds measured in one process.
    """
    recorder = ctx.recorder
    minimum = 2 if ctx.traced else 1
    durations: list[float] = []
    start = time.perf_counter()
    index = 0
    while True:
        recorder.enabled = ctx.traced and index % 2 == 1
        recorder.iteration = f"{ctx.workload}-{ctx.seed}-{index}"
        began = time.perf_counter()
        ctx.pass_seconds = 0.0
        # The latest calibration counts too: the first step may reuse it.
        first_calibration = len(ctx.calibrations) - 1
        with recorder.span("iteration"):
            units = iteration(ctx, index)
        recorder.unwrap_all()
        durations.append(time.perf_counter() - began)
        if units > 0:
            passes = ctx.pass_traced if recorder.enabled else ctx.pass_untraced
            passes.append(ctx.pass_seconds * ctx.speed(first_calibration) / units)
            if not recorder.enabled:
                ctx.pass_wall.append(ctx.pass_seconds / units)
        if recorder.enabled:
            ctx.traced_iterations.append(recorder.iteration)
        recorder.enabled = False
        index += 1
        elapsed = time.perf_counter() - start
        if index >= minimum and elapsed + median(durations) > ctx.seconds:
            break
