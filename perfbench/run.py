"""Run one benchmark workload (or all of them) and print its metrics.

Usage::

    python3 perfbench/run.py --workload paper_image --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that records a span around every call into
the program's layers and reports the per-layer metrics, the self time of
each layer and the tracing overhead.  ``--workload all`` runs every
workload one after another, each in a child process of its own so no
workload's heap or peak RSS carries into the next.

Standard output is a human-readable report, then one JSON line with the full
detail (environment, fingerprints, checks, step timings), and as the last
line one JSON object with exactly the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program under test is imported from the
``src`` directory next to this one; without it the run exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
WORKDIR = os.path.join(ROOT, ".perfbench")

#: Times a run sets its workload up; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Times a run imports the program, once itself and the rest in child
#: processes one after another; ``setup_s`` counts the median.
IMPORT_REPEATS = 5

#: What a child runs to time the import; ``sys.argv[1:]`` is the import path.
IMPORT_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import perfbench.workloads\n"
    "print(time.perf_counter() - start)\n"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--size", type=float, default=1.0,
                        help="multiplier on every workload's input size (tests use tiny sizes)")
    args = parser.parse_args(argv)
    if not args.size > 0:
        parser.error("--size must be positive")
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    return args


def import_program() -> float:
    """Import the program from ``src``; returns the seconds it took."""
    start = time.perf_counter()
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise ImportError(f"no program sources under {src}")
    sys.path.insert(0, src)
    import perfbench.workloads  # noqa: F401  (imports numpy and every layer)

    return time.perf_counter() - start


def child_import_seconds() -> float:
    """Time the same import in a fresh interpreter; it has ended on return."""
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, os.path.join(ROOT, "src"), ROOT],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    return float(child.stdout)


def end_to_end_metrics(ctx, import_seconds: list[float], setup_speed: float) -> dict[str, float]:
    """Pass times and the set-up parts are calibrated: see
    :mod:`perfbench.calibration`.  The import is not: it does not follow the
    calibration loops.  Over ten paper_image runs whose loop slowdown ranged
    1.1 to 1.9 it read 0.39 to 0.47 s, and scaling it spread set-up (IQR over
    median) from 0.11 to 0.35."""
    from perfbench.harness import median, peak_rss_mb

    return {
        "setup_s": median(import_seconds) + ctx.setup_seconds() * setup_speed,
        "pass_s": median(ctx.pass_untraced),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_metrics(ctx, workload) -> dict[str, float]:
    from perfbench.harness import median
    from perfbench.tracing import LAYERS
    from perfbench.workloads import STAGES

    samples = ctx.samples
    out: dict[str, float] = {}
    for metric, step in (
        ("generate_s", "generate"),
        ("relayout_s", "relayout"),
        ("materialize_s", "materialize"),
        ("age_s", "age"),
        ("verify.s", "verify"),
    ):
        out[metric] = median(samples.get(step, []))
    for metric in (
        "replay_ops_per_s",
        "churn_ops_per_s",
        "content_MBps",
        "materialize.directories_s",
        "materialize.files_s",
        "materialize.finalize_s",
    ):
        out[metric] = median(samples.get(metric, []))
    out["trace.synth_s"] = sum(
        median(values)
        for part, values in ctx.setup_samples.items()
        if part.startswith("trace_synth.")
    )
    out.update(ctx.values)

    recorder = ctx.recorder
    traced = ctx.traced_iterations
    for stage in STAGES:
        out[f"pipeline.{stage}_s"] = median(
            [recorder.span_seconds(iteration, f"stage.{stage}") for iteration in traced]
        )
    for operation in ("load", "store"):
        out[f"pipeline.cache.{operation}_s"] = median(
            [recorder.span_seconds(iteration, f"cache.{operation}") for iteration in traced]
        )
    self_times = recorder.self_times()
    for layer in LAYERS:
        out[f"self.{layer}_s"] = median([self_times[iteration][layer] for iteration in traced])
    untraced = median(ctx.pass_untraced)
    out["tracing.overhead_pct"] = (
        100.0 * (median(ctx.pass_traced) / untraced - 1.0) if untraced and ctx.pass_traced else 0.0
    )
    out["tracing.spans_per_iteration"] = (
        sum(1 for span in recorder.telemetry.spans if span.labels["iteration"] in traced)
        / len(traced)
        if traced
        else 0.0
    )
    out.update(getattr(workload, "traced_metrics", {}))
    return out


def select(spec: list[dict], values: dict[str, float], kind: str) -> dict[str, dict]:
    """The metrics named in ``BENCHMARK.json``; layers a workload skips read 0."""
    names = [entry["name"] for entry in spec]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise KeyError(f"{kind} metrics missing from BENCHMARK.json: {unknown}")
    return {
        entry["name"]: {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in spec
    }


def run_workload(name: str, args, benchmark: dict, import_seconds: list[float]) -> dict:
    from perfbench.harness import (
        RunContext,
        environment,
        reset_peak_rss,
        run_loop,
        summarize,
    )
    from perfbench.workloads import WORKLOADS

    workdir = os.path.join(WORKDIR, f"run-{name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[name](args.size)
    ctx = RunContext(
        workload=name,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        workdir=workdir,
    )
    recorder = ctx.recorder
    try:
        recorder.enabled = ctx.traced
        recorder.iteration = f"{name}-{args.seed}-setup"
        ctx.calibrate()
        for _ in range(SETUP_REPEATS):
            workload.setup(ctx)
            ctx.calibrate()
        setup_speed = ctx.speed()
        workload.prepare(ctx)
        recorder.unwrap_all()
        # peak_rss_mb is the peak of the measured passes: set-up garbage is
        # collected first so it does not count.
        gc.collect()
        reset_peak_rss()
        run_loop(ctx, workload.iteration)
        workload.finish(ctx)
    finally:
        recorder.unwrap_all()
        shutil.rmtree(workdir, ignore_errors=True)

    if ctx.traced:
        metrics = select(benchmark["per_layer"], per_layer_metrics(ctx, workload), "per-layer")
        trace_path = os.path.join(WORKDIR, "traces", f"{name}-seed{args.seed}.json")
        recorder.write_chrome_trace(trace_path)
    else:
        metrics = select(
            benchmark["end_to_end"],
            end_to_end_metrics(ctx, import_seconds, setup_speed),
            "end-to-end",
        )
        trace_path = None
    detail = {
        "workload": name,
        "seed": args.seed,
        "pid": os.getpid(),
        "size": args.size,
        "traced": ctx.traced,
        "environment": environment(),
        "fingerprints": dict(ctx.fingerprints),
        "checks": {check: {"runs": runs, "failed": failed}
                   for check, (runs, failed) in sorted(ctx.checks.items())},
        "passes": {
            "untraced": summarize(ctx.pass_untraced),
            "traced": summarize(ctx.pass_traced),
            "wall": summarize(ctx.pass_wall),
        },
        "steps": {step: summarize(values) for step, values in sorted(ctx.samples.items())},
        "setup": {part: summarize(values) for part, values in sorted(ctx.setup_samples.items())},
        "import_s": summarize(import_seconds),
        "calibrations": summarize(ctx.calibrations),
        "values": dict(sorted(ctx.values.items())),
        "chrome_trace": trace_path,
    }
    return {
        "detail": detail,
        "result": {
            "correct": ctx.correct,
            "attempted": ctx.attempted,
            "failed": ctx.failed,
            "metrics": metrics,
        },
    }


def print_report(outcome: dict) -> None:
    detail, result = outcome["detail"], outcome["result"]
    env = detail["environment"]
    print(f"== {detail['workload']} seed={detail['seed']} size={detail['size']} "
          f"traced={int(detail['traced'])} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']}")
    for kind, stats in detail["passes"].items():
        print(f"  pass ({kind}) n={stats['n']} median={stats['median']:.6g}")
    for step, stats in detail["steps"].items():
        extra = "".join(f" {key}={value:.6g}" for key, value in stats.items()
                        if key not in ("n", "median"))
        print(f"  step {step:32s} n={stats['n']:<3d} median={stats['median']:.6g}{extra}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    failed_checks = [name for name, tally in detail["checks"].items() if tally["failed"]]
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_checks={failed_checks}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    try:
        import_seconds = import_program()
        with open(BENCHMARK_JSON, encoding="utf-8") as handle:
            benchmark = json.load(handle)
    except (ImportError, OSError) as error:
        print(f"perfbench: cannot load the program: {error}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2

    import_seconds = [import_seconds]
    import_seconds += [child_import_seconds() for _ in range(IMPORT_REPEATS - 1)]
    outcome = run_workload(args.workload, args, benchmark, import_seconds)
    print_report(outcome)
    print(json.dumps(outcome["detail"], sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


def run_all(names: list[str], args: argparse.Namespace) -> int:
    """Run each workload in a child process and combine their results; the
    combined metrics are named ``<workload>.<metric>``."""
    results = {}
    for name in names:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", str(args.size)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.rstrip("\n").splitlines()
        if child.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    final = {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
