"""Smoke tests of the benchmark at a tiny input size.

Each run is a subprocess of ``perfbench/run.py`` exactly as the benchmark is
invoked, with ``--size`` shrinking every workload so the whole module takes
well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ("paper_image", "aged_replay", "content_archive")
TINY = "0.01"

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", TINY],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def runs():
    """(workload, seed, trace) -> (detail, result) of a finished run, cached."""
    cache: dict[tuple[str, int, int], tuple[dict, dict]] = {}

    def get(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
        key = (workload, seed, trace)
        if key not in cache:
            process = _run(workload, seed, trace)
            assert process.returncode == 0, process.stderr
            lines = process.stdout.strip().splitlines()
            cache[key] = json.loads(lines[-2]), json.loads(lines[-1])
        return cache[key]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(runs, workload, trace):
    detail, result = runs(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["checks"]
    assert result["attempted"] >= 1
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in spec
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    env = detail["environment"]
    assert env["nproc"] >= 1 and env["python"] and env["numpy"]
    assert detail["seed"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_seed_changes_the_generated_inputs(runs, workload):
    one, _ = runs(workload, 1, 0)
    two, _ = runs(workload, 2, 0)
    assert one["fingerprints"]["image"] != two["fingerprints"]["image"]


def test_the_traced_run_resolves_a_seeded_hard_constraint_case(runs):
    _, one = runs("paper_image", 1, 1)
    _, two = runs("paper_image", 2, 1)
    names = ("constraints.oversamples", "constraints.restarts", "resolve_ks_d")
    assert one["metrics"]["resolve_s"]["value"] > 0
    assert [one["metrics"][name]["value"] for name in names] != [
        two["metrics"][name]["value"] for name in names
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_same_seed_reproduces_counts_and_fidelity(runs, workload):
    untraced, _ = runs(workload, 1, 0)
    traced, traced_result = runs(workload, 1, 1)
    assert traced["values"] and traced["values"] == untraced["values"]
    assert traced["fingerprints"] == untraced["fingerprints"]
    metrics = traced_result["metrics"]
    for name, value in untraced["values"].items():
        assert metrics[name]["value"] == value


def test_a_traced_run_reports_layer_self_times_and_writes_a_chrome_trace(runs):
    detail, result = runs("paper_image", 1, 1)
    metrics = result["metrics"]
    assert metrics["self.namespace_s"]["value"] > 0
    assert metrics["pipeline.depth_and_placement_s"]["value"] > 0
    assert metrics["pipeline.depth_and_placement.exponent"]["value"] != 0
    with open(detail["chrome_trace"], encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    spans = [event for event in events if event["ph"] == "X"]
    assert {"iteration", "pipeline.run", "stage.depth_and_placement", "cache.store",
            "materialize", "verify"} <= {span["name"] for span in spans}
    iterations = {span["args"]["iteration"] for span in spans if span["name"] == "cache.load"}
    assert len(iterations) == 1


def test_all_runs_every_workload_in_a_child_process_and_names_its_metrics():
    process = _run("all", 1, 0)
    assert process.returncode == 0, process.stderr
    lines = process.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {
        f"{workload}.{entry['name']}" for workload in WORKLOADS for entry in BENCHMARK["end_to_end"]
    }
    pids = {
        json.loads(line)["pid"] for line in lines[:-1] if line.startswith('{"') and '"pid"' in line
    }
    assert len(pids) == len(WORKLOADS)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = _run("paper_image", 1, 0, cwd=str(tmp_path))
    assert process.returncode != 0
    assert not process.stdout.strip()
