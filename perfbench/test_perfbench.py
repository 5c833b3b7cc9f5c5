"""Tests of the benchmark itself.

They show that each workload's output check can fail, that a run prints
exactly the metrics ``BENCHMARK.json`` declares, that the benchmark
refuses to run without the program beside it, and that span self time
is a span's duration minus its children's. Run from the repository
root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def result_line(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_value_fails_the_run(workload):
    completed = run("--workload", workload, "--seed", "5", "--seconds", "1",
                    "--trace", "0", "--corrupt-check")
    assert completed.returncode == 1, completed.stderr
    assert "check failed" in completed.stderr
    assert result_line(completed)["correct"] is False


def test_untraced_run_reports_the_end_to_end_metrics():
    completed = run("--workload", WORKLOADS[0], "--seed", "5",
                    "--seconds", "1", "--trace", "0")
    assert completed.returncode == 0, completed.stderr
    result = result_line(completed)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1000
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_the_per_layer_metrics():
    completed = run("--workload", "gateway-mote-ingest", "--seed", "5",
                    "--seconds", "1", "--trace", "1")
    assert completed.returncode == 0, completed.stderr
    result = result_line(completed)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    assert result["metrics"]["interfaces.tuples_per_batch"]["value"] == 32


def traced(workload: str) -> dict:
    completed = run("--workload", workload, "--seed", "5", "--seconds", "1",
                    "--trace", "1")
    assert completed.returncode == 0, completed.stderr
    return {name: m["value"]
            for name, m in result_line(completed)["metrics"].items()}


def test_traced_runs_confirm_what_each_workload_stresses():
    fig1 = traced("fig1-mote-avg")
    fig3 = traced("fig3-camera-topn")
    fig4 = traced("fig4-standing-queries")
    # The pipeline query is most of a Figure 3 element, little of Figure 1.
    assert fig3["sqlengine.pipeline_query_us"] \
        > 0.5 * fig3["harness.element_us"]
    assert fig1["sqlengine.pipeline_query_us"] \
        < 0.2 * fig1["harness.element_us"]
    # Tracing weighs more on the cheap Figure 1 element.
    assert fig1["metrics.tracing_us"] / fig1["harness.element_us"] \
        > fig3["metrics.tracing_us"] / fig3["harness.element_us"]
    # Standing queries and storage reads are most of a Figure 4 arrival.
    standing = (fig4["query.repository_us"] + fig4["query.execute_us"]
                + fig4["sqlengine.standing_query_us"]
                + fig4["storage.read_us"])
    assert standing > 0.5 * fig4["harness.element_us"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = run("--workload", WORKLOADS[0], "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


class _Toy:
    def outer(self) -> None:
        time.sleep(0.02)
        self.inner()

    def inner(self) -> None:
        time.sleep(0.03)


def test_self_time_is_duration_minus_children():
    recorder = SpanRecorder()
    recorder.patch(_Toy, "outer", "outer")
    recorder.patch(_Toy, "inner", "inner")
    try:
        _Toy().outer()
    finally:
        recorder.restore()
    self_times = recorder.self_times()
    assert 0.015 < self_times["outer"] < 0.03
    assert 0.025 < self_times["inner"] < 0.045
    total = recorder.durations("outer")[0]
    assert abs(total - self_times["outer"] - self_times["inner"]) < 1e-9
    assert _Toy.outer.__name__ == "outer"  # restored, not the wrapper
