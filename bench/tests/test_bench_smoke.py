"""Smoke test of the benchmark itself: every workload at tiny size, all checks on.

    python -m pytest bench/tests

Needs ``javac`` on PATH; skipped without it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

needs_javac = pytest.mark.skipif(shutil.which("javac") is None, reason="needs javac")


def run_bench(workload: str, trace: int, cwd: Path = ROOT,
              env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    *_, record_line, result_line = proc.stdout.splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


def test_benchmark_lists_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@needs_javac
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_checked_in_both_modes(workload):
    record, result = parse(run_bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0, spec["name"]
    assert record["corpus"]["classes_per_partition"]["application"] > 0
    assert set(record["environment"]) == {"javac", "python", "cpu", "nproc"}

    traced_record, traced = parse(run_bench(workload, trace=1))
    assert traced["correct"] and traced["failed"] == 0, traced_record["failures"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert traced["metrics"][spec["name"]]["unit"] == spec["unit"], spec["name"]
    assert traced["metrics"]["classfile.parse_calls_per_class"]["value"] >= 1
    # the same seed gives byte-identical bundles, child process or in-process
    assert traced_record["sha256"] == record["sha256"]
    assert len(record["sha256"]) == 2 * record["corpus"]["versions"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("swing-build", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_set_up_fails_clearly_without_javac(tmp_path):
    proc = run_bench("library-build", trace=0, env=dict(os.environ, PATH=str(tmp_path)))
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "javac not found" in proc.stderr


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    outer = tracer.open("project.validate_project")
    inner = tracer.open("classfile.parse_class")
    tracer.close(inner)
    tracer.close(outer)
    parent, child = tracer.spans
    assert child.parent == 0 and parent.parent == -1
    assert parent.self_time == pytest.approx(
        (parent.end - parent.start) - (child.end - child.start))
    shares = tracer.metrics()
    assert shares["share.project"] + shares["share.classfile"] == pytest.approx(100.0)
