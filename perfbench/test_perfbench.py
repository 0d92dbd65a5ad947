"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 5])
def test_tiny_run_is_correct_and_emits_every_end_to_end_metric(workload, seed):
    result, lines = run.run_workload(workload, seed, 0, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 2
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in emitted.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    result, lines = run.run_workload(workload, 3, 0, trace=True, tiny=True)
    assert result["correct"], lines
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared("per_layer")
    assert any("worker processes" in line for line in lines)
    assert (run.OUT / f"spans-{workload}-seed3.csv.gz").is_file()


def test_traced_layers_see_the_work_of_each_workload():
    metrics = {}
    for workload in workloads.WORKLOADS:
        result, _ = run.run_workload(workload, 0, 0, trace=True, tiny=True)
        metrics[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["simulate"]["equilibrium.thin_flow_ms"] > 0
    assert metrics["simulate"]["topology.find_subdivision_calls"] == 0
    braess = metrics["braess"]
    assert braess["braess.engine_runs"] == braess["equilibrium.nash_flow_calls"]
    assert metrics["braess"]["pwl.calls"] > 0
    assert metrics["classify"]["topology.find_subdivision_calls"] == 5 * 4  # 5 patterns, 4 inputs
    assert metrics["classify"]["equilibrium.nash_flow_calls"] == 0


@pytest.mark.parametrize("workload, key, field, wrong", [
    ("simulate", "simulate/ladder-n5", "social_cost", "4"),
    ("braess", "braess/grid-10", "ratio", "2"),
    ("classify", "classify/chain-5x3", "series_parallel", False),
])
def test_oracle_rejects_a_wrong_pinned_value(workload, key, field, wrong):
    pins = copy.deepcopy(workloads.load_pins())
    pins[key][field] = wrong
    result, lines = run.run_workload(workload, 2, 0, trace=False, tiny=True, pins=pins)
    assert not result["correct"]
    assert result["failed"] == 2  # the input runs twice in the first pass
    name = key.split("/")[1]
    assert any(line.startswith(f"FAIL {workload} {name} input=") and field in line
               for line in lines), lines


def test_oracle_rejects_output_that_differs_between_runs(tmp_path):
    fot = run.load_fot()
    ops = workloads.make_ops(fot, "classify", 0, tiny=True)[:1]
    workloads.write_inputs(ops, tmp_path)
    runner = run.Runner(fot, ops, workloads.load_pins(), time.perf_counter)
    rc, stdout, stderr = runner.invoke(ops[0])
    runner.record(ops[0], rc, stdout, stderr, reference=stdout)
    assert not runner.failures
    runner.record(ops[0], rc, stdout, stderr, reference=stdout + " ")
    assert len(runner.failures) == 1 and "differs" in runner.failures[0]


def test_seed_gives_the_same_inputs_and_other_seeds_other_inputs():
    fot = run.load_fot()
    for workload in workloads.WORKLOADS:
        one = [op.obj for op in workloads.make_ops(fot, workload, 7, tiny=True)]
        again = [op.obj for op in workloads.make_ops(fot, workload, 7, tiny=True)]
        other = [op.obj for op in workloads.make_ops(fot, workload, 8, tiny=True)]
        assert one == again and one != other


def test_core_counter_reproduces_the_ladder5_counts():
    fot = run.load_fot()
    obj = fot.core.instance_to_obj(fot.gen.make_ladder(5, workloads.LADDER_EPS))
    assert workloads.st_cores(obj) == (256, 85, 31)


def test_tail_percentile_leaves_ten_samples_beyond_the_first_pass():
    for ops_per_pass in (12, 82, 108):
        q = run.tail_percentile(ops_per_pass)
        samples = [float(i) for i in range(2 * ops_per_pass)]
        assert sum(s > run.percentile(samples, q) for s in samples) >= 10


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "classify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert not Path(tmp_path, "src").exists()
