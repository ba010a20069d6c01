"""Smoke tests of the benchmark runner at tiny sizes.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_program()

from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = run.BENCH_DIR


def tiny(name: str, jobs: int):
    workload = WORKLOADS[name]
    return dataclasses.replace(
        workload, spec=lambda seed: dataclasses.replace(workload.spec(seed), jobs=jobs)
    )


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    record = run.measure(tiny("steady-pcp20", 12), 3, 0, False, tmp_path)
    assert record["correct"], record["problems"]
    replays = 1 + run.MIN_ROUNDS
    assert record["replays"] == replays and len(record["replay_walls_s"]) == run.MIN_ROUNDS
    assert record["attempted"] == 12 * replays and record["failed"] == 0
    assert len(record["setup_samples_s"]) == run.SETUP_PROBES
    assert [name for name in record["metrics"]] == [name for name, _, _ in run.END_TO_END]
    assert all(value > 0 for value, _ in record["metrics"].values())


def test_traced_run_reports_every_layer_metric(tmp_path):
    record = run.measure(tiny("steady-pcp20", 25), 3, 0, True, tmp_path)
    assert record["correct"], record["problems"]
    assert [name for name in record["metrics"]] == [name for name, _, _ in run.PER_LAYER]
    check = record["self_time_check"]
    assert check["sum_of_self_s"] == pytest.approx(check["traced_wall_s"], rel=1e-9)
    assert record["metrics"]["kernel.Diffn.calls"][0] > 0
    assert Path(record["spans_file"]).stat().st_size > 0


def test_best_case_takes_each_invocation_at_its_fastest():
    walls = [1.0, 1.2]
    invocation_ms = [[300.0, 100.0], [200.0, 400.0]]
    wall, per_invocation = run.best_case(walls, invocation_ms)
    assert per_invocation == [200.0, 100.0]
    # Outside the dispatcher: 0.6 s and 0.6 s; plus 0.3 s of fastest invocations.
    assert wall == pytest.approx(0.9)


def test_unfinished_job_fails_the_check():
    from hpcdispatch.sim import SimConfig, run_simulation
    from hpcdispatch.system import preset
    from hpcdispatch.workload import generate_trace

    workload = tiny("steady-pcp20", 6)
    trace = generate_trace(workload.spec(1))
    result = run_simulation(trace, preset("eurora"), SimConfig(dispatch=workload.dispatch))
    assert run.check_result(result, trace) == []
    result.outcomes[0].completed = False
    assert any("DNF" in problem for problem in run.check_result(result, trace))


def test_digest_mismatch_fails_the_run(tmp_path, monkeypatch):
    digests = iter(["a" * 64, "b" * 64])
    monkeypatch.setattr(run, "artifact_digest", lambda result, out_dir: next(digests))
    record = run.measure(tiny("large-hcp19", 8), 1, 0, False, tmp_path)
    assert not record["correct"]
    assert any("digest" in problem for problem in record["problems"])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "steady-pcp20", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
