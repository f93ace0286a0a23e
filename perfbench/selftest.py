"""The benchmark's own tests, on the seconds-long ``tiny`` workloads.

Run with ``python -m pytest perfbench/selftest.py -q`` from the
repository root.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = run.WORKLOADS


def bench(*args, cwd=ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--size", "tiny", "--seconds", "1", *args]
    proc = subprocess.run(command, cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc, lines = bench("--workload", workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    for name, (unit, _) in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in lines), name
    assert any("failed_share" in line for line in lines)
    assert any("provenance:" in line and "nproc=" in line
               for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_attributes_no_more_than_its_wall(workload):
    proc, lines = bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = result_of(lines)["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    for name, (unit, _) in run.PER_LAYER.items():
        assert metrics[name]["unit"] == unit
    assert 0.0 <= metrics["tracing.unattributed_share"]["value"] < 1.0
    seed = json.loads(run.EXPECTED.read_text())["tiny"][workload]["seed"]
    record = json.loads(
        (run.OUT / f"result-{workload}-{seed}-trace1.json").read_text())
    traced = record["runs"]["traced"]
    spans = json.loads(
        (run.OUT / f"spans-{workload}-{seed}.json").read_text())
    self_total = sum(s["self_s"] for s in spans["stats"].values())
    assert 0.0 < self_total <= traced["wall_s"]
    assert all(span["end"] >= span["start"] for span in spans["spans"])


@pytest.mark.parametrize("workload, corrupt", [
    ("decode-cluster", lambda e: e["sim"].update(
        sim_goodput_rps=e["sim"]["sim_goodput_rps"] * (1 + 1e-6))),
    ("cohort-400k", lambda e: e["counts"].update(
        steps=e["counts"]["steps"] + 1)),
    ("search-session", lambda e: e["labels"].pop()),
])
def test_check_fires_on_corrupted_expectation(tmp_path, monkeypatch, capsys,
                                              workload, corrupt):
    expected = json.loads(run.EXPECTED.read_text())
    corrupt(expected["tiny"][workload])
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", path)
    code = run.main(["--workload", workload, "--size", "tiny",
                     "--seconds", "1"])
    assert code == 1
    lines = capsys.readouterr().out.strip().splitlines()
    result = result_of(lines)
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("FAILED:") for line in lines)


def test_held_out_seed_passes_the_invariants():
    proc, lines = bench("--workload", "prefix-elastic", "--seed", "4242")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(lines)
    assert result["correct"]
    assert any(line.split()[:1] == ["sim_ttft_p99_s"] for line in lines)


def test_without_the_program_no_result_is_printed(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = bench("--workload", "decode-cluster", cwd=tmp_path)
    assert proc.returncode not in (0, 1)
    assert not any(line.startswith("{") for line in lines)


def test_pace_is_read_over_the_window():
    # [monotonic, cpu, chunks]: 100 chunks per CPU second, then 50.
    timeline = [[0.0, 0.0, 0], [1.0, 1.0, 100], [2.0, 2.0, 200],
                [3.0, 3.0, 250], [4.0, 4.0, 300]]
    assert run.pace_over(timeline, 0.0, 2.0) == 100.0
    assert run.pace_over(timeline, 2.5, 3.5) == 50.0
    assert run.pace_over(timeline, 0.5, 1.5) == 100.0
    assert run.pace_over(timeline[:1], 0.0, 1.0) is None
    # No progress inside the window: widened to points that show some.
    stalled = [[0.0, 0.0, 0], [1.0, 1.0, 100], [1.2, 1.0, 100],
               [1.4, 1.0, 100], [3.0, 2.0, 200]]
    assert run.pace_over(stalled, 1.25, 1.35) == 100.0
    assert run.at_ref_pace(2.0, run.REF_PACE) == 2.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"])
                for m in spec[key]} == table
    assert spec["paths"] == ["perfbench"]
