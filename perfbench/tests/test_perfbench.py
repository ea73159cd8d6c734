"""Tests of the benchmark itself: tiny-work smoke runs of every
workload, the metric catalogue against ``BENCHMARK.json``, and the
correctness check tripping on a corrupted served result.

Run from the root of a checkout: ``python -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import common  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import serve_hit  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def test_catalogue_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc, lines = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.END_TO_END if trace == "0" else layers.PER_LAYER
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "0":
        assert all(result["metrics"][m]["value"] > 0 for m in expected)
        assert any(line.startswith("host ") for line in lines)
    else:
        assert any(line.startswith(f"trace {workload}: untraced") for line in lines)


def test_all_workloads_print_the_fifteen_end_to_end_metrics():
    proc, lines = bench("--workload", "all", "--seed", "3", "--seconds", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        f"{w}.{name}": unit for w in run.WORKLOADS for name, unit in run.END_TO_END.items()
    }
    for w in run.WORKLOADS:
        assert any(line.startswith(f"{w} ") and "n=" in line for line in lines)
        assert any(line.startswith(f"{w} ") and "attempted=" in line for line in lines)


def test_same_seed_same_inputs():
    assert serve_hit.make_templates(3) == serve_hit.make_templates(3)
    assert serve_hit.make_passes(3, 2, 64) == serve_hit.make_passes(3, 2, 64)
    assert serve_hit.make_templates(3) != serve_hit.make_templates(4)


@pytest.fixture
def restore_affinity():
    cpus = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, cpus)


def test_corrupted_served_result_fails_the_run(monkeypatch, capsys, restore_affinity):
    real_prefill = serve_hit.prefill

    def corrupting_prefill(templates, cache_dir):
        reference = real_prefill(templates, cache_dir)
        for directory, _, names in os.walk(cache_dir):
            for name in names:
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as fh:
                    record = json.load(fh)
                record["result"]["events"] += 1
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(record, fh)
                return reference
        raise AssertionError("pre-fill wrote no cache records")

    monkeypatch.setattr(serve_hit, "prefill", corrupting_prefill)
    code = run.main(["--workload", "serve-hit", "--seed", "5", "--seconds", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"] == {}
    assert any("served" in line and line.startswith("FAILED") for line in lines)


def test_check_payload_names_the_difference():
    reference = [{"events": 3, "wall_s": 0.1, "exact": True}]
    good = {"job_id": "job-1", "state": "done", "results": [{"events": 3, "wall_s": 9.0, "exact": True}]}
    bad = {"job_id": "job-2", "state": "done", "results": [{"events": 4, "wall_s": 0.1, "exact": True}]}
    import serving

    assert serving.check_payload(good, "lu2d", reference) is None
    assert "job-2 point 0" in serving.check_payload(bad, "lu2d", reference)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-lu2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_self_time_subtracts_covered_children():
    parent = {"start": 0.0, "end": 10.0}
    children = [{"start": 1.0, "end": 3.0}, {"start": 2.0, "end": 4.0}, {"start": 9.0, "end": 12.0}]
    assert layers.self_time(parent, children) == pytest.approx(6.0)
    assert common.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
