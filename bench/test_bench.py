"""Tests of the benchmark itself: the BENCHMARK.json schema, the result
object it prints, a smoke run of each workload on a short job list, and a
corrupted reference that must show as a failed job.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, metrics: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] is (result["failed"] == 0)
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"][1] == "bench/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in SPEC[section]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s").items()
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracer.metric_names()


def test_job_lists_follow_the_seed():
    for name in workloads.WORKLOADS:
        refs = json.loads((BENCH / "refs" / f"{name}.json").read_text())["jobs"]
        first = workloads.job_list(name, 7, refs)
        assert first == workloads.job_list(name, 7, refs)
        assert first != workloads.job_list(name, 8, refs)
        assert len(first) >= 100
        assert all(job.key in refs for job in first)


def test_scaling_follows_the_nearby_calibrations():
    ref = run.CAL_REF_S
    done = run.Pass(latencies=[1.0] * 20, calibrations=[ref] * 10 + [2 * ref] * 11)
    scaled = done.scaled()
    assert scaled[0] == 1.0 and scaled[-1] == pytest.approx(0.5 ** run.CAL_SENSITIVITY)
    assert all(a >= b for a, b in zip(scaled, scaled[1:]))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    result = result_of(bench("--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", "0", "--max-jobs", "3"))
    check_result(result, SPEC["end_to_end"])
    assert result["correct"]


def test_traced_smoke_run():
    proc = bench("--workload", "bases", "--seed", "2", "--seconds", "1", "--trace", "1",
                 "--max-jobs", "3")
    result = result_of(proc)
    check_result(result, SPEC["per_layer"])
    info = json.loads(proc.stdout.strip().splitlines()[-2])
    assert info["environment"]["traced"] is True
    assert result["metrics"]["cli.main.calls"]["value"] == 3


def test_corrupted_reference_fails(tmp_path):
    refs_dir = tmp_path / "refs"
    shutil.copytree(BENCH / "refs", refs_dir)
    path = refs_dir / "expand.json"
    data = json.loads(path.read_text())
    refs = data["jobs"]
    victim = workloads.job_list("expand", 1, refs)[0]
    refs[victim.key]["sha256"] = "0" * 64
    path.write_text(json.dumps(data))
    result = result_of(bench("--workload", "expand", "--seed", "1", "--seconds", "1",
                             "--trace", "0", "--max-jobs", "3", "--refs", str(refs_dir)))
    assert result["failed"] > 0 and not result["correct"]


def test_without_the_package_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "expand", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
