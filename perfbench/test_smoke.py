"""Smoke test of the benchmark harness: every workload at its tiny size.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_outputs_check_and_metrics_match_spec(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    meta = json.loads(meta_line)["meta"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, meta["failures"]
    assert result["attempted"] >= 1

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name

    if trace:
        metrics = result["metrics"]
        self_total = sum(v["value"] for k, v in metrics.items()
                         if v["unit"] == "s" and not k.startswith("trace."))
        assert self_total == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    else:
        assert all(result["metrics"][name]["value"] > 0 for name in units)
    if workload == "check":
        assert len(meta["known_defects"]["detail"]) == 4


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
