"""Smoke test of the benchmark itself, at the smallest run length.

    python3 -m pytest bench/test_smoke.py

Every workload named in BENCHMARK.json must emit every end-to-end metric
with no failed op, a traced run must emit every per-layer metric, and the
benchmark must refuse to run without the qlevy sources beside it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(res, spec):
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_end_to_end_metric(workload):
    res = result(run(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 110
    check_metrics(res, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    res = result(run("lab_mixed", 1))
    assert res["correct"] and res["failed"] == 0
    check_metrics(res, SPEC["per_layer"])
    # validation of the seed code grows faster than d^5
    assert res["metrics"]["algebra.validate_bialgebra.slope_d"]["value"] >= 5


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
