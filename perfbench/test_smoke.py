"""Smoke test of the benchmark at a tiny corpus size.

    python3 -m pytest perfbench/test_smoke.py

Every workload must emit every metric that BENCHMARK.json names, with its
unit, and mark as not applicable exactly the metrics of layers the
workload does not use. At this size the models cannot learn, so the only
check allowed to fail is the task-A quality check.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

UNUSED = {
    "gcan-b": {"fusion.forward_s", "fusion.forwards", "fusion.self_s",
               "checkpoint.load_s"},
    "vit-a-j2": {"fusion.forward_s", "fusion.forwards", "fusion.self_s",
                 "checkpoint.load_s"},
    "fusion-b": {"nn.train_forward_s", "nn.train_forwards"},
}


def run_bench(cwd, out, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py",
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--scale", "smoke", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(tmp_path, workload, trace):
    proc = run_bench(ROOT, tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))

    with open(tmp_path / "results" / f"{workload}-seed3-trace{trace}.json",
              encoding="utf-8") as fh:
        report = json.load(fh)
    assert set(report["not_applicable"]) == (UNUSED[workload] if trace
                                             else set())
    assert report["unpatched"] == []
    for rep in report["repetitions"]:
        for reason in rep["reasons"]:
            assert reason.startswith("taskA_f1"), reason
    if trace:
        assert {r["mode"] for r in report["repetitions"]} == \
            {"pure", "count", "trace"}
        assert (tmp_path / "spans" / f"{workload}-seed3-trace1.jsonl").stat(
        ).st_size > 0
    assert not os.listdir(tmp_path / "work")


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, tmp_path / "out", "gcan-b", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
