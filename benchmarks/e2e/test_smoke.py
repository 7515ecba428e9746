"""End-to-end smoke runs of run.py: every workload, every output check."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_smoke_runs_every_workload_and_check(tmp_path):
    out = tmp_path / "smoke.json"
    proc = _run(["--smoke", "--seed", "3", "--json", str(out)])
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == {w.name for w in run.WORKLOADS}
    for name, summary in report["workloads"].items():
        assert summary["correct"], summary["problems"]
        assert summary["metrics"]["fail_rate"] == 0.0
        for metric in run.END_TO_END:
            if metric.listed:
                assert line["metrics"][f"{name}.{metric.name}"]["value"] > 0
    assert "cold_call_p50_ms" in report["workloads"]["tenant_churn"]["metrics"]


def test_traced_smoke_reports_every_layer():
    proc = _run(["--smoke", "--trace", "1", "--workload", "tenant_churn"])
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    wanted = {m.name for m in run.PER_LAYER if m.listed}
    assert set(line["metrics"]) == wanted
    values = {name: entry["value"] for name, entry in line["metrics"].items()}
    assert values["cpu.run_us"] > 0 and values["workers.execute_us"] > 0
    assert values["krnl.attaches_per_call"] > 0
    assert values["trace.overhead"] > 0


def test_fails_without_the_program(tmp_path):
    # a checkout holding only BENCHMARK.json and the benchmark itself
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "warm_calls", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
