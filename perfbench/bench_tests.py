"""Tests of the benchmark itself.

    python3 -m pytest perfbench/bench_tests.py

The file name keeps these out of the package's own test run: the smoke and
trace runs below take a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=200,
    )


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_checker_bites_on_a_solver_off_by_one(monkeypatch):
    import tourlab
    import tourlab.enumeration as en

    real = en.dom

    def one_too_many(t, deadline=None):
        got = real(t, deadline)
        return got._replace(value=got.value + 1)

    monkeypatch.setattr(en, "dom", one_too_many)
    got = worker.run_pass(tourlab, "scans", seed=0, check=True)
    failed = [op["name"] for op in got["ops"] if op["error"]]
    assert len(failed) / len(got["ops"]) > 0
    assert {"theorem_suite", "backdom", "legends_01", "legends_10"} <= set(failed)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = result_line(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        got = res["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"] and got["value"] > 0


def test_trace_covers_every_metric_and_binding():
    called = set()
    for workload in WORKLOAD_NAMES:
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        res = result_line(proc)
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        record = json.loads((ROOT / ".perfbench_out" /
                             f"result-{workload}-seed3-trace1.json").read_text())
        for trace in record["passes"][1]["traces"]:
            assert trace["missing"] == []
            called |= {b for b, n in trace["binding_calls"].items() if n}
    assert called == {f"{m}.{p}" for m, p, _ in tracing.BINDINGS}


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "scans", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
