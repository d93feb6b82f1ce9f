"""Smoke test of the benchmark on one second of speech.

Run with: python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import ALL_VARIANTS, Workload

SPEC = json.loads(run.SPEC.read_text())


@pytest.fixture
def smoke_workload(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "smoke",
                        Workload(1.0, 60.0, ALL_VARIANTS, "run.alpha = 40", inputs=2))
    return "smoke"


def result_line(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_metric_with_its_unit(smoke_workload, capsys, trace, section):
    result = result_line(capsys, ["--workload", smoke_workload, "--seed", "3",
                                  "--seconds", "0", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    inputs = 1 if trace else 2
    assert result["attempted"] >= inputs + 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        self_times = sum(v for k, v in values.items()
                         if expected[k] == "s" and k != "trace.run_s")
        assert self_times == pytest.approx(values["trace.run_s"], rel=1e-3)
        assert values["costs.evals"] > 0 and values["solver.bfgs_runs"] > 0


def test_reference_mismatch_is_reported():
    summary = {"exit_code": 0, "variants": {"mwf": {"alpha": 0.0, "snr_l": 5.0}}}
    assert run.compare(summary, summary) == []
    moved = {"exit_code": 0, "variants": {"mwf": {"alpha": 0.0, "snr_l": 5.0 + 1e-12}}}
    assert run.compare(moved, summary) == []
    changed = {"exit_code": 3, "variants": {"mwf": {"alpha": 0.0, "snr_l": 5.01}}}
    assert len(run.compare(changed, summary)) == 2


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixed", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
