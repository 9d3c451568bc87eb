"""The smallest rung of the benchmark: one short run of a workload must
finish and pass its own checks (plan feasible and on the reference optimum,
every print a success, report bytes repeating across passes). bar-warm-cli
also takes the warm-start path through the in-process CLI; plate-thermal
is the one with conduction, adjoint solves and a Lipschitz penalty. Each
pass's FEM solve count is pinned, so a solve regression fails here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    return result


def test_bar_pcg_benchmark_run_is_correct():
    result = run_is_correct("bar-pcg")
    assert result["metrics"]["fem_solves"]["value"] == 12


def test_bar_warm_cli_benchmark_run_is_correct():
    result = run_is_correct("bar-warm-cli")
    assert result["metrics"]["fem_solves"]["value"] == 25


def test_plate_thermal_benchmark_run_is_correct():
    result = run_is_correct("plate-thermal")
    assert result["metrics"]["fem_solves"]["value"] == 20
