"""The smallest rung of the benchmark: one short bar-pcg run must finish
and pass its own checks (plan feasible and on the reference optimum, every
print a success, report bytes repeating across passes)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bar_pcg_benchmark_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bar-pcg",
         "--seed", "0", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
