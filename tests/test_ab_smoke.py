"""`tools/ab.py`, the same-process A/B of two checkouts, runs on this
checkout against itself: both trees must write the same reports, and the
summary's last line is JSON with every timing of both sides.  A tree whose
CLI fails stops the run at its exit code."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_of_the_checkout_against_itself_runs_and_agrees():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
         "--workload", "bar-warm-cli", "--pairs", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "report bytes equal in every pass" in lines[0]
    summary = json.loads(lines[-1])
    assert summary["workload"] == "bar-warm-cli" and summary["pairs"] == 2
    assert set(summary["metrics"]) == {"total_s", "plan_s", "print_s"}
    for figures in summary["metrics"].values():
        for side in ("parent", "change"):
            q = figures[side]
            assert 0.0 < q["q1"] <= q["median"] <= q["q3"]
        assert 0 <= figures["change_lower"] <= 2


def test_ab_stops_at_a_failing_cli_with_its_exit_code(tmp_path):
    # a change tree whose CLI refuses every call with exit 2
    shutil.copytree(ROOT / "src" / "semfab", tmp_path / "src" / "semfab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "semfab" / "cli.py", "a",
              encoding="utf-8") as fh:
        fh.write("\n\ndef main(argv=None):\n    return 2\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT),
         str(tmp_path), "--workload", "bar-warm-cli", "--pairs", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    assert "ab: ab_change's CLI exited with 2 (warm-up)" in proc.stderr
    assert "report bytes" not in proc.stderr
