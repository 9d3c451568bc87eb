"""`tools/report_digests.py`, the byte check of refactors that must keep
every report the same, runs on this checkout: an API change that breaks it
fails here rather than when two trees are next compared."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_report_digests_print_one_line_per_report():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"),
         str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 69
    labels = []
    for line in lines:
        match = re.fullmatch(r"[0-9a-f]{64}  (\S+)", line)
        assert match, line
        labels.append(match.group(1))
    assert len(set(labels)) == len(labels)
