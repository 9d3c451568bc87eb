"""`tools/report_digests.py`, the byte check of refactors that must keep
every report the same, runs on this checkout and must print the digests
pinned in `report_digests.txt`, line by line. A change that alters report
bytes on purpose regenerates that file with

    python3 tools/report_digests.py . > tests/report_digests.txt

and says why in CHANGES.md."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).with_name("report_digests.txt")


def test_report_digests_print_one_line_per_report():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"),
         str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    pinned = PINNED.read_text().splitlines()
    assert len(pinned) == 72
    for line, expected in zip(lines, pinned):
        assert line == expected
    assert len(lines) == len(pinned)
