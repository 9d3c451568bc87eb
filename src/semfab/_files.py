"""The one way semfab reads and writes a file.

Every file is UTF-8, with no newline translation.  A writer writes its
file whole or not at all, and a reader's error names the file.
"""

import json
import os
from pathlib import Path


def write_whole(path, write) -> None:
    """Call ``write(fh)`` on a temporary file beside ``path``, which
    replaces ``path`` once ``write`` returns and is deleted if it raises,
    leaving any file already at ``path`` as it was."""
    tmp = Path(f"{os.fspath(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_json(doc, path) -> None:
    """Write ``doc`` as strict JSON, indented by 2 with sorted keys and a
    final newline, through :func:`write_whole`; the dump streams."""

    def write(fh):
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    write_whole(path, write)


def load_json(path, error=ValueError):
    """The JSON document in ``path``; raises ``error``, naming the path,
    when the file is not UTF-8 or not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise error(f"{os.fspath(path)}: not valid JSON: {exc}") from exc
