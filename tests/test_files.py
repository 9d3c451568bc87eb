"""Every file semfab reads or writes goes through ``semfab._files``, which
writes it whole or not at all; ``test_cli.py`` checks that a read error
names the file."""

import argparse
import ast
import errno
import json
import types
from pathlib import Path

import pytest

from semfab import _files, cli, mesh, optimize, printsim

_HISTORY = (printsim.LayerRecord(0, "full", 2.5, 3, 1.5e5),
            printsim.LayerRecord(1, "abort", None, 4, 1.4e5))
_TRACE = ({"iter": 0, "objective": 2.5, "max_violation": 0.1,
           "step_norm": 0.0},
          {"iter": 1, "objective": 2.25, "max_violation": -0.5,
           "step_norm": 12.0})


def _svg(path):
    report = path.parent.parent / "report.json"
    report.write_text(json.dumps({
        "outcome": "aborted", "seed": 0, "n_layers": 2, "fem_solves": 7,
        "abort": None, "verdicts": [],
        "history": [dict(printsim._history_row(rec)) for rec in _HISTORY]}))
    cli.cmd_report(argparse.Namespace(report=report, svg=path))


WRITERS = {
    "mesh": lambda path: mesh.save_mesh(
        mesh.generate_box_mesh(1, 1, 1, (1.0, 1.0, 1.0)), path),
    "trace": lambda path: optimize.write_trace(
        types.SimpleNamespace(trace=_TRACE), path),
    "csv": lambda path: printsim.history_to_csv(
        types.SimpleNamespace(history=_HISTORY), path),
    "svg": _svg,
}


class _HalfWrite:
    """A text file whose first write writes half its text and then fails,
    as one on a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def write(self, text):
        self._fh.write(text[:len(text) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def _failing_open(*args, **kwargs):
    return _HalfWrite(open(*args, **kwargs))


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS)
def test_a_file_is_written_whole_or_not_at_all(tmp_path, monkeypatch, write):
    out = tmp_path / "out"
    out.mkdir()
    path = out / "file"
    with monkeypatch.context() as patch:
        patch.setattr(_files, "open", _failing_open, raising=False)
        with pytest.raises(OSError, match="No space left"):
            write(path)
        assert list(out.iterdir()) == []
        path.write_bytes(b"old\r\n")
        with pytest.raises(OSError, match="No space left"):
            write(path)
        assert path.read_bytes() == b"old\r\n"
        assert list(out.iterdir()) == [path]
    write(path)
    written = path.read_bytes()
    assert written.decode("utf-8").endswith("\n") and b"\r" not in written
    assert list(out.iterdir()) == [path]


def test_a_trace_is_strict_json(tmp_path):
    path = tmp_path / "trace.jsonl"
    nan = ({**_TRACE[0], "max_violation": float("nan")},)
    with pytest.raises(ValueError):
        optimize.write_trace(types.SimpleNamespace(trace=_TRACE + nan), path)
    assert list(tmp_path.iterdir()) == []
    optimize.write_trace(types.SimpleNamespace(trace=_TRACE), path)
    assert [json.loads(line) for line in path.read_text().splitlines()] == \
        list(_TRACE)


_FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _file_calls(source):
    """(line, callee) of every call in ``source`` that opens, reads or
    writes a file, or reads or writes JSON through a file handle."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name):
            hit = func.id == "open"
        elif isinstance(func, ast.Attribute):
            hit = func.attr in _FILE_CALLS or (
                func.attr in ("load", "dump")
                and isinstance(func.value, ast.Name) and func.value.id == "json")
        else:
            hit = False
        if hit:
            found.append((node.lineno, ast.unparse(func)))
    return found


def test_no_module_but_the_files_module_touches_a_file():
    package = Path(_files.__file__).parent
    found = {path.name: _file_calls(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert found.pop("_files.py")
    assert {name: hits for name, hits in found.items() if hits} == {}
    assert [callee for _, callee in _file_calls(
        "open(p); p.read_text(); Path(p).write_bytes(b''); json.load(fh); "
        "json.dump(d, fh); json.loads(t); json.dumps(d); pickle.load(fh)")
    ] == ["open", "p.read_text", "Path(p).write_bytes", "json.load",
          "json.dump"]
