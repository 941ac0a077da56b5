"""Line coverage of src/dawin under a pytest run; stdlib only.

    PYTHONPATH=src:tools python -m pytest -p linecov -q

Loaded as a pytest plugin, this module installs a sys.settrace tracer when it
is imported, before any test module imports dawin, so the lines that run at
import count too. The tracer records the lines run in each file under
src/dawin and ignores every other frame. At the end of the session the plugin
prints the share of executable lines that ran and, per file, the lines that
never ran.

A line is executable when the compiled file maps an instruction to it
(co_lines of every code object), so blank lines, comments and docstrings do
not count. Code run in a child process, such as a CLI started through
subprocess, is not seen. The run is a measurement: it sets no threshold and
fails nothing.
"""
from __future__ import annotations

import os
import sys
import threading
import types

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), ".."))
PACKAGE = os.path.join(ROOT, "src", "dawin")

# co_filename -> lines run, or None for a file outside the package.
_RUN: dict[str, set[int] | None] = {}


def _local(frame, event, arg):
    if event == "line":
        _RUN[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    lines = _RUN.get(filename, False)
    if lines is False:
        inside = os.path.realpath(filename).startswith(PACKAGE + os.sep)
        lines = _RUN[filename] = set() if inside else None
    return None if lines is None else _local


def executable_lines(path: str) -> set[int]:
    """Every line that an instruction of the compiled file maps to."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3, 7-9, 12"."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report() -> list[str]:
    """The share line, then one line per file with lines that never ran."""
    run: dict[str, set[int]] = {}
    for filename, lines in _RUN.items():
        if lines is not None:
            run.setdefault(os.path.realpath(filename), set()).update(lines)
    total = hit = 0
    missed_lines = []
    for dirpath, dirnames, filenames in sorted(os.walk(PACKAGE)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            lines = executable_lines(path)
            missed = sorted(lines - run.get(path, set()))
            total += len(lines)
            hit += len(lines) - len(missed)
            if missed:
                rel = os.path.relpath(path, ROOT)
                missed_lines.append(f"{rel} ({len(missed)}): {_ranges(missed)}")
    share = 100.0 * hit / total if total else 0.0
    head = f"src/dawin: {hit:,} of {total:,} executable lines run ({share:.1f}%)"
    return [head] + missed_lines


def pytest_terminal_summary(terminalreporter):
    replaced = sys.gettrace() is not _global
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("linecov")
    if replaced:
        terminalreporter.write_line(
            "another tracer replaced this one during the run: the share is a lower bound"
        )
    for line in report():
        terminalreporter.write_line(line)


sys.settrace(_global)
threading.settrace(_global)
