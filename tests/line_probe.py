"""Opt-in pytest plugin: the lines of ``src/seatlot`` that a run never
executed.

Load it by name, with the tests directory on the import path:

    PYTHONPATH=src:tests python -m pytest -q -p line_probe

It traces, with ``sys.settrace``, every frame of the pytest process whose
code lives in ``src/seatlot``, from the moment pytest loads it.  At the end
of the session it lists, per module, the executable lines that never ran,
and their total.  A module's executable lines are those ``co_lines()``
names in any code object its source compiles to.  Code that processes
started by the tests run (``fresh_python``) is not traced, and the time
and memory budgets of some tests fail under tracing.
"""

import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seatlot"

# Every module's executed lines, by its real path, and the local trace
# function of each code file seen, None for a file outside the package.
_ran = {os.path.realpath(path): set() for path in PACKAGE.glob("*.py")}
_files = {}


def _recorder(lines):
    """A local trace function that adds each line it sees to ``lines``."""
    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def _tracer(frame, event, arg):
    name = frame.f_code.co_filename
    local = _files.get(name, False)
    if local is False:
        lines = _ran.get(os.path.realpath(name))
        local = _files[name] = None if lines is None else _recorder(lines)
    if local is not None:
        local(frame, "line", arg)  # the line a call starts or resumes on
    return local


def executable_lines(source: str, filename: str) -> set:
    """The line numbers ``co_lines()`` names in the code objects of
    ``source``, nested ones included."""
    lines, codes = set(), [compile(source, filename, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _start, _end, line in code.co_lines()
                     if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def unrun_lines() -> dict:
    """Module file name -> its executable lines that never ran, sorted."""
    found = {}
    for path, ran in sorted(_ran.items()):
        source = Path(path).read_text(encoding="utf-8")
        unrun = sorted(executable_lines(source, path) - ran)
        if unrun:
            found[Path(path).name] = unrun
    return found


def pytest_configure(config):
    sys.settrace(_tracer)
    threading.settrace(_tracer)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    found = unrun_lines()
    terminalreporter.write_sep("-", "lines of src/seatlot never run")
    for name, lines in found.items():
        terminalreporter.write_line(
            f"{name}: {len(lines)}: {', '.join(map(str, lines))}")
    terminalreporter.write_line(
        f"line probe: {sum(map(len, found.values()))} unrun lines in "
        f"{len(found)} modules")
