"""Line coverage of ``src/segci`` by the test suite, from the standard library alone.

Run from the repository root, with the package on the path::

    PYTHONPATH=src python tests/line_coverage.py -q

The arguments go to pytest, which runs the suite in this process under
``sys.settrace`` (and ``threading.settrace`` for new threads). A child
that this process forks inherits the trace up to ``os._exit``, through
which ``io._forked``'s workers leave: there its lines are spooled to a
file, merged after the suite. Other child processes are not traced. A
line is executable if a code object's ``co_lines()`` names it. The run
fails if the suite fails, if a statement with an executable line that
did not run is not exempt below, or if an exemption no longer matches a
missed statement. pytest does not collect this file, as its name does
not start with ``test_``.
"""

import ast
import os
import pickle
import shutil
import sys
import tempfile
import threading
import types
from importlib.util import find_spec
from pathlib import Path

import pytest

_TYPE_CHECKING = "imported for type checkers only"
_BETA_CF = "not reached by the suite; _beta_cf keeps it until ROADMAP item 2 picks its switch point"

# (file, first line of a statement, stripped) -> why the suite does not run that statement
EXEMPT = {
    ("io.py", "from .corpus import PaperRecord"): _TYPE_CHECKING,
    ("io.py", "from .simulate import CaseResult"): _TYPE_CHECKING,
    ("cli.py", "sys.exit(main())"): "runs only as `python -m segci.cli`, in a child process",
    ("special.py", "d = tiny"): _BETA_CF,
    ("special.py", "c = tiny"): _BETA_CF,
    ("special.py", "raise ArithmeticError("): _BETA_CF,
}


def executable_lines(code: types.CodeType) -> set[int]:
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def statement_starts(tree: ast.Module) -> dict[int, int]:
    """Each line of the module -> the first line of the innermost statement that holds it."""
    start = {}
    for node in ast.walk(tree):  # breadth first, so inner statements overwrite outer ones
        if isinstance(node, ast.stmt):
            start.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.lineno))
    return start


def run_suite(paths: list[str], args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The suite's exit status, and the lines of each of ``paths`` that ran."""
    ran = {path: set() for path in paths}
    by_name = {}  # co_filename -> its set in ``ran``, or None for any other file

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = ran.get(os.path.realpath(name))
        lines = by_name[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    collector, exit_, spool = os.getpid(), os._exit, tempfile.mkdtemp()

    def spooled_exit(status):
        if os.getpid() != collector:  # a forked child: keep its lines for the collector
            fd, _ = tempfile.mkstemp(dir=spool)
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(ran, fh)
        exit_(status)

    os._exit = spooled_exit
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os._exit = exit_
        for spooled in Path(spool).iterdir():
            for path, lines in pickle.loads(spooled.read_bytes()).items():
                ran[path] |= lines
        shutil.rmtree(spool)
    return status, ran


def main(args: list[str]) -> int:
    # find_spec locates the package without running it, so its import is traced too
    package = Path(find_spec("segci").origin).resolve().parent
    paths = sorted(str(path) for path in package.glob("*.py"))
    status, ran = run_suite(paths, args)
    if status != 0:
        print(f"line coverage: the suite failed (pytest exit status {status})")
        return 1
    missed, unused, covered, total = [], dict(EXEMPT), 0, 0
    for path in paths:
        source = Path(path).read_text(encoding="utf-8")
        text = source.splitlines()
        lines = executable_lines(compile(source, path, "exec", dont_inherit=True))
        start = statement_starts(ast.parse(source))
        covered, total = covered + len(lines & ran[path]), total + len(lines)
        for first in sorted({start.get(line, line) for line in lines - ran[path]}):
            key = (Path(path).name, text[first - 1].strip())
            if unused.pop(key, None) is None and key not in EXEMPT:
                missed.append(f"{key[0]}:{first}: {key[1]}")
    print(f"line coverage: {covered} of {total} executable lines ran; "
          f"{len(EXEMPT)} exemptions")
    for line in missed:
        print(f"  not run: {line}")
    for name, line in unused:
        print(f"  stale exemption (its statement ran, or is gone): {name}: {line}")
    return 1 if missed or unused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
