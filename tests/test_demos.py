"""Every demo script runs to completion in a fresh interpreter, and all but
demo 02, which runs the numpy bootstrap, run without numpy."""

from pathlib import Path

import pytest

from test_imports import run_fresh

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
NUMPY_DEMOS = {"02_reconstruct_ci"}


def test_demos_found():
    assert len(DEMOS) >= 5
    assert NUMPY_DEMOS <= {demo.stem for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    proc = run_fresh(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("demo", [d for d in DEMOS if d.stem not in NUMPY_DEMOS],
                         ids=lambda path: path.stem)
def test_demo_runs_without_numpy(demo, tmp_path):
    # a None entry in sys.modules makes every `import numpy` raise ImportError
    code = ("import runpy, sys\n"
            "sys.modules['numpy'] = None\n"
            f"runpy.run_path({str(demo)!r}, run_name='__main__')\n")
    proc = run_fresh("-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
