"""Every demo script runs to completion in a fresh interpreter."""

from pathlib import Path

import pytest

from test_imports import run_fresh

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    proc = run_fresh(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
