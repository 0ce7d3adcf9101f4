"""Import hygiene: the aggregate path (``import segci``, ``segci ci``) never loads numpy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import segci

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(*args: str, timeout: float = 60, cwd=None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports segci from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout, cwd=cwd)


def assert_no_numpy(code: str) -> None:
    proc = run_fresh("-c", code + "\nimport sys\nprint('numpy' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_import_segci_skips_numpy():
    assert_no_numpy("import segci")


def test_import_cli_skips_numpy():
    assert_no_numpy("import segci.cli")


@pytest.mark.parametrize("extra", [[], ["--sd", "0.08"]], ids=["model_sd", "reported_sd"])
def test_ci_command_skips_numpy(extra):
    argv = ["ci", "--mean", "0.9", "--n", "100", *extra]
    assert_no_numpy(f"import segci.cli\nassert segci.cli.main({argv!r}) == 0")


def test_every_public_name_resolves():
    for name in segci.__all__:
        assert getattr(segci, name) is not None, name
    assert set(segci.__all__) <= set(dir(segci))
    with pytest.raises(AttributeError):
        segci.no_such_name  # noqa: B018


def test_star_import():
    namespace = {}
    exec("from segci import *", namespace)
    assert set(segci.__all__) <= set(namespace)
    assert namespace["t_quantile"] is segci.special.t_quantile
