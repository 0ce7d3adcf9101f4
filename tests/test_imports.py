"""Import hygiene: each command loads only its own layers.

``import segci`` and every command run without numpy, which only
``bootstrap_ci`` loads; ``simulate`` and ``fit`` never load the special
functions, the interval and corpus layers or the descriptive statistics.
No command loads ``dataclasses`` or ``inspect`` (numpy loads the
latter), and ``segci ci`` reads no CSV, so it loads neither ``csv`` nor
``segci.io``. ``import segci.cli`` loads no ``json``, and ``simulate``
loads neither ``json`` nor ``segci.glm``.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import segci
from segci.cli import bundled_demo_corpus_path

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules that cost a fresh process milliseconds to load and that a
# command must not load unless it runs their code.
INTROSPECTION = ("dataclasses", "inspect")
CI_SKIPS = {*INTROSPECTION, "csv", "segci.io"}


def run_fresh(*args: str, timeout: float = 60, cwd=None,
              stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports segci from src.

    stderr is captured, and so is stdout unless ``stdout`` names a file to write it to.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=timeout, cwd=cwd)


def assert_no_numpy(code: str) -> None:
    proc = run_fresh("-c", code + "\nimport sys\nprint('numpy' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def new_modules(code: str) -> set:
    """The modules that running ``code`` in a fresh interpreter adds to sys.modules.

    The probe prints them without json, so that a check can tell whether ``code`` loads it.
    """
    script = (
        "import sys as _sys\n_before = set(_sys.modules)\n"
        f"{code}\n"
        "print(*sorted(set(_sys.modules) - _before))\n"
    )
    proc = run_fresh("-c", script)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_segci_skips_numpy():
    assert_no_numpy("import segci")


def test_import_segci_loads_only_the_package():
    # the package root resolves its public names on first access
    assert new_modules("import segci") <= {"segci", "__future__"}


def test_import_cli_skips_numpy():
    assert_no_numpy("import segci.cli")


def test_import_cli_skips_command_layers():
    loaded = new_modules("import segci.cli")
    assert not loaded & {"segci.glm", "segci.io", "csv", "json", *INTROSPECTION}, loaded


@pytest.mark.parametrize("extra", [[], ["--sd", "0.08"]], ids=["model_sd", "reported_sd"])
def test_ci_command_skips_numpy(extra):
    argv = ["ci", "--mean", "0.9", "--n", "100", *extra]
    assert_no_numpy(f"import segci.cli\nassert segci.cli.main({argv!r}) == 0")


@pytest.mark.parametrize("extra", [[], ["--sd", "0.08"]], ids=["model_sd", "reported_sd"])
def test_ci_command_import_budget(extra):
    argv = ["ci", "--mean", "0.9", "--n", "100", *extra]
    loaded = new_modules(f"import segci.cli\nassert segci.cli.main({argv!r}) == 0")
    assert "segci.intervals" in loaded
    assert not loaded & CI_SKIPS, sorted(loaded & CI_SKIPS)


def loaded_after(argv: list[str], cwd) -> set:
    """Run ``main(argv)`` in a fresh interpreter; which modules did it load?

    As in :func:`new_modules`, the probe itself loads no json.
    """
    code = (
        "import sys\nimport segci.cli\n"
        f"code = segci.cli.main({argv!r})\n"
        "print(code, *sorted(sys.modules))\n"
    )
    proc = run_fresh("-c", code, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    return set(modules)


def test_analyze_and_calibrate_skip_numpy(tmp_path):
    cal = tmp_path / "cal.csv"
    cal.write_text("task_id,method_id,n,mean_dsc,observed_sd\nt,m,100,0.9,0.1\n")
    for argv in (
        ["analyze", "--input", str(bundled_demo_corpus_path()), "--output", "report.json"],
        ["calibrate", "--input", str(cal), "--summary", "s.json", "--points", "p.csv"],
    ):
        loaded = loaded_after(argv, tmp_path)
        for module in ("numpy", *INTROSPECTION):
            assert module not in loaded, (argv[0], module)


def test_no_module_uses_dataclasses():
    # dataclasses loads inspect, ast and dis; the value types are named tuples
    paths = sorted((SRC / "segci").glob("*.py"))
    assert paths
    for path in paths:
        assert "dataclass" not in path.read_text(encoding="utf-8"), path.name


def test_simulate_and_fit_skip_aggregate_layers(tmp_path):
    simulate = ["simulate", "--output", "cases.csv", "--tasks", "2", "--methods", "4",
                "--cases", "3"]
    for argv in (simulate, ["fit", "--input", "cases.csv", "--output", "m.json"]):
        loaded = loaded_after(argv, tmp_path)
        for module in ("special", "intervals", "corpus", "descriptive"):
            assert f"segci.{module}" not in loaded, (argv[0], module)


def test_simulate_skips_numpy(tmp_path):
    # the simulator draws from segci's own Philox words and ziggurat
    argv = ["simulate", "--output", "cases.csv", "--tasks", "2", "--methods", "3", "--cases", "4"]
    loaded = loaded_after(argv, tmp_path)
    assert "segci.rng" in loaded
    assert not loaded & {"numpy", *INTROSPECTION}, sorted(loaded & {"numpy", *INTROSPECTION})


def test_simulate_skips_glm_and_json(tmp_path):
    # simulate builds no training pairs and writes no JSON
    argv = ["simulate", "--output", "cases.csv", "--tasks", "2", "--methods", "3", "--cases", "4"]
    loaded = loaded_after(argv, tmp_path)
    assert {"segci.io", "segci.simulate"} <= loaded
    assert not loaded & {"segci.glm", "json"}, sorted(loaded & {"segci.glm", "json"})


def test_fit_skips_numpy(tmp_path):
    # the per-case aggregate and the IRLS are pure Python; only simulate draws
    cases = [f"t,m{m},c{c},{0.5 + 0.04 * m + 0.01 * (c % 3)}" for m in range(5) for c in range(4)]
    pairs = [f"{x},{2 + x / 10 + (x % 3)}" for x in range(10, 90, 10)]
    (tmp_path / "cases.csv").write_text("\n".join(["task_id,method_id,case_id,dsc", *cases, ""]))
    (tmp_path / "pairs.csv").write_text("\n".join(["dsc_mean_pct,sd_pct", *pairs, ""]))
    for name in ("cases.csv", "pairs.csv"):
        loaded = loaded_after(["fit", "--input", name, "--output", "m.json"], tmp_path)
        skipped = {"numpy", "segci.rng", *INTROSPECTION}
        assert not loaded & skipped, (name, sorted(loaded & skipped))
        assert "segci.glm" in loaded


def test_every_public_name_resolves():
    for name in segci.__all__:
        assert getattr(segci, name) is not None, name
    assert set(segci.__all__) <= set(dir(segci))
    with pytest.raises(AttributeError):
        segci.no_such_name  # noqa: B018


def test_export_table_matches_module_all():
    # segci._EXPORTS restates each submodule's __all__ for the lazy loader
    for module, names in segci._EXPORTS.items():
        submodule = importlib.import_module(f"segci.{module}")
        assert set(names) <= set(submodule.__all__), module
        # only string constants such as intervals.PARAMETRIC_T may stay unexported
        unexported = set(submodule.__all__) - set(names)
        assert all(isinstance(getattr(submodule, name), str) for name in unexported), (
            module, unexported,
        )


def test_star_import():
    namespace = {}
    exec("from segci import *", namespace)
    assert set(segci.__all__) <= set(namespace)
    assert namespace["t_quantile"] is segci.special.t_quantile
