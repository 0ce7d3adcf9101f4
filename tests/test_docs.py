"""Docs drift: README's CLI table, report field lists, schema number, Quickstart, model-SD
table and dotted names, and the pins that CI checks without numpy."""

import argparse
import pkgutil
import re
from pathlib import Path

from segci import cli
from segci.calibration import CalibrationSummary
from segci.descriptive import SampleSummary
from segci.glm import paper_model, predict_sd_pct
from test_cli import SIMULATE_PINS
from test_rng import KNOWN_DRAWS

ROOT = Path(__file__).resolve().parents[1]
README_TEXT = (ROOT / "README.md").read_text()
README = " ".join(README_TEXT.split("\n"))


def parser_flags():
    """{command: (required flags, optional flags)} as ``build_parser`` defines them."""
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    flags = {}
    for name, parser in commands.choices.items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        flags[name] = tuple(
            sorted(a.option_strings[0] for a in actions if a.required == required)
            for required in (True, False)
        )
    return flags


def readme_flags():
    """{command: (required flags, optional flags)} as README's CLI table lists them."""
    rows = re.findall(r"\| `(\w+)` \| ([^|]*) \| ([^|]*) \|", README)
    return {
        command: tuple(sorted(re.findall(r"`(--[\w-]+)`", cell)) for cell in cells)
        for command, *cells in rows
    }


def test_cli_table_lists_every_flag():
    assert readme_flags() == parser_flags()


def readme_field_list(owner):
    sentence = re.search(rf"`{owner}`, in their declared order: ([^.]*)\.", README)
    return re.findall(r"`(\w+)`", sentence.group(1))


def test_report_field_lists():
    assert readme_field_list("CalibrationSummary") == list(CalibrationSummary._fields)
    assert readme_field_list("SampleSummary") == list(SampleSummary._fields)


def test_schema_number():
    assert re.findall(r'"schema": (\d+)', README) == [str(cli.REPORT_SCHEMA_VERSION)]


def test_library_quickstart_numbers(capsys):
    # each number in a comment is the value assigned on its line, or printed
    # by it, to the digits shown
    block = re.search(r"## Quickstart \(library\)\s+```python\n(.*?)```", README_TEXT, re.S)
    code = block.group(1)
    namespace = {}
    exec(code, namespace)
    printed = iter(capsys.readouterr().out.splitlines())
    claims = 0
    for line in code.splitlines():
        statement, _, comment = line.partition("#")
        shown = re.findall(r"\d+\.\d+", comment)
        if not statement.strip() or not shown:
            continue
        if statement.startswith("print("):
            values = [float(v) for v in next(printed).split()]
        else:
            values = [namespace[statement.split("=")[0].strip()]]
        assert len(values) == len(shown), line
        assert [f"{v:.{len(d.split('.')[1])}f}" for v, d in zip(values, shown)] == shown, line
        claims += len(shown)
    assert claims == 3


def test_model_sd_table():
    # each cell is predict_sd_pct at its mean and b2, with b0 and b1 as bundled, to 0.1
    header = re.search(r"^\| mean DSC \| model SD, (.*) \|$", README_TEXT, re.M)
    b2s = [float(b2.replace("−", "-")) for b2 in re.findall(r"b2 = (\S+)", header.group(1))]
    rows = re.findall(r"^\| (\d+) % \| (.*) \|$", README_TEXT[header.end():], re.M)
    b0, b1, _ = paper_model().coefficients
    assert [mean for mean, _ in rows] == ["70", "80", "90", "95"]
    for mean, cells in rows:
        want = [f"{predict_sd_pct((b0, b1, b2), float(mean)):.1f} %" for b2 in b2s]
        assert cells.split(" | ") == want, mean


def test_dotted_names_resolve():
    names = set(re.findall(r"\bsegci(?:\.\w+)+", README))
    assert {"segci.rng.substream", "segci.rng.index_words", "segci.rng.word_streams",
            "segci.rng.gamma_sampler"} <= names
    for name in sorted(names):
        pkgutil.resolve_name(name)  # ImportError or AttributeError for a stale name


def test_workflow_checks_every_simulate_pin():
    # the no-numpy job runs simulate on Python 3.10, where the suite cannot run
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert [name for name, (_, digest) in SIMULATE_PINS.items() if digest not in workflow] == []


def test_workflow_checks_the_known_words():
    # the no-numpy job checks segci's Philox words on Python 3.10 too
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert [word for word in KNOWN_DRAWS["random_raw"] if f'"{word}"' not in workflow] == []
