import hashlib
import json
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from segci import cli, paper_model, reconstruct_ci, special
from segci import io as sio
from segci.cli import _dump_json, bundled_demo_corpus_path, main
from test_imports import run_fresh

PAPER_COEFFS = (2.0310, 0.0726, -0.0008)

# The flags each command reads; each command refuses the rest of the six
# that used to be registered on every command.
READ_FLAGS = {
    "ci": ["--alpha", "--model", "--no-clamp", "--force-model-sd"],
    "calibrate": ["--alpha", "--model", "--min-n"],
    "analyze": ["--alpha", "--model", "--no-clamp", "--force-model-sd"],
    "simulate": ["--seed"],
    "fit": [],
}
FORMER_FLAGS = ["--alpha", "--seed", "--model", "--no-clamp", "--min-n", "--force-model-sd"]
REMOVED_FLAGS = [
    (command, flag)
    for command, read in READ_FLAGS.items()
    for flag in FORMER_FLAGS
    if flag not in read
]


# simulate's argv -> sha256 of its output
SIMULATE_PINS = {
    "default": (["--seed", "42"],
                "7d1b204cc47c7991bba328ff6b8cd22e02b991fd93c6b9e44d53d7c374a59d67"),
    "beta_4_2": (["--cases", "200", "--family", "beta:4,2", "--seed", "7"],
                 "d65dcaaa8a0019bc29a01b63d00224bb2a2174689461ea73800869c0cebfce95"),
    # more cases a group than one batch, at shapes below 1, where every
    # case reads past its first block
    "beta_0.5_0.7_300_cases": (["--tasks", "2", "--methods", "2", "--cases", "300",
                                "--family", "beta:0.5,0.7", "--seed", "11"],
                               "e632d1a41a3b8ed6b2316c91f70b9b5752b0fae464c9706608d7f53fe97fc8f1"),
}

# analyze's flags -> sha256 of its report on the bundled demo corpus
ANALYZE_PINS = {
    "default": ([], "7e46abf012ab5b878a1ed3a24e4d6cf5eef03ea7c1e4759a2fa88a00660fd562"),
    "no_clamp_model_sd_alpha_0.1": (["--no-clamp", "--force-model-sd", "--alpha", "0.1"],
                                    "ab12d3c4e4898644d0828f72ff6ebdb08a59f23624145e4ce408d9cd8e19e3e8"),
}

# calibrate's flags on write_calibration_input's file -> exit code, sha256 of the
# summary JSON and sha256 of the points CSV
CALIBRATE_PINS = {
    "default": ([], 0,
                "9c6fba025d1864580cf274ee429ccdf54ddc94a524d6bf89d0dc2d7488cf7806",
                "a2664d526112af661ec73f77e14d836bdd3a983ebabb5f771fc2bd3ee799a9b4"),
    "alpha_0.1_min_n_100": (["--alpha", "0.1", "--min-n", "100"], 0,
                            "b582e693030bf7280c5fe057c15156c485b18e1f1c841729ee4b259cc42a0369",
                            "2077d8f0782d4b4cf9ca9bba568aa6d8584f99290c7c1dd727afb25de45d8ddf"),
    # every n is at most 299: the summary is empty, and the run exits 2
    "min_n_300_empty": (["--min-n", "300"], 2,
                        "a16d3f50291db7505d0e06dd90ccce71846bcdce7f7bb12cb76b7b9a31d6365d",
                        "a2664d526112af661ec73f77e14d836bdd3a983ebabb5f771fc2bd3ee799a9b4"),
}

# the model that `fit` writes from `simulate --seed 42`
GOLDEN_MODEL = {
    "coefficients": [-5.658939, 0.234743, -0.001662],
    "dispersion": 0.008771,
    "scale": "percent",
    "n_obs": 190,
    "converged": True,
}

# reconstruct_ci(0.9, 10, None, paper_model())'s interval, as float.hex(); the model SD it
# returns is exp's own result, and moves with libm's last bit
CI_PIN = ("0x1.af55edc212804p-1", "0x1.ea43abd787196p-1")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_exact_fit_pairs(path, coeffs=PAPER_COEFFS):
    lines = ["dsc_mean_pct,sd_pct"]
    for x in range(10, 100, 10):
        sd = math.exp(coeffs[0] + coeffs[1] * x + coeffs[2] * x * x)
        lines.append(f"{float(x)},{sd!r}")
    path.write_text("\n".join(lines) + "\n")


def write_calibration_input(path):
    # 200 aggregates: 20 tasks of 10 methods, n from 2 to 299 and
    # observed SDs both under and over the model's prediction
    lines = ["task_id,method_id,n,mean_dsc,observed_sd"]
    for i in range(200):
        n = 2 + (i * 37) % 298
        mean = 0.55 + 0.44 * ((i * 53) % 200) / 199
        sd = 0.01 + 0.2 * ((i * 71) % 200) / 199
        lines.append(f"task{i // 10},m{i % 10},{n},{mean!r},{sd!r}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def base_argv(tmp_path):
    """A valid invocation of every command, without any optional flag."""
    pairs = tmp_path / "pairs.csv"
    write_exact_fit_pairs(pairs)
    cal = tmp_path / "cal.csv"
    cal.write_text("task_id,method_id,n,mean_dsc,observed_sd\nt,m,100,0.8,0.1\n")
    return {
        "ci": ["ci", "--mean", "0.9", "--n", "100", "--sd", "0.05"],
        "calibrate": ["calibrate", "--input", str(cal), "--summary", str(tmp_path / "s.json"),
                      "--points", str(tmp_path / "p.csv")],
        "analyze": ["analyze", "--input", str(bundled_demo_corpus_path()),
                    "--output", str(tmp_path / "r.json")],
        "simulate": ["simulate", "--output", str(tmp_path / "c.csv"), "--tasks", "1",
                     "--methods", "1", "--cases", "3"],
        "fit": ["fit", "--input", str(pairs), "--output", str(tmp_path / "m.json")],
    }


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"coefficients": list(PAPER_COEFFS), "scale": "percent"}))
    return str(path)


def flag_argv(flag, model_path):
    values = {"--alpha": "0.1", "--seed": "9", "--min-n": "3", "--model": model_path}
    return [flag, values[flag]] if flag in values else [flag]


class TestFlags:
    def test_flag_counts(self):
        assert sum(len(read) for read in READ_FLAGS.values()) == 12
        assert len(REMOVED_FLAGS) == 18

    @pytest.mark.parametrize("command, flag", REMOVED_FLAGS,
                             ids=[f"{c}{f}" for c, f in REMOVED_FLAGS])
    def test_unread_flag_is_usage_error(self, capsys, base_argv, tmp_path, command, flag):
        argv = base_argv[command] + flag_argv(flag, str(tmp_path / "nothing.json"))
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("command", sorted(READ_FLAGS))
    def test_read_flags_accepted(self, capsys, base_argv, model_file, command):
        argv = base_argv[command] + [x for f in READ_FLAGS[command] for x in flag_argv(f, model_file)]
        code, _, err = run(capsys, *argv)
        assert code == 0, err

    @pytest.mark.parametrize("command, flag, value", [
        ("ci", "--alpha", "2"),
        ("calibrate", "--alpha", "2"),
        ("analyze", "--alpha", "2"),
        ("calibrate", "--min-n", "-1"),
    ])
    def test_bad_value_is_usage_error(self, capsys, base_argv, command, flag, value):
        code, _, err = run(capsys, *base_argv[command], flag, value)
        assert code == 1
        assert flag in err

    @pytest.mark.parametrize("command, flag, value", [
        ("ci", "--mean", "0.9_0"), ("ci", "--n", "1_00"), ("ci", "--sd", "0.0_5"),
        ("ci", "--alpha", "0.0_5"), ("calibrate", "--alpha", "0.0_5"),
        ("calibrate", "--min-n", "2_0"), ("analyze", "--alpha", "0.0_5"),
        ("simulate", "--tasks", "1_0"), ("simulate", "--methods", "1_0"),
        ("simulate", "--cases", "1_0"), ("simulate", "--seed", "4_2"),
        ("simulate", "--exclude", "1_0:2"), ("simulate", "--family", "beta:1_0,2"),
    ])
    def test_underscore_literal_refused(self, capsys, base_argv, command, flag, value):
        # int("1_00") and float("0.0_5") read 100 and 0.05; the CSV readers refuse them too
        code, out, err = run(capsys, *base_argv[command], flag, value)
        assert code == 1
        assert "error:" in err and repr(value) in err
        assert out == ""

    def test_no_flag_parses_with_bare_int_or_float(self):
        subparsers = cli.build_parser()._subparsers._group_actions[0].choices
        actions = [a for p in subparsers.values() for a in p._actions if a.type not in (None, str)]
        assert len(actions) == 11
        assert all(a.type in (cli._INT, cli._FLOAT) for a in actions), actions

    @pytest.mark.parametrize("command, prefix, full", [
        ("simulate", ["--se", "5"], ["--seed", "5"]),
        ("ci", ["--for"], ["--force-model-sd"]),
    ], ids=["simulate--se", "ci--for"])
    def test_flag_prefix_is_usage_error(self, capsys, base_argv, command, prefix, full):
        # a prefix is not read as the flag it abbreviates
        code, _, err = run(capsys, *base_argv[command], *prefix)
        assert code == 1
        assert "unrecognized arguments" in err
        assert run(capsys, *base_argv[command], *full)[0] == 0


def test_dump_json_refuses_nan():
    with pytest.raises(ValueError):
        _dump_json({"x": float("nan")}, None)


class TestModelFlag:
    def test_fitted_model_is_used(self, capsys, tmp_path):
        coeffs = (1.5, 0.05, -0.0005)
        pairs = tmp_path / "pairs.csv"
        write_exact_fit_pairs(pairs, coeffs)
        model = tmp_path / "model.json"
        assert run(capsys, "fit", "--input", str(pairs), "--output", str(model))[0] == 0
        assert json.loads(model.read_text())["coefficients"] == list(coeffs)
        code, out, _ = run(capsys, "ci", "--mean", "0.9", "--n", "100", "--model", str(model))
        assert code == 0
        doc = json.loads(out)
        expected = math.exp(coeffs[0] + coeffs[1] * 90.0 + coeffs[2] * 8100.0) / 100.0
        assert doc["sd_used"] == pytest.approx(expected, abs=1e-6)
        assert doc["sd_used"] != pytest.approx(0.080446, abs=1e-3)  # bundled model's SD
        assert doc["sd_source"] == "model"

    @pytest.mark.parametrize("text", [
        "{}",
        "not json",
        "[2.031, 0.0726, -0.0008]",
        '{"coefficients": [1e300, 0, 0], "scale": "percent"}',
        '{"coefficients": [NaN, 0, 0], "scale": "percent"}',
        '{"coefficients": [2.0, Infinity, 0], "scale": "percent"}',
        '{"coefficients": [2.0, 0, -Infinity], "scale": "percent"}',
        '{"coefficients": ["2.0", 0, 0], "scale": "percent"}',
        # each loaded into GlmFit as given, and ci exited 0
        '{"coefficients": [2.031, 0.0726, -0.0008], "scale": "percent", '
        '"dispersion": [1, 2], "n_obs": "x", "converged": 7}',
        '{"coefficients": [2.031, 0.0726, -0.0008], "scale": "percent", "dispersion": NaN}',
        '{"coefficients": [2.031, 0.0726, -0.0008], "scale": "percent", "dispersion": -1}',
        '{"coefficients": [2.031, 0.0726, -0.0008], "scale": "percent", "dispersion": true}',
        '{"coefficients": [2.031, 0.0726, -0.0008], "scale": "percent", "n_obs": -1}',
        '{"coefficients": [2.031, 0.0726, -0.0008], "scale": "percent", "n_obs": 189.0}',
        '{"coefficients": [2.031, 0.0726, -0.0008], "scale": "percent", "n_obs": true}',
        '{"coefficients": [2.031, 0.0726, -0.0008], "scale": "percent", "converged": 1}',
        '{"coefficients": [2.031, 0.0726, -0.0008], "scale": "percent", "converged": "true"}',
    ], ids=["empty_object", "not_json", "list", "overflow", "nan", "inf", "minus_inf", "string",
            "wrong_field_types", "nan_dispersion", "negative_dispersion", "bool_dispersion",
            "negative_n_obs", "float_n_obs", "bool_n_obs", "int_converged", "string_converged"])
    def test_bad_model_file_is_data_error(self, capsys, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        code, out, err = run(capsys, "ci", "--mean", "0.9", "--n", "100", "--model", str(path))
        assert code == 2
        assert out == ""
        assert str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["calibrate", "analyze"])
    def test_bad_model_file_in_batch_commands(self, capsys, base_argv, tmp_path, command):
        path = tmp_path / "model.json"
        path.write_text("{}")
        code, _, err = run(capsys, *base_argv[command], "--model", str(path))
        assert code == 2
        assert str(path) in err

    @pytest.mark.parametrize("text", [None, "not json"], ids=["missing", "invalid_json"])
    def test_ci_with_reported_sd_reads_model(self, capsys, base_argv, tmp_path, text):
        # with --sd, ci never opened --model and exited 0 whatever the file held
        path = tmp_path / "model.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run(capsys, *base_argv["ci"], "--model", str(path))
        assert (code, out) == (2, "")
        assert str(path) in err and "Traceback" not in err
        assert run(capsys, *base_argv["analyze"], "--model", str(path)) == (2, "", err)

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        # refused with "Unexpected UTF-8 BOM (decode using utf-8-sig)", exit 2
        text = (bundled_demo_corpus_path().parent / "paper_model.json").read_bytes()
        path = tmp_path / "model.json"
        path.write_bytes(text)
        plain = run(capsys, "ci", "--mean", "0.9", "--n", "10", "--model", str(path))
        assert plain[0] == 0
        path.write_bytes(b"\xef\xbb\xbf" + text)
        assert run(capsys, "ci", "--mean", "0.9", "--n", "10", "--model", str(path)) == plain

    def test_missing_model_file(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        code, _, err = run(capsys, "ci", "--mean", "0.9", "--n", "100", "--model", str(path))
        assert code == 2
        assert str(path) in err


class TestCi:
    def test_model_sd(self, capsys):
        code, out, _ = run(capsys, "ci", "--mean", "0.90", "--n", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] == pytest.approx(0.88404, abs=1e-4)
        assert doc["upper"] == pytest.approx(0.91596, abs=1e-4)
        assert doc["sd_source"] == "model"

    def test_zero_sd(self, capsys):
        code, out, _ = run(capsys, "ci", "--mean", "0.90", "--n", "100", "--sd", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] == doc["upper"] == 0.9
        assert doc["sd_source"] == "reported"

    @pytest.mark.parametrize("mean", ["0.0", "1.0"])
    def test_model_sd_at_the_ends(self, capsys, mean):
        # the model SD read 0.076217 at 0.0 and 0.036364 at 1.0, uncapped
        code, out, _ = run(capsys, "ci", "--mean", mean, "--n", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["sd_used"] == 0.0
        assert doc["lower"] == doc["upper"] == float(mean)
        assert doc["sd_source"] == "model"

    def test_force_model_sd(self, capsys):
        code, out, _ = run(
            capsys, "ci", "--mean", "0.90", "--n", "100", "--sd", "0.2", "--force-model-sd"
        )
        assert code == 0
        assert json.loads(out)["sd_source"] == "model"

    def test_out_of_range_mean(self, capsys):
        code, _, err = run(capsys, "ci", "--mean", "1.2", "--n", "100")
        assert code == 1
        assert "mean" in err

    def test_small_n(self, capsys):
        code, _, _ = run(capsys, "ci", "--mean", "0.5", "--n", "1")
        assert code == 1

    def test_bad_alpha(self, capsys):
        code, _, _ = run(capsys, "ci", "--mean", "0.5", "--n", "10", "--alpha", "2")
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_sd(self, capsys, value):
        # --sd nan used to exit 0 with the clamped interval [0, 1].
        code, out, err = run(capsys, "ci", "--mean", "0.9", "--n", "100", f"--sd={value}")
        assert code == 1
        assert out == ""
        assert "--sd must be finite" in err

    @pytest.mark.parametrize("flag,value", [
        ("--mean", "nan"), ("--mean", "inf"), ("--alpha", "nan"), ("--alpha", "inf"),
    ])
    def test_non_finite_mean_and_alpha(self, capsys, flag, value):
        argv = {"--mean": "0.9", "--n": "100", "--alpha": "0.05", flag: value}
        code, out, err = run(capsys, "ci", *[x for kv in argv.items() for x in kv])
        assert code == 1
        assert out == ""
        assert flag in err

    def test_non_converging_quantile_is_error(self, capsys):
        # t_quantile runs out of its step budget at df = 1e9; main reports
        # the ArithmeticError as an error line, not a traceback.
        code, out, err = run(capsys, "ci", "--mean", "0.9", "--n", "1000000001", "--sd", "0.1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: t quantile did not converge")
        assert "Traceback" not in err

    def test_unclamped_overflow_is_error(self, capsys):
        # the interval was (-inf, inf), and the JSON encoder refused it
        argv = ["ci", "--mean", "0.5", "--n", "2", "--sd", "1e308"]
        code, out, err = run(capsys, *argv, "--no-clamp")
        assert (code, out) == (1, "")
        assert err == "error: unclamped interval overflows: sd=1e+308 at n=2 gives an infinite width\n"
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert (json.loads(out)["lower"], json.loads(out)["upper"]) == (0.0, 1.0)

    @pytest.mark.parametrize("exc", [ArithmeticError, OverflowError, ZeroDivisionError])
    def test_arithmetic_error_is_exit_1(self, capsys, monkeypatch, exc):
        def fail(args):
            raise exc("no number")

        monkeypatch.setitem(cli._COMMANDS, "ci", fail)
        code, out, err = run(capsys, "ci", "--mean", "0.9", "--n", "100")
        assert (code, out, err) == (1, "", "error: no number\n")


class TestFit:
    def test_exact_fit_pairs(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.csv"
        write_exact_fit_pairs(pairs)
        model_path = tmp_path / "model.json"
        code, out, _ = run(capsys, "fit", "--input", str(pairs), "--output", str(model_path))
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert doc["coefficients"] == [2.031, 0.0726, -0.0008]
        assert doc["converged"] is True
        assert "coefficients:" in out

    def test_per_case_input(self, capsys, tmp_path):
        cases = tmp_path / "cases.csv"
        run(capsys, "simulate", "--output", str(cases), "--tasks", "3", "--methods", "4",
            "--cases", "25", "--seed", "6")
        model_path = tmp_path / "model.json"
        code, _, _ = run(capsys, "fit", "--input", str(cases), "--output", str(model_path))
        assert code == 0
        assert model_path.exists()

    def test_tiny_group_kept(self, capsys, tmp_path):
        # its squared deviations (about 2.5e-401) underflowed to an SD of 0 before
        from segci import make_training_pairs, summarize
        from segci.io import iter_per_case_csv

        cases = tmp_path / "cases.csv"
        run(capsys, "simulate", "--output", str(cases), "--tasks", "3", "--methods", "4",
            "--cases", "25", "--seed", "6")
        with cases.open("a") as f:
            f.write("tiny,m,c1,1e-200\ntiny,m,c2,2e-200\n")
        model_path = tmp_path / "model.json"
        code, _, err = run(capsys, "fit", "--input", str(cases), "--output", str(model_path))
        assert code == 0
        assert "zero-SD" not in err
        assert json.loads(model_path.read_text())["n_obs"] == 13
        tiny = make_training_pairs(iter_per_case_csv(cases)).pairs[-1]
        stats = summarize([1e-200, 2e-200])
        assert tiny.dsc_mean_pct.hex() == (stats.mean * 100.0).hex()
        assert tiny.sd_pct.hex() == (stats.sd * 100.0).hex()
        assert stats.sd == pytest.approx(0.5e-200 * math.sqrt(2.0), rel=1e-15)

    def test_deterministic_output(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.csv"
        write_exact_fit_pairs(pairs)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        run(capsys, "fit", "--input", str(pairs), "--output", str(out_a))
        run(capsys, "fit", "--input", str(pairs), "--output", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_empty_csv(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run(capsys, "fit", "--input", str(empty), "--output", str(tmp_path / "m.json"))
        assert code == 2
        assert "error" in err

    def test_too_few_pairs(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("dsc_mean_pct,sd_pct\n80.0,5.0\n85.0,6.0\n")
        code, _, _ = run(capsys, "fit", "--input", str(path), "--output", str(tmp_path / "m.json"))
        assert code == 2

    def test_non_finite_pair(self, capsys, tmp_path):
        # used to reach the solver and fail with "SVD did not converge"
        path = tmp_path / "pairs.csv"
        write_exact_fit_pairs(path)
        with open(path, "a") as fh:
            fh.write("nan,5.0\n")
        code, _, err = run(capsys, "fit", "--input", str(path), "--output", str(tmp_path / "m.json"))
        assert code == 2
        assert "line 11" in err and "finite" in err
        assert not (tmp_path / "m.json").exists()

    def test_underscore_literal_pair(self, capsys, tmp_path):
        # float("1_0") is 10: the row used to fit as a 10 % mean
        path = tmp_path / "pairs.csv"
        write_exact_fit_pairs(path)
        with open(path, "a") as fh:
            fh.write("1_0,2\n")
        code, _, err = run(capsys, "fit", "--input", str(path), "--output", str(tmp_path / "m.json"))
        assert code == 2
        assert "line 11" in err and "'1_0'" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("row, message", [
        ("80.0,-1", "sd_pct must be > 0, got -1.0"),
        ("80.0,0", "sd_pct must be > 0, got 0.0"),
        ("170,5.0", "dsc_mean_pct must lie in [0, 100], got 170.0"),
        ("-0.5,5.0", "dsc_mean_pct must lie in [0, 100], got -0.5"),
    ], ids=["negative_sd", "zero_sd", "mean_170", "negative_mean"])
    def test_out_of_range_pair(self, capsys, tmp_path, row, message):
        # refused by the reader with its line, not later by the fit without one
        path = tmp_path / "pairs.csv"
        write_exact_fit_pairs(path)
        with open(path, "a") as fh:
            fh.write(row + "\n")
        code, _, err = run(capsys, "fit", "--input", str(path), "--output", str(tmp_path / "m.json"))
        assert code == 2
        assert f"line 11: {message}" in err
        assert not (tmp_path / "m.json").exists()

    def test_model_that_loading_refuses_is_not_written(self, capsys, tmp_path):
        # exited 0 with these coefficients, and every --model run then exited 2
        path = tmp_path / "pairs.csv"
        path.write_text("dsc_mean_pct,sd_pct\n0,1\n1,10\n2,1000\n3,100000\n4,1e7\n5,1e9\n")
        model_path = tmp_path / "m.json"
        code, out, err = run(capsys, "fit", "--input", str(path), "--output", str(model_path))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: model SD is not finite at mean DSC 100.0% "
                       "(ln SD = 2363.160204)\n")
        assert not model_path.exists()

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "fit", "--input", str(tmp_path / "nope.csv"),
                         "--output", str(tmp_path / "m.json"))
        assert code == 2


class TestCalibrate:
    def test_perfect_fixture(self, capsys, tmp_path):
        lines = ["task_id,method_id,n,mean_dsc,observed_sd"]
        for i, n in enumerate((30, 50, 120)):
            mean = 0.8 + 0.03 * i
            x = mean * 100.0
            sd = math.exp(PAPER_COEFFS[0] + PAPER_COEFFS[1] * x + PAPER_COEFFS[2] * x * x) / 100.0
            lines.append(f"t{i},m,{n},{mean!r},{sd!r}")
        src = tmp_path / "cal.csv"
        src.write_text("\n".join(lines) + "\n")
        summary = tmp_path / "summary.json"
        points = tmp_path / "points.csv"
        code, _, _ = run(capsys, "calibrate", "--input", str(src),
                         "--summary", str(summary), "--points", str(points))
        assert code == 0
        doc = json.loads(summary.read_text())
        assert doc["median_width_diff"] == 0.0
        assert doc["iqr_width_diff"] == [0.0, 0.0]
        assert points.read_text().splitlines()[0] == "predicted_width,observed_width,n"

    def test_all_filtered_exits_nonzero(self, capsys, tmp_path):
        src = tmp_path / "cal.csv"
        src.write_text("task_id,method_id,n,mean_dsc,observed_sd\nt,m,10,0.8,0.1\n")
        code, _, err = run(capsys, "calibrate", "--input", str(src),
                           "--summary", str(tmp_path / "s.json"),
                           "--points", str(tmp_path / "p.csv"))
        assert code == 2
        assert "empty" in err

    def test_non_finite_observed_sd(self, capsys, tmp_path):
        src = tmp_path / "cal.csv"
        src.write_text("task_id,method_id,n,mean_dsc,observed_sd\n"
                       "t,m,100,0.8,0.1\nt,m2,100,0.8,nan\n")
        code, _, err = run(capsys, "calibrate", "--input", str(src),
                           "--summary", str(tmp_path / "s.json"),
                           "--points", str(tmp_path / "p.csv"))
        assert code == 2
        assert "line 3" in err and "observed_sd" in err

    @pytest.mark.parametrize("flags, code, summary_digest, points_digest",
                             list(CALIBRATE_PINS.values()), ids=list(CALIBRATE_PINS))
    def test_output_bytes_pinned(self, capsys, tmp_path, flags, code, summary_digest,
                                 points_digest):
        # frozen summary JSON and points CSV bytes for a generated input
        src, summary, points = tmp_path / "cal.csv", tmp_path / "s.json", tmp_path / "p.csv"
        write_calibration_input(src)
        got, _, err = run(capsys, "calibrate", "--input", str(src), "--summary", str(summary),
                          "--points", str(points), *flags)
        assert got == code
        assert ("summary is empty" in err) == (code == 2)
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == summary_digest
        assert hashlib.sha256(points.read_bytes()).hexdigest() == points_digest


class TestAnalyze:
    def test_two_paper_fixture(self, capsys, tmp_path):
        src = tmp_path / "corpus.csv"
        src.write_text(
            "paper_id,method_id,mean_dsc,test_n,sd\n"
            "p1,a,0.91,100,\n"
            "p1,b,0.90,100,\n"
            "p2,a,0.90,100,\n"
            "p2,b,0.85,100,\n"
        )
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "analyze", "--input", str(src), "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 2
        assert doc["overlap_fraction"] == 0.5
        assert len(doc["papers"]) == 2
        assert "overlap_fraction: 0.500" in stdout

    def test_single_method_paper_handling(self, capsys, tmp_path):
        src = tmp_path / "corpus.csv"
        src.write_text(
            "paper_id,method_id,mean_dsc,test_n,sd\n"
            "solo,a,0.95,60,\n"
            "duo,a,0.90,100,\n"
            "duo,b,0.89,100,\n"
        )
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", "--input", str(src), "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_papers"] == 2
        assert doc["n_with_runner_up"] == 1
        assert doc["width"]["n"] == 2
        assert doc["delta"]["n"] == 1

    def test_top_level_keys(self, capsys, tmp_path):
        src = tmp_path / "corpus.csv"
        out = tmp_path / "report.json"
        keys = ["schema", "n_papers", "n_with_runner_up", "overlap_fraction", "width", "delta",
                "ratio", "papers"]
        src.write_text(
            "paper_id,method_id,mean_dsc,test_n,sd\n"
            "a,x,0.80,40,\n"
            "a,y,0.79,40,\n"
            "b,x,0.95,200,\n"
            "b,y,0.90,200,\n"
        )
        assert run(capsys, "analyze", "--input", str(src), "--output", str(out))[0] == 0
        doc = json.loads(out.read_text())
        assert list(doc) == keys
        assert doc["delta"]["n"] == doc["ratio"]["n"] == 2
        # without a runner-up there is no gap: delta and ratio are null
        src.write_text("paper_id,method_id,mean_dsc,test_n,sd\nsolo,x,0.9,50,\n")
        assert run(capsys, "analyze", "--input", str(src), "--output", str(out))[0] == 0
        doc = json.loads(out.read_text())
        assert list(doc) == keys
        assert doc["delta"] is None and doc["ratio"] is None

    def test_bundled_demo_corpus(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", "--input", str(bundled_demo_corpus_path()),
                         "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_papers"] == 77
        assert doc["width"]["median"] == pytest.approx(0.03, abs=0.005)
        assert doc["delta"]["median"] == pytest.approx(0.01, abs=0.005)
        assert doc["overlap_fraction"] == pytest.approx(0.65, abs=0.05)

    @pytest.mark.parametrize("flags, digest", list(ANALYZE_PINS.values()), ids=list(ANALYZE_PINS))
    def test_demo_report_bytes_pinned(self, capsys, tmp_path, flags, digest):
        # frozen report bytes for the bundled demo corpus
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", "--input", str(bundled_demo_corpus_path()),
                         "--output", str(out), *flags)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_findings_across_the_rounding_of_b2(self, capsys, tmp_path):
        # the bundled b2 = -0.0008 has one significant digit; at the ends of its
        # rounding interval, with b0 and b1 as bundled, the overlap spans 0.545-0.727
        bundled = (bundled_demo_corpus_path().parent / "paper_model.json").read_text()
        assert '"coefficients": [2.0310, 0.0726, -0.0008]' in bundled
        findings = {}
        for b2 in ("-0.00085", "-0.0008", "-0.00075"):
            model, out = tmp_path / f"model{b2}.json", tmp_path / f"report{b2}.json"
            model.write_text(bundled.replace("-0.0008]", f"{b2}]"))
            assert run(capsys, "analyze", "--input", str(bundled_demo_corpus_path()),
                       "--output", str(out), "--model", str(model))[0] == 0
            doc = json.loads(out.read_text())
            findings[b2] = (doc["width"]["median"], doc["delta"]["median"],
                            doc["overlap_fraction"])
            if b2 == "-0.0008":
                assert hashlib.sha256(out.read_bytes()).hexdigest() == ANALYZE_PINS["default"][1]
        assert findings == {
            "-0.00085": (0.023207, 0.01063, 0.545455),
            "-0.0008": (0.03054, 0.01063, 0.649351),
            "-0.00075": (0.041277, 0.01063, 0.727273),
        }

    def test_unclamped_overflow_is_error(self, capsys, tmp_path):
        src, out = tmp_path / "corpus.csv", tmp_path / "report.json"
        src.write_text("paper_id,method_id,mean_dsc,test_n,sd\np1,a,0.9,2,1e308\np1,b,0.8,2,\n")
        code, _, err = run(capsys, "analyze", "--input", str(src), "--output", str(out),
                           "--no-clamp")
        assert code == 1
        assert err.startswith("error: unclamped interval overflows: sd=1e+308 at n=2")
        assert not out.exists()
        assert run(capsys, "analyze", "--input", str(src), "--output", str(out))[0] == 0
        assert json.loads(out.read_text())["papers"][0]["ci_width"] == 1.0

    @pytest.mark.parametrize("rows", [
        ["p1,a,0.9,30,0.05", "p1,b,0.9,30,0.2"],
        ["p1,b,0.9,30,0.2", "p1,a,0.9,30,0.05"],
    ], ids=["a_first", "b_first"])
    def test_tied_leaders_rank_by_method_id(self, capsys, tmp_path, rows):
        src, out = tmp_path / "corpus.csv", tmp_path / "report.json"
        src.write_text("\n".join(["paper_id,method_id,mean_dsc,test_n,sd", *rows]) + "\n")
        assert run(capsys, "analyze", "--input", str(src), "--output", str(out))[0] == 0
        (paper,) = json.loads(out.read_text())["papers"]
        assert (paper["first"], paper["second"], paper["ci_width"]) == ("a", "b", 0.037341)

    @pytest.mark.parametrize("rows", [
        ["p1,a,0.9,30,", "p1,a,0.85,30,"],
        ["p1,a,0.85,30,", "p1,a,0.9,30,"],
        ["p1,a,0.9,30,", "p2,a,0.8,40,", "p1,b,0.7,30,", " p1 ,a,0.9,30,"],
    ], ids=["lower_second", "higher_second", "apart"])
    def test_duplicate_method_is_data_error(self, capsys, tmp_path, rows):
        src, out = tmp_path / "corpus.csv", tmp_path / "report.json"
        src.write_text("\n".join(["paper_id,method_id,mean_dsc,test_n,sd", *rows]) + "\n")
        code, _, err = run(capsys, "analyze", "--input", str(src), "--output", str(out))
        assert code == 2
        last = len(rows) + 1
        assert err == (f"error: {src}: line {last}: paper 'p1' lists method 'a' twice "
                       f"(on line 2 and here)\n")
        assert not out.exists()

    def test_malformed_corpus(self, capsys, tmp_path):
        src = tmp_path / "corpus.csv"
        src.write_text("paper_id,method_id,mean_dsc,test_n,sd\np1,a,abc,100,\n")
        code, _, err = run(capsys, "analyze", "--input", str(src),
                           "--output", str(tmp_path / "r.json"))
        assert code == 2
        assert "line 2" in err


# Papers whose methods tie on purpose: "0.9" and "0.90" are the same mean,
# and tied methods may report different SDs, which set the leader's width.
corpus_papers = st.lists(
    st.tuples(
        st.sampled_from(["2", "30", "100"]),
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=5, unique=True).flatmap(
            lambda ids: st.tuples(*(
                st.tuples(st.just(i), st.sampled_from(["0.9", "0.90", "0.85", "1", "0"]),
                          st.sampled_from(["", "0.05", "0.2", "0"]))
                for i in ids
            ))
        ),
    ),
    min_size=1, max_size=5,
)


def test_report_independent_of_row_order(capsys, tmp_path):
    src, out = tmp_path / "corpus.csv", tmp_path / "report.json"

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(corpus_papers, st.randoms(use_true_random=False))
    def check(papers, rand):
        rows = [f"p{k},{i},{mean},{n},{sd}"
                for k, (n, methods) in enumerate(papers) for i, mean, sd in methods]
        reports = []
        for _ in range(2):
            src.write_text("\n".join(["paper_id,method_id,mean_dsc,test_n,sd", *rows]) + "\n")
            code, stdout, _ = run(capsys, "analyze", "--input", str(src), "--output", str(out))
            assert code == 0
            reports.append((stdout, out.read_bytes()))
            rand.shuffle(rows)  # within and across papers
        assert reports[0] == reports[1]

    check()


class TestSimulate:
    def test_constant_family(self, capsys, tmp_path):
        out = tmp_path / "cases.csv"
        code, _, _ = run(capsys, "simulate", "--output", str(out), "--tasks", "1",
                         "--methods", "1", "--cases", "3", "--family", "constant:0.8")
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert all(line.endswith("0.800000") for line in lines[1:])

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["--tasks", "2", "--methods", "3", "--cases", "20", "--seed", "5"]
        run(capsys, "simulate", "--output", str(a), *args)
        run(capsys, "simulate", "--output", str(b), *args)
        assert a.read_bytes() == b.read_bytes()

    def test_exclusion_flag(self, capsys, tmp_path):
        out = tmp_path / "cases.csv"
        code, _, _ = run(capsys, "simulate", "--output", str(out), "--tasks", "2",
                         "--methods", "2", "--cases", "2", "--exclude", "0:0,1:1")
        assert code == 0
        body = out.read_text()
        assert "task01,method01" not in body
        assert "task02,method02" not in body

    def test_large_group_mean(self, capsys, tmp_path):
        # one group of 100000 Beta(8, 2) cases: the empirical mean must
        # sit within 0.005 of the distribution mean 0.8
        out = tmp_path / "big.csv"
        code, _, _ = run(capsys, "simulate", "--output", str(out), "--tasks", "1",
                         "--methods", "1", "--cases", "100000", "--family", "beta:8,2",
                         "--seed", "2")
        assert code == 0
        values = [float(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()[1:]]
        assert sum(values) / len(values) == pytest.approx(0.8, abs=0.005)

    def test_default_spec_golden_model(self, capsys, tmp_path):
        # frozen end-to-end output: default simulation shape, seed 42,
        # fitted model file
        cases = tmp_path / "cases.csv"
        model = tmp_path / "model.json"
        assert run(capsys, "simulate", "--output", str(cases), "--seed", "42")[0] == 0
        assert run(capsys, "fit", "--input", str(cases), "--output", str(model))[0] == 0
        assert json.loads(model.read_text()) == GOLDEN_MODEL

    @pytest.mark.parametrize("argv, digest", list(SIMULATE_PINS.values()), ids=list(SIMULATE_PINS))
    def test_output_bytes_pinned(self, capsys, tmp_path, argv, digest):
        # frozen per-case CSV bytes: any change to the stream layout or
        # to the draw order shows up here
        out = tmp_path / "cases.csv"
        assert run(capsys, "simulate", "--output", str(out), *argv)[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_pins_hold_under_one_ulp_libm(self, capsys, tmp_path, monkeypatch):
        # libm need not round correctly: each call of the math functions that
        # the draws, special and glm use is nudged one ulp, up or down at random,
        # and no pin moves. sqrt and fsum are correctly rounded everywhere, and
        # NormalDist.inv_cdf (Hill's start in special) runs in C, out of reach.
        direction = random.Random(9)
        calls = dict.fromkeys(["log", "exp", "log1p", "pow", "lgamma", "expm1", "tan",
                               "hypot"], 0)

        def nudged(name):
            exact = getattr(math, name)

            def call(*args):
                calls[name] += 1
                toward = math.inf if direction.getrandbits(1) else -math.inf
                return math.nextafter(exact(*args), toward)

            return call

        def digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        for name in calls:  # before the samplers are built, as they bind these
            monkeypatch.setattr(math, name, nudged(name))
        # one process draws every row: a forked worker would take its nudges from
        # its own copy of `direction`, so the directions that reach reconstruct_ci
        # would depend on the number of CPUs
        monkeypatch.setattr(sio, "_usable_cpus", lambda: 1)
        special._solve.cache_clear()  # a cached quantile would skip the nudge
        try:
            out, points, model = tmp_path / "out", tmp_path / "points.csv", tmp_path / "model.json"
            for name, (argv, want) in SIMULATE_PINS.items():
                assert run(capsys, "simulate", "--output", str(tmp_path / name), *argv)[0] == 0
                assert digest(tmp_path / name) == want, argv
            assert run(capsys, "fit", "--input", str(tmp_path / "default"),
                       "--output", str(model))[0] == 0
            assert json.loads(model.read_text()) == GOLDEN_MODEL
            for flags, want in ANALYZE_PINS.values():
                assert run(capsys, "analyze", "--input", str(bundled_demo_corpus_path()),
                           "--output", str(out), *flags)[0] == 0
                assert digest(out) == want, flags
            write_calibration_input(src := tmp_path / "cal.csv")
            for flags, code, summary_want, points_want in CALIBRATE_PINS.values():
                assert run(capsys, "calibrate", "--input", str(src), "--summary", str(out),
                           "--points", str(points), *flags)[0] == code
                assert (digest(out), digest(points)) == (summary_want, points_want), flags
            ci, _, _ = reconstruct_ci(0.9, 10, None, paper_model())
            assert (ci.lower.hex(), ci.upper.hex()) == CI_PIN
        finally:
            special._solve.cache_clear()  # nor may a nudged one outlive the test
        assert all(calls.values()), calls  # the tail's log1p and the Cauchy tan included

    def test_ci_bytes_hold_under_one_ulp_libm(self, capsys, monkeypatch):
        # the printed interval, 6 decimals, under the nudges of the test above,
        # for 200 nudge seeds; the interval's last bit may move (README, "Determinism")
        argv = ("ci", "--mean", "0.9", "--n", "10")
        code, want, _ = run(capsys, *argv)
        assert code == 0
        names = ["log", "exp", "log1p", "pow", "lgamma", "expm1", "tan", "hypot"]
        exact = {name: getattr(math, name) for name in names}
        direction, calls = random.Random(), dict.fromkeys(names, 0)

        def nudged(name):
            def call(*args):
                calls[name] += 1
                toward = math.inf if direction.getrandbits(1) else -math.inf
                return math.nextafter(exact[name](*args), toward)

            return call

        for name in names:
            monkeypatch.setattr(math, name, nudged(name))
        try:
            moved = []
            for seed in range(200):
                direction.seed(seed)
                special._solve.cache_clear()  # a cached quantile would skip the nudge
                if run(capsys, *argv) != (0, want, ""):
                    moved.append(seed)
        finally:
            special._solve.cache_clear()
        assert moved == []
        assert calls["exp"] and calls["lgamma"], calls  # the model SD and the t quantile

    def test_bad_family(self, capsys, tmp_path):
        code, _, _ = run(capsys, "simulate", "--output", str(tmp_path / "x.csv"),
                         "--family", "cauchy:0")
        assert code == 1

    @pytest.mark.parametrize("family", ["beta:inf,2", "beta:2,inf"])
    def test_infinite_beta_shape_refused(self, tmp_path, family):
        # a fresh process with a timeout: an accepted infinite shape used
        # to loop forever in the gamma sampler
        proc = run_fresh("-m", "segci.cli", "simulate", "--output", str(tmp_path / "x.csv"),
                         "--tasks", "1", "--methods", "1", "--cases", "2",
                         "--family", family, timeout=30)
        assert proc.returncode == 1
        assert "finite" in proc.stderr

    @pytest.mark.parametrize("family, dsc", [("beta:1e308,1e308", "0.500000"),
                                             ("beta:9e307,9e307", "0.500000"),
                                             ("beta:1e308,1e307", "0.909091")])
    def test_beta_variates_overflowing_their_sum(self, capsys, tmp_path, family, dsc):
        # X + Y overflows to inf, and X / (X + Y) used to write 0.000000
        out = tmp_path / "huge.csv"
        assert run(capsys, "simulate", "--output", str(out), "--tasks", "1", "--methods", "2",
                   "--cases", "3", "--family", family)[0] == 0
        assert [line.split(",")[3] for line in out.read_text().splitlines()[1:]] == [dsc] * 6

    def test_beta_underflow_is_error(self, capsys, tmp_path):
        # both Gamma variates of some draw round to 0: x / (x + y) divided by zero
        code, out, err = run(capsys, "simulate", "--output", str(tmp_path / "z.csv"),
                             "--family", "beta:0.005,0.005", "--tasks", "2", "--methods", "2",
                             "--cases", "2000")
        assert (code, out) == (1, "")
        assert err == ("error: beta:0.005,0.005 cannot be drawn: both Gamma variates "
                       "underflowed to 0\n")

    @pytest.mark.parametrize("existing", ["none", "file", "symlink"])
    def test_failed_run_leaves_no_partial_file(self, capsys, tmp_path, existing):
        # the draw fails after some 4000 rows have been written
        out, target = tmp_path / "z.csv", tmp_path / "target.csv"
        if existing == "file":
            out.write_text("old content\n")
        elif existing == "symlink":
            target.write_text("old content\n")
            out.symlink_to(target)
        code, _, _ = run(capsys, "simulate", "--output", str(out), "--family", "beta:0.005,0.005",
                         "--tasks", "2", "--methods", "2", "--cases", "2000")
        assert code == 1
        if existing == "symlink":
            # only a regular file is removed; the link and its target stay
            assert out.is_symlink() and target.exists()
        else:
            assert not out.exists()

    @pytest.mark.parametrize("exclude", ["10:1", "1:2", "-1:0", "0:-1"])
    def test_exclude_outside_the_grid(self, capsys, tmp_path, exclude):
        # (10, 1) used to exclude nothing, silently
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "simulate", "--output", str(out), "--tasks", "2",
                           "--methods", "2", "--cases", "3", f"--exclude={exclude}")
        assert code == 1
        assert "error: excluded pair" in err and "tasks 0..1 and methods 0..1" in err
        assert not out.exists()

    def test_bad_exclude(self, capsys, tmp_path):
        code, _, _ = run(capsys, "simulate", "--output", str(tmp_path / "x.csv"),
                         "--exclude", "nope")
        assert code == 1

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_refused(self, capsys, tmp_path, seed):
        # the streams key on the seed's low 64 bits: -1 drew the rows of
        # 2**64 - 1, and 2**64 those of 0
        out = tmp_path / "x.csv"
        code, stdout, err = run(capsys, "simulate", "--output", str(out), "--seed", seed)
        assert (code, stdout) == (1, "")
        assert err == f"error: seed must be an integer in [0, 2**64), got {seed}\n"
        assert not out.exists()


def peak_bytes(argv) -> int:
    """The tracemalloc peak of one in-process ``main(argv)``, which must succeed."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_grows_with_groups_not_rows(capsys, tmp_path):
    # 4k and 40k rows: 2 tasks of 4 methods with 500 and 5000 cases each.
    # simulate holds one batch of up to 256 cases at a time; fit holds the
    # 8-byte dsc of each row, one array per group (an earlier design held
    # ~130 bytes a row in both).
    cases, model = str(tmp_path / "cases.csv"), str(tmp_path / "m.json")
    main(["simulate", "--output", cases, "--tasks", "1", "--methods", "2", "--cases", "3"])
    main(["fit", "--input", cases, "--output", model])  # the imports, outside the peaks
    simulate, fit = {}, {}
    for rows, n_cases in ((4000, "500"), (40000, "5000")):
        simulate[rows] = peak_bytes(["simulate", "--output", cases, "--tasks", "2",
                                     "--methods", "4", "--cases", n_cases])
        fit[rows] = peak_bytes(["fit", "--input", cases, "--output", model])
    capsys.readouterr()
    assert simulate[40000] < 2 * simulate[4000], simulate
    assert (fit[40000] - fit[4000]) / 36000 < 16, fit


# Values every numeric flag must refuse or read as documented:
# non-finite and overflowing numbers, empty and blank text, underscore
# literals, and values at or just outside each flag's range.
FLAG_FUZZ = ["nan", "inf", "-inf", "1e400", "1e308", "", " ", "1_0", "0_5", "-1", "0", "1e-300",
             "5e-324"]
FAMILY_FUZZ = (
    [f"beta:{v},2" for v in FLAG_FUZZ] + [f"beta:2,{v}" for v in FLAG_FUZZ]
    + [f"constant:{v}" for v in FLAG_FUZZ] + ["beta:0.005,0.005", "beta:8", "beta:"]
)
# Each fuzzed command's flags, with values it accepts; --tasks and
# --cases stay small, so that each run takes milliseconds.
FUZZ_FLAGS = {
    "ci": {"--mean": ["0.9", "1"], "--n": ["2", "100"], "--sd": ["0.05", "0", "1e308"],
           "--alpha": ["0.05", "0.5"]},
    "calibrate": {"--alpha": ["0.05", "0.5"], "--min-n": ["0", "20"]},
    "analyze": {"--alpha": ["0.05", "0.5"]},
    "simulate": {"--tasks": ["1", "2"], "--cases": ["1", "3"], "--family": ["beta:8,2"]},
}

# A run per command that its fuzz always tries: the ci run used to fail
# with the JSON encoder's message, the others reach the widest intervals
# and a Beta draw that underflows.
FUZZ_EXAMPLES = {
    "ci": ["--mean", "0.5", "--n", "2", "--sd", "1e308", "--no-clamp"],
    "calibrate": ["--alpha", "1e-300"],
    "analyze": ["--alpha", "1e-300", "--no-clamp"],
    "simulate": ["--family", "beta:1e-300,1e-300"],
}


def fuzzed_argv(command):
    """Every flag of ``command``, each as likely valid as fuzzed, and --no-clamp or not."""
    fuzz = {"--family": FAMILY_FUZZ}
    values = st.fixed_dictionaries({
        flag: st.sampled_from(valid) | st.sampled_from(fuzz.get(flag, FLAG_FUZZ))
        for flag, valid in FUZZ_FLAGS[command].items()
    })
    no_clamp = st.booleans() if command in ("ci", "analyze") else st.just(False)
    return st.tuples(values, no_clamp).map(
        lambda drawn: [x for item in drawn[0].items() for x in item]
        + (["--no-clamp"] if drawn[1] else [])
    )


@pytest.mark.parametrize("command", sorted(FUZZ_FLAGS))
def test_numeric_flag_fuzz(capsys, tmp_path, command):
    # each run exits 0 with finite output, or 1 or 2 with one error line
    cal = tmp_path / "cal.csv"
    cal.write_text("task_id,method_id,n,mean_dsc,observed_sd\n"
                   "t,m,2,0.8,0.3\nt,m2,30,0.9,0.05\nt2,m,100,0.7,0.2\n")
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("paper_id,method_id,mean_dsc,test_n,sd\n"
                      "p1,a,0.91,2,0.4\np1,b,0.90,2,\np2,a,0.9,100,\np2,b,0.85,100,0.1\n")
    outputs = [tmp_path / name for name in ("s.json", "p.csv", "r.json", "c.csv")]
    files = {
        "ci": [],
        "calibrate": ["--input", str(cal), "--summary", str(outputs[0]),
                      "--points", str(outputs[1])],
        "analyze": ["--input", str(corpus), "--output", str(outputs[2])],
        "simulate": ["--output", str(outputs[3])],
    }[command]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fuzzed_argv(command))
    @example(FUZZ_EXAMPLES[command])
    def check(flags):
        for path in outputs:
            path.unlink(missing_ok=True)
        code, out, err = run(capsys, command, *files, *flags)
        assert "Traceback" not in err
        if code == 0:
            assert "error:" not in err
            written = [out] + [path.read_text() for path in outputs if path.exists()]
            for text in written:
                assert not re.search(r"NaN|Infinity|\binf\b|\bnan\b", text), (flags, text)
        else:
            assert code in (1, 2), (flags, code)
            assert out == ""
            assert sum("error:" in line for line in err.splitlines()) == 1, (flags, err)

    check()


def input_argv(command, path, tmp_path):
    """A run of ``command`` that reads ``path``: the input CSV, or ci's model file."""
    out = str(tmp_path / "out")
    return {
        "analyze": ["analyze", "--input", str(path), "--output", out],
        # with --min-n 0 every record is kept, so the summary is never empty
        "calibrate": ["calibrate", "--input", str(path), "--summary", out,
                      "--points", str(tmp_path / "points.csv"), "--min-n", "0"],
        "fit": ["fit", "--input", str(path), "--output", out],
        "ci": ["ci", "--mean", "0.9", "--n", "100", "--model", str(path)],
    }[command]


CORPUS_LINES = "paper_id,method_id,mean_dsc,test_n,sd\np1,a,0.9,100,\np1,b,0.8,100,0.1\n"
CALIBRATION_LINES = "task_id,method_id,n,mean_dsc,observed_sd\nt,m,100,0.8,0.1\nt,n,30,0.7,0.2\n"
PER_CASE_LINES = "".join(
    ["task_id,method_id,case_id,dsc\n"]
    + [f"t,{m},c{i},{0.1 * (m + i) + 0.05:.2f}\n" for m in range(5) for i in range(3)]
)
PAIRS_LINES = "dsc_mean_pct,sd_pct\n" + "".join(f"{x}.0,{20 - x / 10}\n" for x in range(10, 100, 15))
# (command, a valid input of the format it reads)
CSV_INPUTS = [("analyze", CORPUS_LINES), ("calibrate", CALIBRATION_LINES),
              ("fit", PER_CASE_LINES), ("fit", PAIRS_LINES)]
CSV_IDS = ["corpus", "calibration", "per_case", "pairs"]
LONG_FIELD = b'p1,"' + b"x" * 200_000  # csv refuses a field past 131,072 characters


class TestInputFiles:
    @pytest.mark.parametrize("command, expected", [
        ("analyze", "unexpected header ['paper', 'method_id'], "
                    "expected ['paper_id', 'method_id', 'mean_dsc', 'test_n', 'sd']"),
        ("calibrate", "unexpected header ['paper', 'method_id'], "
                      "expected ['task_id', 'method_id', 'n', 'mean_dsc', 'observed_sd']"),
        ("fit", "unrecognized header ['paper', 'method_id']; expected "
                "['task_id', 'method_id', 'case_id', 'dsc'] or ['dsc_mean_pct', 'sd_pct']"),
    ])
    def test_wrong_header(self, capsys, tmp_path, command, expected):
        path = tmp_path / "in.csv"
        path.write_text("paper,method_id\np1,a\n")
        assert run(capsys, *input_argv(command, path, tmp_path)) == (
            2, "", f"error: {path}: line 1: {expected}\n")

    @pytest.mark.parametrize("command, text", [(c, t.split("\n")[0]) for c, t in CSV_INPUTS],
                             ids=CSV_IDS)
    def test_no_data_rows(self, capsys, tmp_path, command, text):
        path = tmp_path / "in.csv"
        path.write_text(text + "\n\n , \n")  # blank rows are not data
        assert run(capsys, *input_argv(command, path, tmp_path)) == (
            2, "", f"error: {path}: no data rows\n")

    def test_corpus_test_n_below_two(self, capsys, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("paper_id,method_id,mean_dsc,test_n,sd\np1,a,0.9,1,\n")
        assert run(capsys, *input_argv("analyze", path, tmp_path)) == (
            2, "", f"error: {path}: line 2: test_n must be an integer >= 2, got 1\n")

    def test_fraction_scale_model(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"coefficients": [2.031, 0.0726, -0.0008], "scale": "fraction"}')
        assert run(capsys, *input_argv("ci", path, tmp_path)) == (
            2, "", f"error: {path}: bad model file: unsupported model scale 'fraction'\n")

    def test_fit_notes_dropped_and_skipped_groups(self, capsys, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(PER_CASE_LINES + "t,constant,c1,0.5\nt,constant,c2,0.5\nt,single,c1,0.4\n")
        code, _, err = run(capsys, *input_argv("fit", path, tmp_path))
        assert code == 0
        assert err.splitlines()[0] == (
            "note: dropped 1 zero-SD group(s), skipped 1 group(s) with fewer than 2 cases")

    @pytest.mark.parametrize("command, text", CSV_INPUTS, ids=CSV_IDS)
    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, command, text):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        plain = run(capsys, *input_argv(command, path, tmp_path))
        assert plain[0] == 0
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert run(capsys, *input_argv(command, path, tmp_path)) == plain

    # The decoder reads 8 KB at a time: without blank rows the header read meets
    # the bad byte, and past 100 blank rows of 101 bytes the row loop does.
    @pytest.mark.parametrize("blank_rows", [0, 100])
    @pytest.mark.parametrize("command, text", CSV_INPUTS, ids=CSV_IDS)
    def test_undecodable_byte_names_its_line(self, capsys, tmp_path, command, text, blank_rows):
        header, first, rest = text.split("\n", 2)
        data = f"{header}\n{first}\n" + (" " * 100 + "\n") * blank_rows
        path = tmp_path / "in.csv"
        path.write_bytes(data.encode() + b"t\xe9" + rest.encode())  # a Latin-1 e-acute
        assert run(capsys, *input_argv(command, path, tmp_path)) == (
            2, "", f"error: {path}: line {blank_rows + 3}: byte 0xe9 is not UTF-8 "
                   f"(invalid continuation byte)\n")

    @pytest.mark.parametrize("line", [1, 2], ids=["header", "row"])
    @pytest.mark.parametrize("command, text", CSV_INPUTS, ids=CSV_IDS)
    def test_field_past_the_csv_limit(self, capsys, tmp_path, command, text, line):
        path = tmp_path / "in.csv"
        path.write_bytes(text.split("\n")[0].encode() + b"\n" + LONG_FIELD if line == 2
                         else LONG_FIELD)
        assert run(capsys, *input_argv(command, path, tmp_path)) == (
            2, "", f"error: {path}: line {line}: field larger than field limit (131072)\n")


# Each fuzzed command, a valid input that arbitrary bytes replace or
# follow, and an input the fuzz always tries, alone and after the first
# line: a field past csv's size limit, or a JSON array nested past the
# recursion limit, which used to end `ci --model` in a RecursionError.
BYTE_FUZZ = {
    "analyze": ("analyze", CORPUS_LINES, LONG_FIELD),
    "calibrate": ("calibrate", CALIBRATION_LINES, LONG_FIELD),
    "fit_per_case": ("fit", PER_CASE_LINES, LONG_FIELD),
    "fit_pairs": ("fit", PAIRS_LINES, LONG_FIELD),
    "ci_model": ("ci", '{"coefficients": [2.031, 0.0726, -0.0008], "scale": "percent"}\n',
                 b"[" * 100_000),
}


@pytest.mark.parametrize("target", sorted(BYTE_FUZZ))
def test_input_byte_fuzz(capsys, tmp_path, target):
    # any bytes are read, or refused as a data error that names the file
    command, text, always = BYTE_FUZZ[target]
    prefix = text.split("\n")[0].encode()
    path = tmp_path / "in"
    argv = input_argv(command, path, tmp_path)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary() | st.binary().map(lambda tail: prefix + tail)
           | st.binary(max_size=8).map(lambda tail: text.encode() + tail))
    @example(always)
    @example(prefix + b"\n" + always)
    def check(data):
        path.write_bytes(data)
        code, _, err = run(capsys, *argv)
        assert code in (0, 2), (data, code, err)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith(f"error: {path}"), (data, err)
        else:
            assert "error:" not in err, (data, err)

    check()


@pytest.mark.parametrize("command", ["ci", "analyze", "calibrate"])
def test_alpha_whose_half_underflows(capsys, base_argv, command):
    # alpha / 2 rounds to 0: the error used to name t_quantile's argument p
    code, out, err = run(capsys, *base_argv[command], "--alpha", "5e-324")
    assert (code, out) == (1, "")
    assert err == "error: --alpha must lie in [1e-323, 1), got 5e-324\n"


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_boot_samples_flag_removed(self, capsys):
        code, _, _ = run(capsys, "ci", "--mean", "0.9", "--n", "100", "--boot-samples", "500")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        assert main(["fit", "--input", "x.csv"]) == 1
