import hashlib
import json
import math

import pytest

from segci import cli
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
    ], ids=["empty_object", "not_json", "list", "overflow", "nan", "inf", "minus_inf", "string"])
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
        assert doc["schema"] == 1
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

    def test_boxplot_panels(self, capsys, tmp_path):
        src = tmp_path / "corpus.csv"
        out = tmp_path / "report.json"
        src.write_text(
            "paper_id,method_id,mean_dsc,test_n,sd\n"
            "a,x,0.80,40,\n"
            "a,y,0.79,40,\n"
            "b,x,0.95,200,\n"
            "b,y,0.90,200,\n"
        )
        assert run(capsys, "analyze", "--input", str(src), "--output", str(out))[0] == 0
        doc = json.loads(out.read_text())
        assert list(doc["boxplots"]) == ["width", "delta", "ratio"]
        for name, panel in doc["boxplots"].items():
            assert list(panel) == ["min", "q1", "median", "q3", "max"]
            assert panel == {k: doc[name][k] for k in panel}
        # without a runner-up there is no gap, so only the width panel
        src.write_text("paper_id,method_id,mean_dsc,test_n,sd\nsolo,x,0.9,50,\n")
        assert run(capsys, "analyze", "--input", str(src), "--output", str(out))[0] == 0
        assert list(json.loads(out.read_text())["boxplots"]) == ["width"]

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

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ([], "cf839a57ffc98d237949d08ccf8f983fe83c22a104801d0af764fec40a51ecf1"),
            (["--no-clamp", "--force-model-sd", "--alpha", "0.1"],
             "e49249f154129bffe4a255276170fa4055b14552fc3e044d0de6d9d0fb9b1562"),
        ],
        ids=["default", "no_clamp_model_sd_alpha_0.1"],
    )
    def test_demo_report_bytes_pinned(self, capsys, tmp_path, flags, digest):
        # frozen report bytes for the bundled demo corpus
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", "--input", str(bundled_demo_corpus_path()),
                         "--output", str(out), *flags)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_malformed_corpus(self, capsys, tmp_path):
        src = tmp_path / "corpus.csv"
        src.write_text("paper_id,method_id,mean_dsc,test_n,sd\np1,a,abc,100,\n")
        code, _, err = run(capsys, "analyze", "--input", str(src),
                           "--output", str(tmp_path / "r.json"))
        assert code == 2
        assert "line 2" in err


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
        doc = json.loads(model.read_text())
        assert doc == {
            "coefficients": [-5.658939, 0.234743, -0.001662],
            "dispersion": 0.008771,
            "scale": "percent",
            "n_obs": 190,
            "converged": True,
        }

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--seed", "42"],
             "7d1b204cc47c7991bba328ff6b8cd22e02b991fd93c6b9e44d53d7c374a59d67"),
            (["--cases", "200", "--family", "beta:4,2", "--seed", "7"],
             "d65dcaaa8a0019bc29a01b63d00224bb2a2174689461ea73800869c0cebfce95"),
        ],
        ids=["default", "beta_4_2"],
    )
    def test_output_bytes_pinned(self, capsys, tmp_path, argv, digest):
        # frozen per-case CSV bytes: any change to the stream layout or
        # to the draw order shows up here
        out = tmp_path / "cases.csv"
        assert run(capsys, "simulate", "--output", str(out), *argv)[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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

    def test_bad_exclude(self, capsys, tmp_path):
        code, _, _ = run(capsys, "simulate", "--output", str(tmp_path / "x.csv"),
                         "--exclude", "nope")
        assert code == 1


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
