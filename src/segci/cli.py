"""Command-line pipeline: fit, ci, calibrate, analyze, simulate.

All input and output goes through the CSV/JSON formats documented in
:mod:`segci.io`. Numeric output is rounded to 6 decimal places with a
dot decimal separator. Exit codes: 0 success, 1 usage or validation
error, 2 data error (unreadable or malformed input).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from importlib import resources
from pathlib import Path

# Each handler imports the modules it needs, so a command loads only
# its own layers: no command loads numpy (`simulate` draws from the
# pure-Python Philox of segci.rng), `simulate` and `fit` run without the
# special functions, `simulate` also without segci.glm and json, and
# `ci` without the csv module and the file readers of segci.io.
from . import _FLOAT, _INT, DataFormatError

__all__ = ["main", "build_parser", "bundled_demo_corpus_path"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

REPORT_SCHEMA_VERSION = 2


def bundled_demo_corpus_path() -> Path:
    """Location of the packaged 77-paper synthetic demo corpus."""
    return Path(str(resources.files("segci.data").joinpath("demo_corpus.csv")))


def _round6(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    return value


def _dump_json(doc: dict, path: "str | Path | None") -> str:
    import json  # here, so that `segci simulate` does not load it

    text = json.dumps(_round6(doc), indent=2, allow_nan=False) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _load_model(args):
    from . import glm

    try:
        return glm.paper_model() if args.model is None else glm.load_model(args.model)
    except (ValueError, RecursionError) as exc:  # json's decoder recurses on nested arrays
        raise DataFormatError(f"bad model file: {exc}", args.model) from None


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=_FLOAT, default=0.05,
                        help="significance level (default 0.05)")
    parser.add_argument("--model", type=str, default=None,
                        help="model JSON path (default: bundled published model)")


def _add_sd_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-clamp", dest="clamp", action="store_false",
                        help="do not clip intervals to [0, 1] (model SDs keep their "
                        "two-point cap)")
    parser.add_argument("--force-model-sd", action="store_true",
                        help="ignore reported SDs and always use the model approximation")


def build_parser() -> argparse.ArgumentParser:
    # Without allow_abbrev=False argparse reads a flag prefix such as
    # `--se` as whichever flag it abbreviates (`--seed`).
    make_parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = make_parser(
        prog="segci",
        description="Reconstruct confidence intervals for segmentation performance "
        "from aggregate published results.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=make_parser)

    p_fit = sub.add_parser("fit", help="fit the mean-to-SD model on per-case or pairs CSV")
    p_fit.add_argument("--input", required=True, help="per-case or training-pairs CSV")
    p_fit.add_argument("--output", required=True, help="model JSON to write")

    p_ci = sub.add_parser("ci", help="reconstruct one CI from aggregate values")
    p_ci.add_argument("--mean", type=_FLOAT, required=True, help="mean DSC in [0, 1]")
    p_ci.add_argument("--n", type=_INT, required=True, help="test-set size (>= 2)")
    p_ci.add_argument("--sd", type=_FLOAT, default=None, help="reported SD (fraction scale)")
    _add_model_flags(p_ci)
    _add_sd_flags(p_ci)

    p_cal = sub.add_parser("calibrate", help="predicted vs observed CI widths")
    p_cal.add_argument("--input", required=True, help="calibration results CSV")
    p_cal.add_argument("--summary", required=True, help="summary JSON to write")
    p_cal.add_argument("--points", required=True, help="scatter points CSV to write")
    _add_model_flags(p_cal)
    p_cal.add_argument("--min-n", type=_INT, default=20,
                       help="summary keeps records with n above this (default 20)")

    p_an = sub.add_parser("analyze", help="corpus-level gap vs CI-width analysis")
    p_an.add_argument("--input", required=True, help="comparison corpus CSV")
    p_an.add_argument("--output", required=True, help="report JSON to write")
    _add_model_flags(p_an)
    _add_sd_flags(p_an)

    p_sim = sub.add_parser("simulate", help="generate synthetic per-case results")
    p_sim.add_argument("--output", required=True, help="per-case CSV to write")
    p_sim.add_argument("--tasks", type=_INT, default=10)
    p_sim.add_argument("--methods", type=_INT, default=19)
    p_sim.add_argument("--cases", type=_INT, default=50)
    p_sim.add_argument("--family", type=str, default="beta:8,2",
                       help="per-case distribution: beta:a,b or constant:c (default beta:8,2)")
    p_sim.add_argument("--exclude", type=str, default="",
                       help="comma-separated task:method index pairs to drop, e.g. 9:18")
    p_sim.add_argument("--seed", type=_INT, default=42, help="random seed (default 42)")

    return parser


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha / 2.0 < 0.5:  # below 1e-323, alpha / 2 rounds to 0
        raise ValueError(f"--alpha must lie in [1e-323, 1), got {alpha}")


def _cmd_fit(args) -> int:
    from . import glm
    from . import io as sio
    from . import simulate as sim

    fmt = sio.detect_training_format(args.input)
    if fmt == "per_case":
        result = sim.make_training_pairs(sio.iter_per_case_csv(args.input))
        if result.n_dropped_zero_sd or result.n_skipped_small:
            print(
                f"note: dropped {result.n_dropped_zero_sd} zero-SD group(s), "
                f"skipped {result.n_skipped_small} group(s) with fewer than 2 cases",
                file=sys.stderr,
            )
        pairs = list(result.pairs)
    else:
        pairs = sio.read_pairs_csv(args.input)
    try:
        fit = glm.fit_gamma_log_glm(pairs)
        glm.save_model(fit, args.output)  # refuses a model that --model would refuse
    except ValueError as exc:  # InsufficientDataError and RankDeficientError included
        raise DataFormatError(str(exc), args.input) from None
    print(f"coefficients: {fit.coefficients[0]:.6f} {fit.coefficients[1]:.6f} {fit.coefficients[2]:.6f}")
    print(f"deviance: {fit.deviance:.6f}")
    print(f"dispersion: {fit.dispersion:.6f}" if fit.dispersion is not None else "dispersion: n/a")
    print(f"iterations: {fit.iterations}")
    print(f"converged: {str(fit.converged).lower()}")
    if not fit.converged:
        print("warning: IRLS did not converge within the iteration cap", file=sys.stderr)
    return EXIT_OK


def _cmd_ci(args) -> int:
    from .intervals import reconstruct_ci

    _check_alpha(args.alpha)
    if not 0.0 <= args.mean <= 1.0:
        raise ValueError(f"--mean must lie in [0, 1], got {args.mean}")
    if args.n < 2:
        raise ValueError(f"--n must be >= 2, got {args.n}")
    if args.sd is not None and not 0.0 <= args.sd < math.inf:
        raise ValueError(f"--sd must be finite and >= 0, got {args.sd}")

    ci, sd_used, sd_source = reconstruct_ci(
        args.mean, args.n, args.sd, _load_model(args), args.alpha, args.clamp,
        prefer_reported_sd=not args.force_model_sd,
    )
    doc = {
        "lower": ci.lower,
        "upper": ci.upper,
        "width": ci.width,
        "sd_used": sd_used,
        "sd_source": sd_source,
    }
    sys.stdout.write(_dump_json(doc, None))
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    from . import calibration as cal
    from . import io as sio

    _check_alpha(args.alpha)
    if args.min_n < 0:
        raise ValueError(f"--min-n must be >= 0, got {args.min_n}")
    results = sio.read_calibration_csv(args.input)
    records, summary = cal.calibrate(results, _load_model(args), args.alpha, args.min_n)
    cal.write_calibration_csv(records, args.points)
    _dump_json({"schema": REPORT_SCHEMA_VERSION, **summary._asdict()}, args.summary)
    if summary.empty:
        print(
            f"error: no records with n > {args.min_n}; summary is empty",
            file=sys.stderr,
        )
        return EXIT_DATA
    print(f"median_width_diff: {summary.median_width_diff:.6f}")
    print(f"iqr_width_diff: ({summary.iqr_width_diff[0]:.6f}, {summary.iqr_width_diff[1]:.6f})")
    print(f"records: {summary.n_after_filter}/{summary.n_records} after n > {args.min_n} filter")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from . import corpus as corpus_mod
    from . import io as sio

    _check_alpha(args.alpha)
    summary = corpus_mod.analyze_corpus(
        sio.read_corpus_csv(args.input), _load_model(args), alpha=args.alpha, clamp=args.clamp,
        prefer_reported_sd=not args.force_model_sd,
    )
    doc = {
        "schema": REPORT_SCHEMA_VERSION,
        "n_papers": summary.n_papers,
        "n_with_runner_up": summary.n_with_runner_up,
        "overlap_fraction": summary.overlap_fraction,
        "width": summary.width._asdict(),
        "delta": summary.delta._asdict() if summary.delta is not None else None,
        "ratio": summary.ratio._asdict() if summary.ratio is not None else None,
        "papers": [
            {
                "paper_id": a.paper_id,
                "first": a.first,
                "second": a.second,
                "delta_dsc": a.delta_dsc,
                "ci_lower": a.ci_first.lower,
                "ci_upper": a.ci_first.upper,
                "ci_width": a.ci_first.width,
                "second_within_ci": a.second_within_ci,
                "ratio_delta_over_width": a.ratio_delta_over_width,
                "sd_source": a.sd_source,
            }
            for a in summary.analyses
        ],
    }
    _dump_json(doc, args.output)
    overlap = f"{summary.overlap_fraction:.3f}" if summary.overlap_fraction is not None else "n/a"
    delta_median = f"{summary.delta.median:.6f}" if summary.delta is not None else "n/a"
    print(f"papers: {summary.n_papers} ({summary.n_with_runner_up} with runner-up)")
    print(f"median_width: {summary.width.median:.6f}")
    print(f"median_delta: {delta_median}")
    print(f"overlap_fraction: {overlap}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from . import io as sio
    from . import simulate as sim

    if args.tasks < 1 or args.methods < 1 or args.cases < 1:
        raise ValueError("--tasks, --methods and --cases must all be >= 1")
    family = sim.parse_family(args.family)
    exclude = []
    if args.exclude:
        for token in args.exclude.split(","):
            t, _, m = token.partition(":")
            try:
                exclude.append((_INT(t), _INT(m)))
            except ValueError:
                raise ValueError(f"bad --exclude entry {token!r}, expected task:method") from None
    spec = sim.SimSpec(
        n_tasks=args.tasks,
        methods_per_task=args.methods,
        cases_per_task=args.cases,
        family=family,
        seed=args.seed,
        exclude=tuple(exclude),
    )
    rows = sim.SimulatedRows(spec)
    sio.write_per_case_csv(rows, args.output)
    if _same_regular_file(sys.stdout, args.output):
        # `--output /dev/stdout > FILE`: the rows went through another file
        # description, and stdout's offset would write the line over them
        sys.stdout.seek(0, os.SEEK_END)
    print(f"wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


def _same_regular_file(stream, path: str) -> bool:
    """Whether ``stream`` writes to the regular file at ``path``."""
    try:
        st = os.fstat(stream.fileno())
    except (OSError, ValueError):  # no file descriptor, as under a test's capture
        return False
    return stat.S_ISREG(st.st_mode) and os.path.samestat(st, os.stat(path))


_COMMANDS = {
    "fit": _cmd_fit,
    "ci": _cmd_ci,
    "calibrate": _cmd_calibrate,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap to the documented code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
