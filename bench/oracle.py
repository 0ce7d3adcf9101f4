"""Independent checks of segci's outputs, run as a process of their own.

Usage: python bench/oracle.py REQUEST_JSON RESULT_JSON

REQUEST_JSON holds ``{"model": path, "checks": [{"key", "kind", "args",
"files": {label: path}}]}``; RESULT_JSON receives ``{key: {"errors":
[...], "facts": {...}}}``, where an empty error list means the output is
right.

The t quantile comes from scipy (a test dependency of segci, never used
by the program itself); the model SD is recomputed from the coefficients
in the model file. Printed values carry 6 decimals, so a value matches
when it lies within half a unit of the sixth decimal of the oracle's.

The checks run here rather than in the harness so that the harness
never loads numpy or scipy: a process it starts begins as a copy of it,
and its peak RSS would otherwise report the harness's size.
"""

from __future__ import annotations

import csv
import json
import math
import sys

import numpy as np
from scipy.stats import t as student_t

TOL = 0.5e-6 + 1e-9


def model_sd(coefficients, mean_dsc: float) -> float:
    """Model SD on the fraction scale, capped at the two-point bound."""
    b0, b1, b2 = coefficients
    x = mean_dsc * 100.0
    sd = math.exp(b0 + b1 * x + b2 * x * x)
    bound = math.sqrt(x * (100.0 - x))
    return (min(sd, bound) if bound > 0.0 else sd) / 100.0


def interval(mean: float, sd: float, n: int, alpha: float, clamp: bool) -> tuple[float, float]:
    half = student_t.ppf(1.0 - alpha / 2.0, n - 1) * sd / math.sqrt(n)
    lower, upper = mean - half, mean + half
    if clamp:
        lower, upper = max(0.0, lower), min(1.0, upper)
    return lower, upper


def _near(got, want) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= TOL


def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _json(text: str, what: str):
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"{what} is not JSON: {exc}"]


def check_ci(args, texts, coefficients):
    """``segci ci`` JSON against mean +/- t * sd / sqrt(n), clamped unless --no-clamp."""
    argv = args["argv"]
    doc, errors = _json(texts["stdout"], "ci output")
    if errors:
        return errors, {}
    mean, n = float(_flag(argv, "--mean")), int(_flag(argv, "--n"))
    alpha = float(_flag(argv, "--alpha", 0.05))
    sd = _flag(argv, "--sd")
    if sd is not None and "--force-model-sd" not in argv:
        sd, source = float(sd), "reported"
    else:
        sd, source = model_sd(coefficients, mean), "model"
    lower, upper = interval(mean, sd, n, alpha, "--no-clamp" not in argv)
    for key, want in (("lower", lower), ("upper", upper), ("width", upper - lower),
                      ("sd_used", sd)):
        if not _near(doc.get(key), want):
            errors.append(f"ci {key} {doc.get(key)} != oracle {want:.9f} for {argv}")
    if doc.get("sd_source") != source:
        errors.append(f"ci sd_source {doc.get('sd_source')} != {source} for {argv}")
    return errors, {}


def check_analyze(args, texts, coefficients):
    """Leader CI of every paper in an ``analyze`` report, clamped to [0, 1]."""
    papers: dict = {}
    with open(args["corpus"], encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            sd = float(row["sd"]) if row["sd"] else None
            entry = papers.setdefault(row["paper_id"], (int(row["test_n"]), []))
            entry[1].append((row["method_id"], float(row["mean_dsc"]), sd))
    doc, errors = _json(texts["report.json"], "analyze report")
    if errors:
        return errors, {}
    if doc.get("n_papers") != len(papers) or len(doc.get("papers", [])) != len(papers):
        errors.append(f"analyze n_papers {doc.get('n_papers')} != {len(papers)}")
    for entry in doc.get("papers", []):
        n, methods = papers[entry["paper_id"]]
        ranked = sorted(methods, key=lambda m: -m[1])
        first_id, first_mean, first_sd = ranked[0]
        if first_sd is not None:
            sd, source = first_sd, "reported"
        else:
            sd, source = model_sd(coefficients, first_mean), "model"
        lower, upper = interval(first_mean, sd, n, args["alpha"], True)
        if (entry["first"], entry["sd_source"]) != (first_id, source):
            errors.append(f"{entry['paper_id']}: leader {entry['first']}/{entry['sd_source']}")
        for key, want in (("ci_lower", lower), ("ci_upper", upper), ("ci_width", upper - lower)):
            if not _near(entry[key], want):
                errors.append(f"{entry['paper_id']}: {key} {entry[key]} != oracle {want:.9f}")
        second = ranked[1][1]
        if not _near(entry["delta_dsc"], first_mean - second):
            errors.append(f"{entry['paper_id']}: delta_dsc {entry['delta_dsc']}")
        if min(abs(second - lower), abs(second - upper)) > TOL:
            if entry["second_within_ci"] != (lower <= second <= upper):
                errors.append(f"{entry['paper_id']}: second_within_ci {entry['second_within_ci']}")
    return errors, {}


def check_simulate(args, texts, coefficients):
    """Header, row count, and every dsc within [0, 1]."""
    lines = texts["cases.csv"].splitlines()
    if lines[0] != "task_id,method_id,case_id,dsc":
        return [f"simulate header {lines[0]!r}"], {}
    if len(lines) - 1 != args["rows"]:
        return [f"simulate wrote {len(lines) - 1} rows, expected {args['rows']}"], {}
    bad = [ln for ln in lines[1:] if not 0.0 <= float(ln.rsplit(",", 1)[1]) <= 1.0]
    return ([f"simulate dsc outside [0, 1]: {bad[:3]}"] if bad else []), {}


def check_fit(args, texts, coefficients):
    """The model JSON parses with three finite coefficients; records convergence."""
    doc, errors = _json(texts["model.json"], "fit model")
    if errors:
        return errors, {}
    coeffs = doc.get("coefficients")
    if not (isinstance(coeffs, list) and len(coeffs) == 3
            and all(isinstance(c, (int, float)) and math.isfinite(c) for c in coeffs)):
        return [f"fit coefficients {coeffs!r}"], {}
    iterations = [int(ln.split()[1]) for ln in texts["stdout"].splitlines()
                  if ln.startswith("iterations:")]
    if not isinstance(doc.get("converged"), bool) or len(iterations) != 1:
        return [f"fit converged/iterations missing: {doc.get('converged')!r}"], {}
    return [], {"converged": doc["converged"], "iterations": iterations[0],
                "coefficients": coeffs}


def check_calibrate(args, texts, coefficients):
    """Calibration widths (unclamped) and the summary over records with n > min_n."""
    with open(args["aggregates"], encoding="utf-8", newline="") as fh:
        records = list(csv.DictReader(fh))
    points = list(csv.reader(texts["points.csv"].splitlines()))
    if points[0] != ["predicted_width", "observed_width", "n"] or len(points) - 1 != len(records):
        return [f"calibrate points: header {points[0]}, {len(points) - 1} rows"], {}
    errors, diffs = [], []
    alpha, min_n = args["alpha"], args["min_n"]
    for rec, (pred_cell, obs_cell, n_cell) in zip(records, points[1:]):
        n, mean, sd = int(rec["n"]), float(rec["mean_dsc"]), float(rec["observed_sd"])
        lo, hi = interval(mean, sd, n, alpha, False)
        plo, phi = interval(mean, model_sd(coefficients, mean), n, alpha, False)
        observed, predicted = hi - lo, phi - plo
        if not (_near(float(obs_cell), observed) and _near(float(pred_cell), predicted)
                and int(n_cell) == n):
            errors.append(f"calibrate {rec['task_id']}/{rec['method_id']}: "
                          f"({pred_cell}, {obs_cell}) != ({predicted:.9f}, {observed:.9f})")
        if n > min_n:
            diffs.append(observed - predicted)
    summary, json_errors = _json(texts["summary.json"], "calibrate summary")
    if json_errors:
        return errors + json_errors, {}
    want = {"n_records": len(records), "n_after_filter": len(diffs), "min_n_filter": min_n}
    for key, value in want.items():
        if summary.get(key) != value:
            errors.append(f"calibrate summary {key} {summary.get(key)} != {value}")
    if diffs:
        q = np.percentile(diffs, [25, 50, 75])
        qa = np.percentile(np.abs(diffs), [25, 50, 75])
        got = [summary["median_width_diff"], *summary["iqr_width_diff"],
               summary["median_abs_width_diff"], *summary["iqr_abs_width_diff"]]
        for g, w in zip(got, [q[1], q[0], q[2], qa[1], qa[0], qa[2]]):
            if not _near(g, w):
                errors.append(f"calibrate summary statistic {g} != oracle {w:.9f}")
    return errors, {}


def check_crosscheck(args, texts, coefficients):
    """Parametric CI against scipy; bootstrap bit-identical across repeats, within range.

    ``args["outputs"]`` holds one record per repeat of the same calls,
    floats as ``float.hex``; the facts count the repeats that failed.
    """
    with open(args["samples"], encoding="utf-8", newline="") as fh:
        values = [float(r["dsc"]) for r in csv.DictReader(fh) if r["group"] == args["group"]]
    n, mean = len(values), float(np.mean(values))
    lower, upper = interval(mean, float(np.std(values, ddof=1)), n, 0.05, True)
    outputs = args["outputs"]
    errors, failed = [], 0
    for k, out in enumerate(outputs):
        p_lo, p_hi, b_lo, b_hi, d_lo, d_hi = (float.fromhex(out[key]) for key in (
            "para_lower", "para_upper", "boot_lower", "boot_upper", "diff_lower", "diff_upper"))
        found = []
        if not (_near(p_lo, lower) and _near(p_hi, upper)):
            found.append(f"n={n} repeat {k}: parametric ({p_lo}, {p_hi}) != ({lower}, {upper})")
        if (out["boot_lower"], out["boot_upper"]) != (outputs[0]["boot_lower"],
                                                      outputs[0]["boot_upper"]):
            found.append(f"n={n} repeat {k}: bootstrap bounds differ from repeat 0")
        if not min(values) <= b_lo <= mean <= b_hi <= max(values):
            found.append(f"n={n} repeat {k}: bootstrap ({b_lo}, {b_hi}) outside the sample "
                         f"range or not around the mean {mean}")
        if (d_lo, d_hi) != (p_lo - b_lo, p_hi - b_hi):
            found.append(f"n={n} repeat {k}: compare_cis differences")
        errors += found
        failed += bool(found)
    return errors, {"failed_repeats": failed}


KINDS = {
    "ci": check_ci,
    "analyze": check_analyze,
    "simulate": check_simulate,
    "fit": check_fit,
    "calibrate": check_calibrate,
    "crosscheck": check_crosscheck,
}


def main() -> int:
    request_path, result_path = sys.argv[1:3]
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    with open(request["model"], encoding="utf-8") as fh:
        coefficients = tuple(float(c) for c in json.load(fh)["coefficients"])
    results = {}
    for check in request["checks"]:
        texts = {}
        for label, path in check["files"].items():
            with open(path, encoding="utf-8") as fh:
                texts[label] = fh.read()
        errors, facts = KINDS[check["kind"]](check["args"], texts, coefficients)
        results[check["key"]] = {"errors": errors, "facts": facts}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
