"""Seeded input generators, one per workload.

Every input comes from ``random.Random(seed)``: the same seed gives the
same files and flags. Sizes are fixed and only the values vary with the
seed, so the amount of work per run stays the same across seeds. The
generators use the standard library only; segci sees nothing but the
files written here and the flags returned.
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path

# literature: a corpus shaped like segci's bundled demo corpus, scaled up.
CORPUS_PAPERS = 2000
CORPUS_MEAN_RANGE = (0.70, 0.96)
CORPUS_N_MEDIAN = 280.0
CORPUS_N_SIGMA = 0.85
CORPUS_N_CLIP = (12, 2500)
CORPUS_SD_SHARE = 0.30
CI_CALLS = 10
ALPHAS = (0.1, 0.05, 0.01, 0.001)
ANALYZE_ALPHA = 0.05

# challenge: four simulate calls of 10 tasks x 19 methods (the CLI
# defaults) whose case counts sum to 500, i.e. 95,000 rows in all.
SIM_TASKS = 10
SIM_METHODS = 19
SIM_CASES = (50, 100, 150, 200)
# Beta families of differing quality (mean a/(a+b) from 0.67 to 0.89).
# A single family is degenerate for the quadratic fit; see run.py NOTES.
SIM_FAMILIES = ((8.0, 2.0), (4.0, 2.0), (12.0, 1.5), (6.0, 3.0))
CALIBRATE_MIN_N = (40, 75, 120)

# crosscheck: per-case groups at both ends of the per-resample cost.
XCHECK_SIZES = (50, 2000)


def _test_n(rng: random.Random) -> int:
    n = round(rng.lognormvariate(math.log(CORPUS_N_MEDIAN), CORPUS_N_SIGMA))
    return min(max(n, CORPUS_N_CLIP[0]), CORPUS_N_CLIP[1])


def literature(rng: random.Random, work: Path) -> dict:
    """Write the corpus CSV and draw the ``segci ci`` argument lists."""
    corpus = work / "corpus.csv"
    test_ns = []
    n_sd = n_rows = 0
    with open(corpus, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["paper_id", "method_id", "mean_dsc", "test_n", "sd"])
        for i in range(CORPUS_PAPERS):
            n = _test_n(rng)
            test_ns.append(n)
            means = [round(rng.uniform(*CORPUS_MEAN_RANGE), 6)]
            delta = min(rng.lognormvariate(math.log(0.010), 1.0), 0.15)
            means.append(round(max(means[0] - delta, 0.0), 6))
            for _ in range(rng.randint(2, 6) - 2):
                means.append(round(max(means[-1] - rng.uniform(0.002, 0.05), 0.0), 6))
            reports_sd = rng.random() < CORPUS_SD_SHARE
            n_sd += reports_sd
            for j, mean in enumerate(means):
                sd = f"{rng.uniform(0.02, 0.20):.6f}" if reports_sd else ""
                out.writerow([f"paper{i + 1:04d}", f"method{j + 1:02d}", f"{mean:.6f}", n, sd])
            n_rows += len(means)

    # analyze keeps the default alpha: its cost depends on alpha (about 1.7x
    # from 0.1 to 0.05), which would otherwise vary with the seed.
    analyze = ["analyze", "--input", str(corpus), "--output", str(work / "report.json")]
    ci_calls = []
    for _ in range(CI_CALLS):
        argv = ["ci", "--mean", f"{rng.uniform(0.60, 0.97):.6f}", "--n", str(_test_n(rng)),
                "--alpha", repr(rng.choice(ALPHAS))]
        if rng.random() < 0.5:
            argv += ["--sd", f"{rng.uniform(0.02, 0.20):.6f}"]
            if rng.random() < 0.2:
                argv.append("--force-model-sd")
        if rng.random() < 0.3:
            argv.append("--no-clamp")
        ci_calls.append(argv)
    return {
        "analyze": analyze,
        "ci_calls": ci_calls,
        "properties": {
            "papers": CORPUS_PAPERS,
            "corpus_rows": n_rows,
            "leaders_with_reported_sd": n_sd,
            "analyze_alpha": ANALYZE_ALPHA,
            "distinct_test_n": len(set(test_ns)),
            "test_n_repeat_share": round(1.0 - len(set(test_ns)) / len(test_ns), 4),
            "ci_calls_per_cycle": CI_CALLS,
        },
    }


def challenge(rng: random.Random, work: Path) -> dict:
    """Draw the simulate calls, and the fit and calibrate flags."""
    cases = list(SIM_CASES)
    families = list(SIM_FAMILIES)
    rng.shuffle(cases)
    rng.shuffle(families)
    simulate = []
    for k, (n_cases, (a, b)) in enumerate(zip(cases, families)):
        a = round(a * rng.uniform(0.9, 1.1), 2)
        b = round(b * rng.uniform(0.9, 1.1), 2)
        simulate.append(["simulate", "--output", str(work / f"sim{k + 1}.csv"),
                         "--cases", str(n_cases), "--family", f"beta:{a},{b}",
                         "--seed", str(rng.randrange(1, 2**31))])
    min_n = rng.choice(CALIBRATE_MIN_N)
    rows = SIM_TASKS * SIM_METHODS * sum(SIM_CASES)
    groups = SIM_TASKS * SIM_METHODS * len(SIM_CASES)
    return {
        "simulate": simulate,
        "joined": work / "joined.csv",
        "aggregates": work / "aggregates.csv",
        "fit": ["fit", "--input", str(work / "joined.csv"), "--output", str(work / "model.json")],
        "calibrate": ["calibrate", "--input", str(work / "aggregates.csv"),
                      "--summary", str(work / "summary.json"),
                      "--points", str(work / "points.csv"), "--min-n", str(min_n)],
        "min_n": min_n,
        "properties": {
            "simulate_calls": len(simulate),
            "rows": rows,
            "groups": groups,
            "distinct_test_n": len(SIM_CASES),
            # calibrate solves two t quantiles per group, at one alpha
            "test_n_repeat_share": round(1.0 - len(SIM_CASES) / (2 * groups), 4),
            "calibrate_min_n": min_n,
        },
    }


def join_simulated(paths: list[Path], joined: Path, aggregates: Path) -> None:
    """Concatenate simulate outputs with unique task ids; write per-group aggregates.

    Task ids get the call's prefix (``s1task01``...). The aggregates are
    the calibration input: n, mean and sample SD of each (task, method)
    group, computed here from the 6-decimal values segci wrote.
    """
    groups: dict[tuple[str, str], list[float]] = {}
    with open(joined, "w", encoding="utf-8", newline="") as out:
        out.write("task_id,method_id,case_id,dsc\n")
        for k, path in enumerate(paths):
            with open(path, encoding="utf-8", newline="") as fh:
                next(fh)
                for line in fh:
                    task, method, case, dsc = line.rstrip("\n").split(",")
                    task = f"s{k + 1}{task}"
                    out.write(f"{task},{method},{case},{dsc}\n")
                    groups.setdefault((task, method), []).append(float(dsc))
    rows = []
    for (task, method), values in groups.items():
        n = len(values)
        mean = math.fsum(values) / n
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
        rows.append((task, method, n, f"{mean:.6f}", f"{sd:.6f}"))
    with open(aggregates, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["task_id", "method_id", "n", "mean_dsc", "observed_sd"])
        out.writerows(rows)


def crosscheck(rng: random.Random, work: Path) -> dict:
    """Write one per-case sample per size and pick the bootstrap seed."""
    a = rng.uniform(6.0, 10.0)
    b = rng.uniform(1.5, 3.0)
    samples = {str(n): [round(rng.betavariate(a, b), 6) for _ in range(n)] for n in XCHECK_SIZES}
    path = work / "samples.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["group", "dsc"])
        for n, values in samples.items():
            out.writerows((n, f"{v:.6f}") for v in values)
    return {
        "samples_path": path,
        "boot_seed": rng.randrange(0, 2**31),
        "properties": {
            "group_sizes": list(XCHECK_SIZES),
            "rows": sum(XCHECK_SIZES),
            "family": f"beta:{a:.3f},{b:.3f}",
            "distinct_test_n": len(XCHECK_SIZES),
        },
    }
