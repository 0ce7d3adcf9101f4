"""segci benchmark: CLI wall times on three workloads, plus a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload literature --seed 1 --seconds 20 --trace 0

Workloads (the reasons are in BENCHMARK.json and in gen.py):

* ``literature``: ``segci analyze`` on a 2000-paper corpus, then a batch
  of ``segci ci`` calls.
* ``challenge``: four ``segci simulate`` calls, ``segci fit`` on their
  joined output, ``segci calibrate`` on its per-group aggregates.
* ``crosscheck``: ``parametric_ci``, ``bootstrap_ci`` and
  ``compare_cis`` in one library process, at n = 50 and n = 2000.

One cycle runs a workload's operations once, each CLI command as a fresh
``python -m segci.cli`` process with ``src`` on PYTHONPATH: a closed loop
with one client and one operation at a time. Cycles repeat until
``--seconds`` have passed. Each distinct output is checked by
``oracle.py`` after the timed cycles, and every repeat of an operation
must write the same bytes as its first run. With ``--trace 1`` one more
cycle runs with every public segci function wrapped (``launch.py`` for
CLI commands), which gives the per-layer metrics and the tracing
overhead against the untraced cycles.

The output is a detailed JSON report, then, as the last line, the
summary ``{"correct", "attempted", "failed", "metrics"}`` whose metrics
are BENCHMARK.json's ``end_to_end`` list (``--trace 0``) or its
``per_layer`` list (``--trace 1``).

The harness imports only the standard library: a process it starts
begins as a copy of it, so a large harness would show in the peak RSS
of every process it measures.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import gen
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODEL = SRC / "segci" / "data" / "paper_model.json"
WORK = BENCH / ".work"
SETUP_PROBES = 9

# The share by which a per-operation time (analyze_s, fit_s, boot_n50_s...)
# may worsen before it counts as a regression. These times exist on one
# workload each, so they live in the detailed report; BENCHMARK.json's
# end_to_end metrics are the ones every workload has.
OPERATION_BOUND = 0.25

LIMITS = ("Wall times and peak RSS of the benchmark's own processes only. No CPU is "
          "pinned, no cache is dropped and no machine setting is changed, so other "
          "load on the machine shows as noise, which the medians damp. cpu_count and "
          "affinity_cpus say what the run had.")

NOTES = [
    "Inputs stay in the ranges users pass: finite values and alpha >= 0.001. "
    "A zero failed_frac therefore says nothing about the t-quantile tail defect "
    "(wrong quantiles once 1 - p is below about 1e-9) or about non-finite input "
    "(NaN accepted in flags and CSV fields); those fixes bring their own tests.",
    "Known finding: a single-family 'simulate --cases 500' (e.g. beta:8,2) "
    "followed by 'fit' runs 100 IRLS iterations and reports converged: false. "
    "It exits 0 with a warning, which is documented behaviour. The challenge "
    "workload mixes four families; its fit facts and the traced "
    "glm.irls_gamma_log.iterations/converged counts keep the behaviour visible.",
    "failed_frac counts operations that exited non-zero, failed the oracle, or "
    "wrote other bytes than their first run; it equals the summary's "
    "failed/attempted.",
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its level."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[-11], round(100.0 * (len(s) - 10) / len(s), 1)


class Runner:
    """Runs operations, keeps their outputs for the oracle, and counts."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_kib = 0
        self.hashes: dict[str, dict[str, str]] = {}
        self.checks: list[dict] = []
        self.runs: dict[str, int] = {}
        self.facts: dict[str, dict] = {}
        self.trace_docs: list[dict] = []
        self._n = 0

    def process(self, argv: list[str]) -> tuple[float, int, int, str, str]:
        """Run one process to its end: wall seconds, exit code, peak RSS (KiB), out, err."""
        self._n += 1
        out_path = self.work / f"proc{self._n}.out"
        err_path = self.work / f"proc{self._n}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        texts = out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8")
        out_path.unlink()
        err_path.unlink()
        return wall, proc.returncode, usage.ru_maxrss, *texts

    def setup_times(self, module: str) -> list[float]:
        """Fresh interpreters importing ``module``; the first, which may compile, is dropped."""
        times = []
        for _ in range(SETUP_PROBES + 1):
            wall, code, _, _, err = self.process([sys.executable, "-c", f"import {module}"])
            if code != 0:
                raise RuntimeError(f"import {module} failed: {err.strip()[-300:]}")
            times.append(wall)
        return times[1:]

    def cli(self, key: str, argv: list[str], traced: bool, kind: str, args=None,
            files=None) -> float:
        """Run one ``segci`` command, count it, keep or compare its outputs; return its wall time."""
        if traced:
            trace_path = self.work / f"{key}.trace.json"
            cmd = [sys.executable, str(BENCH / "launch.py"), str(trace_path), *argv]
        else:
            cmd = [sys.executable, "-m", "segci.cli", *argv]
        wall, code, rss, out, err = self.process(cmd)
        self.attempted += 1
        if traced and trace_path.exists():
            with open(trace_path, encoding="utf-8") as fh:
                self.trace_docs.append(json.load(fh))
            trace_path.unlink()
        elif not traced:
            self.peak_kib = max(self.peak_kib, rss)
        if code != 0:
            self.failed += 1
            self.errors.append(f"{key}: exit {code}: {err.strip()[-300:]}")
            return wall
        texts = {"stdout": out}
        for label, path in (files or {}).items():
            texts[label] = Path(path).read_text(encoding="utf-8")
        self.keep(key, texts, kind, args or {})
        return wall

    def keep(self, key: str, texts: dict[str, str], kind: str, args: dict) -> None:
        """Keep an operation's first outputs for the oracle; later runs must match them."""
        hashes = {label: sha256(text) for label, text in texts.items()}
        if key not in self.hashes:
            kept = self.work / "outputs" / key
            kept.mkdir(parents=True)
            for label, text in texts.items():
                (kept / label).write_text(text, encoding="utf-8")
            self.hashes[key] = hashes
            self.runs[key] = 1
            self.checks.append({"key": key, "kind": kind, "args": args,
                                "files": {label: str(kept / label) for label in texts}})
        elif hashes == self.hashes[key]:
            self.runs[key] += 1
        else:
            self.failed += 1
            self.errors.append(f"{key}: output bytes differ from its first run")

    def perturbed(self, key: str, label: str, edit) -> list[dict]:
        """A copy of ``key``'s check whose ``label`` output is changed by ``edit``.

        Empty when the operation never succeeded, so there is nothing to perturb.
        """
        check = next((c for c in self.checks if c["key"] == key), None)
        if check is None:
            return []
        path = self.work / "outputs" / f"perturbed-{key}-{label}"
        path.write_text(edit(Path(check["files"][label]).read_text(encoding="utf-8")),
                        encoding="utf-8")
        return [dict(check, key=f"perturbed-{key}", files=dict(check["files"], **{label: str(path)}))]

    def verify(self, perturbed: list[dict]) -> bool:
        """Run the oracle on every kept output and on the perturbed copies.

        Failed checks count every run of that operation as failed. Returns
        whether the oracle caught every perturbed copy.
        """
        request = self.work / "oracle-request.json"
        result = self.work / "oracle-result.json"
        with open(request, "w", encoding="utf-8") as fh:
            json.dump({"model": str(MODEL), "checks": self.checks + perturbed}, fh)
        _, code, _, _, err = self.process(
            [sys.executable, str(BENCH / "oracle.py"), str(request), str(result)])
        if code != 0:
            raise RuntimeError(f"oracle exit {code}: {err.strip()[-500:]}")
        with open(result, encoding="utf-8") as fh:
            results = json.load(fh)
        for check in self.checks:
            found = results[check["key"]]
            if found["facts"]:
                self.facts[check["key"]] = found["facts"]
            if found["errors"]:
                self.failed += found["facts"].get("failed_repeats", self.runs[check["key"]])
                self.errors.extend(found["errors"])
        return bool(perturbed) and all(results[c["key"]]["errors"] for c in perturbed)


def shift_json(path: list, by: float = 1e-3):
    """An edit that adds ``by`` to the number at ``path`` in a JSON document."""
    def edit(text: str) -> str:
        doc = json.loads(text)
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] += by
        return json.dumps(doc)
    return edit


# ---------------------------------------------------------------- workloads
# Each returns the input properties, the timed cycles, the traced cycle
# (or None), the per-operation metrics and the perturbed oracle checks.

def run_cycles(cycle, seconds: float, trace: bool):
    timed = []
    deadline = time.perf_counter() + seconds
    while not timed or time.perf_counter() < deadline:
        timed.append(cycle(False))
    return timed, cycle(True) if trace else None


def literature(runner: Runner, rng: random.Random, seconds: float, trace: bool):
    inp = gen.literature(rng, runner.work)
    report = runner.work / "report.json"
    analyze_args = {"corpus": str(runner.work / "corpus.csv"), "alpha": gen.ANALYZE_ALPHA}

    def cycle(traced: bool) -> dict[str, float]:
        times = {"analyze": runner.cli("analyze", inp["analyze"], traced, "analyze",
                                       analyze_args, {"report.json": report})}
        for i, argv in enumerate(inp["ci_calls"]):
            times[f"ci{i + 1}"] = runner.cli(f"ci{i + 1}", argv, traced, "ci", {"argv": argv})
        return times

    timed, traced = run_cycles(cycle, seconds, trace)

    def operation_metrics(cycles):
        ci = [t for c in cycles for k, t in c.items() if k.startswith("ci")]
        ci_tail, level = tail(ci)
        return {
            "analyze_s": (median([c["analyze"] for c in cycles]), len(cycles), None),
            "ci_s.p50": (median(ci), len(ci), None),
            "ci_s.tail": (ci_tail, len(ci), f"p{level} of the ci calls"),
        }

    perturbed = (runner.perturbed("analyze", "report.json", shift_json(["papers", 0, "ci_lower"]))
                 + runner.perturbed("ci1", "stdout", shift_json(["lower"])))
    return inp["properties"], timed, traced, operation_metrics, perturbed


def challenge(runner: Runner, rng: random.Random, seconds: float, trace: bool):
    inp = gen.challenge(rng, runner.work)
    sim_paths = [Path(argv[argv.index("--output") + 1]) for argv in inp["simulate"]]
    work = runner.work

    def cycle(traced: bool) -> dict[str, float]:
        times = {}
        for k, (argv, path) in enumerate(zip(inp["simulate"], sim_paths)):
            rows = gen.SIM_TASKS * gen.SIM_METHODS * int(argv[argv.index("--cases") + 1])
            times[f"simulate{k + 1}"] = runner.cli(f"simulate{k + 1}", argv, traced, "simulate",
                                                   {"rows": rows}, {"cases.csv": path})
        if not inp["aggregates"].exists() and all(p.exists() for p in sim_paths):
            gen.join_simulated(sim_paths, inp["joined"], inp["aggregates"])
        times["fit"] = runner.cli("fit", inp["fit"], traced, "fit",
                                  files={"model.json": work / "model.json"})
        times["calibrate"] = runner.cli(
            "calibrate", inp["calibrate"], traced, "calibrate",
            {"aggregates": str(inp["aggregates"]), "alpha": 0.05, "min_n": inp["min_n"]},
            {"summary.json": work / "summary.json", "points.csv": work / "points.csv"})
        return times

    timed, traced = run_cycles(cycle, seconds, trace)

    def operation_metrics(cycles):
        sims = [median([t for k, t in c.items() if k.startswith("simulate")]) for c in cycles]
        return {
            "simulate_s": (median(sims), len(cycles) * len(sim_paths),
                           "median over cycles of the cycle's median simulate call"),
            "fit_s": (median([c["fit"] for c in cycles]), len(cycles), None),
            "calibrate_s": (median([c["calibrate"] for c in cycles]), len(cycles), None),
        }

    def shift_first_width(text: str) -> str:
        lines = text.splitlines()
        predicted, rest = lines[1].split(",", 1)
        lines[1] = f"{float(predicted) + 1e-3:.6f},{rest}"
        return "\n".join(lines) + "\n"

    perturbed = runner.perturbed("calibrate", "points.csv", shift_first_width)
    return inp["properties"], timed, traced, operation_metrics, perturbed


def crosscheck(runner: Runner, rng: random.Random, seconds: float, trace: bool):
    inp = gen.crosscheck(rng, runner.work)
    result_path = runner.work / "xcheck.json"
    _, code, rss, _, err = runner.process(
        [sys.executable, str(BENCH / "xcheck.py"), str(inp["samples_path"]),
         str(inp["boot_seed"]), repr(seconds), "1" if trace else "0", str(result_path)])
    runner.peak_kib = max(runner.peak_kib, rss)
    if code != 0:
        raise RuntimeError(f"cross-check worker exit {code}: {err.strip()[-300:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    cycles = result["cycles"] + ([result["traced_cycle"]] if trace else [])
    if trace:
        runner.trace_docs.append(result["trace"])

    for n in gen.XCHECK_SIZES:
        key = f"crosscheck_n{n}"
        outputs = [c["outputs"][str(n)] for c in cycles]
        runner.attempted += len(outputs)
        runner.runs[key] = len(outputs)
        runner.hashes[key] = {"outputs": sha256(json.dumps(outputs[0], sort_keys=True))}
        runner.checks.append({"key": key, "kind": "crosscheck", "files": {}, "args": {
            "samples": str(inp["samples_path"]), "group": str(n), "outputs": outputs}})

    def operation_metrics(cycles):
        return {f"boot_n{n}_s": (median([c[f"boot_n{n}"] for c in cycles]), len(cycles), None)
                for n in gen.XCHECK_SIZES}

    first = runner.checks[0]
    good = first["args"]["outputs"][0]
    shifted = dict(good, para_lower=(float.fromhex(good["para_lower"]) + 1e-3).hex())
    moved = dict(good, boot_lower=(float.fromhex(good["boot_lower"]) + 1e-3).hex())
    perturbed = [dict(first, key="perturbed-parametric", args=dict(first["args"], outputs=[shifted])),
                 dict(first, key="perturbed-bootstrap", args=dict(first["args"],
                                                                   outputs=[good, moved]))]
    timed = [c["times"] for c in result["cycles"]]
    traced = result["traced_cycle"]["times"] if trace else None
    return inp["properties"], timed, traced, operation_metrics, perturbed


WORKLOADS = {"literature": literature, "challenge": challenge, "crosscheck": crosscheck}


# ------------------------------------------------------------------- report

def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
    }


def cycle_s(cycles: list[dict[str, float]]) -> float:
    return median([sum(c.values()) for c in cycles])


def layer_values(docs: list[dict], overhead_s: float, untraced_cycle_s: float) -> dict:
    """Every per-layer number of one traced cycle, by metric name."""
    values = dict(tracing.aggregate(docs))
    for key in ("cli.import_s", "numpy.import_s"):
        values[key] = median([d["imports"][key] for d in docs])
    quantiles = values.get("special.t_quantile.calls", 0)
    values["special.cdf_evals_per_quantile"] = (
        values.get("special.t_cdf.calls", 0) / quantiles if quantiles else 0.0)
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_frac"] = overhead_s / untraced_cycle_s
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "segci" / "cli.py").is_file() or not MODEL.is_file():
        print(f"error: no segci sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    entry_module = "segci" if args.workload == "crosscheck" else "segci.cli"
    setup = runner.setup_times(entry_module)
    properties, timed, traced, operation_metrics, perturbed = WORKLOADS[args.workload](
        runner, random.Random(args.seed), args.seconds, bool(args.trace))
    caught = runner.verify(perturbed)

    end_to_end = {
        "setup_s": (median(setup), len(setup), f"fresh interpreter through import {entry_module}"),
        "peak_rss_mb": (runner.peak_kib / 1024.0, None, "largest program process"),
        "cycle_s": (cycle_s(timed), len(timed), "all operations of one cycle"),
    }
    operations = operation_metrics(timed)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    report_metrics = {}
    for name, (value, samples, how) in end_to_end.items():
        report_metrics[name] = {"value": value, "unit": units[name], "samples": samples,
                                "how": how}
    for name, (value, samples, how) in operations.items():
        report_metrics[name] = {"value": value, "unit": "s", "samples": samples,
                                "bound": OPERATION_BOUND}
        if how:
            report_metrics[name]["how"] = how
    report_metrics["failed_frac"] = {"value": runner.failed / runner.attempted, "unit": "1",
                                     "samples": runner.attempted}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "loop": "closed, 1 client, one operation at a time",
        "machine": machine(),
        "limits": LIMITS,
        "inputs": properties,
        "metrics": report_metrics,
        "facts": runner.facts,
        "sha256": runner.hashes,
        "oracle_selfcheck": "perturbed outputs caught" if caught else "perturbed output MISSED",
        "errors": runner.errors[:20],
        "notes": NOTES,
    }

    if args.trace:
        pairs = {"cycle_s": (cycle_s([traced]), end_to_end["cycle_s"][0])}
        traced_ops = operation_metrics([traced])
        pairs.update((name, (traced_ops[name][0], operations[name][0])) for name in operations)
        overhead = {name: {"traced": t, "untraced": u, "overhead_s": t - u}
                    for name, (t, u) in pairs.items()}
        values = layer_values(runner.trace_docs, overhead["cycle_s"]["overhead_s"],
                              end_to_end["cycle_s"][0])
        self_times = sorted(((v, k) for k, v in values.items() if k.endswith(".self_s")),
                            reverse=True)
        report["trace"] = {
            "overhead": overhead,
            "largest_self_s": [[k, v] for v, k in self_times[:8]],
            "values": {k: values[k] for k in sorted(values)},
        }
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": caught and runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
