"""Cross-check worker: parametric against percentile-bootstrap CIs, in process.

Usage: python bench/xcheck.py SAMPLES_CSV BOOT_SEED SECONDS TRACE RESULT_JSON

For each per-case group in SAMPLES_CSV (columns ``group,dsc``) one cycle
calls ``summarize``, ``parametric_ci``, ``bootstrap_ci`` (default
resamples and workers) and ``compare_cis``, as demo 02 does. Cycles
repeat until SECONDS have passed. With TRACE=1 the tracer is then
installed and one more cycle runs traced. RESULT_JSON gets
each call's wall time and each cycle's outputs as ``float.hex``.
"""

import csv
import json
import sys
import time

import tracing


def cycle(segci, groups, boot_seed):
    times, outputs = {}, {}
    clock = time.perf_counter
    for n, values in groups.items():
        t0 = clock()
        stats = segci.summarize(values)
        t1 = clock()
        para = segci.parametric_ci(stats.mean, stats.sd, stats.n)
        t2 = clock()
        boot = segci.bootstrap_ci(values, seed=boot_seed)
        t3 = clock()
        diff = segci.compare_cis(para, boot)
        t4 = clock()
        times.update({f"summarize_n{n}": t1 - t0, f"parametric_n{n}": t2 - t1,
                      f"boot_n{n}": t3 - t2, f"compare_n{n}": t4 - t3})
        outputs[n] = {"para_lower": para.lower.hex(), "para_upper": para.upper.hex(),
                      "boot_lower": boot.lower.hex(), "boot_upper": boot.upper.hex(),
                      "diff_lower": diff.lower_diff.hex(), "diff_upper": diff.upper_diff.hex()}
    return {"times": times, "outputs": outputs}


def main() -> int:
    samples, boot_seed, seconds, trace, result_path = sys.argv[1:6]
    segci, imports = tracing.timed_import("segci")

    groups = {}
    with open(samples, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault(row["group"], []).append(float(row["dsc"]))

    cycles = []
    deadline = time.perf_counter() + float(seconds)
    while not cycles or time.perf_counter() < deadline:
        cycles.append(cycle(segci, groups, int(boot_seed)))
    result = {"cycles": cycles}
    if trace == "1":
        tracer = tracing.Tracer()
        tracing.install(tracer)
        result["traced_cycle"] = cycle(segci, groups, int(boot_seed))
        result["trace"] = tracer.doc(imports=imports)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
