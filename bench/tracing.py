"""In-memory span tracer for segci's public functions, installed from outside.

``install`` wraps every public function (a name in a module's
``__all__`` that the module itself defines) of the layers in ``LAYERS``
and rebinds the wrapper wherever the package holds the original: the
defining module's attribute and every ``from ... import`` binding in
another segci module. Both are needed, because a call such as
``t_quantile`` -> ``t_cdf`` goes through the caller's module globals.

A span is ``[name index, parent span index, start, end]``; spans stay in
memory until ``dump`` writes them out, together with the named counts
the hooks below take from arguments and results.

Per-layer metric names: ``<layer>.<function>.calls``, ``.self_s`` (span
time minus child spans), ``.total_s`` (span time), the named counts of
``HOOKS``, and ``cli.import_s`` / ``numpy.import_s`` from
``timed_import`` (the entry module is ``segci.cli`` for CLI commands and
``segci`` for the in-process cross-check).
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import importlib.util
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("special", "rng", "descriptive", "glm", "intervals", "corpus",
          "simulate", "io", "calibration", "cli")


def _add(counter, value_of):
    def hook(tracer, args, result):
        tracer.counts[counter] += value_of(args, result)
    return hook


def _irls(tracer, args, result):
    tracer.counts["glm.irls_gamma_log.iterations"] += result.iterations
    tracer.counts["glm.irls_gamma_log.converged"] += int(bool(result.converged))


def _quantile_args(tracer, args, result):
    tracer.seen["special.t_quantile.distinct"].add(args)


# Named counts at layer boundaries, taken from each call's arguments and result.
HOOKS = {
    "special.t_quantile": _quantile_args,
    "simulate.generate_results": _add("simulate.generate_results.rows", lambda a, r: len(r)),
    "simulate.make_training_pairs": _add("simulate.make_training_pairs.groups",
                                         lambda a, r: r.n_groups),
    "io.write_per_case_csv": _add("io.write_per_case_csv.rows", lambda a, r: len(a[0])),
    "io.read_per_case_csv": _add("io.read_per_case_csv.rows", lambda a, r: len(r)),
    "glm.irls_gamma_log": _irls,
    "calibration.calibrate": _add("calibration.calibrate.records", lambda a, r: len(r[0])),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.seen: dict[str, set] = defaultdict(set)
        self._stack = [-1]

    def wrap(self, name: str, fn, hook=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def doc(self, **extra) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.seen.items()},
            **extra,
        }

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.doc(**extra), fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer and rebind all references."""
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"segci.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                wrapped[fn] = tracer.wrap(name, fn, HOOKS.get(name))
    for modname, module in list(sys.modules.items()):
        if modname == "segci" or modname.startswith("segci."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])


class ImportTimer(importlib.abc.MetaPathFinder):
    """Times the first import of one top-level module, submodules included.

    Reads 0 when nothing imports the module, so a later lazy import shows.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def timed(module):
            start = time.perf_counter()
            try:
                exec_module(module)
            finally:
                self.seconds += time.perf_counter() - start

        spec.loader.exec_module = timed
        return spec


def timed_import(name: str):
    """Import module ``name``; return it and its import time with numpy's share."""
    numpy_timer = ImportTimer("numpy")
    sys.meta_path.insert(0, numpy_timer)
    start = time.perf_counter()
    module = importlib.import_module(name)
    seconds = time.perf_counter() - start
    if numpy_timer in sys.meta_path:
        sys.meta_path.remove(numpy_timer)
    return module, {"cli.import_s": seconds, "numpy.import_s": numpy_timer.seconds}


def aggregate(docs: list[dict]) -> dict[str, float]:
    """Per-name calls, total and self time, plus named counts, summed over dumps.

    Self time is a span's duration minus the durations of its direct
    children (spans of one thread never overlap). ``distinct`` counts are
    summed over dumps: each dump is one process, which is the scope a
    memo inside the program would have.
    """
    out: dict[str, float] = defaultdict(float)
    for doc in docs:
        names, spans = doc["names"], doc["spans"]
        child = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (index, _, start, end) in enumerate(spans):
            out[f"{names[index]}.calls"] += 1
            out[f"{names[index]}.total_s"] += end - start
            out[f"{names[index]}.self_s"] += end - start - child[i]
        for key, value in doc["counts"].items():
            out[key] += value
        for key, value in doc["distinct"].items():
            out[key] += value
    return out
