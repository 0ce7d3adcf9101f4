"""Deterministic synthetic per-case DSC data and the bundled demo corpus.

Stands in for challenge datasets that are not publicly redistributable:
per-case scores are drawn from a Beta family (bounded on [0, 1] like a
Dice score, with the mean-variance coupling the SD model captures) or
held constant. Every draw comes from a counter-derived stream keyed by
(seed, task, method, case), so output is bit-identical across runs,
platforms and any evaluation order.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from . import _Checked
from .glm import TrainingPair

# numpy loads with segci.rng, inside the functions that draw: `segci fit`
# aggregates per-case files without it.
if TYPE_CHECKING:
    import numpy as np

    from .corpus import PaperRecord

__all__ = [
    "BetaFamily",
    "ConstantFamily",
    "SimSpec",
    "CaseResult",
    "SimulatedRows",
    "PairsResult",
    "sample_beta",
    "generate_results",
    "make_training_pairs",
    "parse_family",
    "demo_corpus",
]


def sample_beta(a: float, b: float, rng: np.random.Generator) -> float:
    """One Beta(a, b) draw as the ratio X / (X + Y) of two Gamma variates."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta parameters must be positive, got a={a}, b={b}")
    return _beta_sampler(a, b, rng)()


def _beta_sampler(a: float, b: float, rng: np.random.Generator) -> Callable[[], float]:
    from .rng import gamma_sampler

    gamma_a = gamma_sampler(a, rng)
    gamma_b = gamma_sampler(b, rng)

    def draw() -> float:
        x = gamma_a()
        return x / (x + gamma_b())

    return draw


class _BetaFamily(NamedTuple):
    a: float
    b: float

    def sampler(self, rng: np.random.Generator) -> Callable[[], float]:
        """Zero-argument draw from ``rng``'s current state; see :func:`gamma_sampler`."""
        return _beta_sampler(self.a, self.b, rng)

    def draw(self, rng: np.random.Generator) -> float:
        return sample_beta(self.a, self.b, rng)


class BetaFamily(_Checked, _BetaFamily):
    """Per-case scores are iid Beta(a, b) within every (task, method) group."""

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError(f"beta parameters must be positive and finite, got ({a}, {b})")
        return super().__new__(cls, a, b)


class _ConstantFamily(NamedTuple):
    value: float

    def sampler(self, rng: np.random.Generator) -> Callable[[], float]:
        return lambda: self.value

    def draw(self, rng: np.random.Generator) -> float:
        return self.value


class ConstantFamily(_Checked, _ConstantFamily):
    """Every case scores exactly ``value``."""

    __slots__ = ()

    def __new__(cls, value: float):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"constant DSC must lie in [0, 1], got {value}")
        return super().__new__(cls, value)


def parse_family(text: str) -> "BetaFamily | ConstantFamily":
    """Parse a family spec string: ``beta:a,b`` or ``constant:c``."""
    name, _, params = text.partition(":")
    if "_" in params:  # float() reads "1_0" as 10
        raise ValueError(f"family parameters must be plain numbers, got {text!r}")
    if name == "beta":
        parts = params.split(",")
        if len(parts) != 2:
            raise ValueError(f"beta family needs two parameters, got {text!r}")
        return BetaFamily(float(parts[0]), float(parts[1]))
    if name == "constant":
        if not params:
            raise ValueError(f"constant family needs a value, got {text!r}")
        return ConstantFamily(float(params))
    raise ValueError(f"unknown family {text!r}; expected beta:a,b or constant:c")


class _SimSpec(NamedTuple):
    n_tasks: int
    methods_per_task: int
    cases_per_task: int
    family: "BetaFamily | ConstantFamily"
    seed: int
    exclude: tuple[tuple[int, int], ...]


class SimSpec(_Checked, _SimSpec):
    """Shape of a simulated challenge.

    Defaults mirror a multi-task challenge with 19 methods on 10 tasks.
    ``exclude`` drops specific zero-based (task, method) index pairs to
    mimic missing submissions.
    """

    __slots__ = ()

    def __new__(
        cls,
        n_tasks: int = 10,
        methods_per_task: int = 19,
        cases_per_task: int = 50,
        family: "BetaFamily | ConstantFamily" = BetaFamily(8.0, 2.0),
        seed: int = 42,
        exclude: tuple[tuple[int, int], ...] = (),
    ):
        if min(n_tasks, methods_per_task, cases_per_task) < 1:
            raise ValueError("all SimSpec counts must be >= 1")
        for t, m in exclude:
            if not (0 <= t < n_tasks and 0 <= m < methods_per_task):
                raise ValueError(
                    f"excluded pair ({t}, {m}) lies outside tasks 0..{n_tasks - 1} "
                    f"and methods 0..{methods_per_task - 1}"
                )
        return super().__new__(cls, n_tasks, methods_per_task, cases_per_task, family, seed, exclude)


class CaseResult(NamedTuple):
    task_id: str
    method_id: str
    case_id: str
    dsc: float


class SimulatedRows:
    """The rows of :func:`generate_results`, each drawn as it is iterated.

    ``len()`` counts them without drawing, so a writer such as
    :func:`~segci.io.write_per_case_csv` can stream a simulation of any
    size while holding one row at a time.
    """

    __slots__ = ("spec",)

    def __init__(self, spec: SimSpec):
        self.spec = spec

    def __len__(self) -> int:
        spec = self.spec
        groups = spec.n_tasks * spec.methods_per_task - len(set(spec.exclude))
        return groups * spec.cases_per_task

    def __iter__(self) -> Iterator[CaseResult]:
        """Case c of method m on task t draws ``spec.family.draw(streams(t, m, c))``.

        The draws come from one :func:`~segci.rng.substreams` generator; the
        family's sampler is built once, since every reset returns that same
        generator.
        """
        from .rng import DOMAIN_CASES, substreams

        spec = self.spec
        excluded = set(spec.exclude)
        streams = substreams(spec.seed, DOMAIN_CASES)
        draw = spec.family.sampler(streams())
        new_row = tuple.__new__  # CaseResult's own constructor, without its Python-level wrapper
        for t in range(spec.n_tasks):
            task_id = f"task{t + 1:02d}"
            for m in range(spec.methods_per_task):
                if (t, m) in excluded:
                    continue
                method_id = f"method{m + 1:02d}"
                for c in range(spec.cases_per_task):
                    streams(t, m, c)
                    yield new_row(CaseResult, (task_id, method_id, f"case{c + 1:05d}", draw()))


def generate_results(spec: SimSpec) -> list[CaseResult]:
    """Per-case DSC table, fully determined by the spec; see :class:`SimulatedRows`."""
    return list(SimulatedRows(spec))


class PairsResult(NamedTuple):
    """Training pairs plus counts of groups that could not contribute."""

    pairs: tuple[TrainingPair, ...]
    n_groups: int
    n_dropped_zero_sd: int
    n_skipped_small: int


def make_training_pairs(rows: Iterable[CaseResult]) -> PairsResult:
    """Aggregate per-case rows into (mean, SD) training pairs per group.

    Grouping is by (task_id, method_id) in order of first appearance,
    holding one ``array('d')`` of values per group, so ``rows`` may be a
    stream such as :func:`~segci.io.iter_per_case_csv`. Groups with fewer
    than 2 cases cannot yield an SD and are skipped; groups with zero SD
    are dropped because the Gamma response must be strictly positive.
    Both kinds are counted in the result.
    """
    groups: defaultdict[tuple[str, str], array] = defaultdict(partial(array, "d"))
    for task_id, method_id, _, dsc in rows:
        groups[task_id, method_id].append(dsc)

    pairs: list[TrainingPair] = []
    dropped = 0
    skipped = 0
    for values in groups.values():
        if len(values) < 2:
            skipped += 1
            continue
        # the mean and SD of :func:`~segci.descriptive.summarize`, bit for bit:
        # exactly 0 for a constant group, whatever the summation noise
        n = len(values)
        mean = math.fsum(values) / n
        if min(values) == max(values):
            sd = 0.0
        else:
            sd = math.sqrt(math.fsum([(v - mean) ** 2 for v in values]) / (n - 1))
        if sd == 0.0:
            dropped += 1
            continue
        pairs.append(TrainingPair(dsc_mean_pct=mean * 100.0, sd_pct=sd * 100.0))
    return PairsResult(
        pairs=tuple(pairs),
        n_groups=len(groups),
        n_dropped_zero_sd=dropped,
        n_skipped_small=skipped,
    )


# Constants of the bundled demo corpus. Chosen once so that the corpus
# aggregates land near the targets documented in the README (median
# leader CI width ~0.03, median gap ~0.01, overlap fraction 50/77).
_DEMO_SEED = 108
_DEMO_N_PAPERS = 77
_DEMO_MEAN_RANGE = (0.70, 0.96)
_DEMO_N_MEDIAN = 280.0
_DEMO_N_SIGMA = 0.85
_DEMO_DELTA_MEDIAN = 0.010
_DEMO_DELTA_SIGMA = 1.0
_DEMO_DELTA_CAP = 0.15


def demo_corpus() -> list[PaperRecord]:
    """The bundled 77-paper synthetic comparison corpus.

    Purely synthetic leaderboards whose aggregate behavior resembles a
    published-literature corpus; shipped as ``data/demo_corpus.csv`` and
    regenerated bit-identically by this function.
    """
    # corpus loads intervals and special, which simulate and fit do not need
    from .corpus import MethodResult, PaperRecord
    from .rng import DOMAIN_DEMO_CORPUS, substreams

    streams = substreams(_DEMO_SEED, DOMAIN_DEMO_CORPUS)
    papers: list[PaperRecord] = []
    for i in range(_DEMO_N_PAPERS):
        rng = streams(i)
        m1 = round(float(rng.uniform(*_DEMO_MEAN_RANGE)), 6)
        n = round(float(rng.lognormal(math.log(_DEMO_N_MEDIAN), _DEMO_N_SIGMA)))
        n = min(max(n, 12), 2500)
        delta = min(
            round(float(rng.lognormal(math.log(_DEMO_DELTA_MEDIAN), _DEMO_DELTA_SIGMA)), 6),
            _DEMO_DELTA_CAP,
        )
        n_methods = int(rng.integers(2, 7))
        means = [m1, round(max(m1 - delta, 0.0), 6)]
        for _ in range(n_methods - 2):
            means.append(round(max(means[-1] - float(rng.uniform(0.002, 0.05)), 0.0), 6))
        papers.append(
            PaperRecord(
                paper_id=f"paper{i + 1:03d}",
                test_n=n,
                methods=tuple(
                    MethodResult(method_id=f"method{j + 1:02d}", mean_dsc=mean)
                    for j, mean in enumerate(means)
                ),
            )
        )
    return papers
