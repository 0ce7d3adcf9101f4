"""Deterministic synthetic per-case DSC data.

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

from . import _check_seed, _checked, _mean_sd

# segci.rng loads inside the functions that draw, so `segci fit` aggregates
# per-case files without it, and segci.glm inside make_training_pairs, so
# `segci simulate` runs without it. numpy is only a type here: sample_beta
# reads the words of a numpy generator.
if TYPE_CHECKING:
    import numpy as np

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
]


def sample_beta(a: float, b: float, rng: np.random.Generator) -> float:
    """One Beta(a, b) draw from ``rng``, as the ratio X / (X + Y) of two Gamma variates.

    The draw reads ``rng``'s raw 64-bit words, as :class:`SimulatedRows`
    reads its own, and uses them as numpy's ``standard_normal`` and
    ``random`` would. A generator on MT19937, whose raw words are 32-bit,
    is refused.
    """
    from numpy.random import MT19937  # loaded already, as rng is a numpy generator

    if isinstance(rng.bit_generator, MT19937):
        raise ValueError("sample_beta reads 64-bit raw words, and MT19937's are 32-bit; "
                         "use a Philox, PCG64 or SFC64 generator")
    return BetaFamily(a, b).sampler()(rng.bit_generator.random_raw)


@_checked
class BetaFamily(NamedTuple):
    """Per-case scores are iid Beta(a, b) within every (task, method) group."""

    a: float
    b: float

    def _check(self) -> None:
        a, b = self
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError(f"beta parameters must be positive and finite, got ({a}, {b})")

    def sampler(self) -> Callable[[Callable[[], int]], float]:
        """A draw from a word source, ``sampler()(word)``; see :func:`~segci.rng.gamma_sampler`."""
        from .rng import gamma_sampler

        gamma_a = gamma_sampler(self.a)
        gamma_b = gamma_sampler(self.b)

        def draw(word: Callable[[], int]) -> float:
            x, y = gamma_a(word), gamma_b(word)
            total = x + y
            if total == math.inf:  # x / inf would read 0: take the ratio of the halves
                x, total = 0.5 * x, 0.5 * x + 0.5 * y
            try:
                return x / total
            except ZeroDivisionError:
                raise ArithmeticError(
                    f"beta:{self.a!r},{self.b!r} cannot be drawn: both Gamma variates "
                    "underflowed to 0"
                ) from None

        return draw


@_checked
class ConstantFamily(NamedTuple):
    """Every case scores exactly ``value``."""

    value: float

    def _check(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"constant DSC must lie in [0, 1], got {self.value}")

    def sampler(self) -> Callable[[Callable[[], int]], float]:
        return lambda word: self.value


def parse_family(text: str) -> "BetaFamily | ConstantFamily":
    """Parse a family spec string: ``beta:a,b`` or ``constant:c``."""
    name, _, params = text.partition(":")
    if "_" in params:  # segci._FLOAT's rule, inline so that the message names the family
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


@_checked
class SimSpec(NamedTuple):
    """Shape of a simulated challenge.

    Defaults mirror a multi-task challenge with 19 methods on 10 tasks.
    ``exclude`` drops specific zero-based (task, method) index pairs to
    mimic missing submissions. ``seed`` is an integer in [0, 2**64).
    """

    n_tasks: int = 10
    methods_per_task: int = 19
    cases_per_task: int = 50
    family: "BetaFamily | ConstantFamily" = BetaFamily(8.0, 2.0)
    seed: int = 42
    exclude: tuple[tuple[int, int], ...] = ()

    def _check(self) -> None:
        from numbers import Integral  # here, so that `segci fit` does not load it

        n_tasks, methods_per_task, cases_per_task, _, seed, exclude = self
        counts = n_tasks, methods_per_task, cases_per_task
        if not all(isinstance(k, Integral) for k in counts):
            raise ValueError(f"SimSpec counts must be integers, got {counts!r}")
        if min(counts) < 1:
            raise ValueError("all SimSpec counts must be >= 1")
        _check_seed(seed)
        for pair in exclude:
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and all(isinstance(i, Integral) for i in pair)):
                raise ValueError(f"excluded pair {pair!r} is not a pair of integers")
            t, m = pair
            if not (0 <= t < n_tasks and 0 <= m < methods_per_task):
                raise ValueError(
                    f"excluded pair ({t}, {m}) lies outside tasks 0..{n_tasks - 1} "
                    f"and methods 0..{methods_per_task - 1}"
                )


class CaseResult(NamedTuple):
    task_id: str
    method_id: str
    case_id: str
    dsc: float


# The cases of a group whose Philox blocks are computed in one pass.
_BATCH = 256


class SimulatedRows:
    """The rows of :func:`generate_results`, each drawn as it is iterated.

    ``len()`` counts them without drawing, so a writer such as
    :func:`~segci.io.write_per_case_csv` can stream a simulation of any
    size while holding one batch of cases at a time.
    """

    __slots__ = ("spec",)

    def __init__(self, spec: SimSpec):
        self.spec = spec

    def __len__(self) -> int:
        spec = self.spec
        groups = spec.n_tasks * spec.methods_per_task - len(set(spec.exclude))
        return groups * spec.cases_per_task

    def __iter__(self) -> Iterator[CaseResult]:
        """Case c of method m on task t draws ``spec.family.sampler()`` from stream (t, m, c).

        The stream is :func:`~segci.rng.word_streams` of (seed,
        ``DOMAIN_CASES``) and path (t, m, c); the family's sampler is
        built once. The Philox blocks of up to 256 cases of a group are
        computed together, block 1 for all of them; the cases whose draws
        read past their words get their next block together, and are
        drawn again from all their words so far, until every case of the
        batch is drawn. So each case reads exactly its own stream's words.
        """
        from .rng import DOMAIN_CASES, _blocks, _round_keys

        spec = self.spec
        excluded = set(spec.exclude)
        keys = _round_keys(spec.seed, DOMAIN_CASES)
        draw = spec.family.sampler()
        n_cases = spec.cases_per_task
        new_row = tuple.__new__  # CaseResult's own constructor, without its Python-level wrapper
        for t in range(spec.n_tasks):
            task_id = f"task{t + 1:02d}"
            for m in range(spec.methods_per_task):
                if (t, m) in excluded:
                    continue
                method_id = f"method{m + 1:02d}"
                for start in range(0, n_cases, _BATCH):
                    n = min(_BATCH, n_cases - start)
                    words, dscs = [()] * n, [0.0] * n
                    pending, block = range(n), 1
                    while pending:
                        more = _blocks(keys, t, m, [start + i for i in pending], block)
                        for i, next_words in zip(pending, more):
                            words[i] += next_words
                        todo, pending, block = pending, [], block + 1
                        for i in todo:
                            try:
                                dscs[i] = draw(iter(words[i]).__next__)
                            except StopIteration:  # drawn again with its next block
                                pending.append(i)
                    for c, dsc in enumerate(dscs, start):
                        yield new_row(CaseResult, (task_id, method_id, f"case{c + 1:05d}", dsc))


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
    from .glm import TrainingPair

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
        mean, sd = _mean_sd(values) or (0.0, 0.0)
        if sd == 0.0:  # a constant group, or an SD below the smallest float
            dropped += 1
            continue
        pairs.append(TrainingPair(dsc_mean_pct=mean * 100.0, sd_pct=sd * 100.0))
    return PairsResult(
        pairs=tuple(pairs),
        n_groups=len(groups),
        n_dropped_zero_sd=dropped,
        n_skipped_small=skipped,
    )
