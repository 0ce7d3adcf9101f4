"""Counter-based random streams for reproducible simulation.

Every consumer of randomness in this package derives an independent
Philox stream from a user seed, a fixed domain tag, and up to three path
indices (for example task/method/case). Streams are identical in any
evaluation order. numpy's policy (NEP 19) fixes the Philox words, but
not what Generator's methods, such as standard_normal, make of them.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["substream", "substreams", "gamma_sampler"]

_U64_MASK = (1 << 64) - 1

# Domain tags reserved by the package. Test fixtures may use further tags.
DOMAIN_CASES = 1
DOMAIN_BOOTSTRAP = 2


def _counter_words(path: tuple[int, ...]) -> list[int]:
    """The 256-bit Philox counter for ``path``, as four 64-bit words.

    Path indices fill the high words, last word first, so every stream
    has 2^64 draws of room in the low word.
    """
    if len(path) > 3:
        raise ValueError("substream supports at most three path indices")
    words = [0, 0, 0, 0]
    for i, part in enumerate(path):
        words[3 - i] = part & _U64_MASK
    return words


def substream(seed: int, domain: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, domain, path).

    The seed and domain form the Philox key; up to three path indices
    are placed in the high words of the 256-bit counter, leaving 2^64
    draws of room per stream.
    """
    key = np.array([seed & _U64_MASK, domain & _U64_MASK], dtype=np.uint64)
    counter = np.array(_counter_words(path), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def substreams(seed: int, domain: int) -> Callable[..., np.random.Generator]:
    """Reusable form of :func:`substream` for many paths of one (seed, domain).

    ``streams = substreams(seed, domain)`` owns a single generator; each
    ``streams(*path)`` resets it to the start of the (seed, domain, path)
    stream and returns it. Its draws are bit-identical to those of
    ``substream(seed, domain, *path)``, at a fraction of the cost of
    building a new generator.

    The returned generator is valid only until the next call: that call
    rewinds it to another stream.
    """
    rng = substream(seed, domain)
    bitgen = rng.bit_generator
    # Plain ints: the state setter reads them faster than numpy's uint64 arrays.
    inner = {"counter": [0, 0, 0, 0], "key": bitgen.state["state"]["key"].tolist()}
    # Nothing buffered, as in a freshly built stream. Setting the state
    # copies this dict into the bit generator, so it never changes here.
    state = {
        "bit_generator": "Philox",
        "state": inner,
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

    def at(*path: int) -> np.random.Generator:
        inner["counter"] = _counter_words(path)
        bitgen.state = state
        return rng

    return at


def gamma_sampler(shape: float, rng: np.random.Generator) -> Callable[[], float]:
    """Zero-argument sampler of Gamma(shape, 1) draws from ``rng``.

    Marsaglia-Tsang squeeze method; shapes below 1 are boosted to
    shape+1 and corrected with a uniform power factor, whose uniform is
    drawn first. The constants are computed once here and ``rng``'s
    draw methods are bound, so each call costs only the loop. The
    sampler reads whatever state ``rng`` holds at the call, which makes
    it reusable across the resets of one :func:`substreams` generator.
    """
    if not 0.0 < shape < math.inf:
        raise ValueError(f"gamma shape must be positive and finite, got {shape}")
    normal, uniform, log = rng.standard_normal, rng.random, math.log
    d = (shape if shape >= 1.0 else shape + 1.0) - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)

    def draw() -> float:
        while True:
            x = normal()
            v = (1.0 + c * x) ** 3
            if v <= 0.0:
                continue
            u = uniform()
            if log(u) < 0.5 * x * x + d - d * v + d * log(v):
                return d * v

    if shape >= 1.0:
        return draw
    exponent = 1.0 / shape

    def boosted() -> float:
        u = uniform()
        return draw() * u**exponent

    return boosted

