"""Counter-based random streams for reproducible simulation.

Every consumer of randomness in this package derives an independent
Philox stream from a user seed, a fixed domain tag, and up to three path
indices (for example task/method/case). Streams are identical in any
evaluation order. numpy's policy (NEP 19) fixes the Philox words, but
not what Generator's methods, such as standard_normal, make of them.

The bootstrap reads raw words through numpy (:func:`index_words`).
The simulator reads the same words from a pure-Python Philox
(:func:`word_streams`) and turns them into Gamma variates itself
(:func:`gamma_sampler`), with a copy of numpy 2.4.6's ziggurat normal,
so it loads no numpy and its draws do not change with the numpy release.
Its words come from ``_blocks``, the one spelling of the cipher here,
which computes one block of many streams of a (seed, domain) in one pass:
the simulator's cases a batch at a time, and :func:`word_streams` a
single path.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from importlib import resources
from itertools import chain, count
from typing import Callable, Sequence

__all__ = ["substream", "index_words", "word_streams", "gamma_sampler"]

_U64_MASK = (1 << 64) - 1

# Domain tags reserved by the package. Test fixtures may use further tags.
DOMAIN_CASES = 1
DOMAIN_BOOTSTRAP = 2

# A word source: each call returns the stream's next 64-bit word, as
# numpy's ``bit_generator.random_raw`` does.
Words = Callable[[], int]


def _counter_words(path: tuple[int, ...]) -> list[int]:
    """The 256-bit Philox counter for ``path``, as four 64-bit words.

    Path indices fill the high words, last word first, so every stream
    has 2^64 draws of room in the low word.
    """
    if len(path) > 3:
        raise ValueError(f"a stream path has at most three indices, got {len(path)}")
    words = [0, 0, 0, 0]
    for i, part in enumerate(path):
        words[3 - i] = part & _U64_MASK
    return words


def substream(seed: int, domain: int, *path: int) -> "numpy.random.Generator":
    """Independent numpy generator for (seed, domain, path).

    The seed and domain form the Philox key; up to three path indices
    are placed in the high words of the 256-bit counter, leaving 2^64
    draws of room per stream.
    """
    import numpy as np

    key = np.array([seed & _U64_MASK, domain & _U64_MASK], dtype=np.uint64)
    counter = np.array(_counter_words(path), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def index_words(seed: int, domain: int) -> Callable[[int, int], "numpy.ndarray"]:
    """The raw words of many one-index streams of (seed, domain).

    ``words = index_words(seed, domain)``; ``words(i, size)`` returns the
    first ``size`` words of the (seed, domain, i) stream, as
    ``substream(seed, domain, i).bit_generator.random_raw(size)`` does.
    One generator serves every call: a call writes i into the counter's
    high word and sets the state, with nothing buffered, as in a freshly
    built stream. The setter copies the dict, so the counter is rewritten in place.
    """
    bitgen = substream(seed, domain).bit_generator
    # Plain ints: the state setter reads them faster than numpy's uint64 arrays.
    counter = [0, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": bitgen.state["state"]["key"].tolist()},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    random_raw = bitgen.random_raw

    def words(index: int, size: int) -> "numpy.ndarray":
        counter[3] = index & _U64_MASK  # as _counter_words((index,)) places it
        bitgen.state = state
        return random_raw(size)

    return words


def _round_keys(seed: int, domain: int) -> tuple[tuple[int, int], ...]:
    """The ten Philox4x64-10 round keys of the key (seed, domain), bumped as numpy bumps them."""
    k0, k1, keys = seed & _U64_MASK, domain & _U64_MASK, []
    for _ in range(10):
        keys.append((k0, k1))
        k0 = (k0 + 0x9E3779B97F4A7C15) & _U64_MASK
        k1 = (k1 + 0xBB67AE8584CAA73B) & _U64_MASK
    return tuple(keys)


def word_streams(seed: int, domain: int) -> Callable[..., Words]:
    """Pure-Python word sources for many paths of one (seed, domain).

    ``streams = word_streams(seed, domain)``; ``streams(*path)`` returns
    a zero-argument function whose calls give the words that
    ``substream(seed, domain, *path).bit_generator.random_raw()`` gives,
    from the same key and the same counter layout: blocks 1, 2, ... of
    the path, from :func:`_blocks`.
    """
    keys = _round_keys(seed, domain)

    def at(*path: int) -> Words:
        _, c, m, t = _counter_words(path)
        return chain.from_iterable(_blocks(keys, t, m, (c,), block)[0]
                                   for block in count(1)).__next__

    return at


@functools.lru_cache(maxsize=4)
def _lanes(keys: tuple[tuple[int, int], ...], n: int) -> tuple[int, int, tuple]:
    """Constants of n packed 128-bit lanes, lane i at bits [128 i, 128 i + 128).

    A 1 in each lane; each lane's low 64 bits set; and each round key
    repeated in every lane. Cached for the simulator's block-1 calls, which
    would spend 30-80 us each building them at 100-256 lanes.
    """
    one = ((1 << 128 * n) - 1) // ((1 << 128) - 1)
    return one, one * _U64_MASK, tuple((k0 * one, k1 * one) for k0, k1 in keys)


# Lane i's low word in array("Q", lanes.to_bytes(16 * n, sys.byteorder)):
# word 2 i on a little-endian machine, word 2 (n - 1 - i) + 1 on a big-endian one.
_LOW_WORDS = slice(0, None, 2) if sys.byteorder == "little" else slice(-1, None, -2)


def _blocks(keys: tuple[tuple[int, int], ...], t: int, m: int, cases: Sequence[int],
            block: int) -> list[tuple[int, int, int, int]]:
    """Philox4x64-10 (Salmon et al. 2011) block ``block`` of each path (t, m, c), c in ``cases``.

    Entry i holds words 4 (block - 1) to 4 block - 1 of
    ``word_streams(seed, domain)(t, m, cases[i])``, where ``keys`` is
    ``_round_keys(seed, domain)`` and t, m and each case lie in [0, 2^64).
    As numpy does, the counter (block, c, m, t) is incremented before
    each block, so block 1 is the first; only its low word moves, and no
    stream draws 2^64 blocks. All blocks are computed in one pass of
    big-int arithmetic: the values of each Philox word share an int, one
    in each 128-bit lane, so a product with a 64-bit multiplier fills its
    lane and does not reach the next one.
    """
    n, nbytes, order = len(cases), 16 * len(cases), sys.byteorder
    one, low, lane_keys = _lanes(keys, n)
    packed = array("Q", bytes(nbytes))
    packed[_LOW_WORDS] = array("Q", cases)
    x0, x1, x2, x3 = block * one, int.from_bytes(packed, order), m * one, t * one
    for k0, k1 in lane_keys:
        p0 = 0xD2E7470EE14C6C93 * x0
        p1 = 0xCA5A826395121157 * x2
        x0 = (p1 >> 64) & low ^ x1 ^ k0
        x2 = (p0 >> 64) & low ^ x3 ^ k1
        x1 = p1 & low
        x3 = p0 & low
    return list(zip(*(array("Q", x.to_bytes(nbytes, order))[_LOW_WORDS] for x in (x0, x1, x2, x3))))


@functools.cache
def _ziggurat_tables() -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    """numpy 2.4.6's ``ki_double``, ``wi_double`` and ``fi_double``, read on first use."""
    text = resources.files("segci.data").joinpath("ziggurat_normal.txt").read_text("ascii")
    rows = [line.split() for line in text.splitlines() if not line.startswith("#")]
    return (tuple(int(k, 16) for k, _, _ in rows),
            tuple(float.fromhex(w) for _, w, _ in rows),
            tuple(float.fromhex(f) for _, _, f in rows))


_R = 3.6541528853610088  # where the tail begins
_INV_R = 0.27366123732975828
_TO_UNIT = 2.0**-53  # a word's top 53 bits to [0, 1), as numpy's random()


def _ziggurat_normal() -> Callable[[Words], float]:
    """numpy 2.4.6's ``standard_normal``, bit for bit, as a function of a word source.

    The ziggurat of Marsaglia & Tsang (2000) as numpy runs it: the low 8
    bits of a word pick the layer, the next bit the sign and the next 52
    the magnitude. A draw outside the layer's box falls to the wedge test
    (one uniform) or, in layer 0, to Marsaglia's tail (two uniforms each try).
    """
    ki, wi, fi = _ziggurat_tables()
    log1p, exp = math.log1p, math.exp

    def normal(word: Words) -> float:
        while True:
            r = word()
            idx = r & 0xFF
            rabs = (r >> 9) & 0x000FFFFFFFFFFFFF
            x = rabs * wi[idx]
            if r & 0x100:
                x = -x
            if rabs < ki[idx]:
                return x
            if idx == 0:
                while True:
                    xx = -_INV_R * log1p(-(word() >> 11) * _TO_UNIT)
                    yy = -log1p(-(word() >> 11) * _TO_UNIT)
                    if yy + yy > xx * xx:
                        return -(_R + xx) if (rabs >> 8) & 1 else _R + xx
            elif ((fi[idx - 1] - fi[idx]) * ((word() >> 11) * _TO_UNIT) + fi[idx]
                  < exp(-0.5 * x * x)):
                return x

    return normal


def gamma_sampler(shape: float) -> Callable[[Words], float]:
    """Sampler of Gamma(shape, 1) draws: ``gamma_sampler(shape)(word)``.

    Marsaglia & Tsang's (2000) method on the word source ``word``: a
    normal x gives v = (1 + c x)^3, and d v is accepted when a uniform u
    has log u < x^2 / 2 + d - d v + d log v. That log test is the only
    one; no squeeze test runs before it. Shapes below 1 are boosted to
    shape+1 and corrected with a uniform power factor, whose uniform is
    drawn first. Normals come from :func:`_ziggurat_normal` and uniforms
    from a word's top 53 bits, so on ``rng.bit_generator.random_raw`` the
    draws and the words they use are those of numpy's ``standard_normal``
    and ``random``. The constants, and the ``math`` functions the draws
    call, are bound once here, so each call costs only the loop.
    """
    if not 0.0 < shape < math.inf:
        raise ValueError(f"gamma shape must be positive and finite, got {shape}")
    normal, log, power = _ziggurat_normal(), math.log, math.pow
    d = (shape if shape >= 1.0 else shape + 1.0) - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)

    def draw(word: Words) -> float:
        while True:
            x = normal(word)
            v = power(1.0 + c * x, 3.0)
            if v <= 0.0:
                continue
            u = (word() >> 11) * _TO_UNIT
            if log(u) < 0.5 * x * x + d - d * v + d * log(v):
                return d * v

    if shape >= 1.0:
        return draw
    exponent = 1.0 / shape

    def boosted(word: Words) -> float:
        u = (word() >> 11) * _TO_UNIT
        return draw(word) * power(u, exponent)

    return boosted
