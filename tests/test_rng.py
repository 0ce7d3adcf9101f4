import hashlib
import itertools
from importlib import resources

import numpy as np
import pytest

import segci.rng
from segci.rng import (
    DOMAIN_CASES, _blocks, _round_keys, _ziggurat_normal, _ziggurat_tables, index_words,
    substream, substreams, word_streams,
)

PATHS = [(), (4,), (4, 7), (4, 7, 11), (-1,), (2**64 + 3, 5)]
DOMAINS = (1, 9)


def draws(rng):
    # a mix of 64-bit, 32-bit and buffered consumers of the bit generator
    return (
        rng.random(3).tolist(),
        rng.random(2, dtype=np.float32).tolist(),
        [int(rng.integers(0, 7)) for _ in range(5)],
        rng.standard_normal(2).tolist(),
        rng.integers(0, 2**40, size=2).tolist(),
        float(rng.uniform(0.2, 0.9)),
    )


class TestSubstreams:
    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("path", PATHS)
    def test_reset_matches_fresh_stream(self, domain, path):
        streams = substreams(31, domain)
        assert draws(streams(*path)) == draws(substream(31, domain, *path))

    @pytest.mark.parametrize("path", PATHS)
    def test_after_half_used_uint32(self, path):
        streams = substreams(31, 1)
        rng = streams(2, 2)
        for _ in range(3):
            rng.integers(0, 7)
        assert rng.bit_generator.state["has_uint32"] == 1
        assert draws(streams(*path)) == draws(substream(31, 1, *path))

    @pytest.mark.parametrize("path", PATHS)
    def test_after_part_used_buffer(self, path):
        streams = substreams(31, 1)
        rng = streams(3)
        rng.random()
        assert rng.bit_generator.state["buffer_pos"] not in (0, 4)
        assert draws(streams(*path)) == draws(substream(31, 1, *path))

    def test_indices_are_masked_to_64_bits(self):
        streams = substreams(8, 2)
        assert draws(streams(2**64 + 3)) == draws(substream(8, 2, 3))
        assert draws(streams(-1)) == draws(substream(8, 2, 2**64 - 1))

    def test_revisiting_a_path_restarts_it(self):
        streams = substreams(8, 2)
        first = draws(streams(5, 1))
        draws(streams(6))
        assert draws(streams(5, 1)) == first

    def test_at_most_three_indices(self):
        with pytest.raises(ValueError):
            substream(1, 1, 0, 1, 2, 3)
        with pytest.raises(ValueError):
            substreams(1, 1)(0, 1, 2, 3)
        with pytest.raises(ValueError):
            word_streams(1, 1)(0, 1, 2, 3)


# Known answers for the first draws after a reset to (seed 42, DOMAIN_CASES,
# path (0, 0, 0)), the stream of the simulator's first case. NEP 19 fixes
# the Philox words; Generator's distribution methods may change between
# numpy releases. The simulator draws with segci's own copy of numpy
# 2.4.6's standard_normal and random, which the tests compare with numpy's.
KNOWN_DRAWS = {
    "random_raw": ["0x719965f2debb5c86", "0xd0ff12852bfefaa0", "0x824f8a46917b59d3"],
    "standard_normal": ["0x1.bbd95443f9907p-1", "0x1.df0231616e722p-1", "-0x1.48d06206ea870p-3"],
    "random": ["0x1.c66597cb7aed6p-2", "0x1.a1fe250a57fdfp-1", "0x1.049f148d22f6bp-1"],
}


@pytest.mark.parametrize("method", list(KNOWN_DRAWS))
def test_known_draws_after_reset(method):
    rng = substreams(42, DOMAIN_CASES)(0, 0, 0)
    if method == "random_raw":
        got = [hex(int(word)) for word in rng.bit_generator.random_raw(3)]
    else:
        got = [getattr(rng, method)().hex() for _ in range(3)]
    assert got == KNOWN_DRAWS[method], (
        f"numpy {np.__version__}: the first {method} draws of a reset stream differ from "
        f"numpy 2.4.6's. The simulate byte pins do not move, as the simulator draws "
        f"without numpy, but the tests that check its draws against numpy's will fail"
    )


def test_own_draws_match_known_answers():
    # segci's Philox words, normal and uniform, whatever numpy is installed
    streams = word_streams(42, DOMAIN_CASES)
    word = streams(0, 0, 0)
    assert [hex(word()) for _ in range(3)] == KNOWN_DRAWS["random_raw"]
    normal, word = _ziggurat_normal(), streams(0, 0, 0)
    assert [normal(word).hex() for _ in range(3)] == KNOWN_DRAWS["standard_normal"]
    word = streams(0, 0, 0)
    assert [((word() >> 11) * 2**-53).hex() for _ in range(3)] == KNOWN_DRAWS["random"]


_M64 = (1 << 64) - 1


def philox4x64_10(counter, key, n):
    """The first ``n`` words of numpy's Philox from ``counter`` and ``key``, in pure Python.

    Philox4x64-10 of Salmon et al. 2011 (Random123); numpy increments the
    256-bit counter, low word first, before each block of four words.
    """
    counter, words = list(counter), []
    while len(words) < n:
        for i in range(4):
            counter[i] = (counter[i] + 1) & _M64
            if counter[i]:
                break
        x, (k0, k1) = list(counter), key
        for _ in range(10):
            p0, p1 = 0xD2E7470EE14C6C93 * x[0], 0xCA5A826395121157 * x[2]
            x = [(p1 >> 64) ^ x[1] ^ k0, p1 & _M64, (p0 >> 64) ^ x[3] ^ k1, p0 & _M64]
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _M64, (k1 + 0xBB67AE8584CAA73B) & _M64
        words += x
    return words[:n]


@pytest.mark.parametrize("counter, key", [
    ((5, 7, 0, 0), (42, 3)),
    ((0, 0, 0, 0), (0, 0)),
    ((_M64, _M64, 0, 9), (1, 2)),  # the increment carries into the third word
    ((_M64, _M64, _M64, _M64), (_M64, _M64)),  # and wraps to zero
])
def test_philox_words_match_reference(counter, key):
    bitgen = np.random.Philox(counter=np.array(counter, dtype=np.uint64),
                              key=np.array(key, dtype=np.uint64))
    assert bitgen.random_raw(10).tolist() == philox4x64_10(counter, key, 10)


# Path indices fill the counter's high words, last word first.
COUNTERS = {(): (0, 0, 0, 0), (3,): (0, 0, 0, 3), (3, 4): (0, 0, 4, 3), (3, 4, 5): (0, 5, 4, 3)}


@pytest.mark.parametrize("path", list(COUNTERS))
def test_substream_words_match_reference(path):
    expected = philox4x64_10(COUNTERS[path], (9, 2), 6)
    assert substream(9, 2, *path).bit_generator.random_raw(6).tolist() == expected
    streams = substreams(9, 2)
    streams(7, 7).random(3)  # a reset leaves nothing of the last stream behind
    assert streams(*path).bit_generator.random_raw(6).tolist() == expected


@pytest.mark.parametrize("index", [0, 7, 2**63, 2**64 - 1, 2**64 + 3, -1])
def test_index_words_match_substream(index):
    words = index_words(9, 2)
    words(5, 3)  # a reset leaves nothing of the last stream behind
    assert words(index, 6).tolist() == substream(9, 2, index).bit_generator.random_raw(6).tolist()
    assert words(index, 1).tolist() == substream(9, 2, index).bit_generator.random_raw(1).tolist()


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("path", PATHS)
def test_word_streams_match_substream(domain, path):
    streams = word_streams(31, domain)
    streams(7, 7)()  # a source of another path leaves nothing behind
    word = streams(*path)
    assert [word() for _ in range(10)] == substream(31, domain, *path).bit_generator.random_raw(
        10).tolist()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 255, 256, 257])
def test_first_blocks_match_word_streams(seed, n):
    # blocks 1 and 2 of each lane against numpy's words, at the edges of
    # every counter word, for consecutive cases and for cases out of order:
    # a lane that carried into its neighbour, or a case in the wrong lane, shows here
    streams, keys = substreams(seed, DOMAIN_CASES), _round_keys(seed, DOMAIN_CASES)
    for t, m, c in itertools.product((0, 2**64 - 1), repeat=3):
        consecutive = [(c + i) & _M64 for i in range(n)]
        for cases in (consecutive, consecutive[::-3]):
            words = [streams(t, m, case).bit_generator.random_raw(8).tolist() for case in cases]
            for block in (1, 2):
                got = _blocks(keys, t, m, cases, block)
                assert got == [tuple(w[4 * block - 4:4 * block]) for w in words], (t, m, c, block)


def test_batch_helpers_stay_private():
    assert not {"_blocks", "_round_keys"} & set(segci.rng.__all__)


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
def test_normal_matches_numpy(seed):
    # 262,144 draws on numpy's words: about 3,800 reach the wedge test and 70 the tail
    n = 1 << 18
    raw = substream(seed, 6, 3, 1).bit_generator.random_raw(n + n // 8).tolist()
    words, normal = iter(raw), _ziggurat_normal()
    firsts, got = [], []
    for _ in range(n):
        firsts.append(raw[len(raw) - words.__length_hint__()])
        got.append(normal(words.__next__))
    assert got == substream(seed, 6, 3, 1).standard_normal(n).tolist()
    # a draw's first word outside the box of its layer leads to the tail
    # in layer 0 and to the wedge test in any other layer
    ki = _ziggurat_tables()[0]
    left_box = [r for r in firsts if (r >> 9) & (2**52 - 1) >= ki[r & 0xFF]]
    assert any(r & 0xFF == 0 for r in left_box), "no draw ran the tail"
    assert any(r & 0xFF != 0 for r in left_box), "no draw ran the wedge test"


def test_ziggurat_table_file_pinned():
    # numpy 2.4.6's ki_double, wi_double and fi_double, under numpy's license
    data = resources.files("segci.data").joinpath("ziggurat_normal.txt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "d4c915f7f69a6a61dab1fbd57a50f2bb51150dce40a62aa27aefc6c00c9f3027"
    )
