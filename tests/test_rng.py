import hashlib
import itertools
from importlib import resources

import numpy as np
import pytest

import segci.rng
from segci.intervals import _lemire_draws
from segci.rng import (
    DOMAIN_CASES, _blocks, _round_keys, _ziggurat_normal, _ziggurat_tables, index_words,
    substream, word_streams,
)

PATHS = [(), (4,), (4, 7), (4, 7, 11), (-1,), (2**64 + 3, 5)]
DOMAINS = (1, 9)


# the one-index paths of index_words' streams
INDEX_PATHS = [(0,), (4,), (2**63,), (2**64 - 1,), (-1,), (2**64 + 3,)]


def fresh_words(seed, domain, path, size):
    return substream(seed, domain, *path).bit_generator.random_raw(size).tolist()


class TestSubstreams:
    """index_words' reset, the one reset of a numpy generator: each call starts the
    (seed, domain, i) stream as a fresh substream does, whatever the last call left."""

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("path", INDEX_PATHS)
    def test_reset_matches_fresh_stream(self, domain, path):
        words = index_words(31, domain)
        assert words(*path, 9).tolist() == fresh_words(31, domain, path, 9)
        words(7, 9)
        assert words(*path, 9).tolist() == fresh_words(31, domain, path, 9)

    @pytest.mark.parametrize("path", INDEX_PATHS)
    def test_after_half_used_uint32(self, path):
        # the bootstrap draws 32-bit halves: an odd count of them leaves half a word unused
        words = index_words(31, 1)
        assert _lemire_draws(words, 2, 7, 3).tolist() == substream(31, 1, 2).integers(
            0, 7, size=3).tolist()
        assert _lemire_draws(words, *path, 7, 5).tolist() == substream(31, 1, *path).integers(
            0, 7, size=5).tolist()

    @pytest.mark.parametrize("path", INDEX_PATHS)
    def test_after_part_used_buffer(self, path):
        # a Philox block holds four words: one, two or three of them stay buffered
        words = index_words(31, 1)
        for used in (1, 2, 3):
            words(3, used)
            assert words(*path, 6).tolist() == fresh_words(31, 1, path, 6)

    def test_indices_are_masked_to_64_bits(self):
        words = index_words(8, 2)
        assert words(2**64 + 3, 5).tolist() == fresh_words(8, 2, (3,), 5)
        assert words(-1, 5).tolist() == fresh_words(8, 2, (2**64 - 1,), 5)

    def test_revisiting_a_path_restarts_it(self):
        words = index_words(8, 2)
        first = words(5, 6).tolist()
        words(6, 3)
        assert words(5, 6).tolist() == first

    def test_at_most_three_indices(self):
        message = "a stream path has at most three indices, got 4"
        with pytest.raises(ValueError, match=message):
            substream(1, 1, 0, 1, 2, 3)
        with pytest.raises(ValueError, match=message):
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
    rng = substream(42, DOMAIN_CASES, 0, 0, 0)
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
    keys = _round_keys(seed, DOMAIN_CASES)
    for t, m, c in itertools.product((0, 2**64 - 1), repeat=3):
        consecutive = [(c + i) & _M64 for i in range(n)]
        for cases in (consecutive, consecutive[::-3]):
            words = [fresh_words(seed, DOMAIN_CASES, (t, m, case), 8) for case in cases]
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
