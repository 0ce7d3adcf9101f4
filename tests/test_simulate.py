import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

import segci.rng
from segci import (
    BetaFamily,
    CaseResult,
    ConstantFamily,
    SimSpec,
    SimulatedRows,
    generate_results,
    make_training_pairs,
    parse_family,
    summarize,
)
from segci.cli import bundled_demo_corpus_path
from segci.io import read_corpus_csv
from segci.rng import DOMAIN_CASES, gamma_sampler, substreams, word_streams
from segci.simulate import _BATCH
from test_imports import run_fresh


def reference_gamma(shape, rng):
    """The recursive Marsaglia-Tsang sampler that gamma_sampler replaced."""
    if shape < 1.0:
        u = rng.random()
        return reference_gamma(shape + 1.0, rng) * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.standard_normal()
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            continue
        u = rng.random()
        if math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
            return d * v


def reference_beta(family, rng):
    """A Beta draw from numpy's own standard_normal and random, through reference_gamma."""
    if isinstance(family, ConstantFamily):
        return family.value
    x = reference_gamma(family.a, rng)
    return x / (x + reference_gamma(family.b, rng))


def reference_results(spec):
    """generate_results as a plain loop over numpy generators, one set of ids per case."""
    streams = substreams(spec.seed, DOMAIN_CASES)
    return [
        CaseResult(
            task_id=f"task{t + 1:02d}",
            method_id=f"method{m + 1:02d}",
            case_id=f"case{c + 1:05d}",
            dsc=reference_beta(spec.family, streams(t, m, c)),
        )
        for t in range(spec.n_tasks)
        for m in range(spec.methods_per_task)
        if (t, m) not in spec.exclude
        for c in range(spec.cases_per_task)
    ]


def summarize_pairs(rows):
    """make_training_pairs through summarize: (mean %, SD %) by hex, dropped, skipped."""
    groups = {}
    for task_id, method_id, _, dsc in rows:
        groups.setdefault((task_id, method_id), []).append(dsc)
    pairs, dropped, skipped = [], 0, 0
    for values in groups.values():
        if len(values) < 2:
            skipped += 1
            continue
        stats = summarize(values)
        if stats.sd == 0.0:
            dropped += 1
            continue
        pairs.append(((stats.mean * 100.0).hex(), (stats.sd * 100.0).hex()))
    return pairs, dropped, skipped


def numpy_draws(family, seed, n):
    """n draws of ``family``'s sampler, one on the raw words of each numpy stream (seed, 5, i)."""
    draw, streams = family.sampler(), substreams(seed, 5)
    return [draw(streams(i).bit_generator.random_raw) for i in range(n)]


class TestSampleBeta:
    """Beta draws through BetaFamily(a, b).sampler(), on segci's words or a numpy generator's."""

    def test_uniform_mean(self):
        draws = numpy_draws(BetaFamily(1.0, 1.0), 17, 100_000)
        assert np.mean(draws) == pytest.approx(0.5, abs=0.005)

    def test_beta_8_2_mean(self):
        draws = numpy_draws(BetaFamily(8.0, 2.0), 18, 100_000)
        assert np.mean(draws) == pytest.approx(0.8, abs=0.005)

    def test_deterministic_stream(self):
        words = word_streams(5, 5)
        a = [BetaFamily(2.0, 3.0).sampler()(words(i)) for i in range(50)]
        b = [BetaFamily(2.0, 3.0).sampler()(words(i)) for i in range(50)]
        assert a == b
        # segci's words and numpy's words of the same streams give the same draws
        assert a == numpy_draws(BetaFamily(2.0, 3.0), 5, 50)

    def test_open_unit_interval(self):
        draw, words = BetaFamily(0.5, 0.5).sampler(), word_streams(3, 5)
        for i in range(1000):
            assert 0.0 < draw(words(i)) < 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            BetaFamily(0.0, 1.0)
        with pytest.raises(ValueError):
            gamma_sampler(-2.0)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.SFC64, np.random.Philox])
    def test_draws_are_numpy_draws(self, bit_generator):
        # the draws on a generator's raw words are those of its standard_normal and random
        family = BetaFamily(0.7, 3.0)
        draw = family.sampler()
        rng, reference = np.random.Generator(bit_generator(5)), np.random.Generator(bit_generator(5))
        for _ in range(200):
            assert draw(rng.bit_generator.random_raw).hex() == reference_beta(family, reference).hex()

    def test_underflow_is_arithmetic_error(self):
        # at a = b = 0.005 both Gamma variates of stream 327 round to 0
        draw, words = BetaFamily(0.005, 0.005).sampler(), word_streams(1, 5)
        with pytest.raises(ArithmeticError, match=r"^beta:0\.005,0\.005 cannot be drawn: "
                           "both Gamma variates underflowed to 0$"):
            draw(words(327))
        assert 0.0 <= draw(words(326)) <= 1.0

    @pytest.mark.parametrize("a, b", [(1e308, 1e308), (9e307, 9e307), (1e308, 1e307)])
    def test_shapes_whose_variates_overflow_their_sum(self, a, b):
        # Gamma(1e308) variates lie near 1e308, and X + Y overflows to inf:
        # X / (X + Y) read 0 where Beta(a, b) has mean a / (a + b), which overflows too
        mean = 1 / (1 + b / a)
        draw, words = BetaFamily(a, b).sampler(), word_streams(2, 5)
        for i in range(20):
            assert draw(words(i)) == pytest.approx(mean, rel=1e-12)

    def test_distribution_matches_reference(self):
        # distribution-level check against scipy's Beta CDF
        draws = numpy_draws(BetaFamily(3.0, 7.0), 23, 20_000)
        result = sp_stats.kstest(draws, sp_stats.beta(3.0, 7.0).cdf)
        assert result.pvalue > 0.01

    def test_small_shape_boost_path(self):
        draws = numpy_draws(BetaFamily(0.3, 0.4), 29, 20_000)
        expected = 0.3 / 0.7
        assert np.mean(draws) == pytest.approx(expected, abs=0.01)


class TestGammaSampler:
    @pytest.mark.parametrize("shape", [0.05, 0.3, 0.5, 0.999, 1.0, 1.5, 2.5, 8.0, 40.0])
    def test_matches_reference_sampler(self, shape):
        streams, words = substreams(31, 5), word_streams(31, 5)
        draw = gamma_sampler(shape)
        for i in range(300):
            want = reference_gamma(shape, streams(i))
            # one sampler reused across streams, and a fresh one per stream;
            # segci's words, and numpy's words of the same stream
            assert draw(words(i)).hex() == want.hex()
            assert gamma_sampler(shape)(words(i)).hex() == want.hex()
            assert draw(streams(i).bit_generator.random_raw).hex() == want.hex()

    @pytest.mark.parametrize("shape", [0.3, 2.5])
    def test_consumes_the_reference_draws(self, shape):
        # the next word after a sample shows that both took the same count
        streams, words = substreams(32, 5), word_streams(32, 5)
        draw = gamma_sampler(shape)
        for i in range(100):
            word = words(i)
            draw(word)
            rng = streams(i)
            reference_gamma(shape, rng)
            assert word() == rng.bit_generator.random_raw()

    @pytest.mark.parametrize("shape", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_shape(self, shape):
        with pytest.raises(ValueError):
            gamma_sampler(shape)


class TestGenerateResults:
    @pytest.mark.parametrize("family", ["beta:0.5,0.7", "beta:3,0.4", "beta:8,2", "constant:0.9"])
    def test_matches_reference_loop(self, family):
        spec = SimSpec(n_tasks=3, methods_per_task=4, cases_per_task=25,
                       family=parse_family(family), seed=2**40 + 7)
        got = [(*r[:3], r.dsc.hex()) for r in generate_results(spec)]
        assert got == [(*r[:3], r.dsc.hex()) for r in reference_results(spec)]
        assert all(type(r) is CaseResult for r in generate_results(spec))

    @pytest.mark.parametrize("family", ["beta:0.5,0.7", "beta:8,2"])
    def test_matches_reference_loop_across_a_batch(self, family):
        # the first blocks of up to _BATCH cases are computed together; at
        # shapes below 1 every case also reads past its first block
        spec = SimSpec(n_tasks=1, methods_per_task=2, cases_per_task=_BATCH + 1,
                       family=parse_family(family), seed=2**63 + 9)
        got = [(*r[:3], r.dsc.hex()) for r in generate_results(spec)]
        assert got == [(*r[:3], r.dsc.hex()) for r in reference_results(spec)]

    def test_overrunning_cases_continue_in_batch(self, monkeypatch):
        # at shapes below 1 every case reads past its first block; the cases
        # of a batch that need block k fetch it together, in one call
        calls, blocks = [], segci.rng._blocks

        def counted(keys, t, m, cases, block):
            calls.append((block, len(cases)))
            return blocks(keys, t, m, cases, block)

        monkeypatch.setattr(segci.rng, "_blocks", counted)
        spec = SimSpec(n_tasks=1, methods_per_task=1, cases_per_task=_BATCH,
                       family=parse_family("beta:0.5,0.7"), seed=3)
        got = [(*r[:3], r.dsc.hex()) for r in generate_results(spec)]
        assert [block for block, _ in calls] == list(range(1, len(calls) + 1))
        assert calls[:2] == [(1, _BATCH), (2, _BATCH)]
        assert got == [(*r[:3], r.dsc.hex()) for r in reference_results(spec)]

    def test_matches_reference_loop_with_exclusions(self):
        spec = SimSpec(n_tasks=3, methods_per_task=4, cases_per_task=9,
                       family=BetaFamily(2.0, 5.0), seed=5, exclude=((0, 0), (1, 3), (2, 1)))
        rows = generate_results(spec)
        assert len(rows) == 9 * 9
        assert [(*r[:3], r.dsc.hex()) for r in rows] == [
            (*r[:3], r.dsc.hex()) for r in reference_results(spec)
        ]

    def test_shapes_whose_variates_overflow_their_sum(self):
        for family, mean in ((BetaFamily(1e308, 1e308), 0.5), (BetaFamily(1e308, 1e307), 1 / 1.1)):
            spec = SimSpec(n_tasks=2, methods_per_task=1, cases_per_task=5, family=family, seed=4)
            assert [r.dsc for r in generate_results(spec)] == pytest.approx([mean] * 10, rel=1e-12)

    def test_constant_family(self):
        spec = SimSpec(n_tasks=1, methods_per_task=2, cases_per_task=3,
                       family=ConstantFamily(0.8), seed=1)
        rows = generate_results(spec)
        assert len(rows) == 6
        assert all(r.dsc == 0.8 for r in rows)

    def test_shape(self):
        spec = SimSpec(n_tasks=1, methods_per_task=1, cases_per_task=3, seed=9)
        rows = generate_results(spec)
        assert len(rows) == 3
        assert [r.case_id for r in rows] == ["case00001", "case00002", "case00003"]

    def test_default_group_count(self):
        rows = generate_results(SimSpec(cases_per_task=2))
        groups = {(r.task_id, r.method_id) for r in rows}
        assert len(groups) == 190

    def test_exclusion(self):
        spec = SimSpec(cases_per_task=2, exclude=((9, 18),))
        groups = {(r.task_id, r.method_id) for r in generate_results(spec)}
        assert len(groups) == 189
        assert ("task10", "method19") not in groups

    def test_bit_identical_regeneration(self):
        spec = SimSpec(n_tasks=2, methods_per_task=3, cases_per_task=10, seed=77)
        assert generate_results(spec) == generate_results(spec)

    def test_seed_changes_output(self):
        base = SimSpec(n_tasks=1, methods_per_task=1, cases_per_task=5, seed=1)
        other = SimSpec(n_tasks=1, methods_per_task=1, cases_per_task=5, seed=2)
        assert generate_results(base) != generate_results(other)

    def test_case_streams_independent_of_shape(self):
        # stream is keyed by (seed, task, method, case): adding methods
        # must not perturb existing groups
        small = generate_results(SimSpec(n_tasks=1, methods_per_task=1, cases_per_task=4, seed=3))
        large = generate_results(SimSpec(n_tasks=1, methods_per_task=2, cases_per_task=4, seed=3))
        assert small == [r for r in large if r.method_id == "method01"]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SimSpec(n_tasks=0)
        with pytest.raises(ValueError):
            BetaFamily(1.0, -1.0)
        with pytest.raises(ValueError):
            ConstantFamily(1.5)

    @pytest.mark.parametrize("pair", [(2, 0), (0, 3), (-1, 0), (0, -1)])
    def test_exclude_outside_the_grid_refused(self, pair):
        with pytest.raises(ValueError, match=rf"excluded pair \({pair[0]}, {pair[1]}\) lies outside"):
            SimSpec(n_tasks=2, methods_per_task=3, exclude=((0, 0), pair))

    @pytest.mark.parametrize("text", ["beta:1_0,2", "beta:2,0.5_0", "constant:0.8_0"])
    def test_family_underscore_literal_refused(self, text):
        # float("1_0") reads 10
        with pytest.raises(ValueError, match="plain numbers"):
            parse_family(text)

    @pytest.mark.parametrize("exclude", [(), ((0, 1), (2, 0)), ((1, 1), (1, 1))])
    def test_simulated_rows_are_generate_results(self, exclude):
        spec = SimSpec(n_tasks=3, methods_per_task=2, cases_per_task=4, seed=5, exclude=exclude)
        rows = SimulatedRows(spec)
        assert len(rows) == len(generate_results(spec))
        assert list(rows) == generate_results(spec)
        assert list(rows) == list(rows)  # each iteration draws afresh


class TestMakeTrainingPairs:
    def test_zero_sd_group_dropped(self):
        rows = generate_results(
            SimSpec(n_tasks=1, methods_per_task=1, cases_per_task=2,
                    family=ConstantFamily(0.8), seed=1)
        )
        result = make_training_pairs(rows)
        assert result.pairs == ()
        assert result.n_dropped_zero_sd == 1
        assert result.n_groups == 1

    def test_zero_sd_detected_for_odd_group_sizes(self):
        # sizes where repeated addition of 0.8 rounds away from the exact
        # sum; the constant group must still register SD exactly 0
        for cases in (3, 7, 11):
            rows = generate_results(
                SimSpec(n_tasks=1, methods_per_task=1, cases_per_task=cases,
                        family=ConstantFamily(0.8), seed=1)
            )
            result = make_training_pairs(rows)
            assert result.pairs == ()
            assert result.n_dropped_zero_sd == 1

    def test_two_case_group_pair(self):
        rows = generate_results(
            SimSpec(n_tasks=1, methods_per_task=1, cases_per_task=2, seed=4)
        )
        # overwrite with the documented worked example
        rows = [rows[0]._replace(dsc=0.7), rows[1]._replace(dsc=0.9)]
        result = make_training_pairs(rows)
        (pair,) = result.pairs
        assert pair.dsc_mean_pct == pytest.approx(80.0, abs=1e-9)
        assert pair.sd_pct == pytest.approx(14.142136, abs=1e-6)

    def test_empty_table(self):
        result = make_training_pairs([])
        assert result.pairs == ()
        assert result.n_groups == 0

    def test_single_case_group_skipped(self):
        rows = generate_results(
            SimSpec(n_tasks=1, methods_per_task=2, cases_per_task=1, seed=4)
        )
        result = make_training_pairs(rows)
        assert result.n_skipped_small == 2
        assert result.pairs == ()

    def test_group_accounting(self):
        spec = SimSpec(n_tasks=3, methods_per_task=4, cases_per_task=8, seed=11)
        result = make_training_pairs(generate_results(spec))
        assert result.n_groups == 12
        assert len(result.pairs) == 12 - result.n_dropped_zero_sd - result.n_skipped_small


unit = st.floats(0.0, 1.0)
groups = st.one_of(
    st.builds(lambda v, n: [v] * n, unit, st.integers(1, 9)),  # constant or single-case
    st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=9),  # mixed zeros
    st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0]), min_size=1, max_size=9),
    st.builds(lambda a, b, n, k: [a] * n + [b] * k, unit, unit, st.integers(1, 5), st.integers(1, 5)),
    st.lists(unit, min_size=1, max_size=30),
    # values below 2**-481: scaled by a power of two before they are squared
    st.lists(st.sampled_from([0.0, 5e-324, 1e-320, 1e-300]), min_size=1, max_size=9),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(groups, min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_pairs_match_summarize(values_by_group, rand):
    rows = [
        CaseResult(f"t{g % 3}", f"m{g}", f"c{i}", v)
        for g, values in enumerate(values_by_group)
        for i, v in enumerate(values)
    ]
    rand.shuffle(rows)  # groups interleave; both sides group by first appearance
    result = make_training_pairs(rows)
    pairs, dropped, skipped = summarize_pairs(rows)
    assert [(p.dsc_mean_pct.hex(), p.sd_pct.hex()) for p in result.pairs] == pairs
    assert (result.n_dropped_zero_sd, result.n_skipped_small) == (dropped, skipped)
    assert result.n_groups == len(values_by_group)


class TestParseFamily:
    def test_beta(self):
        assert parse_family("beta:8,2") == BetaFamily(8.0, 2.0)

    def test_constant(self):
        assert parse_family("constant:0.8") == ConstantFamily(0.8)

    @pytest.mark.parametrize("text", [
        "beta:8", "normal:0,1", "constant:", "beta:a,b", "beta:inf,2", "beta:2,inf", "beta:nan,2",
    ])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_family(text)


@pytest.mark.parametrize("call", [
    "gamma_sampler(math.inf)",
    "BetaFamily(math.inf, 2.0)",
    "BetaFamily(2.0, math.inf)",
], ids=["gamma", "beta_a", "beta_b"])
def test_infinite_shape_refused(call):
    # a fresh process with a timeout: an accepted infinite shape used to
    # loop forever in the gamma sampler
    code = (
        "import math\n"
        "from segci import BetaFamily\n"
        "from segci.rng import gamma_sampler\n"
        f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc)\n"
    )
    proc = run_fresh("-c", code, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "finite" in proc.stdout


class TestDemoCorpus:
    def test_shape(self):
        papers = read_corpus_csv(bundled_demo_corpus_path())
        assert len(papers) == 77
        assert all(len(p.methods) >= 2 for p in papers)
        assert all(p.test_n >= 12 for p in papers)

    def test_means_ranked_descending(self):
        for p in read_corpus_csv(bundled_demo_corpus_path()):
            means = [m.mean_dsc for m in p.methods]
            assert means == sorted(means, reverse=True)

    def test_bundled_csv_sha256(self):
        # the shipped data is its own source; README gives the recipe it was drawn with
        digest = hashlib.sha256(bundled_demo_corpus_path().read_bytes()).hexdigest()
        assert digest == "814793b93efed2d810eb4284aabd08b762f795f045830a8a399919ca8b705bc3"
