import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

from segci import (
    BetaFamily,
    CaseResult,
    ConstantFamily,
    SimSpec,
    SimulatedRows,
    demo_corpus,
    generate_results,
    make_training_pairs,
    parse_family,
    sample_beta,
    summarize,
)
from segci.cli import bundled_demo_corpus_path
from segci.io import CORPUS_HEADER
from segci.rng import DOMAIN_CASES, gamma_sampler, gamma_variate, substream, substreams
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


def reference_results(spec):
    """generate_results as a plain loop: one family.draw and one set of ids per case."""
    streams = substreams(spec.seed, DOMAIN_CASES)
    return [
        CaseResult(
            task_id=f"task{t + 1:02d}",
            method_id=f"method{m + 1:02d}",
            case_id=f"case{c + 1:05d}",
            dsc=spec.family.draw(streams(t, m, c)),
        )
        for t in range(spec.n_tasks)
        for m in range(spec.methods_per_task)
        if (t, m) not in spec.exclude
        for c in range(spec.cases_per_task)
    ]


def summarize_pairs(rows):
    """make_training_pairs through summarize: (mean %, SD %) by hex, dropped, skipped."""
    groups = {}
    for row in rows:
        groups.setdefault((row.task_id, row.method_id), []).append(row.dsc)
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


class TestSampleBeta:
    def test_uniform_mean(self):
        streams = substreams(17, 5)
        draws = [sample_beta(1.0, 1.0, streams(i)) for i in range(100_000)]
        assert np.mean(draws) == pytest.approx(0.5, abs=0.005)

    def test_beta_8_2_mean(self):
        streams = substreams(18, 5)
        draws = [sample_beta(8.0, 2.0, streams(i)) for i in range(100_000)]
        assert np.mean(draws) == pytest.approx(0.8, abs=0.005)

    def test_deterministic_stream(self):
        a = [sample_beta(2.0, 3.0, substream(5, 5, i)) for i in range(50)]
        b = [sample_beta(2.0, 3.0, substream(5, 5, i)) for i in range(50)]
        assert a == b

    def test_open_unit_interval(self):
        for i in range(1000):
            v = sample_beta(0.5, 0.5, substream(3, 5, i))
            assert 0.0 < v < 1.0

    def test_domain_error(self):
        rng = substream(1, 5, 0)
        with pytest.raises(ValueError):
            sample_beta(0.0, 1.0, rng)
        with pytest.raises(ValueError):
            gamma_variate(-2.0, rng)

    def test_distribution_matches_reference(self):
        # distribution-level check against scipy's Beta CDF
        streams = substreams(23, 5)
        draws = [sample_beta(3.0, 7.0, streams(i)) for i in range(20_000)]
        result = sp_stats.kstest(draws, sp_stats.beta(3.0, 7.0).cdf)
        assert result.pvalue > 0.01

    def test_small_shape_boost_path(self):
        streams = substreams(29, 5)
        draws = [sample_beta(0.3, 0.4, streams(i)) for i in range(20_000)]
        expected = 0.3 / 0.7
        assert np.mean(draws) == pytest.approx(expected, abs=0.01)


def draw_at(streams, i, draw):
    streams(i)
    return draw()


class TestGammaSampler:
    @pytest.mark.parametrize("shape", [0.05, 0.3, 0.5, 0.999, 1.0, 1.5, 2.5, 8.0, 40.0])
    def test_matches_reference_sampler(self, shape):
        streams = substreams(31, 5)
        draw = gamma_sampler(shape, streams())
        for i in range(300):
            want = reference_gamma(shape, streams(i))
            # one sampler reused across resets, and a fresh one per stream
            assert draw_at(streams, i, draw).hex() == want.hex()
            assert gamma_variate(shape, streams(i)).hex() == want.hex()

    @pytest.mark.parametrize("shape", [0.3, 2.5])
    def test_consumes_the_reference_draws(self, shape):
        # the next draw after a sample shows that both took the same count
        streams = substreams(32, 5)
        draw = gamma_sampler(shape, streams())
        for i in range(100):
            rng = streams(i)
            draw()
            got = rng.random()
            rng = streams(i)
            reference_gamma(shape, rng)
            assert got == rng.random()

    @pytest.mark.parametrize("shape", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_shape(self, shape):
        with pytest.raises(ValueError):
            gamma_sampler(shape, substream(1, 5, 0))


class TestGenerateResults:
    @pytest.mark.parametrize("family", ["beta:0.5,0.7", "beta:3,0.4", "beta:8,2", "constant:0.9"])
    def test_matches_reference_loop(self, family):
        spec = SimSpec(n_tasks=3, methods_per_task=4, cases_per_task=25,
                       family=parse_family(family), seed=2**40 + 7)
        got = [(*r[:3], r.dsc.hex()) for r in generate_results(spec)]
        assert got == [(*r[:3], r.dsc.hex()) for r in reference_results(spec)]
        assert all(type(r) is CaseResult for r in generate_results(spec))

    def test_matches_reference_loop_with_exclusions(self):
        spec = SimSpec(n_tasks=3, methods_per_task=4, cases_per_task=9,
                       family=BetaFamily(2.0, 5.0), seed=5, exclude=((0, 0), (1, 3), (2, 1)))
        rows = generate_results(spec)
        assert len(rows) == 9 * 9
        assert [(*r[:3], r.dsc.hex()) for r in rows] == [
            (*r[:3], r.dsc.hex()) for r in reference_results(spec)
        ]

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
    # squared deviations that underflow: a non-constant group with SD 0
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
    "gamma_variate(math.inf, substream(1, 5, 0))",
    "sample_beta(math.inf, 2.0, substream(1, 5, 0))",
    "sample_beta(2.0, math.inf, substream(1, 5, 0))",
], ids=["gamma", "beta_a", "beta_b"])
def test_infinite_shape_refused(call):
    # a fresh process with a timeout: an accepted infinite shape used to
    # loop forever in the gamma sampler
    code = (
        "import math\n"
        "from segci import sample_beta\n"
        "from segci.rng import gamma_variate, substream\n"
        f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc)\n"
    )
    proc = run_fresh("-c", code, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "finite" in proc.stdout


class TestDemoCorpus:
    def test_shape(self):
        papers = demo_corpus()
        assert len(papers) == 77
        assert all(len(p.methods) >= 2 for p in papers)
        assert all(p.test_n >= 12 for p in papers)

    def test_deterministic(self):
        assert demo_corpus() == demo_corpus()

    def test_means_ranked_descending(self):
        for p in demo_corpus():
            means = [m.mean_dsc for m in p.methods]
            assert means == sorted(means, reverse=True)

    def test_matches_bundled_csv_bytes(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CORPUS_HEADER)
        for p in demo_corpus():
            for m in p.methods:
                writer.writerow([p.paper_id, m.method_id, f"{m.mean_dsc:.6f}", p.test_n, ""])
        assert buf.getvalue().encode("utf-8") == bundled_demo_corpus_path().read_bytes()
