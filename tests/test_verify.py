import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from finpop import (
    ClassifiedPopulation,
    CountVector,
    DesignConfig,
    DrawSequence,
    EnumerationLimitError,
    GroupedSample,
    Instance,
    NetworkPartition,
    Population,
    SizeWeights,
    Tolerances,
    count_moments,
    enumerate_count_distribution,
    enumerate_moments,
    fpc,
    multinomial_cov,
    multinomial_pmf,
    mvhyper_cov,
    mvhyper_pmf,
    random_group_split,
    relative_efficiency,
    run_monte_carlo,
    srs_mean_variance,
    theoretical_moments,
)
from finpop import estimators, verify
from finpop.verify import (
    Moments,
    _alias_indices,
    _alias_table,
    _empirical,
    _merge_moments,
    _wor_indices,
    estimator_spec,
    simulate_blocks,
)

POP5_INST = Instance(population=Population((1, 2, 3, 4, 5)))
PPS_INST = Instance(population=Population((2, 2, 3)), weights=SizeWeights((1, 2, 3)))


def acs_instance():
    pop = Population((1, 3, 5))
    return Instance(population=pop, partition=NetworkPartition.from_assignment(pop, [0, 0, 1]))


class TestDesignConfig:
    def test_from_mapping(self):
        cfg = DesignConfig.from_mapping({"design": "srs", "n": 2})
        assert cfg.design == "srs" and cfg.n == 2

    def test_unknown_design(self):
        with pytest.raises(ValueError):
            DesignConfig.from_mapping({"design": "systematic", "n": 2})

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            DesignConfig.from_mapping({"design": "srs", "m": 2})

    def test_bad_group_sizes(self):
        with pytest.raises(ValueError):
            DesignConfig("srs", group_sizes=(3,))

    def test_acs_reads_n_or_n1(self):
        inst = acs_instance()
        by_n = enumerate_moments(inst, DesignConfig("acs", n=2))
        assert by_n == enumerate_moments(inst, DesignConfig("acs", n1=2))


class TestInstance:
    def test_adjacency_builds_partition(self):
        inst = Instance.from_mapping(
            {
                "values": [5, 5, 0, 5],
                "adjacency": [[1], [0, 2], [1, 3], [2]],
                "threshold": 1,
            }
        )
        assert inst.partition.network_sizes in ((2, 1, 1), (1, 2, 1), (1, 1, 2))
        assert inst.partition.assignment[0] == inst.partition.assignment[1]

    def test_adjacency_requires_threshold(self):
        with pytest.raises(ValueError):
            Instance.from_mapping({"values": [1, 2], "adjacency": [[1], [0]]})

    def test_classified_only(self):
        inst = Instance.from_mapping({"subgroup_sizes": [2, 3]})
        assert inst.classified.size == 5
        assert inst.population is None


class TestEnumerateMoments:
    def test_srs_worked_example(self):
        m = enumerate_moments(POP5_INST, DesignConfig("srs", n=2))
        assert m.mean == pytest.approx(3.0, abs=1e-14)
        assert m.variance == pytest.approx(0.75, abs=1e-14)

    def test_census_variance_zero(self):
        m = enumerate_moments(POP5_INST, DesignConfig("srs", n=5))
        assert m.variance == pytest.approx(0.0, abs=1e-14)

    def test_matches_theoretical_across_designs(self):
        cases = [
            (POP5_INST, DesignConfig("srs", n=3)),
            (POP5_INST, DesignConfig("srs_wr", n=3)),
            (PPS_INST, DesignConfig("pps_wr", n=2)),
            (PPS_INST, DesignConfig("pps_wor", n=2)),
            (acs_instance(), DesignConfig("acs", n1=2)),
            (acs_instance(), DesignConfig("acs_wr", n1=2)),
        ]
        for inst, cfg in cases:
            enum = enumerate_moments(inst, cfg)
            theo = theoretical_moments(inst, cfg)
            assert enum.mean == pytest.approx(theo.mean, abs=1e-10)
            assert enum.variance == pytest.approx(theo.variance, abs=1e-10)

    def test_rg_expectation_is_s_squared(self):
        m = enumerate_moments(
            Instance(population=Population((1, 2, 3, 4))),
            DesignConfig("srs", group_sizes=(2, 2)),
        )
        assert m.mean == pytest.approx(5 / 3, abs=1e-12)

    def test_size_limit_raises(self):
        inst = Instance(population=Population(tuple(range(30))))
        with pytest.raises(EnumerationLimitError):
            enumerate_moments(inst, DesignConfig("srs", n=8))

    def test_missing_structure_errors(self):
        with pytest.raises(ValueError):
            enumerate_moments(POP5_INST, DesignConfig("pps_wr", n=2))
        with pytest.raises(ValueError):
            enumerate_moments(POP5_INST, DesignConfig("acs", n1=2))


def _reference_value(spec, outcome):
    drawn = [spec.values[i] for i in outcome]
    sizes = spec.group_sizes
    if sizes is None:
        return math.fsum(drawn) / spec.n
    means, start = [], 0
    for s in sizes:
        means.append(math.fsum(drawn[start : start + s]) / s)
        start += s
    terms = [
        (means[a] - means[b]) ** 2 / (1.0 / sizes[a] + 1.0 / sizes[b])
        for a, b in itertools.combinations(range(len(sizes)), 2)
    ]
    return math.fsum(terms) / len(terms)


def ordered_reference(inst, config):
    """Moments by walking every ordered outcome one at a time, each with its
    exact probability: the direct definition the oracle's reduction to
    unordered outcomes has to reproduce."""
    spec = estimator_spec(inst, config)
    if spec.replacement:
        outcomes = list(itertools.product(range(spec.universe), repeat=spec.n))
        sizes = spec.weight_sizes or (1,) * spec.universe
        denom = sum(sizes) ** spec.n
        probs = [math.prod(sizes[i] for i in o) / denom for o in outcomes]
    else:
        outcomes = list(itertools.permutations(range(spec.universe), spec.n))
        probs = [1.0 / len(outcomes)] * len(outcomes)
    values = [_reference_value(spec, o) for o in outcomes]
    mean = math.fsum(p * v for p, v in zip(probs, values))
    return Moments(mean, math.fsum(p * (v - mean) ** 2 for p, v in zip(probs, values)))


SKEWED = Population((1.5, -2.0, 7.25, 3.0, 0.5, 11.0))
SKEWED_PPS = Instance(population=SKEWED, weights=SizeWeights((2, 1, 3, 1, 2, 4)))
TIED_PPS = Instance(
    population=Population((4.0, 1.0, 6.5, 2.0, 9.0)), weights=SizeWeights((2, 2, 1, 3, 3))
)
SKEWED_ACS = Instance(
    population=SKEWED, partition=NetworkPartition.from_assignment(SKEWED, [0, 0, 1, 2, 2, 3])
)
SKEWED_INST = Instance(population=SKEWED)
SEVEN = Instance(population=Population((2.0, 9.5, -1.0, 4.0, 4.0, 13.0, 0.25)))

ORACLE_CASES = [
    (SKEWED_INST, DesignConfig("srs", n=3)),
    (SKEWED_INST, DesignConfig("srs_wr", n=4)),
    (SKEWED_PPS, DesignConfig("pps_wr", n=3)),
    (SKEWED_PPS, DesignConfig("pps_wor", n=3)),
    (SKEWED_ACS, DesignConfig("acs", n1=3)),
    (SKEWED_ACS, DesignConfig("acs_wr", n1=3)),
    (SEVEN, DesignConfig("srs", group_sizes=(1, 2, 3))),
    (SKEWED_INST, DesignConfig("srs", group_sizes=(3, 1))),
    (TIED_PPS, DesignConfig("pps_wr", n=4)),
    (TIED_PPS, DesignConfig("pps_wor", n=3)),
    (SKEWED_INST, DesignConfig("srs", n=6)),
    (PPS_INST, DesignConfig("pps_wor", n=6)),
    (SKEWED_ACS, DesignConfig("acs", n1=6)),
]


class TestOracleMatchesOrderedWalk:
    @pytest.mark.parametrize("chunk", [1, verify.CHUNK_ELEMENTS])
    @pytest.mark.parametrize("inst, cfg", ORACLE_CASES)
    def test_matches_reference(self, monkeypatch, chunk, inst, cfg):
        # CHUNK_ELEMENTS = 1 makes every outcome a chunk of its own.
        monkeypatch.setattr(verify, "CHUNK_ELEMENTS", chunk)
        got, ref = enumerate_moments(inst, cfg), ordered_reference(inst, cfg)
        assert Tolerances().close(got.mean, ref.mean)
        assert Tolerances().close(got.variance, ref.variance)

    def test_gate_still_counts_ordered_outcomes(self):
        # perm(40, 6) = 2.76e9 ordered outcomes but only C(40, 6) = 3.8e6 subsets.
        inst = Instance(population=Population(tuple(range(40))))
        with pytest.raises(EnumerationLimitError):
            enumerate_moments(inst, DesignConfig("srs", n=6))
        rep = relative_efficiency(inst, DesignConfig("srs", n=6), trials=2000, seed=3)
        assert rep.method == "monte_carlo"


class TestRandomGroupEstimator:
    def test_forty_singleton_groups_match_the_pair_loop(self):
        pop = Population(tuple(1e8 + 3.0 * math.sin(i) for i in range(40)))
        spec = estimator_spec(Instance(population=pop), DesignConfig("srs", group_sizes=(1,) * 40))
        idx = np.array([np.random.default_rng(s).permutation(40) for s in range(20)])
        got = estimators.estimates(np.asarray(spec.values)[idx], spec.group_sizes)
        for row, outcome in zip(got, idx):
            assert math.isclose(row, _reference_value(spec, outcome), rel_tol=1e-12)

    @pytest.mark.parametrize("sizes", [(2, 2, 2), (1, 2, 3), (3, 1), (1, 1, 1, 1), (2, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_oracle_matches_closed_form_at_a_large_offset(self, sizes, seed):
        # Values 1e8 from 0 and about 1 apart: centring keeps the oracle's
        # mean within the oracle tolerance of S^2.
        values = 1e8 + np.random.default_rng(seed).standard_normal(8)
        inst = Instance(population=Population(tuple(values.tolist())))
        cfg = DesignConfig("srs", group_sizes=sizes)
        assert Tolerances().close(enumerate_moments(inst, cfg).mean,
                                  theoretical_moments(inst, cfg).mean)


class TestCountDistribution:
    def test_single_class(self):
        dist = enumerate_count_distribution(ClassifiedPopulation((4,)), 3, False)
        assert dist == {(3,): pytest.approx(1.0, abs=1e-14)}

    def test_wor_worked_example(self):
        dist = enumerate_count_distribution(ClassifiedPopulation((2, 3)), 2, False)
        assert dist[(2, 0)] == pytest.approx(0.1, abs=1e-13)
        assert dist[(1, 1)] == pytest.approx(0.6, abs=1e-13)
        assert dist[(0, 2)] == pytest.approx(0.3, abs=1e-13)

    def test_wr_worked_example(self):
        dist = enumerate_count_distribution(ClassifiedPopulation((2, 3)), 2, True)
        assert dist[(2, 0)] == pytest.approx(0.16, abs=1e-13)
        assert dist[(1, 1)] == pytest.approx(0.48, abs=1e-13)
        assert dist[(0, 2)] == pytest.approx(0.36, abs=1e-13)

    @pytest.mark.parametrize("replacement", [False, True])
    def test_matches_full_ordered_enumeration(self, replacement):
        # The count-state chain must agree with brute force over every
        # ordered draw of labeled units.
        sizes = (2, 3, 1)
        cp = ClassifiedPopulation(sizes)
        labels = [k for k, s in enumerate(sizes) for _ in range(s)]
        n = 3
        if replacement:
            outcomes = list(itertools.product(range(cp.size), repeat=n))
        else:
            outcomes = list(itertools.permutations(range(cp.size), n))
        brute = {}
        for seq in outcomes:
            key = tuple(sum(1 for i in seq if labels[i] == k) for k in range(3))
            brute[key] = brute.get(key, 0) + 1
        brute = {k: v / len(outcomes) for k, v in brute.items()}
        dist = enumerate_count_distribution(cp, n, replacement)
        assert set(dist) == set(brute)
        for key in brute:
            assert dist[key] == pytest.approx(brute[key], abs=1e-13)

    @pytest.mark.parametrize("replacement", [False, True])
    def test_matches_pmf_pointwise(self, replacement):
        cp = ClassifiedPopulation((3, 2, 2))
        for n in (1, 3, 5):
            dist = enumerate_count_distribution(cp, n, replacement)
            assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)
            for counts, p in dist.items():
                if replacement:
                    expected = multinomial_pmf(counts, cp.proportions)
                else:
                    expected = mvhyper_pmf(counts, cp)
                assert p == pytest.approx(expected, abs=1e-12)

    def test_count_moments(self):
        dist = enumerate_count_distribution(ClassifiedPopulation((2, 3)), 2, False)
        mean, cov = count_moments(dist)
        np.testing.assert_allclose(mean, [0.8, 1.2], atol=1e-13)
        np.testing.assert_allclose(cov, [[0.36, -0.36], [-0.36, 0.36]], atol=1e-13)

    def test_wor_oversized(self):
        with pytest.raises(ValueError):
            enumerate_count_distribution(ClassifiedPopulation((2, 3)), 6, False)


class TestMonteCarlo:
    def test_same_seed_bit_identical(self):
        a = run_monte_carlo(POP5_INST, DesignConfig("srs", n=2), 50_000, 42)
        b = run_monte_carlo(POP5_INST, DesignConfig("srs", n=2), 50_000, 42)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_differs(self):
        a = run_monte_carlo(POP5_INST, DesignConfig("srs", n=2), 50_000, 42)
        b = run_monte_carlo(POP5_INST, DesignConfig("srs", n=2), 50_000, 43)
        assert a.empirical["mean"] != b.empirical["mean"]

    def test_verdicts_pass_on_srs(self):
        rep = run_monte_carlo(POP5_INST, DesignConfig("srs", n=2), 200_000, 7)
        assert rep.verdict
        assert rep.checks["enumerated_variance_matches"] is True
        assert rep.empirical["trials"] == 200_000

    def test_constant_population_zero_variance(self):
        inst = Instance(population=Population((5, 5, 5)))
        rep = run_monte_carlo(inst, DesignConfig("srs", n=2), 10_000, 1)
        assert rep.empirical["variance"] == 0.0
        assert rep.empirical["mean"] == 5.0

    def test_blocks_independent_of_execution_order(self):
        # Each block derives its stream from (seed, block) alone, so the
        # accumulators must be reproducible block by block.
        blocks = simulate_blocks(POP5_INST, DesignConfig("srs", n=2), 10_000, 99)
        single = simulate_blocks(POP5_INST, DesignConfig("srs", n=2), 10_000, 99)
        assert blocks == single
        # Out-of-order worker execution merged in ascending block order
        # yields the identical final accumulator.
        acc = blocks[0]
        for blk in blocks[1:]:
            acc = _merge_moments(acc, blk)
        reordered = sorted(enumerate(blocks), key=lambda t: -t[0])
        collected = [blk for _, blk in sorted(reordered, key=lambda t: t[0])]
        acc2 = collected[0]
        for blk in collected[1:]:
            acc2 = _merge_moments(acc2, blk)
        assert acc == acc2

    def test_normalizations(self):
        rep = run_monte_carlo(PPS_INST, DesignConfig("pps_wr", n=2), 10_000, 3)
        assert rep.estimand == "total"
        assert rep.normalizations["mean"] == pytest.approx(
            rep.normalizations["total"] / 3
        )

    def test_report_round_trip(self):
        rep = run_monte_carlo(POP5_INST, DesignConfig("srs", n=2), 10_000, 5)
        assert json.loads(rep.to_json()) == rep.to_dict()

    def test_rg_report_skips_variance_band(self):
        inst = Instance(population=Population((1, 2, 3, 4)))
        rep = run_monte_carlo(inst, DesignConfig("srs", group_sizes=(2, 2)), 50_000, 11)
        assert rep.theoretical["variance"] is None
        assert rep.checks["empirical_variance_within_band"] is None
        assert rep.checks["empirical_mean_within_band"] is True
        assert rep.verdict

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            run_monte_carlo(POP5_INST, DesignConfig("srs", n=2), 0, 1)

    def test_verdict_fails_when_no_check_ran(self):
        # One trial gives no standard error, and N=5000 is beyond the oracle.
        inst = Instance(population=Population(tuple(range(5000))))
        rep = run_monte_carlo(inst, DesignConfig("srs", n=10), 1, 1)
        assert all(v is None for v in rep.checks.values())
        assert rep.verdict is False


class TestSkippedReasons:
    def _report(self, inst, cfg, trials):
        rep = run_monte_carlo(inst, cfg, trials, 7)
        assert set(rep.skipped) == {k for k, v in rep.checks.items() if v is None}
        return rep

    def test_too_few_trials_for_variance_band(self):
        inst = Instance(population=Population(tuple(range(5000))))
        rep = self._report(inst, DesignConfig("srs", n=10), 101)
        assert "fewer than two blocks" in rep.skipped["empirical_variance_within_band"]
        assert rep.checks["empirical_mean_within_band"] is True

    def test_single_trial_has_no_mean_band(self):
        inst = Instance(population=Population(tuple(range(5000))))
        rep = self._report(inst, DesignConfig("srs", n=10), 1)
        assert "two or more trials" in rep.skipped["empirical_mean_within_band"]

    def test_enumeration_refused(self):
        inst = Instance(population=Population(tuple(range(5000))))
        rep = self._report(inst, DesignConfig("srs", n=10), 1000)
        for name in ("enumerated_mean_matches", "enumerated_variance_matches"):
            assert "ordered outcomes exceed the enumeration limit" in rep.skipped[name]
        assert "empirical_variance_within_band" not in rep.skipped

    def test_no_closed_form_variance(self):
        inst = Instance(population=Population((1, 2, 3, 4)))
        rep = self._report(inst, DesignConfig("srs", group_sizes=(2, 2)), 1000)
        for name in ("empirical_variance_within_band", "enumerated_variance_matches"):
            assert rep.skipped[name] == "the estimator has no closed-form variance"
        assert rep.checks["enumerated_mean_matches"] is True

    def test_nothing_skipped(self):
        rep = self._report(POP5_INST, DesignConfig("srs", n=2), 1000)
        assert rep.skipped == {}


class TestWorIndices:
    # _wor_indices sorts keys up to universe = 4n and uses Floyd above it;
    # the cases sit on both sides of that cutoff.
    @pytest.mark.parametrize(
        "universe, n",
        [(1, 1), (5, 5), (8, 3), (12, 3), (8, 6), (13, 3), (40, 6), (5000, 10)],
    )
    def test_rows_distinct_and_in_range(self, universe, n):
        idx = _wor_indices(np.random.default_rng(universe * 100 + n), 3000, universe, n)
        assert idx.shape == (3000, n)
        assert idx.min() >= 0 and idx.max() < universe
        assert (np.diff(np.sort(idx, axis=1), axis=1) > 0).all()

    @pytest.mark.parametrize("universe", [12, 13])
    def test_ordered_triples_uniform(self, universe):
        trials = 100_000
        idx = _wor_indices(np.random.default_rng(2024), trials, universe, 3)
        codes = (idx[:, 0] * universe + idx[:, 1]) * universe + idx[:, 2]
        counts = np.bincount(codes, minlength=universe**3)
        cells = [
            (a * universe + b) * universe + c
            for a, b, c in itertools.permutations(range(universe), 3)
        ]
        observed = counts[cells]
        assert observed.sum() == trials
        expected = trials / len(cells)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        df = len(cells) - 1
        # Normal approximation to chi-square at this df; 4 sd is p < 1e-4.
        assert (chi2 - df) / math.sqrt(2 * df) < 4.0

    def test_memory_does_not_grow_with_universe(self):
        inst = Instance(population=Population(tuple(range(50_000))))
        cfg = DesignConfig("srs", n=5)
        tracemalloc.start()
        try:
            simulate_blocks(inst, cfg, 2000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestVerdictNeedsBands:
    # A Monte Carlo band whose theoretical value exists and that was skipped
    # for lack of trials fails the verdict, even if every other check passes.
    def test_variance_band_skipped_below_102_trials(self):
        inst = Instance(population=Population(tuple(range(5000))))
        rep = run_monte_carlo(inst, DesignConfig("srs", n=10), 101, 7)
        assert rep.checks["empirical_mean_within_band"] is True
        assert rep.checks["empirical_variance_within_band"] is None
        assert rep.verdict is False

    def test_oracle_checks_alone_do_not_pass(self):
        rep = run_monte_carlo(POP5_INST, DesignConfig("srs", n=2), 1, 7)
        assert rep.checks["enumerated_mean_matches"] is True
        assert rep.checks["enumerated_variance_matches"] is True
        assert rep.checks["empirical_mean_within_band"] is None
        assert rep.verdict is False

    def test_random_groups_need_no_variance_band(self):
        inst = Instance(population=Population(tuple(range(5000))))
        rep = run_monte_carlo(inst, DesignConfig("srs", group_sizes=(2, 2)), 101, 7)
        assert rep.checks["empirical_variance_within_band"] is None
        assert rep.verdict is True


class TestRngStream:
    def test_monte_carlo_report(self):
        rep = run_monte_carlo(PPS_INST, DesignConfig("pps_wr", n=2), 1000, 5)
        assert verify.RNG_STREAM == 4
        assert json.loads(rep.to_json())["rng_stream"] == verify.RNG_STREAM

    def test_relative_efficiency_reports(self):
        forty = Instance(population=Population(tuple(range(40))))
        for rep in (
            relative_efficiency(POP5_INST, DesignConfig("srs", n=2)),
            relative_efficiency(forty, DesignConfig("srs", n=6), trials=2000, seed=3),
        ):
            assert json.loads(rep.to_json())["rng_stream"] == verify.RNG_STREAM


def old_wor_indices(rng, size, universe, n):
    """The WOR sampler as it was before the draw-major Floyd buffer."""
    if universe <= 4 * n:
        return np.argsort(rng.random((size, universe)), axis=1)[:, :n]
    idx = np.empty((size, n), dtype=np.int64)
    for j in range(n):
        top = universe - n + j
        t = rng.integers(0, top + 1, size=size)
        taken = (idx[:, :j] == t[:, None]).any(axis=1)
        idx[:, j] = np.where(taken, top, t)
    return rng.permuted(idx, axis=1)


def old_blocks(inst, cfg, trials, seed):
    """simulate_blocks as it was before the block kernel rewrite, for every
    design but pps_wr: row means by mean(axis=1), group means by reduceat."""
    spec = estimator_spec(inst, cfg)
    values = np.asarray(spec.values, dtype=float)
    out = []
    for b, size in enumerate(verify._block_sizes(trials)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        if spec.replacement:
            idx = rng.integers(0, spec.universe, size=(size, spec.n))
        else:
            idx = old_wor_indices(rng, size, spec.universe, spec.n)
        drawn = values[idx]
        if spec.group_sizes is None:
            v = drawn.mean(axis=1)
        else:
            sizes = np.asarray(spec.group_sizes)
            starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            means = np.add.reduceat(drawn, starts, axis=1) / sizes
            pairs = list(itertools.combinations(range(len(sizes)), 2))
            v = sum(
                (means[:, a] - means[:, b]) ** 2 / (1.0 / sizes[a] + 1.0 / sizes[b])
                for a, b in pairs
            ) / len(pairs)
        m = float(v.mean())
        out.append((size, m, float(((v - m) ** 2).sum())))
    return out


FORTY = Instance(population=Population(tuple(10.0 + 3.0 * math.sin(i) for i in range(40))))


class TestBlockKernel:
    @pytest.mark.parametrize("universe, n", [(13, 3), (40, 6), (5000, 10)])
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_floyd_draws_unchanged(self, universe, n, seed):
        for size in (1, 20, 5000):
            new = _wor_indices(np.random.default_rng(seed), size, universe, n)
            old = old_wor_indices(np.random.default_rng(seed), size, universe, n)
            np.testing.assert_array_equal(new, old)

    @pytest.mark.parametrize(
        "inst, cfg",
        [
            (SEVEN, DesignConfig("srs", n=3)),  # key sort: N <= 4n
            (FORTY, DesignConfig("srs", n=6)),  # Floyd: N > 4n
            (SKEWED_INST, DesignConfig("srs_wr", n=4)),
            (SKEWED_ACS, DesignConfig("acs", n1=2)),
            (SKEWED_ACS, DesignConfig("acs_wr", n1=3)),
            (SKEWED_PPS, DesignConfig("pps_wor", n=3)),
            (SEVEN, DesignConfig("srs", group_sizes=(2, 2, 2))),
            (FORTY, DesignConfig("srs", group_sizes=(2, 2, 2))),
            (SEVEN, DesignConfig("srs", group_sizes=(1, 2, 3))),
            (FORTY, DesignConfig("srs", group_sizes=(1, 2, 3))),
        ],
    )
    def test_blocks_match_old_kernel(self, inst, cfg):
        new = simulate_blocks(inst, cfg, 20_150, 31)
        old = old_blocks(inst, cfg, 20_150, 31)
        assert [b[0] for b in new] == [b[0] for b in old]
        for (_, m_new, m2_new), (_, m_old, m2_old) in zip(new, old):
            assert math.isclose(m_new, m_old, rel_tol=1e-12)
            assert math.isclose(m2_new, m2_old, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "sizes",
        [(1,), (1, 1, 1), (1, 2, 3), (5, 1, 1, 1), (3, 3, 1, 1, 2, 2), (2, 2, 2, 2),
         (10**12, 1, 3)],
    )
    def test_alias_mass_is_exact(self, sizes):
        total, keep, alias = _alias_table(sizes)
        count = len(sizes)
        assert total == sum(sizes)
        assert ((0 <= keep) & (keep <= total)).all()
        assert ((0 <= alias) & (alias < count)).all()
        mass = [int(k) for k in keep]
        for column in range(count):
            mass[int(alias[column])] += total - int(keep[column])
        assert mass == [z * count for z in sizes]

    def test_alias_refuses_int64_overflow(self):
        with pytest.raises(ValueError, match="int64"):
            _alias_table((2**62, 2**62))
        inst = Instance(population=Population((1.0, 2.0)), weights=SizeWeights((2**62, 2**62)))
        with pytest.raises(ValueError, match="int64"):
            simulate_blocks(inst, DesignConfig("pps_wr", n=2), 1000, 1)

    def test_alias_draws_chi_square(self):
        sizes = (1, 1, 2, 2, 3, 3, 4, 4)
        idx = _alias_indices(np.random.default_rng(77), _alias_table(sizes), (50_000, 3))
        observed = np.bincount(idx.ravel(), minlength=len(sizes))
        expected = idx.size * np.asarray(sizes) / sum(sizes)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        # Upper 1e-4 point of chi-square with 7 degrees of freedom.
        assert chi2 < 29.88

    def test_pps_wr_memory_does_not_grow_with_total_size(self):
        inst = Instance(population=Population((1.0, 2.0, 3.0)), weights=SizeWeights((10**12, 1, 3)))
        tracemalloc.start()
        try:
            simulate_blocks(inst, DesignConfig("pps_wr", n=3), 2000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestChunkedBlocks:
    # simulate_blocks draws each block in chunks of at most CHUNK_ELEMENTS
    # elements and merges their moments.  These streams do not depend on
    # the chunk size, so the accumulators must not either.
    @pytest.mark.parametrize(
        "inst, cfg",
        [
            (FORTY, DesignConfig("srs_wr", n=4)),
            (SKEWED_ACS, DesignConfig("acs_wr", n1=3)),
            (SEVEN, DesignConfig("srs", n=3)),  # key sort: N <= 4n
            (SEVEN, DesignConfig("srs", group_sizes=(2, 2, 2))),
        ],
    )
    def test_chunk_merge_matches_unchunked(self, monkeypatch, inst, cfg):
        whole = simulate_blocks(inst, cfg, 20_150, 31)
        monkeypatch.setattr(verify, "CHUNK_ELEMENTS", 64)
        chunked = simulate_blocks(inst, cfg, 20_150, 31)
        assert sum(b[0] for b in chunked) == 20_150
        assert [b[0] for b in chunked] == [b[0] for b in whole]
        for (_, m_c, m2_c), (_, m_w, m2_w) in zip(chunked, whole):
            assert math.isclose(m_c, m_w, rel_tol=1e-12)
            assert math.isclose(m2_c, m2_w, rel_tol=1e-12)

    def test_memory_does_not_grow_with_trials(self):
        inst = Instance(population=Population(tuple(range(100))))
        tracemalloc.start()
        try:
            simulate_blocks(inst, DesignConfig("srs_wr", n=50), 10**6, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def hand_merge(a, b):
    """The Chan et al. update as the engines once wrote it out."""
    na, ma, m2a = a
    nb, mb, m2b = b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * nb / n, m2a + m2b + delta * delta * na * nb / n


def hand_folded_blocks(inst, cfg, trials, seed):
    """simulate_blocks with its chunks folded by a hand-written loop."""
    spec = estimator_spec(inst, cfg)
    values = np.asarray(spec.values, dtype=float)
    table = None if spec.weight_sizes is None else _alias_table(spec.weight_sizes)
    sorts_keys = not spec.replacement and verify._sorts_keys(spec.universe, spec.n)
    step = max(1, verify.CHUNK_ELEMENTS // (spec.universe if sorts_keys else spec.n))
    out = []
    for b, size in enumerate(verify._block_sizes(trials)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        acc = None
        for start in range(0, size, step):
            v = verify._block_values(spec, values, rng, min(step, size - start), table)
            m = float(v.mean())
            chunk = (len(v), m, float(((v - m) ** 2).sum()))
            acc = chunk if acc is None else hand_merge(acc, chunk)
        out.append(acc)
    return out


def hand_folded_empirical(blocks):
    """_empirical with the blocks merged and their variances spread by hand."""
    count, mean, m2 = blocks[0]
    for blk in blocks[1:]:
        count, mean, m2 = hand_merge((count, mean, m2), blk)
    variance = m2 / (count - 1) if count > 1 else 0.0
    block_vars = [b_m2 / (b_n - 1) for b_n, _, b_m2 in blocks if b_n > 1]
    se_var = None
    if len(block_vars) > 1:
        bv_mean = math.fsum(block_vars) / len(block_vars)
        bv_spread = math.fsum((v - bv_mean) ** 2 for v in block_vars) / (len(block_vars) - 1)
        se_var = math.sqrt(bv_spread / len(block_vars))
    return {
        "mean": mean,
        "variance": variance,
        "trials": count,
        "standard_error_mean": math.sqrt(variance / count) if count > 1 else None,
        "standard_error_variance": se_var,
    }


class TestOneMomentReduction:
    # The oracle, the Monte Carlo chunks and the block merge all reduce
    # through _moments and _merge_moments.
    @pytest.mark.parametrize("chunk", [64, verify.CHUNK_ELEMENTS])
    @pytest.mark.parametrize("trials", [150, 20_150])
    @pytest.mark.parametrize(
        "inst, cfg",
        [
            (FORTY, DesignConfig("srs_wr", n=4)),
            (SEVEN, DesignConfig("srs", n=3)),  # key sort: N <= 4n
            (SEVEN, DesignConfig("srs", group_sizes=(2, 2, 2))),
        ],
    )
    def test_monte_carlo_matches_hand_folds_bit_for_bit(self, monkeypatch, chunk, trials, inst, cfg):
        monkeypatch.setattr(verify, "CHUNK_ELEMENTS", chunk)
        blocks = simulate_blocks(inst, cfg, trials, 17)
        assert blocks == hand_folded_blocks(inst, cfg, trials, 17)
        assert _empirical(blocks) == hand_folded_empirical(blocks)

    @pytest.mark.parametrize("inst, cfg", ORACLE_CASES)
    def test_oracle_walks_the_outcomes_once(self, monkeypatch, inst, cfg):
        walks = []
        outcome_chunks = verify._outcome_chunks

        def counted(spec):
            walks.append(spec)
            yield from outcome_chunks(spec)

        monkeypatch.setattr(verify, "_outcome_chunks", counted)
        enumerate_moments(inst, cfg)
        assert len(walks) == 1

    def test_chunk_whose_weights_underflow_adds_nothing(self, monkeypatch):
        # Every outcome of the three small units weighs about 1e-600, which is
        # 0.0; with one outcome per chunk, whole chunks weigh nothing.
        monkeypatch.setattr(verify, "CHUNK_ELEMENTS", 2)
        inst = Instance(
            population=Population((1e-300, 1e-300, 1e-300, 1.0)),
            weights=SizeWeights((1, 1, 1, 10**300)),
        )
        assert enumerate_moments(inst, DesignConfig("pps_wr", n=2)) == Moments(1.0, 0.0)


class TestRelativeEfficiency:
    def test_srs_worked_example(self):
        rep = relative_efficiency(POP5_INST, DesignConfig("srs", n=2))
        assert rep.ratio == pytest.approx(0.75, abs=1e-12)
        assert rep.predicted_fpc == 0.75
        assert rep.method == "enumeration"
        assert rep.verdict

    def test_pps_worked_example(self):
        rep = relative_efficiency(PPS_INST, DesignConfig("pps_wor", n=2))
        assert rep.ratio == pytest.approx(0.8, abs=1e-12)
        assert rep.predicted_fpc == pytest.approx(0.8, abs=1e-15)
        assert rep.effective_population_size == 6
        assert rep.verdict

    def test_acs_worked_example(self):
        rep = relative_efficiency(acs_instance(), DesignConfig("acs", n1=2))
        assert rep.ratio == pytest.approx(0.5, abs=1e-12)
        assert rep.verdict

    def test_single_draw_ratio_one(self):
        rep = relative_efficiency(POP5_INST, DesignConfig("srs", n=1))
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.predicted_fpc == 1.0
        assert rep.verdict

    def test_degenerate_proportional_pps(self):
        inst = Instance(population=Population((1, 2, 3)), weights=SizeWeights((1, 2, 3)))
        rep = relative_efficiency(inst, DesignConfig("pps_wor", n=2))
        assert rep.ratio is None
        assert rep.verdict

    def test_rg_has_no_pairing(self):
        with pytest.raises(ValueError):
            relative_efficiency(POP5_INST, DesignConfig("srs", group_sizes=(2, 2)))

    def test_monte_carlo_fallback(self):
        inst = Instance(population=Population(tuple(range(40))))
        rep = relative_efficiency(
            inst, DesignConfig("srs", n=6), trials=200_000, seed=12
        )
        assert rep.method == "monte_carlo"
        assert rep.verdict
        wor = run_monte_carlo(inst, DesignConfig("srs", n=6), 200_000, 12)
        wr = run_monte_carlo(inst, DesignConfig("srs_wr", n=6), 200_000, 13)
        assert rep.wor_variance == wor.empirical["variance"]
        assert rep.wr_variance == wr.empirical["variance"]

    def test_monte_carlo_fallback_too_few_trials(self):
        inst = Instance(population=Population(tuple(range(40))))
        with pytest.raises(ValueError, match="trials=50"):
            relative_efficiency(inst, DesignConfig("srs", n=6), trials=50, seed=12)

    def test_too_large_without_seed(self):
        inst = Instance(population=Population(tuple(range(40))))
        with pytest.raises(EnumerationLimitError):
            relative_efficiency(inst, DesignConfig("srs", n=6))

    def test_report_round_trip(self):
        rep = relative_efficiency(POP5_INST, DesignConfig("srs", n=2))
        assert json.loads(rep.to_json()) == rep.to_dict()


class TestTolerances:
    def test_close_uses_larger_of_abs_rel(self):
        tol = Tolerances(abs_tol=1e-10, rel_tol=1e-9)
        assert tol.close(1e6 + 1e-4, 1e6)
        assert not tol.close(1e6 + 1e-2, 1e6)
        assert tol.close(1e-12, 0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SizeWeights((1.5, 2.7)),
        lambda: ClassifiedPopulation((2.5, 1)),
        lambda: DesignConfig("srs", n=2.9),
        lambda: DesignConfig("acs", n1=2.0),
        lambda: DesignConfig("srs", group_sizes=(2, 2.5)),
        lambda: DesignConfig.from_mapping({"design": "srs", "n": "2"}),
        lambda: random_group_split(DrawSequence((0, 1, 2, 3), False), (2.0, 2)),
        # These once truncated a float with int() or took a bool for 1 or 0.
        pytest.param(lambda: DrawSequence((0.7, 1.2), False), id="draw-float"),
        pytest.param(lambda: DrawSequence((True, False), False), id="draw-bool"),
        pytest.param(lambda: GroupedSample(((0, 1.5), (2,))), id="groups-float"),
        pytest.param(lambda: CountVector((2.9, 1.0)), id="count-vector"),
        pytest.param(lambda: mvhyper_pmf((1.9, 0.2), ClassifiedPopulation((2, 3))), id="pmf"),
        pytest.param(lambda: NetworkPartition((0, 0.0, 1), (2, 1), (1.0, 2.0)), id="assignment"),
        pytest.param(lambda: NetworkPartition((0, 0, 1), (2.0, 1), (1.0, 2.0)), id="net-sizes"),
        pytest.param(lambda: fpc(2.5, 5), id="fpc-n"),
        pytest.param(lambda: fpc(2, True), id="fpc-N"),
        pytest.param(lambda: multinomial_cov((0.5, 0.5), True), id="multinomial-cov"),
        pytest.param(lambda: mvhyper_cov(ClassifiedPopulation((2, 3)), 2.0), id="mvhyper-cov"),
        pytest.param(lambda: srs_mean_variance(Population((1, 2, 3)), 2.5, True), id="variance"),
    ],
)
def test_integer_fields_reject_non_integers(build):
    with pytest.raises(ValueError, match="integer"):
        build()


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol", "se_multiplier"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -1e-10])
def test_tolerances_must_be_finite_and_nonnegative(field, value):
    with pytest.raises(ValueError, match=field):
        Tolerances(**{field: value})


@pytest.mark.parametrize(
    "values, config",
    [
        (tuple(range(10)), DesignConfig("srs_wr", n=5000)),
        (tuple(range(10**5)), DesignConfig("srs", n=1000)),
        (tuple(range(10)), DesignConfig("srs_wr", n=500)),
    ],
)
def test_enumeration_refusal_message_stays_short(values, config):
    inst = Instance(population=Population(values))
    with pytest.raises(EnumerationLimitError, match="ordered outcomes exceed") as info:
        enumerate_moments(inst, config)
    assert len(str(info.value)) < 100


@pytest.mark.parametrize(
    "inst, config",
    [
        # One ordered outcome, but n! and the raw size products overflow a float.
        (Instance(population=Population((3.0,))), DesignConfig("srs_wr", n=200)),
        (Instance(population=Population((1.0, 2.0)), weights=SizeWeights((2**62, 2**62 + 1))),
         DesignConfig("pps_wr", n=20)),
    ],
)
def test_oracle_weights_stay_finite(inst, config):
    enum, theo = enumerate_moments(inst, config), theoretical_moments(inst, config)
    tol = Tolerances()
    assert tol.close(enum.mean, theo.mean) and tol.close(enum.variance, theo.variance)
