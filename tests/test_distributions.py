import itertools
import math
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finpop import (
    ClassifiedPopulation,
    CountVector,
    fpc,
    multinomial_cov,
    multinomial_pmf,
    mvhyper_cov,
    mvhyper_pmf,
    sample_counts,
)

from conftest import ScriptedRng, compositions


def labeled_units(cp):
    """Unit labels 0..K-1, one per population unit."""
    labels = []
    for k, size in enumerate(cp.subgroup_sizes):
        labels.extend([k] * size)
    return labels


def brute_force_wor_counts(cp, n):
    """Count distribution by enumerating all ordered WOR draws of units."""
    labels = labeled_units(cp)
    dist = {}
    outcomes = list(itertools.permutations(range(cp.size), n))
    for seq in outcomes:
        key = tuple(sum(1 for i in seq if labels[i] == k) for k in range(cp.num_groups))
        dist[key] = dist.get(key, 0) + 1
    return {k: v / len(outcomes) for k, v in dist.items()}


def brute_force_wr_counts(cp, n):
    labels = labeled_units(cp)
    dist = {}
    total = cp.size ** n
    for seq in itertools.product(range(cp.size), repeat=n):
        key = tuple(sum(1 for i in seq if labels[i] == k) for k in range(cp.num_groups))
        dist[key] = dist.get(key, 0) + 1
    return {k: v / total for k, v in dist.items()}


def moments_of(dist, k):
    mean = [math.fsum(c[j] * p for c, p in dist.items()) for j in range(k)]
    cov = np.empty((k, k))
    for a in range(k):
        for b in range(k):
            cov[a, b] = (
                math.fsum(c[a] * c[b] * p for c, p in dist.items()) - mean[a] * mean[b]
            )
    return np.array(mean), cov


class TestFpc:
    def test_single_draw(self):
        for N in (1, 2, 5, 50):
            assert fpc(1, N) == 1.0

    def test_census(self):
        for N in (2, 5, 9):
            assert fpc(N, N) == 0.0

    def test_worked_value(self):
        assert fpc(2, 5) == 0.75

    def test_degenerate_single_unit(self):
        assert fpc(1, 1) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fpc(6, 5)
        with pytest.raises(ValueError):
            fpc(0, 5)


class TestMvhyperPmf:
    def test_single_class(self):
        cp = ClassifiedPopulation((4,))
        assert mvhyper_pmf((3,), cp) == pytest.approx(1.0, abs=1e-14)

    def test_against_subset_enumeration(self):
        # All C(5,2)=10 subsets equally likely: P(1,1) = 6/10, P(2,0) = 1/10.
        cp = ClassifiedPopulation((2, 3))
        assert mvhyper_pmf((1, 1), cp) == pytest.approx(0.6, abs=1e-14)
        assert mvhyper_pmf((2, 0), cp) == pytest.approx(0.1, abs=1e-14)
        assert mvhyper_pmf((0, 2), cp) == pytest.approx(0.3, abs=1e-14)

    def test_infeasible_point_is_zero(self):
        cp = ClassifiedPopulation((2, 3))
        assert mvhyper_pmf((3, 0), cp) == 0.0

    def test_structurally_invalid_raises(self):
        cp = ClassifiedPopulation((2, 3))
        with pytest.raises(ValueError):
            mvhyper_pmf((1,), cp)  # wrong K
        with pytest.raises(ValueError):
            mvhyper_pmf((4, 3), cp)  # n > N

    def test_accepts_count_vector(self):
        cp = ClassifiedPopulation((2, 3))
        assert mvhyper_pmf(CountVector((1, 1)), cp) == pytest.approx(0.6, abs=1e-14)

    def test_log_factorial_path_matches_integer_combinatorics(self):
        for sizes in [(2, 3), (1, 2, 3), (4, 4), (1, 1, 1, 5)]:
            cp = ClassifiedPopulation(sizes)
            for n in range(1, cp.size + 1):
                for counts in compositions(n + cp.num_groups, cp.num_groups):
                    a = tuple(c - 1 for c in counts)  # includes zeros
                    if any(x > nk for x, nk in zip(a, sizes)):
                        continue
                    exact = math.prod(
                        math.comb(nk, x) for nk, x in zip(sizes, a)
                    ) / math.comb(cp.size, n)
                    assert mvhyper_pmf(a, cp) == pytest.approx(exact, rel=1e-12)


class TestMultinomialPmf:
    def test_single_class(self):
        assert multinomial_pmf((7,), (1.0,)) == pytest.approx(1.0, abs=1e-14)

    def test_against_ordered_enumeration(self):
        # 4 ordered outcomes of 2 draws at p=(0.4, 0.6).
        assert multinomial_pmf((1, 1), (0.4, 0.6)) == pytest.approx(0.48, rel=1e-12)
        assert multinomial_pmf((2, 0), (0.4, 0.6)) == pytest.approx(0.16, rel=1e-12)
        assert multinomial_pmf((0, 2), (0.4, 0.6)) == pytest.approx(0.36, rel=1e-12)

    def test_zero_probability_class(self):
        assert multinomial_pmf((1, 0), (0.0, 1.0)) == 0.0
        assert multinomial_pmf((0, 2), (0.0, 1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_invalid_probability_vector(self):
        with pytest.raises(ValueError):
            multinomial_pmf((1, 1), (0.4, 0.5))
        with pytest.raises(ValueError):
            multinomial_pmf((1, 1), (-0.1, 1.1))


class TestCovMatrices:
    def test_multinomial_cov_against_enumeration(self):
        dist = brute_force_wr_counts(ClassifiedPopulation((2, 3)), 2)
        _, cov = moments_of(dist, 2)
        expected = multinomial_cov((0.4, 0.6), 2)
        np.testing.assert_allclose(cov, expected, atol=1e-12)
        assert expected[0, 0] == pytest.approx(0.48, abs=1e-14)
        assert expected[0, 1] == pytest.approx(-0.48, abs=1e-14)

    def test_mvhyper_cov_against_enumeration(self):
        dist = brute_force_wor_counts(ClassifiedPopulation((2, 3)), 2)
        _, cov = moments_of(dist, 2)
        expected = mvhyper_cov(ClassifiedPopulation((2, 3)), 2)
        np.testing.assert_allclose(cov, expected, atol=1e-12)
        assert expected[0, 0] == pytest.approx(0.36, abs=1e-14)
        assert expected[0, 1] == pytest.approx(-0.36, abs=1e-14)

    def test_n_equals_one_matches_multinomial(self):
        cp = ClassifiedPopulation((3, 2, 4))
        np.testing.assert_allclose(
            mvhyper_cov(cp, 1), multinomial_cov(cp.proportions, 1), atol=1e-15
        )

    def test_census_is_zero(self):
        cp = ClassifiedPopulation((3, 2))
        np.testing.assert_allclose(mvhyper_cov(cp, 5), np.zeros((2, 2)), atol=1e-15)

    def test_degenerate_single_class(self):
        np.testing.assert_allclose(multinomial_cov((1.0,), 5), np.zeros((1, 1)), atol=0)

    def test_covariance_relation_on_grid(self):
        # WOR covariance = WR covariance at proportions N_k/N times fpc(n, N).
        for N in range(1, 13):
            for K in range(1, min(4, N) + 1):
                for sizes in compositions(N, K):
                    cp = ClassifiedPopulation(sizes)
                    wr = multinomial_cov(cp.proportions, 1)
                    for n in range(1, N + 1):
                        lhs = mvhyper_cov(cp, n)
                        rhs = wr * n * fpc(n, N)
                        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)

    def test_rows_sum_to_zero_and_psd(self):
        for sizes in [(2, 3), (1, 4, 5), (2, 2, 2, 2)]:
            cp = ClassifiedPopulation(sizes)
            for n in range(1, cp.size + 1):
                m = mvhyper_cov(cp, n)
                np.testing.assert_allclose(m.sum(axis=1), 0.0, atol=1e-12)
                np.testing.assert_allclose(m, m.T, atol=0)
                assert np.linalg.eigvalsh(m).min() >= -1e-12

    def test_enumerated_count_means(self):
        cp = ClassifiedPopulation((2, 3, 1))
        for n in (1, 2, 3):
            mean, _ = moments_of(brute_force_wor_counts(cp, n), 3)
            np.testing.assert_allclose(
                mean, [n * s / cp.size for s in cp.subgroup_sizes], atol=1e-12
            )

    def test_pairwise_draw_covariance(self):
        # Single-draw indicators under WOR: the second draw is negatively
        # correlated with the first, cov = -var/(N-1), by enumeration of
        # ordered pairs of distinct units.
        for sizes in [(2, 3), (1, 4), (3, 3, 2)]:
            cp = ClassifiedPopulation(sizes)
            labels = labeled_units(cp)
            N = cp.size
            pairs = [(i, j) for i in range(N) for j in range(N) if i != j]
            for k in range(cp.num_groups):
                p_k = cp.subgroup_sizes[k] / N
                var1 = p_k * (1 - p_k)
                e12 = math.fsum(
                    (labels[i] == k) * (labels[j] == k) for i, j in pairs
                ) / len(pairs)
                cov12 = e12 - p_k * p_k
                assert cov12 == pytest.approx(-var1 / (N - 1), abs=1e-12)

    def test_pmf_normalization_on_grid(self):
        for N in range(1, 9):
            for K in range(1, min(4, N) + 1):
                for sizes in compositions(N, K):
                    cp = ClassifiedPopulation(sizes)
                    for n in range(1, N + 1):
                        support = [
                            tuple(c - 1 for c in comp)
                            for comp in compositions(n + K, K)
                        ]
                        s_wor = math.fsum(mvhyper_pmf(a, cp) for a in support)
                        s_wr = math.fsum(
                            multinomial_pmf(a, cp.proportions) for a in support
                        )
                        assert s_wor == pytest.approx(1.0, abs=1e-10)
                        assert s_wr == pytest.approx(1.0, abs=1e-10)


class TestSampleCounts:
    def test_census_is_deterministic(self, rng):
        cp = ClassifiedPopulation((2, 3, 1))
        for _ in range(20):
            assert sample_counts(cp, 6, False, rng).counts == (2, 3, 1)

    def test_single_class(self, rng):
        cp = ClassifiedPopulation((5,))
        assert sample_counts(cp, 3, True, rng).counts == (3,)
        assert sample_counts(cp, 3, False, rng).counts == (3,)

    def test_wor_rejects_oversized_draw(self, rng):
        with pytest.raises(ValueError):
            sample_counts(ClassifiedPopulation((2, 3)), 6, False, rng)

    @pytest.mark.parametrize("replacement", [False, True])
    def test_empirical_distribution(self, rng, replacement):
        cp = ClassifiedPopulation((2, 3))
        trials = 200_000
        hits = {}
        for _ in range(trials):
            c = sample_counts(cp, 2, replacement, rng).counts
            hits[c] = hits.get(c, 0) + 1
        if replacement:
            expected = {(2, 0): 0.16, (1, 1): 0.48, (0, 2): 0.36}
        else:
            expected = {(2, 0): 0.1, (1, 1): 0.6, (0, 2): 0.3}
        for counts, p in expected.items():
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(hits.get(counts, 0) / trials - p) <= 4 * se

    @pytest.mark.parametrize("sizes", [(2, 3), (1, 2, 2)])
    def test_every_script_gives_the_exact_law(self, sizes):
        # srs draws rng.integers(N - i) at draw i without replacement and
        # rng.integers(N) with it; every script of choices is equally likely.
        cp = ClassifiedPopulation(sizes)
        N = cp.size
        cases = [(n, False, [range(N - i) for i in range(n)]) for n in range(1, N + 1)]
        cases += [(n, True, [range(N)] * n) for n in range(1, 4)]
        for n, replacement, choices in cases:
            scripts = list(itertools.product(*choices))
            tally = Counter(
                sample_counts(cp, n, replacement, ScriptedRng(s)).counts for s in scripts
            )
            K = cp.num_groups
            for counts in (tuple(c - 1 for c in comp) for comp in compositions(n + K, K)):
                if replacement:
                    p = multinomial_pmf(counts, cp.proportions)
                else:
                    p = mvhyper_pmf(counts, cp)
                assert abs(tally[counts] / len(scripts) - p) <= 1e-12, (n, replacement, counts)

    def test_wr_draws_match_bisect_loop(self):
        # Reference loop: one rng.integers(N) per draw, inverted on the
        # cumulative class sizes by bisection.  The draws must match exactly.
        cp = ClassifiedPopulation((2, 5, 1, 3))
        cumulative = tuple(itertools.accumulate(cp.subgroup_sizes))
        for seed in range(200):
            rng = np.random.default_rng(seed)
            old = [0] * cp.num_groups
            for _ in range(9):
                old[bisect_right(cumulative, int(rng.integers(cp.size)))] += 1
            assert sample_counts(cp, 9, True, np.random.default_rng(seed)).counts == tuple(old)
