import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finpop import (
    NetworkPartition,
    Population,
    SizeWeights,
    acs_mean,
    acs_variance,
    extend_pps,
    fpc,
    hansen_hurvitz,
    hh_variance,
    random_group_split,
    random_group_variance_estimate,
    rg_pair_expectation,
    sample_mean,
    srs_mean_variance,
)
from finpop import estimators
from finpop.designs import AcsSample, DrawSequence, GroupedSample
from finpop.estimators import _estimate, _group_forms, estimates

POP5 = Population((1, 2, 3, 4, 5))
POP_PPS = Population((2, 2, 3))
W_PPS = SizeWeights((1, 2, 3))


def random_group_variance_equal_sizes(pop: Population, g: GroupedSample) -> float:
    """Equal-group-size shortcut: m times the sample variance (denominator
    K-1) of the K group means.  Algebraically equal to the pairwise form."""
    if g.num_groups < 2:
        raise ValueError("need at least two groups")
    sizes = set(g.sizes)
    if len(sizes) != 1:
        raise ValueError("shortcut requires equal group sizes")
    m = g.sizes[0]
    means = [math.fsum(pop.values[i] for i in grp) / len(grp) for grp in g.groups]
    k = len(means)
    grand = math.fsum(means) / k
    return m * math.fsum((x - grand) ** 2 for x in means) / (k - 1)


def enumerated_mean_var(values):
    m = math.fsum(values) / len(values)
    v = math.fsum((x - m) ** 2 for x in values) / len(values)
    return m, v


def weighted_mean_var(values, weights):
    m = math.fsum(v * w for v, w in zip(values, weights))
    v = math.fsum(w * (x - m) ** 2 for x, w in zip(values, weights))
    return m, v


class TestSampleMean:
    def test_census(self):
        seq = DrawSequence((4, 1, 0, 3, 2), False)
        assert sample_mean(POP5, seq) == 3.0

    def test_worked_example(self):
        assert sample_mean(POP5, DrawSequence((1, 4), False)) == 3.5

    def test_constant_population(self):
        pop = Population((7, 7, 7))
        assert sample_mean(pop, DrawSequence((0, 2), False)) == 7.0

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            sample_mean(POP5, DrawSequence((9,), False))


class TestSrsMeanVariance:
    def test_wor_against_subset_enumeration(self):
        # All 10 unordered pairs of (1..5) have the same chance.
        means = [
            (POP5.values[i] + POP5.values[j]) / 2
            for i, j in itertools.combinations(range(5), 2)
        ]
        _, v = enumerated_mean_var(means)
        assert v == pytest.approx(0.75, abs=1e-14)
        assert srs_mean_variance(POP5, 2, False) == pytest.approx(0.75, abs=1e-14)

    def test_wr_against_ordered_enumeration(self):
        means = [
            (POP5.values[i] + POP5.values[j]) / 2
            for i, j in itertools.product(range(5), repeat=2)
        ]
        _, v = enumerated_mean_var(means)
        assert v == pytest.approx(1.0, abs=1e-14)
        assert srs_mean_variance(POP5, 2, True) == pytest.approx(1.0, abs=1e-14)

    def test_census_is_zero(self):
        assert srs_mean_variance(POP5, 5, False) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            srs_mean_variance(POP5, 6, False)

    @given(
        st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                 min_size=2, max_size=8),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=100)
    def test_wor_strictly_below_wr_when_nondegenerate(self, values, n):
        pop = Population(tuple(values))
        if n > pop.size or pop.variance == 0.0:
            return
        assert srs_mean_variance(pop, n, False) < srs_mean_variance(pop, n, True)


class TestHansenHurvitz:
    def test_proportional_is_exact(self):
        pop = Population((1, 2, 3))
        w = SizeWeights((1, 2, 3))
        for idx in itertools.product(range(3), repeat=2):
            seq = DrawSequence(idx, True)
            assert hansen_hurvitz(pop, w, seq) == pytest.approx(6.0, abs=1e-12)

    def test_single_draw_value(self):
        seq = DrawSequence((0,), True)
        assert hansen_hurvitz(POP_PPS, W_PPS, seq) == pytest.approx(12.0, abs=1e-12)

    def test_extended_census_returns_total(self):
        seq = DrawSequence(tuple(range(6)), False)
        assert hansen_hurvitz(POP_PPS, W_PPS, seq) == pytest.approx(7.0, abs=1e-12)

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            hansen_hurvitz(POP_PPS, SizeWeights((1, 2)), DrawSequence((0,), True))

    def test_refuses_an_infinite_ratio(self):
        # 1e308 / (1/7) overflows; estimator_spec refuses the same ratio.
        pop, w = Population((1e308, 1.0)), SizeWeights((1, 6))
        with pytest.raises(ValueError, match="every Y_i/Z_i must be finite"):
            hansen_hurvitz(pop, w, DrawSequence((0,), True))
        assert hansen_hurvitz(pop, w, DrawSequence((1,), True)) == pytest.approx(7 / 6)

    def test_refuses_an_overflowing_estimate(self):
        # Each ratio 1.6e308 is finite, but their sum is not.
        pop, w = Population((8e307, 8e307)), SizeWeights((1, 1))
        with pytest.raises(ValueError, match="float range"):
            hansen_hurvitz(pop, w, DrawSequence((0, 1), True))
        with pytest.raises(ValueError, match="float range"):
            sample_mean(Population((1e308, 1e308)), DrawSequence((0, 1), False))


class TestHhVariance:
    def test_proportional_is_zero(self):
        pop = Population((1, 2, 3))
        w = SizeWeights((1, 2, 3))
        assert hh_variance(pop, w, 3, True) == pytest.approx(0.0, abs=1e-12)

    def test_wr_against_weighted_enumeration(self):
        # 9 ordered WR draws weighted by Z_i Z_j.
        ratios = [y / z for y, z in zip(POP_PPS.values, W_PPS.probabilities)]
        probs = W_PPS.probabilities
        vals, weights = [], []
        for i, j in itertools.product(range(3), repeat=2):
            vals.append((ratios[i] + ratios[j]) / 2)
            weights.append(probs[i] * probs[j])
        _, v = weighted_mean_var(vals, weights)
        assert v == pytest.approx(2.5, abs=1e-12)
        assert hh_variance(POP_PPS, W_PPS, 2, True) == pytest.approx(2.5, abs=1e-12)

    def test_wor_against_extended_enumeration(self):
        # 30 ordered pairs of distinct extended units, equally likely.
        ext = extend_pps(POP_PPS, W_PPS).values
        means = [
            (ext[i] + ext[j]) / 2 for i, j in itertools.permutations(range(6), 2)
        ]
        _, v = enumerated_mean_var(means)
        assert v == pytest.approx(2.0, abs=1e-12)
        assert hh_variance(POP_PPS, W_PPS, 2, False) == pytest.approx(2.0, abs=1e-12)
        assert hh_variance(POP_PPS, W_PPS, 2, False) == pytest.approx(
            2.5 * fpc(2, 6), abs=1e-12
        )


class TestAcs:
    def setup_method(self):
        self.pop = Population((1, 3, 5))
        self.part = NetworkPartition.from_assignment(self.pop, [0, 0, 1])

    def _sample(self, initial, replacement=False):
        seq = DrawSequence(initial, replacement)
        members = {0: {0, 1}, 1: {2}}
        final = frozenset().union(*(members[self.part.assignment[i]] for i in initial))
        return AcsSample(seq, final)

    def test_singleton_networks_reduce_to_sample_mean(self):
        part = NetworkPartition.from_assignment(self.pop, [0, 1, 2])
        s = AcsSample(DrawSequence((0, 2), False), frozenset({0, 2}))
        assert acs_mean(self.pop, part, s) == sample_mean(self.pop, s.initial)

    def test_network_mean_worked_example(self):
        assert acs_mean(self.pop, self.part, self._sample((0,))) == 2.0

    def test_census_initial_recovers_mean(self):
        assert acs_mean(self.pop, self.part, self._sample((0, 1, 2))) == pytest.approx(
            3.0, abs=1e-14
        )

    def test_variance_wr_against_enumeration(self):
        # Flattened values (2, 2, 5); 9 ordered WR initial pairs.
        flat = (2.0, 2.0, 5.0)
        means = [
            (flat[i] + flat[j]) / 2 for i, j in itertools.product(range(3), repeat=2)
        ]
        _, v = enumerated_mean_var(means)
        assert v == pytest.approx(1.0, abs=1e-14)
        assert acs_variance(self.pop, self.part, 2, True) == pytest.approx(1.0, abs=1e-14)

    def test_variance_wor_against_enumeration(self):
        flat = (2.0, 2.0, 5.0)
        means = [
            (flat[i] + flat[j]) / 2 for i, j in itertools.permutations(range(3), 2)
        ]
        _, v = enumerated_mean_var(means)
        assert v == pytest.approx(0.5, abs=1e-14)
        assert acs_variance(self.pop, self.part, 2, False) == pytest.approx(0.5, abs=1e-14)
        assert acs_variance(self.pop, self.part, 2, False) == pytest.approx(
            1.0 * fpc(2, 3), abs=1e-14
        )

    def test_constant_population_zero_variance(self):
        pop = Population((4, 4, 4))
        part = NetworkPartition.from_assignment(pop, [0, 0, 1])
        assert acs_variance(pop, part, 2, True) == 0.0


class TestRandomGroupVariance:
    def test_constant_population_is_zero(self):
        pop = Population((3, 3, 3, 3))
        seq = DrawSequence((0, 1, 2, 3), False)
        g = random_group_split(seq, (2, 2))
        assert random_group_variance_estimate(pop, g) == 0.0

    def test_unbiased_over_all_permutations(self):
        pop = Population((1, 2, 3, 4))
        estimates = []
        for perm in itertools.permutations(range(4)):
            g = random_group_split(DrawSequence(perm, False), (2, 2))
            estimates.append(random_group_variance_estimate(pop, g))
        assert math.fsum(estimates) / len(estimates) == pytest.approx(5 / 3, abs=1e-12)

    def test_needs_two_groups(self):
        pop = Population((1, 2, 3))
        g = random_group_split(DrawSequence((0, 1, 2), False), (3,))
        with pytest.raises(ValueError):
            random_group_variance_estimate(pop, g)

    @pytest.mark.filterwarnings("error")
    def test_the_public_estimator_refuses_one_group(self):
        # One group has no pair to average over: refused, not a NaN and a warning.
        with pytest.raises(ValueError, match="two or more sizes"):
            estimates(np.array([[1.0, 2.0, 3.0]]), (3,))
        with pytest.raises(ValueError, match="two or more sizes"):
            random_group_variance_estimate(Population((1, 2, 3)), GroupedSample(((0, 1, 2),)))

    @given(st.data())
    @settings(max_examples=150)
    def test_equal_size_shortcut_agrees(self, data):
        n_groups = data.draw(st.integers(min_value=2, max_value=4))
        m = data.draw(st.integers(min_value=1, max_value=2))
        n = n_groups * m
        values = data.draw(
            st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                     min_size=n, max_size=n)
        )
        pop = Population(tuple(values))
        seq = DrawSequence(tuple(range(n)), False)
        g = random_group_split(seq, (m,) * n_groups)
        a = random_group_variance_estimate(pop, g)
        b = random_group_variance_equal_sizes(pop, g)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_shortcut_requires_equal_sizes(self):
        pop = Population((1, 2, 3))
        g = random_group_split(DrawSequence((0, 1, 2), False), (1, 2))
        with pytest.raises(ValueError):
            random_group_variance_equal_sizes(pop, g)


def exact_pair_sum(values, sizes):
    """The random-group estimator in exact rational arithmetic."""
    means, start = [], 0
    for s in sizes:
        means.append(sum(map(Fraction, values[start : start + s])) / s)
        start += s
    terms = [
        (means[a] - means[b]) ** 2 / (Fraction(1, sizes[a]) + Fraction(1, sizes[b]))
        for a, b in itertools.combinations(range(len(sizes)), 2)
    ]
    return sum(terms) / len(terms)


@settings(max_examples=300, deadline=None)
@given(
    offset=st.sampled_from([0.0, 1e8, -1e8]) | st.floats(-1e8, 1e8),
    spread=st.sampled_from([1e-3, 1.0]) | st.floats(1e-3, 1e3),
    sizes=st.lists(st.integers(1, 4), min_size=2, max_size=5),
    data=st.data(),
)
def test_group_estimates_match_exact_pair_sum(offset, spread, sizes, data):
    # Integer units give ties, equal group means and constant rows.
    unit = st.integers(-3, 3).map(float) | st.floats(-1, 1)
    units = data.draw(st.lists(unit, min_size=sum(sizes), max_size=sum(sizes)))
    values = [offset + spread * u for u in units]
    got = float(estimates(np.array([values]), sizes)[0])
    exact = exact_pair_sum(values, sizes)
    assert got >= 0
    # A group mean carries rounding of about eps * width, where width is the
    # range of the values, and moves the sum by about eps * width *
    # sqrt(sum).  So the relative error stays within 1e-12 except where the
    # group means are nearly tied, and the bound allows for that, and for
    # squares that underflow below the smallest normal float.
    width = max(values) - min(values)
    tol = 1e-12 * (float(exact) + width * math.sqrt(exact)) + (1e-12 * width) ** 2
    tol += np.finfo(float).tiny
    assert abs(Fraction(got) - exact) <= tol


def per_call_group_estimates(drawn, group_sizes):
    """The random-group estimator with its matrices built on every call, as
    estimates() built them before they were cached."""
    sizes = np.asarray(group_sizes)
    k = len(sizes)
    pair = np.multiply.outer(sizes, sizes) / np.add.outer(sizes, sizes)
    laplacian = (np.diag(pair.sum(axis=1)) - pair)[1:, 1:]
    members = np.repeat(np.eye(k) / sizes, sizes, axis=0)
    diffs = (drawn - drawn[:, :1]) @ (members[:, 1:] - members[:, :1])
    return ((diffs @ laplacian) * diffs) @ np.ones(k - 1) / (k * (k - 1) // 2)


class TestGroupFormCache:
    @pytest.mark.parametrize(
        "sizes", [(3, 1), (1, 4, 2), (2, 5, 1, 3), (4, 1, 3, 2, 6), (1, 2, 3, 4, 5, 6)]
    )
    def test_bit_identical_to_per_call_construction(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        for drawn in (rng.normal(0.0, 1.0, (50, sum(sizes))),
                      rng.normal(1e8, 1e-3, (1, sum(sizes)))):
            want = per_call_group_estimates(drawn, sizes).tobytes()
            for key in (sizes, list(sizes), np.array(sizes)):
                assert estimates(drawn, key).tobytes() == want

    def test_cached_arrays_are_read_only(self):
        contrast, laplacian = _group_forms((2, 3, 1))
        assert _group_forms((2, 3, 1))[0] is contrast
        for array in (contrast, laplacian):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    def test_cache_is_bounded(self):
        maxsize = _group_forms.cache_info().maxsize
        assert maxsize is not None
        for m in range(maxsize + 10):
            _group_forms((1, m + 1))
        assert _group_forms.cache_info().currsize == maxsize


class TestFloatGuard:
    def test_overflowing_group_differences_are_refused(self):
        # Group means +-1e160 differ by 2e160, whose square overflows.
        pop = Population((1e160, -1e160, 1e160, -1e160))
        g = random_group_split(DrawSequence((0, 2, 1, 3), False), (2, 2))
        with pytest.raises(ValueError, match="float range"):
            random_group_variance_estimate(pop, g)

    def test_an_infinite_network_mean_is_refused(self):
        # Two values of 1e308 have a finite mean, though their sum is not;
        # a partition refuses an infinite mean, and an ACS estimate whose
        # sum overflows is refused.
        pop = Population((1e308, 1e308, 1.0))
        part = NetworkPartition.from_assignment(pop, [0, 0, 1])
        assert part.network_means == (1e308, 1.0)
        with pytest.raises(ValueError, match="network means must be finite"):
            NetworkPartition(part.assignment, part.network_sizes, (math.inf, 1.0))
        assert acs_mean(pop, part, AcsSample(DrawSequence((2, 0), False), frozenset({0, 1, 2}))) \
            == pytest.approx(5e307)
        s = AcsSample(DrawSequence((1, 0), False), frozenset({0, 1}))
        with pytest.raises(ValueError, match="float range"):
            acs_mean(pop, part, s)

    @pytest.mark.parametrize("group_sizes", [None, (2, 1)])
    def test_values_below_the_bound_skip_the_guard_and_match_it(
        self, monkeypatch, group_sizes
    ):
        below = float(np.nextafter(estimators._SAFE_MAGNITUDE, 0))
        drawn = [below, -below / 3, below / 7]
        with np.errstate(over="raise", invalid="raise"):
            guarded = float(estimates(np.array([drawn]), group_sizes)[0])

        def must_not_run(**kwargs):
            raise AssertionError("the float guard ran below the bound")

        monkeypatch.setattr(estimators.np, "errstate", must_not_run)
        assert _estimate(drawn, group_sizes) == guarded
        with pytest.raises(AssertionError, match="float guard"):
            _estimate([estimators._SAFE_MAGNITUDE] + drawn[1:], group_sizes)


class TestRgPairExpectation:
    def test_constant_population(self):
        assert rg_pair_expectation(Population((2, 2, 2)), 1, 1) == 0.0

    def test_worked_examples(self):
        pop = Population((1, 2, 3, 4))
        assert rg_pair_expectation(pop, 2, 2) == pytest.approx(5 / 3, abs=1e-12)
        assert rg_pair_expectation(pop, 1, 1) == pytest.approx(10 / 3, abs=1e-12)

    def test_against_pair_enumeration(self):
        # n_k = n_l = 1: mean of (Y_i - Y_j)^2 over ordered distinct pairs.
        pop = Population((1, 2, 3, 4))
        diffs = [
            (pop.values[i] - pop.values[j]) ** 2
            for i, j in itertools.permutations(range(4), 2)
        ]
        assert math.fsum(diffs) / len(diffs) == pytest.approx(
            rg_pair_expectation(pop, 1, 1), abs=1e-12
        )

    def test_against_group_enumeration(self):
        pop = Population((1, 2, 3, 4))
        sq = []
        for perm in itertools.permutations(range(4)):
            m1 = (pop.values[perm[0]] + pop.values[perm[1]]) / 2
            m2 = (pop.values[perm[2]] + pop.values[perm[3]]) / 2
            sq.append((m1 - m2) ** 2)
        assert math.fsum(sq) / len(sq) == pytest.approx(
            rg_pair_expectation(pop, 2, 2), abs=1e-12
        )

    def test_infeasible_sizes(self):
        with pytest.raises(ValueError):
            rg_pair_expectation(Population((1, 2, 3)), 2, 2)
