import itertools
import math
from bisect import bisect_right
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finpop import (
    ClassifiedPopulation,
    NetworkPartition,
    Population,
    SizeWeights,
    acs,
    pps_wor_extended,
    pps_wr,
    random_group_split,
    sample_counts,
    srs,
)
from finpop.designs import DrawSequence, GroupedSample
from finpop.distributions import CountVector

from conftest import ScriptedRng, compositions


class TestDrawSequence:
    def test_wor_rejects_duplicates(self):
        with pytest.raises(ValueError):
            DrawSequence((1, 1), False)

    def test_wr_allows_duplicates(self):
        seq = DrawSequence((1, 1), True)
        assert seq.n == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DrawSequence((), False)


class TestSrs:
    def test_census_is_permutation(self, rng):
        for _ in range(10):
            seq = srs(5, 5, False, rng)
            assert sorted(seq.indices) == list(range(5))

    def test_wor_size_check(self, rng):
        with pytest.raises(ValueError):
            srs(3, 4, False, rng)

    def test_single_draw_uniform(self, rng):
        trials = 30_000
        hits = Counter(srs(4, 1, False, rng).indices[0] for _ in range(trials))
        se = math.sqrt(0.25 * 0.75 / trials)
        for i in range(4):
            assert abs(hits[i] / trials - 0.25) <= 4 * se

    def test_wor_reachable_outputs_exactly_uniform(self):
        # Drive the sampler with every possible choice script; each ordered
        # pair must be produced exactly once.
        N, n = 4, 2
        outputs = Counter()
        for script in itertools.product(range(4), range(3)):
            seq = srs(N, n, False, ScriptedRng(script))
            outputs[seq.indices] = outputs.get(seq.indices, 0) + 1
        assert len(outputs) == 12
        assert set(outputs.values()) == {1}

    def test_wor_ordered_pairs_chi_square(self, rng):
        # Chi-square over all 20 ordered pairs, alpha = 0.001.
        N, n, trials = 5, 2, 200_000
        hits = Counter(srs(N, n, False, rng).indices for _ in range(trials))
        expected = trials / 20
        chi2 = sum((hits[pair] - expected) ** 2 / expected
                   for pair in itertools.permutations(range(N), n))
        assert chi2 < 43.82  # chi2.ppf(0.999, df=19)


    @pytest.mark.parametrize("replacement", [False, True])
    @pytest.mark.parametrize("N", [1, 5, 100, 2**32 - 1, 2**32 + 1, 2**53 + 5, 2**63])
    def test_draws_match_scalar_loop(self, N, replacement):
        # Reference loop: one scalar rng.integers per draw, over the k + 1
        # units still in the pool without replacement.  srs must make the
        # same draws and leave the generator where the loop left it.
        n = min(N, 7)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            if replacement:
                old = tuple(int(rng.integers(N)) for _ in range(n))
            else:
                pool, out = {}, []
                for k in range(N - 1, N - 1 - n, -1):
                    j = int(rng.integers(k + 1))
                    out.append(pool.get(j, j))
                    pool[j] = pool.get(k, k)
                old = tuple(out)
            new_rng = np.random.default_rng(seed)
            assert srs(N, n, replacement, new_rng).indices == old
            assert new_rng.integers(2**63) == rng.integers(2**63)

    @pytest.mark.parametrize("replacement", [False, True])
    @pytest.mark.parametrize("N", [2**63 + 1, 2**64 - 1, 2**64, 2**70])
    def test_beyond_int64_draws_is_a_value_error(self, rng, N, replacement):
        with pytest.raises(ValueError, match="at most 2\\*\\*63"):
            srs(N, 2, replacement, rng)


class TestPpsWr:
    def test_single_unit(self, rng):
        seq = pps_wr(SizeWeights((3,)), 4, rng)
        assert seq.indices == (0, 0, 0, 0)

    def test_uniform_weights_frequencies(self, rng):
        trials = 60_000
        seq = pps_wr(SizeWeights((1, 1, 1)), trials, rng)
        hits = Counter(seq.indices)
        se = math.sqrt((1 / 3) * (2 / 3) / trials)
        for i in range(3):
            assert abs(hits[i] / trials - 1 / 3) <= 4 * se

    def test_weighted_frequencies(self, rng):
        trials = 120_000
        seq = pps_wr(SizeWeights((1, 2, 3)), trials, rng)
        hits = Counter(seq.indices)
        for i, p in enumerate((1 / 6, 2 / 6, 3 / 6)):
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(hits[i] / trials - p) <= 4 * se

    def test_draws_match_bisect_loop(self):
        # Reference loop: one rng.integers(total) per draw, inverted on the
        # cumulative sizes by bisection.  The draws must match exactly.
        w = SizeWeights((3, 1, 4, 1, 5))
        cumulative = tuple(itertools.accumulate(w.sizes))
        for seed in range(200):
            rng = np.random.default_rng(seed)
            old = tuple(bisect_right(cumulative, int(rng.integers(w.total))) for _ in range(7))
            assert pps_wr(w, 7, np.random.default_rng(seed)).indices == old


class TestPpsWorExtended:
    def test_unit_weights_reduce_to_srs(self):
        # With unit weights the extended population is the original one, so
        # the reachable outputs match srs WOR exactly.
        pop = Population((1, 2, 3, 4))
        w = SizeWeights((1, 1, 1, 1))
        for script in itertools.product(range(4), range(3)):
            a = pps_wor_extended(pop, w, 2, ScriptedRng(script))
            b = srs(4, 2, False, ScriptedRng(script))
            assert a.indices == b.indices

    def test_census_size_and_bounds(self, rng):
        pop = Population((2, 2, 3))
        w = SizeWeights((1, 2, 3))
        seq = pps_wor_extended(pop, w, 6, rng)
        assert sorted(seq.indices) == list(range(6))

    def test_sizes_past_int64_draws_are_a_value_error(self, rng):
        pop = Population((1.0, 2.0))
        for sizes in [(2**63, 1), (2**63, 2**63), (2**64, 2**64)]:
            with pytest.raises(ValueError, match="at most 2\\*\\*63"):
                pps_wor_extended(pop, SizeWeights(sizes), 2, rng)

    def test_oversized_draw(self, rng):
        with pytest.raises(ValueError):
            pps_wor_extended(Population((1, 2)), SizeWeights((1, 2)), 4, rng)


class TestAcs:
    def test_singleton_networks(self, rng):
        pop = Population((1, 2, 3))
        part = NetworkPartition.from_assignment(pop, [0, 1, 2])
        s = acs(pop, part, 2, False, rng)
        assert s.final_units == frozenset(s.initial.indices)

    def test_network_expansion(self):
        pop = Population((5, 5, 0, 5))
        part = NetworkPartition.from_assignment(pop, [0, 0, 1, 2])
        s = acs(pop, part, 1, False, ScriptedRng([0]))
        assert s.initial.indices == (0,)
        assert s.final_units == frozenset({0, 1})

    def test_census_initial_covers_everything(self, rng):
        pop = Population((1, 3, 5))
        part = NetworkPartition.from_assignment(pop, [0, 0, 1])
        s = acs(pop, part, 3, False, rng)
        assert s.final_units == frozenset({0, 1, 2})

    def test_final_units_union_of_complete_networks(self, rng):
        pop = Population(tuple(range(8)))
        part = NetworkPartition.from_assignment(pop, [0, 0, 1, 1, 1, 2, 3, 3])
        for _ in range(50):
            s = acs(pop, part, 3, False, rng)
            for i in list(s.final_units):
                net = part.assignment[i]
                assert set(part.members(net)) <= s.final_units


class TestRandomGroupSplit:
    def test_single_group(self, rng):
        seq = srs(5, 3, False, rng)
        g = random_group_split(seq, (3,))
        assert g.groups == (seq.indices,)

    def test_contiguous_segmentation(self):
        seq = DrawSequence((2, 0, 3, 1), False)
        g = random_group_split(seq, (2, 2))
        assert g.groups == ((2, 0), (3, 1))

    def test_rejects_wr_input(self):
        seq = DrawSequence((0, 0), True)
        with pytest.raises(ValueError):
            random_group_split(seq, (1, 1))

    def test_rejects_size_mismatch(self):
        seq = DrawSequence((0, 1, 2), False)
        with pytest.raises(ValueError):
            random_group_split(seq, (2, 2))

    def test_two_stage_grouping_law(self):
        # Over all ordered WOR draws, every unordered grouping must appear
        # with multiplicity n_1! * n_2! * ... (the two-stage law).
        N, sizes = 4, (2, 2)
        n = sum(sizes)
        counts = Counter()
        for perm in itertools.permutations(range(N), n):
            g = random_group_split(DrawSequence(perm, False), sizes)
            key = tuple(frozenset(grp) for grp in g.groups)
            counts[key] += 1
        expected = math.prod(math.factorial(s) for s in sizes)
        assert set(counts.values()) == {expected}
        # 4!/(2!2!) = 6 ordered groupings of unordered groups
        assert len(counts) == 6

    def test_two_stage_law_partial_sample(self):
        N, sizes = 5, (1, 2)
        counts = Counter()
        for perm in itertools.permutations(range(N), 3):
            g = random_group_split(DrawSequence(perm, False), sizes)
            counts[tuple(frozenset(grp) for grp in g.groups)] += 1
        expected = math.prod(math.factorial(s) for s in sizes)
        assert set(counts.values()) == {expected}


class TestGroupedSample:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            GroupedSample(((0, 1), (1, 2)))

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            GroupedSample(((0,), ()))


def test_srs_wor_memory_does_not_grow_with_n_units():
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        seq = srs(10**7, 3, False, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(seq.indices)) == 3 and all(0 <= i < 10**7 for i in seq.indices)
    assert peak < 1 << 20


def _all_ints(values):
    return all(type(i) is int for i in values)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_sampler_output_equals_its_checked_rebuild(data):
    # The samplers build their output without re-running the public
    # constructors' checks; rebuilding it through them must change nothing.
    N = data.draw(st.integers(1, 30), label="N")
    replacement = data.draw(st.booleans(), label="replacement")
    n = data.draw(st.integers(1, 2 * N if replacement else N), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=N, max_size=N), label="sizes")
    labels = data.draw(st.lists(st.integers(0, N - 1), min_size=N, max_size=N), label="labels")
    pop, w = Population(tuple(range(N))), SizeWeights(tuple(sizes))
    part = NetworkPartition.from_assignment(pop, labels)

    n_pps = data.draw(st.integers(1, w.total), label="n_pps")
    for seq, size in (
        (srs(N, n, replacement, rng), n),
        (pps_wr(w, n, rng), n),
        (pps_wor_extended(pop, w, n_pps, rng), n_pps),
    ):
        assert DrawSequence(seq.indices, seq.replacement) == seq and _all_ints(seq.indices)
        assert seq.n == size

    s = acs(pop, part, n, replacement, rng)
    assert DrawSequence(s.initial.indices, replacement) == s.initial
    assert _all_ints(s.initial.indices) and _all_ints(s.final_units)
    # The final sample as a scan of every unit would find it.
    nets = {part.assignment[i] for i in s.initial.indices}
    assert s.final_units == frozenset(i for i, a in enumerate(part.assignment) if a in nets)

    grouped = data.draw(st.integers(1, N), label="grouped")
    k = data.draw(st.integers(1, min(3, grouped)), label="k")
    group_sizes = data.draw(st.sampled_from(list(compositions(grouped, k))), label="group_sizes")
    g = random_group_split(srs(N, sum(group_sizes), False, rng), group_sizes)
    assert GroupedSample(g.groups) == g and all(_all_ints(grp) for grp in g.groups)

    cp = ClassifiedPopulation(tuple(sizes))
    count_n = data.draw(st.integers(1, cp.size), label="count_n")
    c = sample_counts(cp, count_n, replacement, rng)
    assert CountVector(c.counts) == c and _all_ints(c.counts) and c.n == count_n
