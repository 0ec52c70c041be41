import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finpop import (
    Adjacency,
    ClassifiedPopulation,
    NetworkPartition,
    Population,
    SizeWeights,
    compute_networks,
    extend_pps,
    flatten_networks,
)


class TestPopulation:
    def test_basic_stats(self):
        pop = Population((1, 2, 3, 4, 5))
        assert pop.size == 5
        assert pop.mean == 3.0
        assert pop.total == 15.0
        assert pop.variance == 2.0
        assert pop.s_squared == 2.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Population(())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Population((1.0, float("nan")))
        with pytest.raises(ValueError):
            Population((float("inf"),))

    @pytest.mark.parametrize("bad", ["1", b"1", True])
    def test_rejects_strings_and_bools(self, bad):
        with pytest.raises(ValueError, match="numbers"):
            Population((1.0, bad, 3.0))

    def test_s_squared_needs_two_units(self):
        with pytest.raises(ValueError):
            _ = Population((5,)).s_squared


class TestSizeWeights:
    def test_probabilities_sum_to_one(self):
        w = SizeWeights((1, 2, 3))
        assert w.total == 6
        assert math.fsum(w.probabilities) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SizeWeights((1, 0, 3))

    def test_units_of(self):
        w = SizeWeights((1, 2, 3))
        assert w.units_of(range(6)) == (0, 1, 1, 2, 2, 2)
        assert w.units_of((5, 0, 2, 5)) == (2, 0, 1, 2)
        for bad in ((0, 6), (-1, 3)):
            with pytest.raises(ValueError, match="outside extended population of size 6"):
                w.units_of(bad)

    def test_derived_tuples_are_cached(self):
        w = SizeWeights((1, 2, 3))
        assert w.cumulative is w.cumulative
        assert w.probabilities is w.probabilities
        assert w.cumulative == (1, 3, 6) and w.total == 6
        # The cache lives beside the fields: equality and hashing ignore it.
        fresh = SizeWeights((1, 2, 3))
        assert w == fresh and hash(w) == hash(fresh)
        assert w.units_of(range(6)) == (0, 1, 1, 2, 2, 2)
        assert w.units_of((5, 0, 2, 5)) == fresh.units_of((5, 0, 2, 5)) == (2, 0, 1, 2)


class TestExtendPps:
    def test_proportional_population_is_constant(self):
        ext = extend_pps(Population((1, 2, 3)), SizeWeights((1, 2, 3)))
        assert ext.values == (6.0,) * 6
        assert ext.mean == 6.0
        assert ext.variance == 0.0

    def test_worked_example(self):
        ext = extend_pps(Population((2, 2, 3)), SizeWeights((1, 2, 3)))
        assert ext.values == (12.0, 6.0, 6.0, 6.0, 6.0, 6.0)
        assert ext.mean == 7.0  # the original total

    def test_single_unit(self):
        ext = extend_pps(Population((5,)), SizeWeights((1,)))
        assert ext.values == (5.0,)
        assert ext.mean == 5.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            extend_pps(Population((1, 2)), SizeWeights((1, 2, 3)))

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=200)
    def test_mean_is_total_and_variance_formula(self, ys, data):
        sizes = data.draw(
            st.lists(st.integers(min_value=1, max_value=5), min_size=len(ys), max_size=len(ys))
        )
        pop = Population(tuple(ys))
        w = SizeWeights(tuple(sizes))
        ext = extend_pps(pop, w)
        assert ext.size == w.total
        t_y = pop.total
        assert ext.mean == pytest.approx(t_y, rel=1e-12, abs=1e-12)
        expected_var = (
            math.fsum(m * (y / z - t_y) ** 2 for y, z, m in zip(ys, w.probabilities, sizes))
            / w.total
        )
        assert ext.variance == pytest.approx(expected_var, rel=1e-9, abs=1e-9)


class TestAdjacency:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Adjacency(((1,), ()))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Adjacency(((0,),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Adjacency(((5,), ()))


class TestComputeNetworks:
    def test_nothing_qualifies(self):
        pop = Population((0, 0, 0))
        adj = Adjacency(((1,), (0, 2), (1,)))
        part = compute_networks(pop, adj, 1.0)
        assert part.num_networks == 3
        assert part.network_sizes == (1, 1, 1)

    def test_path_components(self):
        pop = Population((5, 5, 0, 5))
        adj = Adjacency(((1,), (0, 2), (1, 3), (2,)))  # path 0-1-2-3
        part = compute_networks(pop, adj, 1.0)
        assert part.members(part.assignment[0]) == (0, 1)
        assert part.members(part.assignment[2]) == (2,)
        assert part.members(part.assignment[3]) == (3,)

    def test_fully_connected_qualifying_set(self):
        pop = Population((2, 2))
        adj = Adjacency(((1,), (0,)))
        part = compute_networks(pop, adj, 1.0)
        assert part.num_networks == 1
        assert part.network_means == (2.0,)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compute_networks(Population((1, 2)), Adjacency(((),)), 0.0)

    def test_threshold_is_strict(self):
        pop = Population((1.0, 1.0))
        adj = Adjacency(((1,), (0,)))
        part = compute_networks(pop, adj, 1.0)
        assert part.num_networks == 2


class TestNetworkPartition:
    def test_from_assignment_computes_means(self):
        pop = Population((1, 3, 5))
        part = NetworkPartition.from_assignment(pop, [0, 0, 1])
        assert part.network_sizes == (2, 1)
        assert part.network_means == (2.0, 5.0)

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            NetworkPartition((0, 0), (1, 1), (1.0, 2.0))  # counts mismatch
        with pytest.raises(ValueError):
            NetworkPartition((0, 2), (1, 1), (1.0, 2.0))  # id out of range

    @given(st.data())
    @settings(max_examples=200)
    def test_partition_validity(self, data):
        n = data.draw(st.integers(min_value=1, max_value=10))
        values = data.draw(
            st.lists(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        labels = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        pop = Population(tuple(values))
        part = NetworkPartition.from_assignment(pop, labels)
        assert sum(part.network_sizes) == n
        seen = [part.assignment[i] for i in range(n)]
        for k in range(part.num_networks):
            assert seen.count(k) == part.network_sizes[k]

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=12))
    @settings(max_examples=200)
    def test_members_match_a_scan_of_the_units(self, labels):
        part = NetworkPartition.from_assignment(Population((0.0,) * len(labels)), labels)
        for k in range(-1, part.num_networks + 1):
            assert part.members(k) == tuple(i for i, a in enumerate(part.assignment) if a == k)
        assert part._members_index is part._members_index


class TestClassifiedPopulation:
    def test_weights_are_cached(self):
        cp = ClassifiedPopulation((2, 3, 1))
        assert cp.weights is cp.weights
        assert cp.weights == SizeWeights((2, 3, 1))
        assert cp == ClassifiedPopulation((2, 3, 1))


class TestFlattenNetworks:
    def test_singletons_are_identity(self):
        pop = Population((1, 3, 5))
        part = NetworkPartition.from_assignment(pop, [0, 1, 2])
        assert flatten_networks(pop, part).values == pop.values

    def test_worked_example(self):
        pop = Population((1, 3, 5))
        part = NetworkPartition.from_assignment(pop, [0, 0, 1])
        flat = flatten_networks(pop, part)
        assert flat.values == (2.0, 2.0, 5.0)
        assert flat.mean == 3.0

    def test_constant_population(self):
        pop = Population((4, 4, 4, 4))
        part = NetworkPartition.from_assignment(pop, [0, 0, 1, 1])
        flat = flatten_networks(pop, part)
        assert flat.values == (4.0,) * 4
        assert flat.variance == 0.0

    def test_size_mismatch(self):
        pop = Population((1, 3, 5))
        part = NetworkPartition.from_assignment(Population((1, 2)), [0, 1])
        with pytest.raises(ValueError):
            flatten_networks(pop, part)

    @given(st.data())
    @settings(max_examples=300)
    def test_mean_preserved_and_variance_reduced(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        values = data.draw(
            st.lists(
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        labels = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        pop = Population(tuple(values))
        part = NetworkPartition.from_assignment(pop, labels)
        flat = flatten_networks(pop, part)
        assert flat.mean == pytest.approx(pop.mean, rel=1e-12, abs=1e-9)
        assert flat.variance <= pop.variance + 1e-9
