import math
import tracemalloc
from fractions import Fraction

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


def _grid(rows, cols):
    """4-neighbour adjacency of a rows x cols grid, units numbered row by row."""
    return tuple(
        tuple(i * cols + j + di * cols + dj
              for di, dj, ok in ((-1, 0, i > 0), (1, 0, i < rows - 1),
                                 (0, -1, j > 0), (0, 1, j < cols - 1)) if ok)
        for i in range(rows) for j in range(cols)
    )


class TestAdjacency:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Adjacency(((1,), ()))

    def test_rows_are_sorted_and_deduplicated(self):
        assert Adjacency(([2, 1, 2], (0,), [0])).neighbors == ((1, 2), (0,), (0,))

    def test_the_first_bad_row_is_reported_whatever_the_fault(self):
        # A bool in a later row than a string: the string's row is named.
        with pytest.raises(ValueError, match="'str' object cannot be interpreted as an integer"):
            Adjacency((("a",), (True,)))
        with pytest.raises(ValueError, match="got a bool"):
            Adjacency(((True,), ("a",)))
        with pytest.raises(ValueError, match="got a bool"):
            Adjacency((("a", True), ()))
        with pytest.raises(ValueError, match="'str' object cannot be interpreted as an integer"):
            Adjacency((("a",), 5))

    def test_a_row_that_is_no_list_is_named(self):
        with pytest.raises(ValueError, match="^adjacency row 2 must be a list, got int$"):
            Adjacency(((1,), (0,), 5))
        with pytest.raises(ValueError, match="^adjacency row 0 must be a list, got NoneType$"):
            Adjacency((None, (0,)))

    def test_any_iterable_row_is_read(self):
        rows = (iter([2, 1]), map(int, "0"), (n for n in (0,)))
        assert Adjacency(rows).neighbors == ((1, 2), (0,), (0,))

    def test_structural_faults_are_reported_in_unit_order(self):
        with pytest.raises(ValueError, match="^self-loop at unit 0$"):
            Adjacency(((0, 5), ()))
        with pytest.raises(ValueError, match="^neighbour index -1 out of range for 2 units$"):
            Adjacency(((-1, 0), ()))
        with pytest.raises(ValueError, match="^adjacency not symmetric between units 1 and 0$"):
            Adjacency(((), (0,), (3,)))

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


def _checked(part):
    """part rebuilt through NetworkPartition's checked constructor."""
    return NetworkPartition(part.assignment, part.network_sizes, part.network_means)


@given(st.data())
@settings(max_examples=300)
def test_compute_networks_partitions_pass_the_checks_and_match_from_assignment(data):
    rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    values = data.draw(st.lists(
        st.one_of(st.floats(-10, 10), st.sampled_from([1e308, 1.7e308, -1.7e308])),
        min_size=rows * cols, max_size=rows * cols,
    ))
    pop = Population(tuple(values))
    part = compute_networks(pop, Adjacency(_grid(rows, cols)), data.draw(st.floats(-5, 5)))
    assert part == _checked(part)
    assert part == NetworkPartition.from_assignment(pop, part.assignment)
    # Canonical labels: network k is the k-th met in unit order.
    firsts = [part.assignment.index(k) for k in range(part.num_networks)]
    assert firsts == sorted(firsts)
    labels = data.draw(st.lists(st.integers(0, 4), min_size=pop.size, max_size=pop.size))
    relabelled = NetworkPartition.from_assignment(pop, labels)
    assert relabelled == _checked(relabelled)
    # The flattened population equals its checked build, float for float.
    for p in (part, relabelled):
        flat = flatten_networks(pop, p)
        checked = Population(tuple(p.network_means[a] for a in p.assignment))
        assert flat == checked and all(type(v) is float for v in flat.values)


def test_an_overflowing_network_from_compute_networks_gets_the_clamped_mean():
    big = 1.7976931348623157e308
    pop = Population((big, big, 0.0, big))
    part = compute_networks(pop, Adjacency(((1,), (0, 2), (1, 3), (2,))), 1.0)
    assert part.network_sizes == (2, 1, 1)
    assert part.network_means == (big, 0.0, big)
    assert part == _checked(part)


def test_compute_networks_memory_stays_near_the_partition_it_returns():
    # 200 x 200 grid, 3 x 3 clusters above the threshold on a 4-cell lattice.
    side = 200
    values = tuple(5.0 if (i // side) % 4 < 3 and (i % side) % 4 < 3 else 0.0
                   for i in range(side * side))
    pop, adj = Population(values), Adjacency(_grid(side, side))
    tracemalloc.start()
    try:
        part = compute_networks(pop, adj, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert part.num_networks == 50 * 50 + side * side - 2500 * 9
    # Measured on Python 3.11: a peak of 2.4 MiB for a partition of 1.7 MiB,
    # against 5.6 MiB when labels were relabelled through a dict and the
    # partition checked again.  The bound leaves about 50% over 2.4 MiB.
    assert peak < 3.5 * 2**20


def test_extend_pps_walks_its_t_m_copies_once():
    pop, w = Population((1.0, 2.0)), SizeWeights((2_000_000, 1))
    tracemalloc.start()
    try:
        ext = extend_pps(pop, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ext.size == 2_000_001
    # Measured on Python 3.11: a peak of 16.1 MiB, the 15.3 MiB extended
    # tuple and little else, against 31.4 MiB when Population's constructor
    # checked the copies of the already checked ratios a second time.
    assert peak < 20 * 2**20


class TestNetworkPartition:
    def test_from_assignment_computes_means(self):
        pop = Population((1, 3, 5))
        part = NetworkPartition.from_assignment(pop, [0, 0, 1])
        assert part.network_sizes == (2, 1)
        assert part.network_means == (2.0, 5.0)

    def test_an_overflowing_network_sum_still_gives_a_finite_mean(self):
        big = 1.7976931348623157e308
        part = NetworkPartition.from_assignment(Population((1e308, 1e308, 1.0)), [0, 0, 1])
        assert part.network_means == (1e308, 1.0)
        pop = Population((big, big, big, -big, 2.0))
        part = NetworkPartition.from_assignment(pop, [0, 0, 0, 1, 1])
        assert part.network_means[0] == big
        assert part.network_means[1] == pytest.approx(-big / 2)
        pop = Population((1e308, 1e308, -1e308, 5.0))
        part = NetworkPartition.from_assignment(pop, [0, 0, 0, 1])
        assert part.network_means == (pytest.approx(1e308 / 3), 5.0)
        assert flatten_networks(pop, part).values[:3] == (part.network_means[0],) * 3

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=10),
        st.data(),
    )
    @settings(max_examples=300)
    def test_means_are_the_plain_sum_over_the_count_unless_it_overflows(self, values, data):
        labels = data.draw(st.lists(st.integers(0, 3), min_size=len(values), max_size=len(values)))
        part = NetworkPartition.from_assignment(Population(tuple(values)), labels)
        for k, mean in enumerate(part.network_means):
            members = [v for v, a in zip(values, part.assignment) if a == k]
            plain = 0.0
            for v in members:
                plain += v
            assert math.isfinite(mean)
            if math.isfinite(plain):
                assert mean == plain / len(members)  # bit for bit
            else:
                assert min(members) <= mean <= max(members)
                # The exact mean: an fsum of v / len can itself overflow.
                assert mean == pytest.approx(float(sum(map(Fraction, members)) / len(members)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_a_mean_that_is_not_finite(self, bad):
        with pytest.raises(ValueError, match="network means must be finite"):
            NetworkPartition((0, 0, 1), (2, 1), (bad, 1.0))

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
