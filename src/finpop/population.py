"""Finite populations and the two transformations the designs rely on:
extension proportional to integer size weights, and network flattening."""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence


def as_index(value: object, what: str) -> int:
    """value as an exact int (operator.index semantics: 2.9 and "2" are
    rejected, never truncated or parsed; so is True, which is not a count)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def sample_size(n: object, universe: int, replacement: bool, what: str = "n") -> int:
    """n as the size of a sample of n draws from a universe of `universe`
    units: an exact int (as_index), at least 1, and at most universe without
    replacement, the n for which fpc(n, universe) is defined.  Every design
    reduces to such draws, and this is the package's one check of them."""
    n = as_index(n, what)
    if n < 1:
        raise ValueError(f"{what} must be >= 1, got {n}")
    if universe < 1:
        raise ValueError(f"cannot draw {what}={n} from an empty universe of {universe} units")
    if not replacement and n > universe:
        raise ValueError(
            f"{what}={n} exceeds the {universe} units a draw without replacement can take"
        )
    return n


def as_indices(values: Iterable, what: str) -> tuple[int, ...]:
    """as_index over every item, at C speed."""
    try:
        raw = tuple(values)
        if bool in set(map(type, raw)):
            raise TypeError("got a bool")
        return tuple(map(operator.index, raw))
    except TypeError as exc:
        raise ValueError(f"every {what} must be an integer: {exc}") from None


@dataclass(frozen=True)
class Population:
    """Fixed vector of real unit values; the ground truth all designs sample from."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            raw = tuple(self.values)
            vals = tuple(map(float, raw))
        except TypeError:
            raise ValueError("population values must be numbers") from None
        # float() would parse "1" and turn True into 1.0; neither is a value.
        if any(issubclass(t, (str, bytes, bool)) for t in set(map(type, raw))):
            raise ValueError("population values must be numbers, not strings or bools")
        if len(vals) < 1:
            raise ValueError("population must contain at least one unit")
        if not all(map(math.isfinite, vals)):
            raise ValueError("population values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return math.fsum(self.values) / self.size

    @property
    def total(self) -> float:
        return math.fsum(self.values)

    @property
    def variance(self) -> float:
        """Population variance with denominator N."""
        m = self.mean
        return math.fsum((v - m) ** 2 for v in self.values) / self.size

    @property
    def s_squared(self) -> float:
        """Population variance with denominator N-1."""
        if self.size < 2:
            raise ValueError("s_squared requires at least two units")
        m = self.mean
        return math.fsum((v - m) ** 2 for v in self.values) / (self.size - 1)


@dataclass(frozen=True)
class ClassifiedPopulation:
    """Population of N units split into K subgroups, known only by their sizes."""

    subgroup_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = as_indices(self.subgroup_sizes, "subgroup size")
        if len(sizes) < 1:
            raise ValueError("at least one subgroup is required")
        if any(s < 1 for s in sizes):
            raise ValueError("every subgroup size must be >= 1")
        object.__setattr__(self, "subgroup_sizes", sizes)

    @property
    def size(self) -> int:
        return sum(self.subgroup_sizes)

    @property
    def num_groups(self) -> int:
        return len(self.subgroup_sizes)

    @property
    def proportions(self) -> tuple[float, ...]:
        n = self.size
        return tuple(s / n for s in self.subgroup_sizes)

    @cached_property
    def weights(self) -> "SizeWeights":
        """The subgroup sizes as size weights: class k owns the N_k
        consecutive units after those of classes 0..k-1."""
        return SizeWeights(self.subgroup_sizes)


@dataclass(frozen=True)
class SizeWeights:
    """Positive integer size measures, one per unit; selection probability of
    unit i in a single draw is sizes[i] / total."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = as_indices(self.sizes, "size weight")
        if len(sizes) < 1:
            raise ValueError("at least one size weight is required")
        if any(s < 1 for s in sizes):
            raise ValueError("every size weight must be a positive integer")
        if min(sizes) / sum(sizes) == 0.0:
            raise ValueError("size weights too unequal: the smallest Z_i rounds to 0")
        object.__setattr__(self, "sizes", sizes)

    @property
    def num_units(self) -> int:
        return len(self.sizes)

    # Cached on first access: cached_property writes the instance __dict__
    # directly, so it works on the frozen dataclass and leaves __eq__ alone.
    @cached_property
    def total(self) -> int:
        return sum(self.sizes)

    @cached_property
    def probabilities(self) -> tuple[float, ...]:
        t = self.total
        return tuple(s / t for s in self.sizes)

    @cached_property
    def cumulative(self) -> tuple[int, ...]:
        return tuple(accumulate(self.sizes))

    def units_of(self, positions: Sequence[int]) -> tuple[int, ...]:
        """Original units owning the given extended-population positions
        (0-based): unit i owns the sizes[i] positions after those of units
        0..i-1.  This is the one position-to-unit map of the package."""
        cumulative = self.cumulative
        total = cumulative[-1]
        for p in (min(positions), max(positions)):
            if not 0 <= p < total:
                raise ValueError(f"position {p} outside extended population of size {total}")
        return tuple(bisect_right(cumulative, p) for p in positions)


@dataclass(frozen=True)
class Adjacency:
    """Symmetric neighbour lists per unit (0-based indices, no self-loops)."""

    neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        lists = tuple(
            tuple(sorted(set(as_indices(row, "neighbour index")))) for row in self.neighbors
        )
        n = len(lists)
        for i, row in enumerate(lists):
            for j in row:
                if not 0 <= j < n:
                    raise ValueError(f"neighbour index {j} out of range for {n} units")
                if j == i:
                    raise ValueError(f"self-loop at unit {i}")
                if i not in lists[j]:
                    raise ValueError(f"adjacency not symmetric between units {i} and {j}")
        object.__setattr__(self, "neighbors", lists)

    @property
    def num_units(self) -> int:
        return len(self.neighbors)


@dataclass(frozen=True)
class NetworkPartition:
    """Partition of units into networks, with each network's size and mean value."""

    assignment: tuple[int, ...]
    network_sizes: tuple[int, ...]
    network_means: tuple[float, ...]

    def __post_init__(self) -> None:
        assignment = as_indices(self.assignment, "network id")
        sizes = as_indices(self.network_sizes, "network size")
        means = tuple(float(m) for m in self.network_means)
        k = len(sizes)
        if len(means) != k:
            raise ValueError("network_sizes and network_means lengths differ")
        if any(s < 1 for s in sizes):
            raise ValueError("every network must contain at least one unit")
        if sum(sizes) != len(assignment):
            raise ValueError("network sizes do not sum to the number of units")
        counts = [0] * k
        for a in assignment:
            if not 0 <= a < k:
                raise ValueError(f"network id {a} out of range")
            counts[a] += 1
        if tuple(counts) != sizes:
            raise ValueError("assignment counts do not match network_sizes")
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "network_sizes", sizes)
        object.__setattr__(self, "network_means", means)

    @property
    def num_units(self) -> int:
        return len(self.assignment)

    @property
    def num_networks(self) -> int:
        return len(self.network_sizes)

    @cached_property
    def _members_index(self) -> tuple[array, array]:
        """(order, starts): every unit, grouped by network in increasing
        order within each, and where each network's run of order starts,
        with the number of units last.  Built in one pass on first use."""
        starts = array("q", (0, *accumulate(self.network_sizes)))
        order = array("q", [0]) * self.num_units
        fill = starts[:-1]
        for i, a in enumerate(self.assignment):
            order[fill[a]] = i
            fill[a] += 1
        return order, starts

    def members(self, network: int) -> tuple[int, ...]:
        """The units of a network, in increasing order; none for an id that
        names no network."""
        if not 0 <= network < self.num_networks:
            return ()
        order, starts = self._members_index
        return tuple(order[starts[network] : starts[network + 1]])

    @classmethod
    def from_assignment(cls, pop: Population, assignment: Sequence[int]) -> "NetworkPartition":
        """Build a partition from arbitrary network labels, computing sizes and means."""
        if len(assignment) != pop.size:
            raise ValueError("assignment length does not match population size")
        label_to_id: dict[object, int] = {}
        ids = []
        for a in assignment:
            if a not in label_to_id:
                label_to_id[a] = len(label_to_id)
            ids.append(label_to_id[a])
        k = len(label_to_id)
        sums = [0.0] * k
        counts = [0] * k
        for i, g in enumerate(ids):
            sums[g] += pop.values[i]
            counts[g] += 1
        means = tuple(s / c for s, c in zip(sums, counts))
        return cls(tuple(ids), tuple(counts), means)


def extend_pps(pop: Population, w: SizeWeights) -> Population:
    """Extended population of size total(w): unit i contributes sizes[i] copies
    of Y_i / Z_i.  Its mean is the original population total."""
    if w.num_units != pop.size:
        raise ValueError("size weights length does not match population size")
    probs = w.probabilities
    extended: list[float] = []
    for y, z, m in zip(pop.values, probs, w.sizes):
        extended.extend([y / z] * m)
    return Population(tuple(extended))


def compute_networks(pop: Population, adj: Adjacency, threshold: float) -> NetworkPartition:
    """Group units with value above the threshold into connected components of
    the induced subgraph; every other unit becomes its own singleton network."""
    if adj.num_units != pop.size:
        raise ValueError("adjacency size does not match population size")
    qualifies = [v > threshold for v in pop.values]
    labels = [-1] * pop.size
    next_label = 0
    for start in range(pop.size):
        if labels[start] != -1:
            continue
        if not qualifies[start]:
            labels[start] = next_label
            next_label += 1
            continue
        queue = deque([start])
        labels[start] = next_label
        while queue:
            i = queue.popleft()
            for j in adj.neighbors[i]:
                if qualifies[j] and labels[j] == -1:
                    labels[j] = next_label
                    queue.append(j)
        next_label += 1
    return NetworkPartition.from_assignment(pop, labels)


def flatten_networks(pop: Population, partition: NetworkPartition) -> Population:
    """Replace every unit's value by the mean of its network.  Preserves the
    population mean and removes within-network variance."""
    if partition.num_units != pop.size:
        raise ValueError("partition size does not match population size")
    return Population(tuple(partition.network_means[a] for a in partition.assignment))
