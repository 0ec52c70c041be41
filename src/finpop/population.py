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
from itertools import accumulate, chain, repeat
from typing import Iterable, Optional, Sequence


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


def in_range(indices: Sequence[int], size: int, what="index", of="population") -> Sequence[int]:
    """indices, once each lies in range(size): the one bounds check of drawn
    unit indices and extended-population positions."""
    for i in (min(indices), max(indices)):
        if not 0 <= i < size:
            raise ValueError(f"{what} {i} outside {of} of size {size}")
    return indices


def as_indices(values: Iterable, what: str, floor: Optional[int] = None) -> tuple[int, ...]:
    """as_index over every item, at C speed.  With a floor, the one check of an
    integer record (draws, counts, sizes): at least one entry, none below it."""
    try:
        raw = tuple(values)
        if bool in set(map(type, raw)):
            raise TypeError("got a bool")
        out = tuple(map(operator.index, raw))
    except TypeError as exc:
        raise ValueError(f"every {what} must be an integer: {exc}") from None
    if floor is not None and (not out or min(out) < floor):
        raise ValueError(
            f"need at least one {what}, each >= {floor}, got {min(out) if out else 'none'}"
        )
    return out


def as_reals(values: Iterable, what: str) -> tuple[float, ...]:
    """values as finite floats.  float() would parse "1" and turn True into
    1.0; neither is a number here, so strings and bools are refused."""
    try:
        raw = tuple(values)
        reals = tuple(map(float, raw))
    except TypeError:
        raise ValueError(f"{what} must be numbers") from None
    if any(issubclass(t, (str, bytes, bool)) for t in set(map(type, raw))):
        raise ValueError(f"{what} must be numbers, not strings or bools")
    if not all(map(math.isfinite, reals)):
        raise ValueError(f"{what} must be finite")
    return reals


@dataclass(frozen=True)
class Population:
    """Fixed vector of real unit values; the ground truth all designs sample from."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = as_reals(self.values, "population values")
        if len(vals) < 1:
            raise ValueError("population must contain at least one unit")
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
        sizes = as_indices(self.subgroup_sizes, "subgroup size", 1)
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
        sizes = as_indices(self.sizes, "size weight", 1)
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
        in_range(positions, cumulative[-1], "position", "extended population")
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
        sizes = as_indices(self.network_sizes, "network size", 1)
        means = as_reals(self.network_means, "network means")
        k = len(sizes)
        if len(means) != k:
            raise ValueError("network_sizes and network_means lengths differ")
        if sum(sizes) != len(assignment):
            raise ValueError("network sizes do not sum to the number of units")
        counts = [0] * k
        for a in in_range(assignment, k, "network id", "networks"):
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

    def means_of(self, units: Iterable[int]) -> list[float]:
        """The ACS transformed value of each given unit: its network's mean."""
        means, assignment = self.network_means, self.assignment
        return [means[assignment[i]] for i in units]

    @classmethod
    def from_assignment(cls, pop: Population, assignment: Sequence[int]) -> "NetworkPartition":
        """Build a partition from arbitrary network labels, computing sizes and means."""
        check_covers(pop, len(assignment))
        label_to_id: dict[object, int] = {}
        ids = [label_to_id.setdefault(a, len(label_to_id)) for a in assignment]
        k = len(label_to_id)
        sums = [0.0] * k
        counts = [0] * k
        for i, g in enumerate(ids):
            sums[g] += pop.values[i]
            counts[g] += 1
        means = [s / c for s, c in zip(sums, counts)]
        for g in [g for g, s in enumerate(sums) if not math.isfinite(s)]:
            # The plain sum overflowed: sum v / 2c, double, clamp to the range.
            members = [v for v, h in zip(pop.values, ids) if h == g]
            mean = 2.0 * math.fsum(v / (2 * counts[g]) for v in members)
            means[g] = min(max(mean, min(members)), max(members))
        return cls(tuple(ids), tuple(counts), tuple(means))


def check_covers(pop: Population, num_units: int) -> None:
    """The one check that a per-unit structure of num_units units covers pop."""
    if num_units != pop.size:
        raise ValueError(f"{num_units} per-unit entries (size weights, adjacency rows or "
                         f"network labels) for a population of {pop.size} units")


def pps_ratios(pop: Population, w: SizeWeights, units: Iterable[int]) -> tuple[float, ...]:
    """The PPS transformed value Y_i / Z_i, Z_i = sizes[i] / t_M, of each given
    unit: what the extended population repeats sizes[i] times and the
    Hansen-Hurvitz estimator averages.  One that is not finite is refused."""
    values, sizes, total = pop.values, w.sizes, w.total
    ratios = tuple([values[i] / (sizes[i] / total) for i in units])
    if not all(map(math.isfinite, ratios)):
        raise ValueError("every Y_i/Z_i must be finite")
    return ratios


def extend_pps(pop: Population, w: SizeWeights) -> Population:
    """Extended population of size total(w): unit i contributes sizes[i] copies
    of Y_i / Z_i.  Its mean is the original population total."""
    check_covers(pop, w.num_units)
    ratios = pps_ratios(pop, w, range(pop.size))
    return Population(tuple(chain.from_iterable(map(repeat, ratios, w.sizes))))


def compute_networks(pop: Population, adj: Adjacency, threshold: float) -> NetworkPartition:
    """Group units with value above the threshold into connected components of
    the induced subgraph; every other unit becomes its own singleton network."""
    check_covers(pop, adj.num_units)
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
    check_covers(pop, partition.num_units)
    return Population(tuple(partition.means_of(range(pop.size))))
