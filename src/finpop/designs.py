"""Sampling designs as procedures producing draw sequences: simple random
sampling (with/without replacement), probability-proportional-to-size
sampling (with replacement, and without replacement via the extended
population), adaptive cluster sampling, and random-group splitting."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .population import (
    NetworkPartition, Population, SizeWeights, as_index, as_indices, check_covers, sample_size,
)

MAX_UNIVERSE = 2**63  # numpy's int64 draws take values 0 .. 2**63 - 1


@dataclass(frozen=True)
class DrawSequence:
    """Ordered unit indices (0-based) produced by a design.

    For the extended-population PPS design the indices address positions in
    the extended population; map them back with SizeWeights.units_of.
    """

    indices: tuple[int, ...]
    replacement: bool

    def __post_init__(self) -> None:
        indices = as_indices(self.indices, "index", 0)
        if not self.replacement and len(set(indices)) != len(indices):
            raise ValueError("without-replacement draw sequence has repeated indices")
        object.__setattr__(self, "indices", indices)

    @classmethod
    def _unchecked(cls, indices: tuple[int, ...], replacement: bool) -> "DrawSequence":
        """A draw sequence built by finpop's own samplers, which always pass
        __post_init__'s checks (the tests rebuild every one through them)."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "indices", indices)
        object.__setattr__(seq, "replacement", replacement)
        return seq

    @property
    def n(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class GroupedSample:
    """Disjoint ordered groups of unit indices from a single WOR draw."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        groups = tuple(as_indices(g, "index", 0) for g in self.groups)
        flat = [i for g in groups for i in g]
        if len(set(flat)) != len(flat):
            raise ValueError("groups must be disjoint")
        object.__setattr__(self, "groups", groups)

    @classmethod
    def _unchecked(cls, groups: tuple[tuple[int, ...], ...]) -> "GroupedSample":
        """Groups cut by random_group_split from a checked draw sequence."""
        grouped = object.__new__(cls)
        object.__setattr__(grouped, "groups", groups)
        return grouped

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)

    @property
    def num_groups(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class AcsSample:
    """Adaptive cluster sample: initial draws plus every unit pulled in
    through the networks of the initially selected units."""

    initial: DrawSequence
    final_units: frozenset[int]


def srs(N: int, n: int, replacement: bool, rng: np.random.Generator) -> DrawSequence:
    """Simple random sampling: n sequential single-unit draws.

    Without replacement each draw is uniform among the remaining units
    (partial Fisher-Yates), so every ordered n-tuple of distinct units is
    equally likely.  The pool is kept sparse, as the positions that have
    moved, so a draw costs O(n) time and memory whatever N is.  All n draws
    come from one bounded-integer call on rng, which takes the same
    generator steps as n scalar rng.integers calls, so a seed gives the
    same sample either way.  N may be at most 2**63, the reach of numpy's
    int64 draws.
    """
    N = as_index(N, "N")
    return _srs(N, sample_size(n, N, replacement), replacement, rng)


def _srs(N: int, n: int, replacement: bool, rng: np.random.Generator) -> DrawSequence:
    """srs on an N and n already checked by sample_size."""
    if N > MAX_UNIVERSE:
        raise ValueError(f"cannot draw from {N} units: numpy's int64 draws reach at most 2**63")
    if replacement:
        return DrawSequence._unchecked(tuple(rng.integers(0, N, size=n).tolist()), True)
    # Draw k is uniform on 0..N-1-k.  The bounds are uint64 because int64
    # cannot hold N = 2**63, and numpy would then take them as float64.
    draws = rng.integers(0, np.arange(N, N - n, -1, dtype=np.uint64)).tolist()
    moved: dict[int, int] = {}  # pool position -> unit, where it is not the identity
    out = []
    for k, j in zip(range(N - 1, N - 1 - n, -1), draws):
        out.append(moved.get(j, j))
        moved[j] = moved.get(k, k)
    return DrawSequence._unchecked(tuple(out), False)


def pps_wr(w: SizeWeights, n: int, rng: np.random.Generator) -> DrawSequence:
    """PPS with replacement: SRS with replacement of n extended-population
    positions, each mapped to the unit owning it, so every draw selects unit
    i with probability sizes[i]/total."""
    positions = _srs(w.total, sample_size(n, w.total, True), True, rng)
    return DrawSequence._unchecked(w.units_of(positions.indices), True)


def pps_wor_extended(
    pop: Population, w: SizeWeights, n: int, rng: np.random.Generator
) -> DrawSequence:
    """PPS without replacement via the extended population: simple random
    sampling WOR of n positions out of the total(w) extended positions."""
    check_covers(pop, w.num_units)
    return _srs(w.total, sample_size(n, w.total, False), False, rng)


def acs(
    pop: Population,
    partition: NetworkPartition,
    n_1: int,
    replacement: bool,
    rng: np.random.Generator,
) -> AcsSample:
    """Adaptive cluster sampling: SRS initial draws, then the full network of
    every initially selected unit enters the final sample.  Only the touched
    networks are read, through the partition's members index, so once that
    is built the cost does not grow with N."""
    check_covers(pop, partition.num_units)
    initial = _srs(pop.size, sample_size(n_1, pop.size, replacement, "n_1"), replacement, rng)
    nets = {partition.assignment[i] for i in initial.indices}
    order, starts = partition._members_index
    # Inserted in increasing order, so the set also iterates as a scan of
    # the units would have built it.
    final = sorted(chain.from_iterable(order[starts[a] : starts[a + 1]] for a in nets))
    return AcsSample(initial, frozenset(final))


def random_group_split(seq: DrawSequence, sizes: Sequence[int]) -> GroupedSample:
    """Split an ordered WOR draw into contiguous groups of the given sizes.

    Contiguous ascription of a sequential WOR draw already carries the law
    of sampling first and then randomly grouping, so no re-randomization
    is performed.
    """
    if seq.replacement:
        raise ValueError("random group split requires a without-replacement draw")
    sizes = as_indices(sizes, "group size", 1)
    if sum(sizes) != seq.n:
        raise ValueError(f"group sizes sum to {sum(sizes)}, sequence has {seq.n} draws")
    groups = []
    start = 0
    for s in sizes:
        groups.append(seq.indices[start : start + s])
        start += s
    return GroupedSample._unchecked(tuple(groups))
