"""The exhaustive enumeration oracle: exact moments of an estimator over every
outcome of a resolved design, and the exact count-state chain of the count
distributions.

The oracle is one of two engines that check the closed forms, so it shares
no code with them or with the samplers.  It imports `estimators.estimates`
and the float-range refusal the public calls share, the population rules
and numpy: no sampler, nothing from `designs` or `verify`, no `fpc` and no
closed-form variance (`tests/test_oracle.py` enforces both the imports and
the behaviour).  The Monte Carlo harness in
`verify` imports its moment fold from here, never the reverse."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .estimators import _float_traps, _out_of_float_range, estimates
from .population import ClassifiedPopulation, sample_size

ENUMERATION_LIMIT = 10_000_000
# Most elements in an oracle chunk or a Monte Carlo per-trial temporary
# (verify binds its own copy): 2^14 float64s are 128 KiB, in L2 cache.
CHUNK_ELEMENTS = 1 << 14


class EnumerationLimitError(RuntimeError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: Optional[float]


@dataclass(frozen=True)
class EstimatorSpec:
    """Everything the oracle and the Monte Carlo harness need to realize a
    (design, estimator) pair: the index universe sampled from, per-index
    values and optional integer draw weights.  It holds no closed form."""

    tag: str
    universe: int
    n: int
    replacement: bool
    values: tuple[float, ...]
    weight_sizes: Optional[tuple[int, ...]]
    group_sizes: Optional[tuple[int, ...]]


def _ordered_outcomes(universe: int, n: int, replacement: bool, cap: int) -> int:
    """The U^n (with replacement) or U!/(U-n)! ordered outcomes of n draws
    from a universe of U, or the first partial product past cap: a full count
    can run to thousands of digits.  A universe of 1 has a single outcome
    whatever n is."""
    count = 1
    for k in range(n if universe > 1 else 0):
        count *= universe if replacement else universe - k
        if count > cap:
            break
    return count


def _check_draws(n: int) -> None:
    """Refuse more than ENUMERATION_LIMIT draws: the work of an exact walk grows with n."""
    if n > ENUMERATION_LIMIT:
        raise EnumerationLimitError(f"{n} draws exceed the enumeration limit {ENUMERATION_LIMIT}")


def _check_enumeration_size(spec: EstimatorSpec) -> None:
    count = _ordered_outcomes(spec.universe, spec.n, spec.replacement, ENUMERATION_LIMIT)
    if count > ENUMERATION_LIMIT:
        raise EnumerationLimitError(f"at least {count} ordered outcomes exceed the enumeration "
                                    f"limit {ENUMERATION_LIMIT}")
    # A universe of 1 has one outcome, but each row of it is n draws long.
    _check_draws(spec.n)


def _disjoint_subsets(pool: tuple[int, ...], sizes: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every ordered tuple of disjoint subsets of pool with the given sizes,
    concatenated; each subset is in increasing order."""
    if len(sizes) == 1:
        yield from itertools.combinations(pool, sizes[0])
        return
    for head in itertools.combinations(pool, sizes[0]):
        rest = tuple(i for i in pool if i not in head)
        for tail in _disjoint_subsets(rest, sizes[1:]):
            yield head + tail


def _outcome_chunks(spec: EstimatorSpec) -> Iterator[tuple[np.ndarray, Optional[np.ndarray]]]:
    """(estimates, weights) over the design's unordered outcomes, in chunks of
    at most CHUNK_ELEMENTS // n outcomes; an outcome's weight is proportional
    to its probability, and None means all weigh the same.

    Every ordering of a sample is equally likely, so one unordered outcome
    stands for all of its orderings.  Without replacement that is a subset
    (n! orderings; with random groups, a tuple of per-group subsets with
    prod s_k! orderings), and all weigh the same.  With replacement it is a
    multiset with n! / prod m_j! orderings, each weighing prod Z_i.
    """
    values = np.asarray(spec.values, dtype=float)
    n = spec.n
    if spec.replacement:
        sizes = spec.weight_sizes or (1,) * spec.universe
        total = sum(sizes)
        probs = np.array([z / total for z in sizes])  # exact integer division: no overflow
        outcomes = itertools.combinations_with_replacement(range(spec.universe), n)
    else:
        outcomes = _disjoint_subsets(tuple(range(spec.universe)), spec.group_sizes or (n,))
    while True:
        chunk = itertools.islice(outcomes, max(1, CHUNK_ELEMENTS // n))
        idx = np.fromiter(itertools.chain.from_iterable(chunk), dtype=np.intp).reshape(-1, n)
        if not len(idx):
            return
        weights = None
        if spec.replacement and spec.universe > 1:  # one outcome's weight cancels
            # Rows are sorted, so runs[:, j] (j + 1 less the column where its
            # run starts) numbers the copies of idx[:, j] seen so far, and the
            # product of (j + 1) / runs[:, j] is n! / prod m_j!.  It never
            # exceeds N^n, so it stays finite where n! alone would overflow.
            pos = np.arange(n)
            starts = np.where(np.diff(idx, axis=1, prepend=-1) != 0, pos, 0)
            runs = pos + 1 - np.maximum.accumulate(starts, axis=1)
            weights = (np.arange(1, n + 1) / runs).prod(axis=1) * probs[idx].prod(axis=1)
        yield estimates(values[idx], spec.group_sizes), weights


def exact_moments(spec: EstimatorSpec) -> Moments:
    """Exact mean and variance of a resolved spec's estimator by summation
    over every outcome of the design, weighted by its exact probability."""
    _check_enumeration_size(spec)
    total, mean, m2 = _fold(itertools.starmap(_moments, _outcome_chunks(spec)))
    return Moments(mean, m2 / total)


def _fold(moments: Iterable[tuple[float, float, float]]) -> tuple[float, float, float]:
    """(weight, mean, M2) accumulators merged in order: the one fold of the
    oracle's chunks, of each Monte Carlo block's chunks and of the blocks.
    Chunks computed as the fold pulls them are trapped by _float_traps;
    the merge's Python floats, which numpy does not trap, are checked last."""
    with _float_traps():
        acc = functools.reduce(_merge_moments, moments)
    if not np.isfinite(acc).all():
        _out_of_float_range("merged moments")
    return acc


def _moments(v: np.ndarray, w: Optional[np.ndarray] = None) -> tuple[float, float, float]:
    """(weight, mean, sum of squared deviations) of v, each v[i] weighing 1 or w[i]."""
    weight = len(v) if w is None else float(w.sum())
    if not weight:  # every weight underflowed to 0: the chunk adds nothing
        return 0.0, 0.0, 0.0
    mean = float(v.mean() if w is None else (w * v).sum() / weight)
    d2 = (v - mean) ** 2
    return weight, mean, float((d2 if w is None else w * d2).sum())


def _merge_moments(
    a: tuple[float, float, float], b: tuple[float, float, float]
) -> tuple[float, float, float]:
    # Chan et al. pairwise update; merged in fixed order for determinism.
    na, ma, m2a = a
    nb, mb, m2b = b
    if not (na and nb):  # a side that weighs nothing adds nothing
        return a if not nb else b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * nb / n
    m2 = m2a + m2b + delta * delta * na * nb / n
    return n, mean, m2


# ---------------------------------------------------------------------------
# Count distributions (sequential-draw probability chain, aggregated by the
# count vector; exact and independent of the closed-form pmfs).

def count_distributions_upto(
    cp: ClassifiedPopulation, n: int, replacement: bool
) -> list[dict[tuple[int, ...], float]]:
    """Count-vector distribution after t = 1..n sequential draws.

    Evolves the probability of each count state one draw at a time with the
    per-draw class probabilities, so the result follows the ordered sampling
    process directly rather than any closed-form pmf.
    """
    n = sample_size(n, cp.size, replacement)
    # The work is the count states visited over all n draws, at least one per
    # draw; checked per draw, and up front so that a huge n fails at once.
    _check_draws(n)
    k = cp.num_groups
    big_n = cp.size
    sizes = cp.subgroup_sizes
    dist: dict[tuple[int, ...], float] = {(0,) * k: 1.0}
    out = []
    visited = 0
    for t in range(n):
        new: dict[tuple[int, ...], float] = {}
        remaining_total = big_n if replacement else big_n - t
        for state, p in dist.items():
            for j in range(k):
                avail = sizes[j] if replacement else sizes[j] - state[j]
                if avail <= 0:
                    continue
                q = p * (avail / remaining_total)
                ns = state[:j] + (state[j] + 1,) + state[j + 1 :]
                new[ns] = new.get(ns, 0.0) + q
        visited += len(new)
        if visited > ENUMERATION_LIMIT:
            raise EnumerationLimitError(
                f"count states visited exceed the enumeration limit {ENUMERATION_LIMIT}"
            )
        dist = new
        out.append(dist)
    return out


def enumerate_count_distribution(
    cp: ClassifiedPopulation, n: int, replacement: bool
) -> dict[tuple[int, ...], float]:
    """Exact distribution of the class counts after n sequential draws."""
    return count_distributions_upto(cp, n, replacement)[-1]


def count_moments(dist: Mapping[tuple[int, ...], float]) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of a count distribution."""
    states = np.array(list(dist.keys()), dtype=float)
    probs = np.array(list(dist.values()), dtype=float)
    mean = probs @ states
    cov = states.T @ (states * probs[:, None]) - np.outer(mean, mean)
    return mean, cov
