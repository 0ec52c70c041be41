"""Multivariate hypergeometric / multinomial count distributions: pmfs, exact
covariance matrices, the finite population correction linking them, and a
sampler that tallies an SRS of the units by class."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .designs import _srs
from .population import ClassifiedPopulation, as_index, as_indices, as_reals, sample_size

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class CountVector:
    """Per-class counts observed in n single-unit draws."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = as_indices(self.counts, "count", 0)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def _unchecked(cls, counts: tuple[int, ...]) -> "CountVector":
        """Counts tallied by sample_counts, which always pass __post_init__'s
        checks (the tests rebuild every one through them)."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "counts", counts)
        return vector

    @property
    def n(self) -> int:
        return sum(self.counts)


Counts = Union[CountVector, Sequence[int]]


def _as_counts(c: Counts) -> tuple[int, ...]:
    return (c if isinstance(c, CountVector) else CountVector(c)).counts


def fpc(n: int, N: int) -> float:
    """Finite population correction 1 - (n-1)/(N-1).

    The multiplier by which sampling without replacement shrinks every
    with-replacement (co)variance.  Defined as 1 for N = 1 (the single
    census draw, where the two schemes coincide).
    """
    N = as_index(N, "N")
    n = sample_size(n, N, False)
    if N == 1:
        return 1.0
    return 1.0 - (n - 1) / (N - 1)


def _log_choose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def mvhyper_pmf(c: Counts, cp: ClassifiedPopulation) -> float:
    """Probability of the class counts under n draws without replacement.

    Computed by log-factorial accumulation; infeasible support points
    (some count exceeding its subgroup size) return 0.
    """
    counts = _as_counts(c)
    if len(counts) != cp.num_groups:
        raise ValueError("count vector length does not match number of subgroups")
    n = sum(counts)
    if n:  # the empty count vector, of no draws, has probability 1
        sample_size(n, cp.size, False, "total count")
    if any(a > nk for a, nk in zip(counts, cp.subgroup_sizes)):
        return 0.0
    log_p = -_log_choose(cp.size, n)
    for a, nk in zip(counts, cp.subgroup_sizes):
        log_p += _log_choose(nk, a)
    return math.exp(log_p)


def _probabilities(probs: Sequence[float]) -> tuple[float, ...]:
    """probs as finite numbers >= 0 summing to 1 within PROB_SUM_TOL: the one
    check of the multinomial pmf's and covariance's probabilities, O(K)."""
    p = as_reals(probs, "probabilities")
    if abs(math.fsum(p) - 1.0) > PROB_SUM_TOL or min(p) < 0:
        raise ValueError("probabilities must each be >= 0 and sum to 1")
    return p


def multinomial_pmf(c: Counts, probs: Sequence[float]) -> float:
    """Probability of the class counts under n independent categorical draws."""
    counts = _as_counts(c)
    p = _probabilities(probs)
    if len(p) != len(counts):
        raise ValueError("probability vector length does not match counts")
    n = sum(counts)
    log_p = math.lgamma(n + 1)
    for a, pk in zip(counts, p):
        if pk == 0.0:
            if a > 0:
                return 0.0
            continue
        log_p += a * math.log(pk) - math.lgamma(a + 1)
    return math.exp(log_p)


def multinomial_cov(probs: Sequence[float], n: int) -> np.ndarray:
    """Covariance matrix of multinomial counts: n (diag(p) - p p^T)."""
    p = np.array(_probabilities(probs))
    n = sample_size(n, p.size, True)
    return n * (np.diag(p) - np.outer(p, p))


def mvhyper_cov(cp: ClassifiedPopulation, n: int) -> np.ndarray:
    """Covariance matrix of without-replacement counts: the multinomial
    covariance at proportions N_k/N, scaled entrywise by fpc(n, N)."""
    n = sample_size(n, cp.size, False)
    return multinomial_cov(cp.proportions, n) * fpc(n, cp.size)


def sample_counts(
    cp: ClassifiedPopulation,
    n: int,
    replacement: bool,
    rng: np.random.Generator,
) -> CountVector:
    """Draw class counts as the class tally of srs(N, n, replacement, rng),
    where class k owns N_k consecutive units: a multivariate hypergeometric
    count vector without replacement, a multinomial one with it."""
    size = cp.size
    units = _srs(size, sample_size(n, size, replacement), replacement, rng).indices
    counts = [0] * cp.num_groups
    for k in cp.weights.units_of(units):
        counts[k] += 1
    return CountVector._unchecked(tuple(counts))
