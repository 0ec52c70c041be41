"""Point estimators and their closed-form design variances, including the
random-group estimator of the population variance.

Every estimator here is the paper's reduction to SRS: the mean of the drawn
transformed values (Y_i for SRS, Y_i/Z_i for PPS, network means for ACS), or
the random-group estimator over them.  `estimates` is the only code that
turns drawn values into an estimate; the public per-sample calls pass it one
row, and the enumeration oracle and the Monte Carlo harness pass it many.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from typing import Callable, Optional, Sequence

import numpy as np

from .designs import AcsSample, DrawSequence, GroupedSample
from .distributions import fpc
from .population import (
    NetworkPartition, Population, SizeWeights, check_covers, in_range, pps_ratios, sample_size,
)


# Below this magnitude no drawn value can overflow an estimate: a mean of n
# values stays under n * 1e100, and the random-group form under
# 16e200 * n * k^2 (group-mean differences under 4e100, Laplacian entries at
# most n), far inside the float range for any n and k that fit in memory.
# Finite values that do not overflow cannot produce a NaN.
_SAFE_MAGNITUDE = 1e100


def check_group_sizes(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """sizes, once they are two or more groups of at least one draw each: the
    one check of random-group sizes, which _group_forms runs before building."""
    if len(sizes) < 2 or min(sizes) < 1:
        raise ValueError(f"random groups need two or more sizes of at least 1, got {sizes}")
    return sizes


@functools.lru_cache(maxsize=256)
def _group_forms(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(contrast, laplacian) of the random-group form for contiguous groups
    of the given sizes, built once per size tuple and read-only: contrast is
    (n, k-1), column a-1 taking group a's mean less group 0's; laplacian is
    the Laplacian of the pair weights n_a n_b / (n_a + n_b) less row and
    column 0."""
    s = np.asarray(check_group_sizes(sizes))
    k = len(s)
    pair = np.multiply.outer(s, s) / np.add.outer(s, s)
    laplacian = (np.diag(pair.sum(axis=1)) - pair)[1:, 1:]
    members = np.repeat(np.eye(k) / s, s, axis=0)  # (n, k): 1/n_a in group a's rows
    contrast = members[:, 1:] - members[:, :1]
    contrast.flags.writeable = False
    laplacian.flags.writeable = False
    return contrast, laplacian


def estimates(drawn: np.ndarray, group_sizes: Optional[Sequence[int]] = None) -> np.ndarray:
    """The estimator's value on each row of drawn values (one sample per row,
    in draw order): the row mean, or, with group_sizes, the random-group
    estimator of S^2, the average over group pairs (k, l) of
    (mean_k - mean_l)^2 / (1/n_k + 1/n_l) with contiguous groups."""
    # Row sums as a matrix product: one BLAS pass instead of a reduction
    # over a short last axis.  Dividing in place saves a block-sized temporary.
    if group_sizes is None:
        means = drawn @ np.ones(drawn.shape[1])
        means /= drawn.shape[1]
        return means
    # The pair sum is the form d' L d over d_a = mean_a - mean_0 on rows
    # centred on their first value: exact for close values, and never negative.
    contrast, laplacian = _group_forms(tuple(map(operator.index, group_sizes)))
    if len(contrast) != drawn.shape[1]:
        raise ValueError(f"group sizes sum to {len(contrast)}, samples have {drawn.shape[1]} draws")
    k = laplacian.shape[0] + 1
    diffs = (drawn - drawn[:, :1]) @ contrast
    return ((diffs @ laplacian) * diffs) @ np.ones(k - 1) / (k * (k - 1) // 2)


def _estimate(drawn: list[float], group_sizes: Optional[Sequence[int]] = None) -> float:
    """estimates() on a single sample, passed as one (1, n) row.  An estimate
    that overflows the float range or is not finite is refused, not returned
    as inf or NaN.  Only a sample with a value of _SAFE_MAGNITUDE or more can
    overflow, so only it pays for the floating-point guard; a NaN, which
    max() can skip, makes a NaN estimate and is refused by the last check."""
    row = np.array([drawn], dtype=float)
    if max(map(abs, drawn)) < _SAFE_MAGNITUDE:
        value = float(estimates(row, group_sizes)[0])
    else:
        with _float_traps():
            value = float(estimates(row, group_sizes)[0])
    if not math.isfinite(value):
        _out_of_float_range(str(value))
    return value


def _out_of_float_range(kind: str, flag: int = 0) -> None:
    """The one refusal of an estimate, or of its moments, out of the float
    range: by the public per-sample calls, the oracle and the Monte Carlo
    harness alike."""
    raise ValueError(f"estimate out of the float range ({kind})")


def _float_traps() -> np.errstate:
    """numpy's overflow and invalid-value traps, each raising
    _out_of_float_range's ValueError instead of giving inf or NaN with a
    RuntimeWarning."""
    return np.errstate(over="call", invalid="call", call=_out_of_float_range)


def _design_variance(sigma2: float, n: int, universe: int, replacement: bool, name: str) -> float:
    """Variance of the mean of n draws from a universe whose single-draw
    variance is sigma2: sigma2 / n, times fpc(n, universe) without
    replacement."""
    n = sample_size(n, universe, replacement, name)
    v = sigma2 / n
    return v if replacement else v * fpc(n, universe)


def _in_float_range(closed_form: Callable[..., float]) -> Callable[..., float]:
    """closed_form, refusing a variance out of the float range (an
    OverflowError or inf) with a ValueError: the closed forms' one guard."""
    @functools.wraps(closed_form)
    def guarded(*args, **kwargs):
        with contextlib.suppress(OverflowError):
            value = closed_form(*args, **kwargs)
            if math.isfinite(value):
                return value
        raise ValueError("closed-form variance out of the float range")
    return guarded


def sample_mean(pop: Population, seq: DrawSequence) -> float:
    """Arithmetic mean of the population values at the drawn indices."""
    return _estimate([pop.values[i] for i in in_range(seq.indices, pop.size)])


@_in_float_range
def srs_mean_variance(pop: Population, n: int, replacement: bool) -> float:
    """Design variance of the SRS sample mean: sigma^2/n, times fpc(n, N)
    when sampling without replacement."""
    return _design_variance(pop.variance, n, pop.size, replacement, "n")


def hansen_hurvitz(pop: Population, w: SizeWeights, seq: DrawSequence) -> float:
    """Hansen-Hurvitz estimator of the population total: mean of Y_i/Z_i over
    the draws.  A with-replacement draw holds unit indices; a
    without-replacement draw holds extended-population positions, which are
    mapped back to their units."""
    check_covers(pop, w.num_units)
    units = in_range(seq.indices, pop.size) if seq.replacement else w.units_of(seq.indices)
    return _estimate(pps_ratios(pop, w, units))


@_in_float_range
def hh_variance(pop: Population, w: SizeWeights, n: int, replacement: bool) -> float:
    """Variance of the Hansen-Hurvitz total estimator:
    (1/n) sum_i Z_i (Y_i/Z_i - t_Y)^2, times fpc(n, t_M) for the
    extended-population WOR variant."""
    check_covers(pop, w.num_units)
    t_y = pop.total
    sigma2 = math.fsum(z * (y / z - t_y) ** 2 for y, z in zip(pop.values, w.probabilities))
    return _design_variance(sigma2, n, w.total, replacement, "n")


def acs_mean(pop: Population, partition: NetworkPartition, s: AcsSample) -> float:
    """ACS estimator of the population mean: average, over the initial draws,
    of the network mean of each initially selected unit."""
    check_covers(pop, partition.num_units)
    return _estimate(partition.means_of(in_range(s.initial.indices, pop.size)))


@_in_float_range
def acs_variance(
    pop: Population, partition: NetworkPartition, n_1: int, replacement: bool
) -> float:
    """Variance of the ACS mean estimator: the flattened-population variance
    (1/N) sum_k N_k (mean_k - mean)^2 over n_1, times fpc(n_1, N) for a
    without-replacement initial sample."""
    check_covers(pop, partition.num_units)
    mean = pop.mean
    flat_var = (
        math.fsum(
            nk * (mk - mean) ** 2
            for nk, mk in zip(partition.network_sizes, partition.network_means)
        )
        / pop.size
    )
    return _design_variance(flat_var, n_1, pop.size, replacement, "n_1")


def random_group_variance_estimate(pop: Population, g: GroupedSample) -> float:
    """Unbiased estimator of the population variance S^2 (denominator N-1)
    from a grouped WOR sample: average over group pairs (k, l) of
    (mean_k - mean_l)^2 / (1/n_k + 1/n_l)."""
    drawn = [pop.values[i] for grp in g.groups for i in in_range(grp, pop.size)]
    return _estimate(drawn, g.sizes)


@_in_float_range
def rg_pair_expectation(pop: Population, n_k: int, n_l: int) -> float:
    """Closed-form expectation of (mean_k - mean_l)^2 for two random groups of
    sizes n_k and n_l drawn WOR from the population: S^2 (1/n_k + 1/n_l)."""
    n_k = sample_size(n_k, pop.size, False, "n_k")
    n_l = sample_size(n_l, pop.size, False, "n_l")
    sample_size(n_k + n_l, pop.size, False, "n_k + n_l")
    return pop.s_squared * (1.0 / n_k + 1.0 / n_l)
