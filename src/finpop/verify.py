"""Design configs, instances, the seeded, block-deterministic Monte Carlo
harness and the reports comparing both engines with the closed forms.  The
enumeration oracle is `finpop.oracle`, re-exported here.  `estimator_spec`
only resolves; `_closed_form` alone evaluates the closed forms, behind
`theoretical_moments` and once per `run_monte_carlo`."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import estimators
# The oracle; its public names are re-exported from here.
from .oracle import (
    CHUNK_ELEMENTS, ENUMERATION_LIMIT, EnumerationLimitError, EstimatorSpec, Moments, _fold,
    _merge_moments, _moments, count_distributions_upto, count_moments,
    enumerate_count_distribution, exact_moments,
)
from .population import (
    Adjacency, ClassifiedPopulation, NetworkPartition, Population, SizeWeights, as_index,
    as_indices, as_reals, check_covers, compute_networks, extend_pps, flatten_networks,
    pps_ratios, sample_size,
)
from .distributions import fpc

NUM_BLOCKS = 100
# Version of the Monte Carlo draws a seed produces; reports carry it.
# 1: the original samplers; 2: Floyd sampling for WOR draws with N > 4n;
# 3: the exact integer alias draw for PPS with replacement; 4: blocks drawn
# in chunks of at most CHUNK_ELEMENTS; 5: designs with few ordered outcomes
# draw one outcome code per trial from a table of them.
RNG_STREAM = 5
# A run tabulates its design's ordered outcomes when there are at most
# _TABLE_CAP of them (512 KiB of float64 estimates) and the run has at least
# _TABLE_RATIO trials per outcome to pay for building the table.  pps_wr
# stops at _PPS_WR_TABLE_CAP: its alias table over the outcomes is built from
# Python ints, about 150 bytes an outcome, which this cap keeps within the
# memory of a uniform table at _TABLE_CAP.
_TABLE_CAP = 1 << 16
_PPS_WR_TABLE_CAP = 1 << 12
_TABLE_RATIO = 16

COUNT_DESIGNS = ("counts", "counts_wr")
DESIGN_NAMES = ("srs", "srs_wr", "pps_wr", "pps_wor", "acs", "acs_wr", *COUNT_DESIGNS)


@dataclass(frozen=True)
class Tolerances:
    """Comparison tolerances; abs/rel for oracle checks, SE multiplier for
    Monte Carlo bands."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    se_multiplier: float = 4.0

    def __post_init__(self) -> None:
        for name, value in self.to_dict().items():
            _require(math.isfinite(value) and value >= 0,
                     f"tolerance {name} must be finite and >= 0, got {value!r}")

    def close(self, observed: float, expected: float) -> bool:
        return abs(observed - expected) <= max(self.abs_tol, self.rel_tol * abs(expected))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class DesignConfig:
    """Which design to run and at what sizes.  group_sizes switches an SRS
    WOR draw to the random-group population-variance estimator.  A field the
    design does not read is refused: group_sizes is for srs only, and n1 for
    acs and acs_wr only, which take their initial sample size as n or n1 but
    not both.  The size field is required; an n beside group_sizes must equal their sum."""

    design: str
    n: Optional[int] = None
    n1: Optional[int] = None
    group_sizes: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.design not in DESIGN_NAMES:
            raise ValueError(f"unknown design {self.design!r}; expected one of {DESIGN_NAMES}")
        for name in ("n", "n1"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, as_index(value, name))
        if self.n1 is not None:
            _require(self.design in ("acs", "acs_wr"), f"design {self.design!r} takes no n1")
            _require(self.n is None, "give acs its initial sample size as n or n1, not both")
        if self.group_sizes is not None:
            _require(self.design == "srs", f"design {self.design!r} takes no group_sizes")
            sizes = estimators.check_group_sizes(as_indices(self.group_sizes, "group size"))
            object.__setattr__(self, "group_sizes", sizes)
            _require(self.n is None or self.n == sum(sizes), "n must equal sum(group_sizes)")
        field, size = self._size()
        _require(size is not None, f"design {self.design!r} requires {field}")

    def _size(self) -> tuple[str, Optional[int]]:
        """(field, value) of the sample size: sum(group_sizes), n1 or n."""
        if self.group_sizes is not None:
            return "sum(group_sizes)", sum(self.group_sizes)
        field = "n1" if self.design.startswith("acs") and self.n is None else "n"
        return field, getattr(self, field)

    @classmethod
    def from_mapping(cls, m: Mapping) -> "DesignConfig":
        _require(
            isinstance(m, Mapping), f"design config must be a JSON object, got {type(m).__name__}"
        )
        extra = set(m) - {"design", "n", "n1", "group_sizes"}
        _require(not extra, f"unknown design config keys: {sorted(extra)}")
        _require("design" in m, "design config requires a 'design' key")
        return cls(m["design"], m.get("n"), m.get("n1"), m.get("group_sizes"))


def _list_field(m: Mapping, key: str) -> tuple:
    value = m[key]
    _require(isinstance(value, (list, tuple)), f"{key!r} must be a list, got {type(value).__name__}")
    return tuple(value)


@dataclass(frozen=True)
class Instance:
    """A population plus whatever auxiliary structure the designs need."""

    population: Optional[Population] = None
    weights: Optional[SizeWeights] = None
    partition: Optional[NetworkPartition] = None
    classified: Optional[ClassifiedPopulation] = None

    @classmethod
    def from_mapping(cls, m: Mapping) -> "Instance":
        _require(
            isinstance(m, Mapping), f"population must be a JSON object, got {type(m).__name__}"
        )
        extra = set(m) - {"values", "sizes", "adjacency", "threshold", "subgroup_sizes"}
        _require(not extra, f"unknown population keys: {sorted(extra)}")
        pop = Population(_list_field(m, "values")) if "values" in m else None
        weights = SizeWeights(_list_field(m, "sizes")) if m.get("sizes") is not None else None
        classified = (
            ClassifiedPopulation(_list_field(m, "subgroup_sizes"))
            if m.get("subgroup_sizes") is not None
            else None
        )
        partition = None
        if m.get("adjacency") is not None:
            _require(pop is not None, "adjacency requires population values")
            _require(m.get("threshold") is not None, "adjacency requires a threshold")
            rows = _list_field(m, "adjacency")
            # A NaN or +inf threshold would make every unit its own network
            # without a word; a finite threshold above the values says so.
            (threshold,) = as_reals((m["threshold"],), "threshold")
            partition = compute_networks(pop, Adjacency(rows), threshold)
        else:
            _require(m.get("threshold") is None, "threshold is read only with adjacency")
        return cls(pop, weights, partition, classified)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _sample_design(config: DesignConfig) -> str:
    """config's design, unless it is a count design, which only finpop enumerate runs."""
    _require(config.design not in COUNT_DESIGNS, f"design {config.design!r} draws class "
             "counts, not a sample; run it with finpop enumerate")
    return config.design


def estimator_spec(inst: Instance, config: DesignConfig) -> EstimatorSpec:
    """Resolve a design config against an instance; no closed form is
    evaluated.

    Every design is n draws from one universe (N units, or the t_M extended
    positions for pps_wor), so the structure it needs and its sample size are
    checked first, before any transformed population is built."""
    design, groups = _sample_design(config), config.group_sizes
    pop, w = inst.population, inst.weights
    _require(pop is not None, f"design {design!r} requires population values")
    if design.startswith("pps"):
        _require(w is not None, f"design {design!r} requires size weights")
        check_covers(pop, w.num_units)
    if design.startswith("acs"):
        _require(inst.partition is not None, f"design {design!r} requires a network partition")
    replacement = design.endswith("_wr")
    universe = w.total if design == "pps_wor" else pop.size
    field, size = config._size()
    n = sample_size(size, universe, replacement, field)

    if groups is not None:
        return EstimatorSpec(
            "rg_variance", "population_variance", universe, n, False, pop.values, None, groups
        )
    if design.startswith("srs"):
        return EstimatorSpec(
            "sample_mean", "mean", universe, n, replacement, pop.values, None, None
        )
    if design.startswith("acs"):
        flat = flatten_networks(pop, inst.partition)
        return EstimatorSpec("acs_mean", "mean", universe, n, replacement, flat.values, None, None)
    values = pps_ratios(pop, w, range(pop.size)) if replacement else extend_pps(pop, w).values
    return EstimatorSpec(
        "hh_total", "total", universe, n, replacement, values,
        w.sizes if replacement else None, None,
    )


def _closed_form(inst: Instance, spec: EstimatorSpec) -> Moments:
    """Closed-form mean and variance of a resolved spec's estimator."""
    pop, n, replacement = inst.population, spec.n, spec.replacement
    if spec.tag == "rg_variance":
        return Moments(pop.s_squared, None)
    if spec.tag == "sample_mean":
        return Moments(pop.mean, estimators.srs_mean_variance(pop, n, replacement))
    if spec.tag == "acs_mean":
        return Moments(pop.mean, estimators.acs_variance(pop, inst.partition, n, replacement))
    return Moments(pop.total, estimators.hh_variance(pop, inst.weights, n, replacement))


def enumerate_moments(inst: Instance, config: DesignConfig) -> Moments:
    """Exact mean and variance of the estimator: the oracle on the resolved spec."""
    return exact_moments(estimator_spec(inst, config))


def theoretical_moments(inst: Instance, config: DesignConfig) -> Moments:
    """Closed-form mean and variance of the estimator under the design."""
    return _closed_form(inst, estimator_spec(inst, config))


# ---------------------------------------------------------------------------
# Monte Carlo harness.

def _sorts_keys(universe: int, n: int) -> bool:
    """Whether _wor_indices draws n of universe by sorting universe keys."""
    return universe <= 4 * n


def _wor_indices(rng: np.random.Generator, size: int, universe: int, n: int) -> np.ndarray:
    """(size, n) array whose rows are independent uniform ordered draws of n
    distinct indices from range(universe).

    Up to universe = 4n, sorting universe random keys per row is fastest and
    costs O(n log n) there.  Above it, batched Floyd sampling (Bentley &
    Floyd, CACM 1987) draws each row's n-subset in n vectorized steps, and a
    per-row permutation makes the order uniform too, which random groups need.
    Floyd fills a draw-major (n, size) buffer, so each step reads and writes
    contiguous rows.
    """
    if _sorts_keys(universe, n):
        keys = rng.random((size, universe))
        return np.argsort(keys, axis=1)[:, :n]
    idx = np.empty((n, size), dtype=np.int64)
    for j in range(n):
        top = universe - n + j
        t = rng.integers(0, top + 1, size=size)
        np.copyto(t, top, where=(idx[:j] == t).any(axis=0))
        idx[j] = t
    return rng.permuted(idx.T, axis=1)


AliasTable = tuple[int, np.ndarray, np.ndarray]  # (t_M, keep, alias)


def _alias_table(sizes: Sequence[int]) -> AliasTable:
    """Exact integer alias table (Walker 1977, Vose 1991) for drawing unit j
    with probability sizes[j] / t_M: (t_M, keep, alias).

    Each of the N columns holds t_M units of mass, N * t_M in all, of which
    unit j gets sizes[j] * N: keep[i] in its own column i and t_M - keep[c]
    in every column c with alias[c] == j.  The mass is whole numbers, so the
    pairing ends with every open column exactly full and the draw is exact.
    Time and memory are O(N), whatever t_M is.
    """
    count, total = len(sizes), sum(sizes)
    if count * total > np.iinfo(np.int64).max:
        raise ValueError(
            f"size measures too large for the PPS-WR draw: N * t_M = {count} * {total} "
            "exceeds the int64 range"
        )
    mass = [z * count for z in sizes]
    keep, alias = [total] * count, list(range(count))
    small = [j for j, m in enumerate(mass) if m < total]
    large = [j for j, m in enumerate(mass) if m >= total]
    while small:
        s, g = small.pop(), large.pop()
        keep[s], alias[s] = mass[s], g
        mass[g] -= total - mass[s]
        (small if mass[g] < total else large).append(g)
    return total, np.array(keep, dtype=np.int64), np.array(alias, dtype=np.int64)


def _alias_indices(
    rng: np.random.Generator, table: AliasTable, shape: tuple[int, ...]
) -> np.ndarray:
    """Independent draws from an _alias_table: column i uniform, then unit i
    if a uniform u in range(t_M) falls below keep[i], else alias[i]."""
    total, keep, alias = table
    idx = rng.integers(0, len(keep), size=shape)
    moved = rng.integers(0, total, size=shape) >= keep[idx]
    # idx += moved * (alias[idx] - idx), in place.  Branch-free arithmetic is
    # faster than a masked copy on a random mask and allocates no more.
    step = alias[idx]
    step -= idx
    step *= moved
    idx += step
    return idx


def _block_values(
    spec: EstimatorSpec,
    values: np.ndarray,
    rng: np.random.Generator,
    size: int,
    table: Optional[AliasTable],
) -> np.ndarray:
    """Estimates of size trials, each drawing its n indices: the per-draw path."""
    if table is not None:
        idx = _alias_indices(rng, table, (size, spec.n))
    elif spec.replacement:
        idx = rng.integers(0, spec.universe, size=(size, spec.n))
    else:
        idx = _wor_indices(rng, size, spec.universe, spec.n)
    return estimators.estimates(values[idx], spec.group_sizes)


def _tabulated_outcomes(spec: EstimatorSpec, trials: int) -> Optional[int]:
    """The number K of the design's ordered outcomes if simulate_blocks draws
    each trial from a table of them, else None.

    K must be at most _TABLE_CAP and trials at least _TABLE_RATIO * K.  For
    pps_wr, K must be at most _PPS_WR_TABLE_CAP instead, and K * t_M^n must
    fit in int64, the bound of the exact alias draw over the outcomes'
    masses.  K is multiplied out only until it passes the cap, since the
    full count of a large design can run to thousands of digits; a universe
    of 1 has a single outcome whatever n is."""
    weighted = spec.weight_sizes is not None
    cap = min(_PPS_WR_TABLE_CAP if weighted else _TABLE_CAP, trials // _TABLE_RATIO)
    if cap < 1:
        return None
    count = 1
    for k in range(spec.n if spec.universe > 1 else 0):
        count *= spec.universe if spec.replacement else spec.universe - k
        if count > cap:
            return None
    if weighted:
        total = sum(spec.weight_sizes)
        # total^63 alone passes the int64 range for any total > 1.
        if total > 1 and (spec.n >= 63 or count * total**spec.n > np.iinfo(np.int64).max):
            return None
    return count


def _outcome_table(
    spec: EstimatorSpec, values: np.ndarray, count: int
) -> tuple[np.ndarray, Optional[AliasTable]]:
    """(estimates, alias) over the design's count ordered outcomes, which are
    itertools.permutations(range(U), n) without replacement and
    itertools.product(range(U), repeat=n) with it, in that order.

    estimates[k] is the estimator on outcome k.  All outcomes are equally
    likely except under pps_wr, where alias is an _alias_table over their
    integer masses prod Z_i; these sum to t_M^n, so the draw stays exact.
    The outcomes are evaluated in chunks of at most CHUNK_ELEMENTS // n."""
    n, units = spec.n, range(spec.universe)
    outcomes = (
        itertools.product(units, repeat=n) if spec.replacement
        else itertools.permutations(units, n)
    )
    sizes = None if spec.weight_sizes is None else np.array(spec.weight_sizes, dtype=np.int64)
    table, masses = np.empty(count), []
    step = max(1, CHUNK_ELEMENTS // n)
    for start in range(0, count, step):
        chunk = itertools.islice(outcomes, step)
        idx = np.fromiter(itertools.chain.from_iterable(chunk), dtype=np.intp).reshape(-1, n)
        table[start : start + len(idx)] = estimators.estimates(values[idx], spec.group_sizes)
        if sizes is not None:
            masses += sizes[idx].prod(axis=1).tolist()
    return table, None if sizes is None else _alias_table(masses)


def _table_values(
    table: np.ndarray, alias: Optional[AliasTable], rng: np.random.Generator, size: int
) -> np.ndarray:
    """Estimates of size trials, each one outcome code and one table lookup."""
    if alias is None:
        return table[rng.integers(0, len(table), size=size)]
    return table[_alias_indices(rng, alias, (size,))]


def _chunk_draw(
    spec: EstimatorSpec, trials: int
) -> tuple[Callable[[np.random.Generator, int], np.ndarray], int]:
    """The per-run choice of how simulate_blocks draws a chunk of trials:
    (draw, width), where draw(rng, size) returns size estimates and width is
    the widest per-trial temporary, which sets the chunk size.

    A design with few ordered outcomes is tabulated once (_tabulated_outcomes)
    and a trial is one code: width 1.  Otherwise each trial draws its n
    indices: by the alias table over units for pps_wr, uniformly with
    replacement, or by _wor_indices, whose key sort holds universe keys."""
    values = np.asarray(spec.values, dtype=float)
    count = _tabulated_outcomes(spec, trials)
    if count is not None:
        return functools.partial(_table_values, *_outcome_table(spec, values, count)), 1
    alias = None if spec.weight_sizes is None else _alias_table(spec.weight_sizes)
    sorts_keys = not spec.replacement and _sorts_keys(spec.universe, spec.n)
    draw = functools.partial(_block_values, spec, values, table=alias)
    return draw, spec.universe if sorts_keys else spec.n


def _block_sizes(trials: int) -> list[int]:
    blocks = min(NUM_BLOCKS, trials)
    base, rem = divmod(trials, blocks)
    return [base + 1 if b < rem else base for b in range(blocks)]


def _run_arguments(trials: int, seed: int) -> tuple[int, int]:
    """trials >= 1 and seed >= 0 as exact ints (as_index): checked where a run starts."""
    trials, seed = as_index(trials, "trials"), as_index(seed, "seed")
    _require(trials >= 1, f"trials must be >= 1, got {trials}")
    _require(seed >= 0, f"seed must be >= 0, got {seed}")
    return trials, seed


def simulate_blocks(
    inst: Instance, config: DesignConfig, trials: int, seed: int
) -> list[tuple[int, float, float]]:
    """Per-block (count, mean, sum of squared deviations) accumulators.

    Block b draws from a stream derived deterministically from (seed, b), so
    any execution order reproduces the same accumulators.  How a trial is
    drawn is chosen once per run (_chunk_draw): a design with at most
    min(_TABLE_CAP, trials // _TABLE_RATIO) ordered outcomes
    (_PPS_WR_TABLE_CAP for pps_wr) is tabulated first, and each trial is
    then one outcome code and one lookup; any other
    design draws n indices per trial.  Each block is drawn in chunks whose
    widest per-trial temporary (one code on the table path, universe keys on
    the key-sort path, n indices otherwise) holds at most CHUNK_ELEMENTS
    elements, so memory does not grow with trials.  An estimate or moment
    out of the float range is refused with a ValueError.
    """
    trials, seed = _run_arguments(trials, seed)
    spec = estimator_spec(inst, config)
    with estimators._float_traps():
        draw, width = _chunk_draw(spec, trials)
    step = max(1, CHUNK_ELEMENTS // width)
    out = []
    for b, size in enumerate(_block_sizes(trials)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        rows = (min(step, size - start) for start in range(0, size, step))
        out.append(_fold(_moments(draw(rng, r)) for r in rows))
    return out


def _empirical(blocks: list[tuple[int, float, float]]) -> dict:
    """Merged mean and variance of simulate_blocks accumulators, with the
    standard error of the mean and, from the spread of the per-block
    variances, of the variance (None where too few trials give none)."""
    count, mean, m2 = _fold(blocks)
    variance = m2 / (count - 1) if count > 1 else 0.0
    block_vars = [b_m2 / (b_n - 1) for b_n, _, b_m2 in blocks if b_n > 1]
    se_var = None
    if len(block_vars) > 1:
        bv_mean = math.fsum(block_vars) / len(block_vars)
        bv_spread = math.fsum((v - bv_mean) ** 2 for v in block_vars) / (len(block_vars) - 1)
        se_var = math.sqrt(bv_spread / len(block_vars))
    return {
        "mean": mean,
        "variance": variance,
        "trials": count,
        "standard_error_mean": math.sqrt(variance / count) if count > 1 else None,
        "standard_error_variance": se_var,
    }


@dataclass(frozen=True)
class MomentReport:
    """Theoretical vs. enumerated vs. Monte Carlo moments with verdicts."""

    estimator_tag: str
    estimand: str
    design: str
    theoretical: dict
    enumerated: Optional[dict]
    empirical: dict
    normalizations: Optional[dict]
    tolerances: dict
    checks: dict
    skipped: dict  # check name -> why it is None
    verdict: bool
    rng_stream: int = RNG_STREAM

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def run_monte_carlo(
    inst: Instance,
    config: DesignConfig,
    trials: int,
    seed: int,
    tolerances: Tolerances = Tolerances(),
) -> MomentReport:
    """Seeded Monte Carlo check of an estimator's moments.

    Empirical mean and variance must land within se_multiplier standard
    errors of the theoretical values; when the instance is small enough the
    enumeration oracle is run as well and compared at the oracle tolerance.
    """
    spec = estimator_spec(inst, config)
    theo = _closed_form(inst, spec)
    empirical = _empirical(simulate_blocks(inst, config, trials, seed))
    mean, variance = empirical["mean"], empirical["variance"]
    se_mean = empirical["standard_error_mean"]
    se_var = empirical["standard_error_variance"]

    try:
        enum, refused = enumerate_moments(inst, config), None
    except EnumerationLimitError as exc:
        enum, refused = None, str(exc)

    k = tolerances.se_multiplier
    no_variance = None if theo.variance is not None else "the estimator has no closed-form variance"
    reasons = {
        "empirical_mean_within_band":
            None if se_mean is not None else "a standard error needs two or more trials",
        "empirical_variance_within_band": no_variance or (
            None if se_var is not None else "fewer than two blocks hold two or more trials "
            f"(trials < {NUM_BLOCKS + 2})"
        ),
        "enumerated_mean_matches": refused,
        "enumerated_variance_matches": refused or no_variance,
    }
    tests = {
        "empirical_mean_within_band": lambda: abs(mean - theo.mean) <= k * se_mean,
        "empirical_variance_within_band": lambda: abs(variance - theo.variance) <= k * se_var,
        "enumerated_mean_matches": lambda: tolerances.close(enum.mean, theo.mean),
        "enumerated_variance_matches": lambda: tolerances.close(enum.variance, theo.variance),
    }
    checks = {name: None if reasons[name] else test() for name, test in tests.items()}
    # A band skipped for lack of trials fails the verdict; only a variance
    # with no closed form may go unchecked.  With the mean band evaluated,
    # at least one check ran.
    too_few_trials = se_mean is None or (theo.variance is not None and se_var is None)
    verdict = not too_few_trials and all(v for v in checks.values() if v is not None)

    if spec.estimand == "mean":
        normalizations = {"mean": mean, "total": mean * inst.population.size}
    elif spec.estimand == "total":
        normalizations = {"total": mean, "mean": mean / inst.population.size}
    else:
        normalizations = None

    return MomentReport(
        estimator_tag=spec.tag,
        estimand=spec.estimand,
        design=config.design,
        theoretical={"mean": theo.mean, "variance": theo.variance},
        enumerated=None if enum is None else {"mean": enum.mean, "variance": enum.variance},
        empirical=empirical,
        normalizations=normalizations,
        tolerances=tolerances.to_dict(),
        checks=checks,
        skipped={name: why for name, why in reasons.items() if why},
        verdict=bool(verdict),
    )


# ---------------------------------------------------------------------------
# Relative efficiency (WOR vs WR).

# Each sample design's (without replacement, with replacement) pair.
_PAIRS = {d: pair for pair in (("srs", "srs_wr"), ("pps_wor", "pps_wr"), ("acs", "acs_wr"))
          for d in pair}

# A variance is zero up to rounding when its square root is at most this share
# of the largest |transformed value| (some 4500 ulps), the scale of its rounding.
DEGENERATE_SPREAD = 1e-12


@dataclass(frozen=True)
class RelativeEfficiencyReport:
    """Observed WOR/WR variance ratio against the predicted correction."""

    design_pair: tuple[str, str]
    estimator_tag: str
    method: str  # "enumeration" | "monte_carlo"
    wor_variance: float
    wr_variance: float
    ratio: Optional[float]
    predicted_fpc: float
    effective_population_size: int
    sample_size: int
    tolerances: dict
    verdict: bool
    rng_stream: int = RNG_STREAM

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "design_pair": list(self.design_pair)}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def relative_efficiency(
    inst: Instance,
    config: DesignConfig,
    tolerances: Tolerances = Tolerances(),
    trials: Optional[int] = None,
    seed: Optional[int] = None,
) -> RelativeEfficiencyReport:
    """Compare the enumerated (preferred) or Monte Carlo WOR/WR variance
    ratio against the predicted finite population correction."""
    _require(config.group_sizes is None, "random-group configs have no WR/WOR pairing")
    wor_name, wr_name = _PAIRS[_sample_design(config)]
    wor_cfg, wr_cfg = (dataclasses.replace(config, design=name) for name in (wor_name, wr_name))
    spec_wor = estimator_spec(inst, wor_cfg)
    predicted = fpc(spec_wor.n, spec_wor.universe)

    se_wor = se_wr = None
    try:
        var_wor = enumerate_moments(inst, wor_cfg).variance
        var_wr = enumerate_moments(inst, wr_cfg).variance
        method = "enumeration"
    except EnumerationLimitError:
        if seed is None or trials is None:
            raise
        trials, seed = _run_arguments(trials, seed)
        # The same draws run_monte_carlo makes at these seeds, without its
        # oracle try and its bands, which this report does not use.
        emp_wor = _empirical(simulate_blocks(inst, wor_cfg, trials, seed))
        emp_wr = _empirical(simulate_blocks(inst, wr_cfg, trials, seed + 1))
        var_wor, se_wor = emp_wor["variance"], emp_wor["standard_error_variance"]
        var_wr, se_wr = emp_wr["variance"], emp_wr["standard_error_variance"]
        if se_wor is None or se_wr is None:
            raise ValueError(
                f"trials={trials} is too few for the Monte Carlo fallback: the standard error "
                "of a variance needs at least two blocks with two or more trials each "
                f"(trials >= {NUM_BLOCKS + 2})"
            )
        method = "monte_carlo"

    zero_sd = DEGENERATE_SPREAD * max(map(abs, spec_wor.values))
    if math.sqrt(var_wr) <= zero_sd:
        ratio = None
        verdict = math.sqrt(var_wor) <= zero_sd
    else:
        ratio = var_wor / var_wr
        if method == "enumeration" or math.sqrt(var_wor) <= zero_sd:
            verdict = tolerances.close(ratio, predicted)
        else:
            se_ratio = abs(ratio) * math.sqrt(
                (se_wor / var_wor) ** 2 + (se_wr / var_wr) ** 2
            )
            verdict = abs(ratio - predicted) <= tolerances.se_multiplier * se_ratio

    return RelativeEfficiencyReport(
        design_pair=(wor_name, wr_name),
        estimator_tag=spec_wor.tag,
        method=method,
        wor_variance=var_wor,
        wr_variance=var_wr,
        ratio=ratio,
        predicted_fpc=predicted,
        effective_population_size=spec_wor.universe,
        sample_size=spec_wor.n,
        tolerances=tolerances.to_dict(),
        verdict=bool(verdict),
    )
