"""Design configs, instances, the seeded, block-deterministic Monte Carlo
harness and the reports comparing both engines with the closed forms.  The
enumeration oracle is `finpop.oracle`, re-exported here.  `estimator_spec`
only resolves; `_closed_form` alone evaluates the closed forms, behind
`theoretical_moments` and once per `run_monte_carlo`."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import estimators
# The oracle; its public names are re-exported from here.
from .oracle import (
    CHUNK_ELEMENTS, ENUMERATION_LIMIT, EnumerationLimitError, EstimatorSpec, Moments, _fold,
    _merge_moments, _moments, _ordered_outcomes, count_distributions_upto, count_moments,
    enumerate_count_distribution, exact_moments,
)
from .population import (
    Adjacency, ClassifiedPopulation, NetworkPartition, Population, SizeWeights, _trusted,
    as_index, as_indices, as_reals, check_covers, compute_networks, extend_pps, flatten_networks,
    pps_ratios, sample_size,
)
from .distributions import fpc

NUM_BLOCKS = 100
# Version of the Monte Carlo draws a seed produces; reports carry it.
# 1: the original samplers; 2: Floyd sampling for WOR draws with N > 4n;
# 3: the exact integer alias draw for PPS with replacement; 4: blocks drawn
# in chunks of at most CHUNK_ELEMENTS; 5: designs with few ordered outcomes
# draw one outcome code per trial from a table of them; 6: pps_wr tabulates
# over its t_M extended positions.
RNG_STREAM = 6
# A run tabulates its design's ordered outcomes when there are at most
# _TABLE_CAP of them (512 KiB of float64 estimates) and the run has at least
# _TABLE_RATIO trials per outcome to pay for building the table.
_TABLE_CAP = 1 << 16
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
        _check_object(m, "design config", {"design", "n", "n1", "group_sizes"})
        _require("design" in m, "design config requires a 'design' key")
        return cls(m["design"], m.get("n"), m.get("n1"), m.get("group_sizes"))


def _check_object(m: Mapping, what: str, keys: set[str]) -> None:
    """Refuse m unless it is a JSON object whose keys are all among keys."""
    _require(isinstance(m, Mapping), f"{what} must be a JSON object, got {type(m).__name__}")
    extra = set(m) - keys
    _require(not extra, f"unknown {what} keys: {sorted(extra)}")


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
        _check_object(m, "population",
                      {"values", "sizes", "adjacency", "threshold", "subgroup_sizes"})
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
            check_covers(pop, len(rows))
            # A NaN or +inf threshold would make every unit its own network
            # without a word; a finite threshold above the values says so.
            (threshold,) = as_reals((m["threshold"],), "threshold")
            partition = compute_networks(pop, Adjacency(rows), threshold)
        else:
            _require(m.get("threshold") is None, "threshold is read only with adjacency")
        return cls(pop, weights, partition, classified)

    # Each transformed population is built on first use and kept, so that a
    # run resolving its design several times builds it once.  The builders
    # are looked up in this module when called, where a caller may wrap them.
    @cached_property
    def extended(self) -> Population:
        """The PPS extended population of the values and size weights."""
        return extend_pps(self.population, self.weights)

    @cached_property
    def flattened(self) -> Population:
        """The ACS flattened population of the values and network partition."""
        return flatten_networks(self.population, self.partition)


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

    if design.startswith("srs"):
        tag, values, sizes = "sample_mean" if groups is None else "rg_variance", pop.values, None
    elif design.startswith("acs"):
        tag, values, sizes = "acs_mean", inst.flattened.values, None
    elif replacement:
        tag, values, sizes = "hh_total", pps_ratios(pop, w, range(pop.size)), w.sizes
    else:
        tag, values, sizes = "hh_total", inst.extended.values, None
    return EstimatorSpec(tag, universe, n, replacement, values, sizes, groups)


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
    """Whether a run without replacement draws n of universe by key sort
    rather than by Floyd; _chunk_draw alone asks."""
    return universe <= 4 * n


def _key_sort_indices(rng: np.random.Generator, size: int, universe: int, n: int) -> np.ndarray:
    """(size, n) array whose rows are independent uniform ordered draws of n
    distinct indices from range(universe), by sorting universe random keys
    per row: fastest up to universe = 4n, where it costs O(n log n)."""
    keys = rng.random((size, universe))
    return np.argsort(keys, axis=1)[:, :n]


def _floyd_indices(rng: np.random.Generator, size: int, universe: int, n: int) -> np.ndarray:
    """Rows drawn as by _key_sort_indices, by batched Floyd sampling (Bentley
    & Floyd, CACM 1987): each row's n-subset in n vectorized steps, then a
    per-row permutation makes the order uniform too, which random groups
    need.  Floyd fills a draw-major (n, size) buffer, so each step reads and
    writes contiguous rows."""
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


def _tabulated_outcomes(universe: int, n: int, replacement: bool, trials: int) -> Optional[int]:
    """The number K of ordered outcomes of n draws from universe if
    simulate_blocks draws each trial from a table of them, else None.

    K must be at most _TABLE_CAP and trials at least _TABLE_RATIO * K.  K is
    counted by oracle._ordered_outcomes, only until it passes the cap."""
    cap = min(_TABLE_CAP, trials // _TABLE_RATIO)
    count = _ordered_outcomes(universe, n, replacement, cap)
    return None if count > cap else count


def _outcome_table(spec: EstimatorSpec, values: np.ndarray, count: int) -> np.ndarray:
    """The estimator on each of the count ordered outcomes of spec.n draws
    from range(U), U = len(values): itertools.permutations(range(U), n)
    without replacement and itertools.product(range(U), repeat=n) with it,
    in that order.  The outcomes are evaluated in chunks of at most
    CHUNK_ELEMENTS // n."""
    n, units = spec.n, range(len(values))
    outcomes = (
        itertools.product(units, repeat=n) if spec.replacement
        else itertools.permutations(units, n)
    )
    table = np.empty(count)
    step = max(1, CHUNK_ELEMENTS // n)
    for start in range(0, count, step):
        chunk = itertools.islice(outcomes, step)
        idx = np.fromiter(itertools.chain.from_iterable(chunk), dtype=np.intp).reshape(-1, n)
        table[start : start + len(idx)] = estimators.estimates(values[idx], spec.group_sizes)
    return table


def _chunk_draw(
    spec: EstimatorSpec, trials: int
) -> tuple[Callable[[np.random.Generator, int], np.ndarray], int]:
    """The one choice of how a simulate_blocks run draws: (draw, width), one
    of five kernels bound for the whole run.  draw(rng, size) returns size
    estimates; width, the widest per-trial temporary, sets the chunk size.

    A design with few ordered outcomes (_tabulated_outcomes) is tabulated
    once, and a trial is one uniform code: width 1.  The table's universe is
    the spec's, except for pps_wr: that is SRS with replacement over its t_M
    extended positions, unit i owning Z_i of them, so its ordered tuples of
    positions are equally likely.  Otherwise a trial draws n indices: by the
    alias table over units for pps_wr, uniformly with replacement, or by key
    sort (universe keys wide) or Floyd."""
    values = np.asarray(spec.values, dtype=float)
    n, universe, groups, sizes = spec.n, spec.universe, spec.group_sizes, spec.weight_sizes
    table_universe = universe if sizes is None else sum(sizes)
    count = _tabulated_outcomes(table_universe, n, spec.replacement, trials)
    if count is not None:
        if sizes is not None:
            weights = _trusted(SizeWeights, sizes=sizes)  # the spec took them from a SizeWeights
            values = values[list(weights.units_of(range(table_universe)))]
        table = _outcome_table(spec, values, count)
        return lambda rng, size: table[rng.integers(0, count, size=size)], 1
    width = n
    if sizes is not None:
        units = _alias_table(sizes)
        indices = lambda rng, size: _alias_indices(rng, units, (size, n))
    elif spec.replacement:
        indices = lambda rng, size: rng.integers(0, universe, size=(size, n))
    elif _sorts_keys(universe, n):
        indices, width = (lambda rng, size: _key_sort_indices(rng, size, universe, n)), universe
    else:
        indices = lambda rng, size: _floyd_indices(rng, size, universe, n)
    return lambda rng, size: estimators.estimates(values[indices(rng, size)], groups), width


def _block_sizes(trials: int) -> list[int]:
    blocks = min(NUM_BLOCKS, trials)
    base, rem = divmod(trials, blocks)
    return [base + 1 if b < rem else base for b in range(blocks)]


# The least value of each argument a Monte Carlo run takes.
_RUN_FLOORS = {"trials": 1, "seed": 0}


def _run_argument(name: str, value: int) -> int:
    """A run's trials (>= 1) or seed (>= 0) as an exact int (as_index)."""
    value, floor = as_index(value, name), _RUN_FLOORS[name]
    _require(value >= floor, f"{name} must be >= {floor}, got {value}")
    return value


def _run_arguments(trials: int, seed: int) -> tuple[int, int]:
    """trials and seed by _run_argument: checked where a run starts."""
    return _run_argument("trials", trials), _run_argument("seed", seed)


def simulate_blocks(
    inst: Instance, config: DesignConfig, trials: int, seed: int
) -> list[tuple[int, float, float]]:
    """Per-block (count, mean, sum of squared deviations) accumulators.

    Block b draws from a stream derived deterministically from (seed, b), so
    any execution order reproduces the same accumulators.  How a trial is
    drawn is chosen once per run (_chunk_draw): a design with at most
    min(_TABLE_CAP, trials // _TABLE_RATIO) ordered outcomes (of t_M
    positions for pps_wr) is tabulated first, and each trial is then one
    outcome code and one lookup; any other design draws n indices per trial.
    Each block is drawn in chunks whose widest per-trial temporary (one code
    on the table path, universe keys on the key-sort path, n indices
    otherwise) holds at most CHUNK_ELEMENTS elements, so memory does not
    grow with trials.  An estimate or moment out of the float range is
    refused with a ValueError.
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


# What each estimator tag estimates.
_ESTIMANDS = {"sample_mean": "mean", "acs_mean": "mean", "hh_total": "total",
              "rg_variance": "population_variance"}


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

    estimand = _ESTIMANDS[spec.tag]
    if estimand == "mean":
        normalizations = {"mean": mean, "total": mean * inst.population.size}
    elif estimand == "total":
        normalizations = {"total": mean, "mean": mean / inst.population.size}
    else:
        normalizations = None

    return MomentReport(
        estimator_tag=spec.tag,
        estimand=estimand,
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
    ratio against the predicted finite population correction.  A trials or
    seed that is given is checked before the method is picked, so a bad one
    is refused even where enumeration leaves it unused."""
    _require(config.group_sizes is None, "random-group configs have no WR/WOR pairing")
    trials = None if trials is None else _run_argument("trials", trials)
    seed = None if seed is None else _run_argument("seed", seed)
    wor_name, wr_name = _PAIRS[_sample_design(config)]
    wor_cfg, wr_cfg = (dataclasses.replace(config, design=name) for name in (wor_name, wr_name))
    spec_wor = estimator_spec(inst, wor_cfg)
    predicted = fpc(spec_wor.n, spec_wor.universe)

    se_wor = se_wr = None
    try:
        var_wor = enumerate_moments(inst, wor_cfg).variance
        var_wr = enumerate_moments(inst, wr_cfg).variance
        method = "enumeration"
    except EnumerationLimitError as exc:
        if seed is None or trials is None:
            raise EnumerationLimitError(
                f"{exc}; a seed and trials (--seed, --trials) run the Monte Carlo fallback"
            ) from exc
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
