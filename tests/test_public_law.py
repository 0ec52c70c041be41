"""The exact law of the public samplers, walked script by script.

Both verification engines start from `estimator_spec`'s transformed
population, so they check the algebra of SRS over it.  These tests check
the reduction itself on the path users call: each public sampler, driven by
`ScriptedRng` through every script of choices (each equally likely), gives
its estimator's exact law, whose mean and variance must equal the closed
forms (`theoretical_moments`) and the oracle (`enumerate_moments`): on one
fixed instance and on generated ones."""

import itertools
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finpop import (
    Adjacency, DesignConfig, Instance, Population, SizeWeights, Tolerances, acs, acs_mean,
    compute_networks, enumerate_moments, estimators, hansen_hurvitz, pps_wor_extended, pps_wr,
    random_group_split, random_group_variance_estimate, sample_mean, srs, theoretical_moments,
)

from conftest import ScriptedRng

pytestmark = pytest.mark.filterwarnings("error")

POP = Population((1, 3, 5, 2, 8))
WEIGHTS = SizeWeights((1, 2, 3, 1, 2))  # t_M = 9
# Units 1, 2 and 4 lie above the threshold and are linked through unit 2.
PARTITION = compute_networks(POP, Adjacency(((1,), (0, 2), (1, 3, 4), (2,), (2,))), 2.5)
INST = Instance(population=POP, weights=WEIGHTS, partition=PARTITION)


def _estimator(inst, design, n, group_sizes=None):
    """One sample's estimate from an rng, drawn by the public sampler of the
    design on inst and evaluated by its public estimator."""
    pop, weights, partition = inst.population, inst.weights, inst.partition
    replacement = design.endswith("_wr")
    if group_sizes:
        return lambda rng: random_group_variance_estimate(
            pop, random_group_split(srs(pop.size, n, False, rng), group_sizes))
    if design.startswith("srs"):
        return lambda rng: sample_mean(pop, srs(pop.size, n, replacement, rng))
    if design.startswith("acs"):
        return lambda rng: acs_mean(pop, partition, acs(pop, partition, n, replacement, rng))
    if replacement:
        return lambda rng: hansen_hurvitz(pop, weights, pps_wr(weights, n, rng))
    return lambda rng: hansen_hurvitz(pop, weights, pps_wor_extended(pop, weights, n, rng))


def _case(inst, design, n, group_sizes=None):
    """(config, one sample's estimate from an rng, universe the draws index, n, replacement)"""
    if design.startswith("acs"):
        cfg = DesignConfig(design, n1=n)
    else:
        cfg = DesignConfig(design, n=n, group_sizes=group_sizes)
    universe = inst.weights.total if design.startswith("pps") else inst.population.size
    return cfg, _estimator(inst, design, n, group_sizes), universe, n, design.endswith("_wr")


CASES = [
    _case(INST, design, n)
    for n in (2, 3)
    for design in ("srs", "pps_wor", "acs", "srs_wr", "pps_wr", "acs_wr")
] + [_case(INST, "srs", sum(sizes), sizes) for sizes in ((1, 1), (2, 1))]
IDS = [f"{cfg.design}-n{n}" + (f"-groups{cfg.group_sizes}" if cfg.group_sizes else "")
       for cfg, _, _, n, _ in CASES]
WOR_CASES = [case for case in CASES if not case[4] and case[0].group_sizes is None]


def walk(estimate, universe, n, replacement):
    """Exact mean and variance of the estimate over every script of choices:
    draw k picks uniformly among universe (with replacement) or universe - k
    (without) values."""
    bounds = [universe if replacement else universe - k for k in range(n)]
    values = [estimate(ScriptedRng(script))
              for script in itertools.product(*(range(b) for b in bounds))]
    mean = math.fsum(values) / len(values)
    return mean, math.fsum((v - mean) ** 2 for v in values) / len(values)


def assert_law(inst, cfg, mean, variance):
    """A walk's mean and variance equal the closed form and the oracle."""
    close = Tolerances().close
    theo, enum = theoretical_moments(inst, cfg), enumerate_moments(inst, cfg)
    assert close(mean, theo.mean) and close(mean, enum.mean)
    assert close(variance, enum.variance)
    assert theo.variance is None if cfg.group_sizes else close(variance, theo.variance)


@pytest.mark.parametrize("cfg, estimate, universe, n, replacement", CASES, ids=IDS)
def test_every_script_gives_the_closed_form_and_the_oracle(cfg, estimate, universe, n,
                                                          replacement):
    assert_law(INST, cfg, *walk(estimate, universe, n, replacement))


@pytest.mark.parametrize("cfg, estimate, universe, n, replacement", WOR_CASES,
                         ids=[f"{c[0].design}-n{c[3]}" for c in WOR_CASES])
def test_every_wor_walk_fails_with_fpc_forced_to_one(monkeypatch, cfg, estimate, universe, n,
                                                     replacement):
    monkeypatch.setattr(estimators, "fpc", lambda n, N: 1.0)
    _, variance = walk(estimate, universe, n, replacement)
    assert not Tolerances().close(variance, theoretical_moments(INST, cfg).variance)


halves = st.integers(-20, 20).map(lambda k: k / 2)


@st.composite
def instances(draw):
    """N <= 6 units with values, size measures (t_M <= 10) and a network
    partition from a random symmetric adjacency and threshold."""
    size = draw(st.integers(1, 6))
    values = draw(st.lists(halves, min_size=size, max_size=size))
    sizes = []
    for i in range(size):  # leaves each later unit a size of at least 1
        sizes.append(draw(st.integers(1, 10 - sum(sizes) - (size - 1 - i))))
    pairs = [pair for pair in itertools.combinations(range(size), 2) if draw(st.booleans())]
    rows = [[j for pair in pairs if i in pair for j in pair if j != i] for i in range(size)]
    pop = Population(values)
    partition = compute_networks(pop, Adjacency(rows), draw(halves))
    return Instance(population=pop, weights=SizeWeights(sizes), partition=partition)


@st.composite
def generated_cases(draw):
    """An instance and a case on it: a sample design with n <= 3, or random
    groups, two or more of them, of at most 3 units in all."""
    inst = draw(instances())
    choices = ["srs", "srs_wr", "pps_wr", "pps_wor", "acs", "acs_wr"]
    design = draw(st.sampled_from(choices + ["groups"] * (inst.population.size >= 2)))
    if design == "groups":
        sizes = draw(st.sampled_from([s for s in ((1, 1), (1, 2), (2, 1), (1, 1, 1))
                                      if sum(s) <= inst.population.size]))
        return inst, _case(inst, "srs", sum(sizes), sizes)
    n = draw(st.integers(1, 3))
    universe = inst.weights.total if design.startswith("pps") else inst.population.size
    return inst, _case(inst, design, n if design.endswith("_wr") else min(n, universe))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(generated_cases())
def test_every_script_on_a_generated_instance_gives_the_law(generated):
    # With fpc forced to 1 the closed form is the with-replacement variance:
    # every WOR walk of n >= 2 draws with a non-zero variance must miss it.
    inst, (cfg, estimate, universe, n, replacement) = generated
    mean, variance = walk(estimate, universe, n, replacement)
    assert_law(inst, cfg, mean, variance)
    close = Tolerances().close
    if not replacement and not cfg.group_sizes and n >= 2 and not close(variance, 0.0):
        with mock.patch.object(estimators, "fpc", lambda n, N: 1.0):
            assert not close(variance, theoretical_moments(inst, cfg).variance)
