"""The exact law of the public samplers, walked script by script.

Both verification engines start from `estimator_spec`'s transformed
population, so they check the algebra of SRS over it.  These tests check
the reduction itself on the path users call: each public sampler, driven by
`ScriptedRng` through every script of choices (each equally likely), gives
its estimator's exact law, whose mean and variance must equal the closed
forms (`theoretical_moments`) and the oracle (`enumerate_moments`)."""

import itertools
import math

import pytest

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
N, T_M = POP.size, WEIGHTS.total


def _srs(n, replacement):
    return lambda rng: sample_mean(POP, srs(N, n, replacement, rng))


def _pps(n, replacement):
    def estimate(rng):
        seq = pps_wr(WEIGHTS, n, rng) if replacement else pps_wor_extended(POP, WEIGHTS, n, rng)
        return hansen_hurvitz(POP, WEIGHTS, seq)
    return estimate


def _acs(n, replacement):
    return lambda rng: acs_mean(POP, PARTITION, acs(POP, PARTITION, n, replacement, rng))


def _groups(sizes):
    n = sum(sizes)
    return lambda rng: random_group_variance_estimate(
        POP, random_group_split(srs(N, n, False, rng), sizes))


# (config, one sample's estimate from an rng, universe the draws index, n, replacement)
CASES = [
    case
    for n in (2, 3)
    for replacement in (False, True)
    for case in (
        (DesignConfig("srs_wr" if replacement else "srs", n=n), _srs(n, replacement),
         N, n, replacement),
        (DesignConfig("pps_wr" if replacement else "pps_wor", n=n), _pps(n, replacement),
         T_M, n, replacement),
        (DesignConfig("acs_wr" if replacement else "acs", n1=n), _acs(n, replacement),
         N, n, replacement),
    )
] + [
    (DesignConfig("srs", group_sizes=sizes), _groups(sizes), N, sum(sizes), False)
    for sizes in ((1, 1), (2, 1))
]
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


@pytest.mark.parametrize("cfg, estimate, universe, n, replacement", CASES, ids=IDS)
def test_every_script_gives_the_closed_form_and_the_oracle(cfg, estimate, universe, n,
                                                          replacement):
    mean, variance = walk(estimate, universe, n, replacement)
    close = Tolerances().close
    theo, enum = theoretical_moments(INST, cfg), enumerate_moments(INST, cfg)
    assert close(mean, theo.mean) and close(mean, enum.mean)
    assert close(variance, enum.variance)
    assert theo.variance is None if cfg.group_sizes else close(variance, theo.variance)


@pytest.mark.parametrize("cfg, estimate, universe, n, replacement", WOR_CASES,
                         ids=[f"{c[0].design}-n{c[3]}" for c in WOR_CASES])
def test_every_wor_walk_fails_with_fpc_forced_to_one(monkeypatch, cfg, estimate, universe, n,
                                                     replacement):
    monkeypatch.setattr(estimators, "fpc", lambda n, N: 1.0)
    _, variance = walk(estimate, universe, n, replacement)
    assert not Tolerances().close(variance, theoretical_moments(INST, cfg).variance)
