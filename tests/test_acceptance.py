"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with -s to see them)."""

import itertools
import math
import time

import numpy as np
import pytest

from finpop import (
    ClassifiedPopulation,
    DesignConfig,
    Instance,
    NetworkPartition,
    Population,
    SizeWeights,
    enumerate_moments,
    flatten_networks,
    fpc,
    multinomial_pmf,
    mvhyper_pmf,
    rg_pair_expectation,
    run_monte_carlo,
)
from finpop.designs import DrawSequence, random_group_split
from finpop.estimators import random_group_variance_estimate
from finpop.verify import count_distributions_upto, count_moments, simulate_blocks

from conftest import compositions


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def count_grid():
    """One sweep over every classified population with N <= 12, K <= 4 and
    every 1 <= n <= N, collecting the worst-case deviations needed by the
    covariance-identity and pmf criteria.  The identity portion is timed."""
    identity_dev = 0.0
    pmf_sum_dev = 0.0
    pmf_point_dev = 0.0
    cases = 0
    identity_seconds = 0.0
    for N in range(1, 13):
        for K in range(1, min(4, N) + 1):
            for sizes in compositions(N, K):
                cp = ClassifiedPopulation(sizes)
                t0 = time.monotonic()
                wor = count_distributions_upto(cp, N, replacement=False)
                wr = count_distributions_upto(cp, N, replacement=True)
                for n in range(1, N + 1):
                    _, cov_wor = count_moments(wor[n - 1])
                    _, cov_wr = count_moments(wr[n - 1])
                    dev = float(np.max(np.abs(cov_wor - cov_wr * fpc(n, N))))
                    identity_dev = max(identity_dev, dev)
                    cases += 1
                identity_seconds += time.monotonic() - t0
                props = cp.proportions
                for n in range(1, N + 1):
                    s = math.fsum(mvhyper_pmf(c, cp) for c in wor[n - 1])
                    pmf_sum_dev = max(pmf_sum_dev, abs(s - 1.0))
                    for counts, p in wor[n - 1].items():
                        pmf_point_dev = max(
                            pmf_point_dev, abs(mvhyper_pmf(counts, cp) - p)
                        )
                    s = math.fsum(multinomial_pmf(c, props) for c in wr[n - 1])
                    pmf_sum_dev = max(pmf_sum_dev, abs(s - 1.0))
                    for counts, p in wr[n - 1].items():
                        pmf_point_dev = max(
                            pmf_point_dev, abs(multinomial_pmf(counts, props) - p)
                        )
    return {
        "identity_dev": identity_dev,
        "identity_seconds": identity_seconds,
        "pmf_sum_dev": pmf_sum_dev,
        "pmf_point_dev": pmf_point_dev,
        "cases": cases,
    }


def test_criterion_1_covariance_identity(count_grid):
    ok = count_grid["identity_dev"] <= 1e-10 and count_grid["identity_seconds"] < 10.0
    report(
        "criterion 1: WOR count covariance = WR covariance x fpc on the full grid",
        ok,
        f"max |delta| = {count_grid['identity_dev']:.3g} over "
        f"{count_grid['cases']} cases in {count_grid['identity_seconds']:.2f}s",
    )


def test_criterion_2_srs():
    inst = Instance(population=Population((1, 2, 3, 4, 5)))
    var_wor = enumerate_moments(inst, DesignConfig("srs", n=2)).variance
    var_wr = enumerate_moments(inst, DesignConfig("srs_wr", n=2)).variance
    ok = (
        abs(var_wor - 0.75) <= 1e-12
        and abs(var_wr - 1.0) <= 1e-12
        and abs(var_wor / var_wr - fpc(2, 5)) <= 1e-12
    )
    report(
        "criterion 2: SRS enumerated variances 0.75 (WOR), 1.0 (WR), ratio fpc(2,5)",
        ok,
        f"wor={var_wor!r} wr={var_wr!r}",
    )


def test_criterion_3_pps():
    inst = Instance(population=Population((2, 2, 3)), weights=SizeWeights((1, 2, 3)))
    var_wr = enumerate_moments(inst, DesignConfig("pps_wr", n=2)).variance
    var_wor = enumerate_moments(inst, DesignConfig("pps_wor", n=2)).variance
    prop = Instance(population=Population((1, 2, 3)), weights=SizeWeights((1, 2, 3)))
    var_prop = enumerate_moments(prop, DesignConfig("pps_wor", n=2)).variance
    ok = (
        abs(var_wr - 2.5) <= 1e-10
        and abs(var_wor - 2.0) <= 1e-10
        and abs(var_wor / var_wr - fpc(2, 6)) <= 1e-10
        and var_prop == 0.0
    )
    report(
        "criterion 3: PPS enumerated variances 2.5 (WR), 2.0 (ext. WOR), ratio fpc(2,6);"
        " proportional case exactly 0",
        ok,
        f"wr={var_wr!r} wor={var_wor!r} proportional={var_prop!r}",
    )


def test_criterion_4_acs():
    pop = Population((1, 3, 5))
    inst = Instance(
        population=pop, partition=NetworkPartition.from_assignment(pop, [0, 0, 1])
    )
    var_wr = enumerate_moments(inst, DesignConfig("acs_wr", n1=2)).variance
    var_wor = enumerate_moments(inst, DesignConfig("acs", n1=2)).variance
    moments_ok = (
        abs(var_wr - 1.0) <= 1e-10
        and abs(var_wor - 0.5) <= 1e-10
        and abs(var_wor / var_wr - fpc(2, 3)) <= 1e-10
    )
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        p = Population(tuple(rng.normal(0.0, 10.0, size=n)))
        labels = rng.integers(0, max(1, n // 2) + 1, size=n)
        part = NetworkPartition.from_assignment(p, labels.tolist())
        flat = flatten_networks(p, part)
        rel = abs(flat.mean - p.mean) / max(1.0, abs(p.mean))
        worst = max(worst, rel)
    ok = moments_ok and worst <= 1e-12
    report(
        "criterion 4: ACS enumerated variances 1.0 (WR), 0.5 (WOR), ratio fpc(2,3);"
        " flattening preserves the mean on 1000 random cases",
        ok,
        f"wr={var_wr!r} wor={var_wor!r} worst mean drift={worst:.3g}",
    )


def test_criterion_5_random_group():
    populations = {
        2: [(1.0, 4.0), (0.7, -1.2)],
        3: [(1.0, 2.0, 4.0), (0.7, -1.2, 3.4)],
        4: [(1.0, 2.0, 3.0, 4.0), (0.7, -1.2, 3.4, 2.0)],
        5: [(1.0, 2.0, 3.0, 4.0, 5.0), (0.7, -1.2, 3.4, 2.0, -0.3)],
        6: [(1.0, 2.0, 3.0, 4.0, 6.0, 9.0), (0.7, -1.2, 3.4, 2.0, -0.3, 1.9)],
    }
    t0 = time.monotonic()
    worst_unbiased = 0.0
    worst_pair = 0.0
    checked = 0
    for N, pops in populations.items():
        for values in pops:
            pop = Population(values)
            s2 = pop.s_squared
            for n in range(2, N + 1):
                for K in range(2, n + 1):
                    for sizes in compositions(n, K):
                        perms = list(itertools.permutations(range(N), n))
                        estimates = []
                        pair_sq = {}
                        for perm in perms:
                            g = random_group_split(
                                DrawSequence(perm, False), sizes
                            )
                            estimates.append(random_group_variance_estimate(pop, g))
                            means = [
                                math.fsum(pop.values[i] for i in grp) / len(grp)
                                for grp in g.groups
                            ]
                            for a in range(K):
                                for b in range(a + 1, K):
                                    pair_sq.setdefault((a, b), []).append(
                                        (means[a] - means[b]) ** 2
                                    )
                        e_est = math.fsum(estimates) / len(estimates)
                        worst_unbiased = max(worst_unbiased, abs(e_est - s2))
                        for (a, b), sq in pair_sq.items():
                            expected = rg_pair_expectation(pop, sizes[a], sizes[b])
                            observed = math.fsum(sq) / len(sq)
                            worst_pair = max(worst_pair, abs(observed - expected))
                        checked += 1
    elapsed = time.monotonic() - t0
    ok = worst_unbiased <= 1e-10 and worst_pair <= 1e-10 and elapsed < 60.0
    report(
        "criterion 5: random-group estimator unbiased for S^2 and pair expectations"
        " match, all (n, sizes) with N <= 6",
        ok,
        f"max |E[est]-S^2| = {worst_unbiased:.3g}, max pair delta = {worst_pair:.3g}, "
        f"{checked} configs in {elapsed:.1f}s",
    )


def test_criterion_6_monte_carlo_concordance():
    pop5 = Instance(population=Population((1, 2, 3, 4, 5)))
    pps = Instance(population=Population((2, 2, 3)), weights=SizeWeights((1, 2, 3)))
    acs_pop = Population((1, 3, 5))
    acs_inst = Instance(
        population=acs_pop,
        partition=NetworkPartition.from_assignment(acs_pop, [0, 0, 1]),
    )
    cases = [
        (pop5, DesignConfig("srs", n=2)),
        (pop5, DesignConfig("srs_wr", n=2)),
        (pps, DesignConfig("pps_wr", n=2)),
        (pps, DesignConfig("pps_wor", n=2)),
        (acs_inst, DesignConfig("acs", n1=2)),
        (acs_inst, DesignConfig("acs_wr", n1=2)),
    ]
    t0 = time.monotonic()
    all_ok = True
    details = []
    for inst, cfg in cases:
        rep = run_monte_carlo(inst, cfg, 1_000_000, 20240817)
        enum = rep.enumerated
        se_m = rep.empirical["standard_error_mean"]
        se_v = rep.empirical["standard_error_variance"]
        within = (
            abs(rep.empirical["mean"] - enum["mean"]) <= 4 * se_m
            and abs(rep.empirical["variance"] - enum["variance"]) <= 4 * se_v
        )
        rerun = run_monte_carlo(inst, cfg, 1_000_000, 20240817)
        identical = rerun.to_dict() == rep.to_dict()
        blocks = simulate_blocks(inst, cfg, 1_000_000, 20240817)
        blocks_again = simulate_blocks(inst, cfg, 1_000_000, 20240817)
        all_ok = all_ok and within and identical and rep.verdict
        all_ok = all_ok and blocks == blocks_again
        details.append(f"{cfg.design}:{'ok' if within and identical else 'BAD'}")
    elapsed = time.monotonic() - t0
    ok = all_ok and elapsed < 120.0
    report(
        "criterion 6: 10^6-trial Monte Carlo within 4 SE of enumeration;"
        " same-seed reruns bit-identical",
        ok,
        f"{', '.join(details)}; {elapsed:.1f}s",
    )


def test_criterion_7_pmf_normalization_and_pointwise(count_grid):
    ok = count_grid["pmf_sum_dev"] <= 1e-10 and count_grid["pmf_point_dev"] <= 1e-12
    report(
        "criterion 7: pmfs normalize and match enumerated frequencies pointwise"
        " on the full grid",
        ok,
        f"max |sum-1| = {count_grid['pmf_sum_dev']:.3g}, "
        f"max pointwise delta = {count_grid['pmf_point_dev']:.3g}",
    )
