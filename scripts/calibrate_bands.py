#!/usr/bin/env python3
"""How often the Monte Carlo bands fail when the closed forms are right.

`run_monte_carlo` passes its empirical mean and variance when each lies
within `se_multiplier` standard errors of the closed form.  The closed forms
below are exact, so every failed band is a false fail.  For each case this
script runs `run_monte_carlo` at K consecutive seeds, counts each band's
failures and prints the false-fail rate with a two-sided 95% Clopper-Pearson
interval.  The random-group case has no closed-form variance, so its
variance band reads n/a.

    PYTHONPATH=src python scripts/calibrate_bands.py --seeds 200
    PYTHONPATH=src python scripts/calibrate_bands.py --seeds 3 --trials 20000 --json

The cases are the five N = 8 verify shapes of the benchmark's mc_narrow
workload, at its trial counts, and one shape that draws every trial's
indices (srs, N = 40, n = 6).  Their populations are fixed; only the seed
varies, from FIRST_SEED up.  --trials runs every case at one trial count
instead.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from finpop import DesignConfig, Instance, Tolerances, __version__, run_monte_carlo
from finpop.verify import RNG_STREAM

BANDS = ("empirical_mean_within_band", "empirical_variance_within_band")
FIRST_SEED = 1000


def _normal(r: random.Random, n: int) -> dict:
    return {"values": [round(r.gauss(10.0, 3.0), 6) for _ in range(n)]}


def _grid_2x4(r: random.Random) -> dict:
    """2 x 4 grid, 4-neighbour adjacency, one 1 x 2 cluster above the threshold."""
    values = [round(r.uniform(0.0, 0.5), 6) for _ in range(8)]
    values[0], values[1] = round(r.uniform(2.0, 20.0), 6), round(r.uniform(2.0, 20.0), 6)
    adjacency = [
        [j for j in (i - 4, i + 4, i - 1 if i % 4 else -1, i + 1 if i % 4 < 3 else -1)
         if 0 <= j < 8]
        for i in range(8)
    ]
    return {"values": values, "adjacency": adjacency, "threshold": 1.0}


def cases() -> list[tuple[str, Instance, DesignConfig, int]]:
    """(name, instance, design, trials) of each case, from a fixed seed."""
    r = random.Random(2021)
    sizes = [1, 1, 2, 2, 3, 3, 4, 4]
    r.shuffle(sizes)
    pps = {"values": [round(s * r.uniform(4.0, 6.0), 6) for s in sizes], "sizes": sizes}
    spec = [
        ("srs_wr_N8_n3", _normal(r, 8), {"design": "srs_wr", "n": 3}, 4_000_000),
        ("pps_wr_N8_n3", pps, {"design": "pps_wr", "n": 3}, 4_000_000),
        ("acs_wr_grid2x4_n1_2", _grid_2x4(r), {"design": "acs_wr", "n1": 2}, 4_000_000),
        ("srs_N8_n3", _normal(r, 8), {"design": "srs", "n": 3}, 1_000_000),
        ("rg_222_N8", _normal(r, 8), {"design": "srs", "group_sizes": [2, 2, 2]}, 1_000_000),
        ("srs_N40_n6", _normal(r, 40), {"design": "srs", "n": 6}, 500_000),
    ]
    return [(name, Instance.from_mapping(pop), DesignConfig.from_mapping(design), trials)
            for name, pop, design, trials in spec]


def _binomial_cdf(x: int, n: int, p: float) -> float:
    """P(X <= x) for X ~ Binomial(n, p), 0 < p < 1, summed in log space."""
    log_p, log_q = math.log(p), math.log1p(-p)
    terms = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * log_p + (n - k) * log_q
        for k in range(x + 1)
    )
    return min(1.0, math.fsum(math.exp(t) for t in terms))


def _bisect(f, target: float) -> float:
    """The p in (0, 1) where the decreasing f(p) crosses target."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) > target else (lo, mid)
    return (lo + hi) / 2


def clopper_pearson(x: int, n: int, alpha: float = 0.05) -> tuple[float, float]:
    """Two-sided 1 - alpha Clopper-Pearson interval for x successes in n trials."""
    lower = 0.0 if x == 0 else 1.0 - _bisect(lambda q: _binomial_cdf(n - x, n, q), alpha / 2)
    upper = 1.0 if x == n else _bisect(lambda p: _binomial_cdf(x, n, p), alpha / 2)
    return lower, upper


def calibrate(seeds: int, trials: int | None) -> list[dict]:
    rows = []
    for name, inst, cfg, case_trials in cases():
        runs = trials or case_trials
        fails = dict.fromkeys(BANDS, 0)
        checked = dict.fromkeys(BANDS, 0)
        for seed in range(FIRST_SEED, FIRST_SEED + seeds):
            checks = run_monte_carlo(inst, cfg, runs, seed, Tolerances()).checks
            for band in BANDS:
                if checks[band] is not None:
                    checked[band] += 1
                    fails[band] += not checks[band]
        for band in BANDS:
            row = {"case": name, "trials": runs, "band": band, "seeds": checked[band],
                   "fails": fails[band]}
            if checked[band]:
                row["rate"] = fails[band] / checked[band]
                row["clopper_pearson_95"] = list(clopper_pearson(fails[band], checked[band]))
            rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=200, help="seeds per case (K)")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials for every case (default: each case's own)")
    parser.add_argument("--json", action="store_true", help="print one JSON object instead")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    rows = calibrate(args.seeds, args.trials)
    header = {"finpop": __version__, "rng_stream": RNG_STREAM, "seeds": args.seeds,
              "first_seed": FIRST_SEED, "se_multiplier": Tolerances().se_multiplier}
    if args.json:
        print(json.dumps({**header, "rows": rows}))
        return 0
    print(" ".join(f"{key}={value}" for key, value in header.items()))
    print(f"{'case':<22}{'trials':>10}  {'band':<10}{'fails':>10}  {'rate':>8}  95% CI")
    for row in rows:
        band = row["band"].split("_")[1]
        if not row["seeds"]:
            print(f"{row['case']:<22}{row['trials']:>10}  {band:<10}{'n/a':>10}")
            continue
        low, high = row["clopper_pearson_95"]
        fails = f"{row['fails']}/{row['seeds']}"
        print(f"{row['case']:<22}{row['trials']:>10}  {band:<10}{fails:>10}  "
              f"{row['rate']:>8.4f}  [{low:.4f}, {high:.4f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
