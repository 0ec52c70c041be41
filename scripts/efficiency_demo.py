#!/usr/bin/env python3
"""Enumerate the WOR/WR variance ratio for the three worked designs and show
that each one equals the finite population correction at the appropriate
effective population size.  Exits 1 if any row fails."""

import sys

from finpop import (
    DesignConfig,
    Instance,
    NetworkPartition,
    Population,
    SizeWeights,
    relative_efficiency,
)


def main():
    pop5 = Instance(population=Population((1, 2, 3, 4, 5)))
    pps = Instance(population=Population((2, 2, 3)), weights=SizeWeights((1, 2, 3)))
    acs_pop = Population((1, 3, 5))
    acs = Instance(
        population=acs_pop,
        partition=NetworkPartition.from_assignment(acs_pop, [0, 0, 1]),
    )
    cases = [
        ("SRS, Y=(1..5), n=2", pop5, DesignConfig("srs", n=2)),
        ("PPS, Y=(2,2,3), M=(1,2,3), n=2", pps, DesignConfig("pps_wor", n=2)),
        ("ACS, Y=(1,3,5), networks {1,2},{3}, n1=2", acs, DesignConfig("acs", n1=2)),
    ]
    header = f"{'design':<44} {'var WOR':>9} {'var WR':>9} {'ratio':>8} {'fpc':>8}"
    print(header)
    print("-" * len(header))
    failed = False
    for label, inst, cfg in cases:
        rep = relative_efficiency(inst, cfg)
        print(
            f"{label:<44} {rep.wor_variance:>9.4f} {rep.wr_variance:>9.4f}"
            f" {rep.ratio:>8.4f} {rep.predicted_fpc:>8.4f}"
            f"  {'PASS' if rep.verdict else 'FAIL'}"
        )
        failed = failed or not rep.verdict
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
