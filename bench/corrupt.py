"""Deliberately wrong expected values, for checking that the benchmark's
correctness checks have power.

`force_fpc_to_one()` replaces the finite population correction with 1 in
every finpop module that uses it, so each without-replacement expected
(co)variance is computed as if sampling were with replacement.  Run as a
script, this file is the finpop CLI with that corruption applied:

    python3 bench/corrupt.py verify --population pop.json --design ... --seed 1
"""

import sys


def force_fpc_to_one() -> None:
    import finpop.distributions
    import finpop.estimators
    import finpop.verify

    for module in (finpop.distributions, finpop.estimators, finpop.verify):
        module.fpc = lambda n, N: 1.0


if __name__ == "__main__":
    force_fpc_to_one()
    from finpop.cli import main

    sys.exit(main())
