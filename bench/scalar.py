"""The scalar_api workload: a fixed mix of finpop's public per-sample calls at
N=10^2 and N=10^4.

Run as a script, it builds the universes from an inputs file written by
`jobs.make_scalar_inputs`, runs a fixed number of passes of the mix and
prints one JSON line with the call timings and the check results.  The
benchmark runs it in child processes, so its peak RSS is measured alone and
does not grow with the length of the run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from finpop import designs, distributions, estimators
from finpop.population import (
    Adjacency,
    ClassifiedPopulation,
    NetworkPartition,
    Population,
    SizeWeights,
    compute_networks,
)


@dataclass(frozen=True)
class Universe:
    pop: Population
    pps_pop: Population
    weights: SizeWeights
    grid_pop: Population
    partition: NetworkPartition
    classified: ClassifiedPopulation
    n: int
    group_sizes: tuple[int, ...]
    count_n: int
    rounds: int  # visits of this universe per pass


def build(inputs: dict) -> list[Universe]:
    """Everything the mix needs, built once before any call is timed."""
    universes = []
    for u in inputs["universes"]:
        grid_pop = Population(tuple(u["grid"]["values"]))
        adjacency = Adjacency(tuple(tuple(row) for row in u["grid"]["adjacency"]))
        universes.append(Universe(
            pop=Population(tuple(u["values"])),
            pps_pop=Population(tuple(u["pps"]["values"])),
            weights=SizeWeights(tuple(u["pps"]["sizes"])),
            grid_pop=grid_pop,
            partition=compute_networks(grid_pop, adjacency, float(u["grid"]["threshold"])),
            classified=ClassifiedPopulation(tuple(u["subgroup_sizes"])),
            n=int(u["n"]),
            group_sizes=tuple(u["group_sizes"]),
            count_n=int(u["count_n"]),
            rounds=int(u["rounds"]),
        ))
    return universes


def run_pass(universes: list[Universe], rng: np.random.Generator) -> list[tuple]:
    """One pass of the mix: [(call name, seconds, result, expectation)].

    Functions are looked up on their modules at call time, so a traced run
    sees the wrapped versions.  Checking happens after the pass, untimed.
    """
    out: list[tuple] = []
    clock = time.perf_counter

    def call(name, expect, fn, *args):
        start = clock()
        result = fn(*args)
        out.append((name, clock() - start, result, expect))
        return result

    estimate = ("estimate",)
    for u in (u for u in universes for _ in range(u.rounds)):
        big_n, n = u.pop.size, u.n
        seq = call("designs.srs", ("draw", big_n, n, False), designs.srs, big_n, n, False, rng)
        call("estimators.sample_mean", estimate, estimators.sample_mean, u.pop, seq)
        seq = call("designs.pps_wr", ("draw", big_n, n, True), designs.pps_wr, u.weights, n, rng)
        call("estimators.hansen_hurvitz", estimate, estimators.hansen_hurvitz,
             u.pps_pop, u.weights, seq)
        seq = call("designs.pps_wor_extended", ("draw", u.weights.total, n, False),
                   designs.pps_wor_extended, u.pps_pop, u.weights, n, rng)
        call("estimators.hansen_hurvitz", estimate, estimators.hansen_hurvitz,
             u.pps_pop, u.weights, seq)
        sample = call("designs.acs", ("acs", big_n, n), designs.acs,
                      u.grid_pop, u.partition, n, False, rng)
        call("estimators.acs_mean", estimate, estimators.acs_mean, u.grid_pop, u.partition, sample)
        total = sum(u.group_sizes)
        seq = call("designs.srs", ("draw", big_n, total, False), designs.srs, big_n, total, False, rng)
        groups = call("designs.random_group_split", ("groups", u.group_sizes),
                      designs.random_group_split, seq, u.group_sizes)
        call("estimators.random_group_variance_estimate", estimate,
             estimators.random_group_variance_estimate, u.pop, groups)
        for replacement in (False, True):
            call("distributions.sample_counts", ("counts", u.classified, u.count_n, replacement),
                 distributions.sample_counts, u.classified, u.count_n, replacement, rng)
    return out


def _draw_ok(indices, universe: int, n: int, replacement: bool) -> bool:
    return (
        len(indices) == n
        and all(0 <= i < universe for i in indices)
        and (replacement or len(set(indices)) == n)
    )


def validate(result, expect: tuple) -> Optional[str]:
    """None when a call's result is a valid draw or a finite estimate."""
    kind = expect[0]
    if kind == "estimate":
        ok = isinstance(result, float) and math.isfinite(result)
    elif kind == "draw":
        ok = _draw_ok(result.indices, *expect[1:])
    elif kind == "acs":
        _, universe, n = expect
        ok = _draw_ok(result.initial.indices, universe, n, False) and set(
            result.initial.indices) <= result.final_units
    elif kind == "groups":
        ok = result.sizes == tuple(expect[1])
    else:
        _, classified, n, replacement = expect
        counts = result.counts
        ok = sum(counts) == n and all(c >= 0 for c in counts) and (
            replacement or all(c <= s for c, s in zip(counts, classified.subgroup_sizes)))
    return None if ok else f"invalid result {result!r} for {expect[:1]}"


def draws(entries: list[tuple]) -> int:
    """Single-unit draws the design and count calls of a pass made."""
    return sum(expect[2] for _, _, _, expect in entries if expect[0] in ("draw", "acs", "counts"))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--rng-seed", type=int, required=True)
    args = parser.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as fh:
        universes = build(json.load(fh))
    rng = np.random.default_rng(args.rng_seed)
    pass_s, latencies, errors = [], [], []
    drawn = 0
    for _ in range(args.passes):
        entries = run_pass(universes, rng)
        pass_s.append(math.fsum(e[1] for e in entries))
        latencies.extend(e[1] for e in entries)
        drawn += draws(entries)
        errors.extend(err for e in entries if (err := validate(e[2], e[3])) is not None)
    print(json.dumps({"pass_s": pass_s, "latencies": latencies, "draws": drawn,
                      "failed": len(errors), "errors": errors[:5]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
