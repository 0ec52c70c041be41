"""Workload inputs and per-job correctness checks.

Every input is generated from the workload seed with the standard library's
``random.Random``, written as population and design JSON files, and handed to
the program only through those files.  Sizes are fixed per workload so the
work a job does does not depend on the seed; only the values, the order of
the size weights and the placement of ACS clusters do.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

CLI_WORKLOADS = ("mc_wor_wide", "mc_narrow", "oracle_exact")
WORKLOADS = CLI_WORKLOADS + ("scalar_api",)

# Per-layer span names each workload must record in a traced run; a layer
# that records none fails the run, so a refactor cannot drop it silently.
EXPECTED_LAYERS = {
    "mc_wor_wide": (
        "cli.main", "population.instance_from_mapping", "population.compute_networks",
        "population.extend_pps", "population.flatten_networks", "verify.estimator_spec",
        "verify.run_monte_carlo", "verify.simulate_blocks", "verify.enumerate_moments",
    ),
    "mc_narrow": (
        "cli.main", "population.instance_from_mapping", "population.compute_networks",
        "population.flatten_networks", "verify.estimator_spec", "verify.run_monte_carlo",
        "verify.relative_efficiency", "verify.simulate_blocks", "verify.enumerate_moments",
    ),
    "oracle_exact": (
        "cli.main", "population.instance_from_mapping", "population.compute_networks",
        "population.extend_pps", "population.flatten_networks", "verify.estimator_spec",
        "verify.relative_efficiency", "verify.enumerate_moments",
        "verify.count_distributions_upto", "verify.count_moments", "distributions.pmf",
    ),
    "scalar_api": (
        "designs.srs", "designs.pps_wr", "designs.pps_wor_extended", "designs.acs",
        "designs.random_group_split", "estimators.sample_mean", "estimators.hansen_hurvitz",
        "estimators.acs_mean", "estimators.random_group_variance_estimate",
        "distributions.sample_counts",
    ),
}

# What one unit of work_per_s counts on each workload.
WORK_UNIT = {
    "mc_wor_wide": "trials_per_s",
    "mc_narrow": "trials_per_s",
    "oracle_exact": "outcomes_per_s",
    "scalar_api": "draws_per_s",
}


@dataclass
class Job:
    """One CLI invocation and what its output must satisfy."""

    name: str
    argv: list[str]
    kind: str  # "verify" | "compare" | "moments" | "counts"
    population: str
    design: dict
    units: int  # Monte Carlo trials or ordered outcomes the job accounts for
    method: Optional[str] = None  # expected compare method
    _expected: Optional[dict] = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# Population generators.  All take a random.Random and return a JSON mapping.

def _normal_population(r: random.Random, n: int) -> dict:
    return {"values": [round(r.gauss(10.0, 3.0), 6) for _ in range(n)]}


def _pps_population(r: random.Random, size_multiset: list[int]) -> dict:
    sizes = list(size_multiset)
    r.shuffle(sizes)
    values = [round(s * r.uniform(4.0, 6.0), 6) for s in sizes]
    return {"values": values, "sizes": sizes}


def _grid_population(r: random.Random, rows: int, cols: int, clusters: int, shape: tuple) -> dict:
    """Grid with 4-neighbour adjacency, background below the threshold and
    `clusters` rectangles of `shape` cells above it, placed on distinct cells
    of a coarse lattice so that no two clusters touch."""
    height, width = shape
    slots = [(a, b) for a in range(rows // (height + 1)) for b in range(cols // (width + 1))]
    if clusters > len(slots):
        raise ValueError("too many clusters for the grid")
    values = [round(r.uniform(0.0, 0.5), 6) for _ in range(rows * cols)]
    for a, b in r.sample(slots, clusters):
        for i in range(a * (height + 1), a * (height + 1) + height):
            for j in range(b * (width + 1), b * (width + 1) + width):
                values[i * cols + j] = round(r.uniform(2.0, 20.0), 6)
    adjacency = []
    for i in range(rows):
        for j in range(cols):
            row = []
            if i > 0:
                row.append((i - 1) * cols + j)
            if i < rows - 1:
                row.append((i + 1) * cols + j)
            if j > 0:
                row.append(i * cols + j - 1)
            if j < cols - 1:
                row.append(i * cols + j + 1)
            adjacency.append(row)
    return {"values": values, "adjacency": adjacency, "threshold": 1.0}


# ---------------------------------------------------------------------------
# Job lists.  Each entry: (name, command, population, design, trials or None).
# `tiny` shrinks every size so the smoke test runs in seconds.

def _mc_wor_wide(r: random.Random, tiny: bool) -> list[tuple]:
    n_srs = 500 if tiny else 5000
    per_size = 20 if tiny else 222  # sizes 1..9 each this often: t_M = 45 * per_size
    grid = (20, 20, 8) if tiny else (100, 100, 40)
    trials = 400 if tiny else 2000
    return [
        ("srs_N5000_n10", "verify", _normal_population(r, n_srs), {"design": "srs", "n": 10}, trials),
        ("pps_wor_tM9990_n10", "verify",
         _pps_population(r, [s for s in range(1, 10) for _ in range(per_size)]),
         {"design": "pps_wor", "n": 10}, trials),
        ("acs_grid100_n1_20", "verify", _grid_population(r, grid[0], grid[1], grid[2], (3, 3)),
         {"design": "acs", "n1": 20}, trials),
        ("rg_444_N5000", "verify", _normal_population(r, n_srs),
         {"design": "srs", "group_sizes": [4, 4, 4]}, trials),
    ]


def _mc_narrow(r: random.Random, tiny: bool) -> list[tuple]:
    wr, wor, cmp = (20_000, 20_000, 20_000) if tiny else (4_000_000, 1_000_000, 500_000)
    return [
        ("srs_wr_N8_n3", "verify", _normal_population(r, 8), {"design": "srs_wr", "n": 3}, wr),
        ("pps_wr_N8_n3", "verify", _pps_population(r, [1, 1, 2, 2, 3, 3, 4, 4]),
         {"design": "pps_wr", "n": 3}, wr),
        ("acs_wr_grid2x4_n1_2", "verify", _grid_population(r, 2, 4, 1, (1, 2)),
         {"design": "acs_wr", "n1": 2}, wr),
        ("srs_N8_n3", "verify", _normal_population(r, 8), {"design": "srs", "n": 3}, wor),
        ("rg_222_N8", "verify", _normal_population(r, 8),
         {"design": "srs", "group_sizes": [2, 2, 2]}, wor),
        ("compare_srs_N40_n6", "compare", _normal_population(r, 40), {"design": "srs", "n": 6}, cmp),
    ]


def _oracle_exact(r: random.Random, tiny: bool) -> list[tuple]:
    if tiny:
        return [
            ("srs_N6_n3", "moments", _normal_population(r, 6), {"design": "srs", "n": 3}, None),
            ("pps_wor_N4_n2", "moments", _pps_population(r, [1, 2, 2, 3]),
             {"design": "pps_wor", "n": 2}, None),
            ("compare_acs_grid3x3_n1_3", "compare", _grid_population(r, 3, 3, 1, (2, 2)),
             {"design": "acs", "n1": 3}, None),
            ("counts_K4_n5", "counts", {"subgroup_sizes": [2, 3, 4, 5]},
             {"design": "counts", "n": 5}, None),
            ("counts_wr_K4_n5", "counts", {"subgroup_sizes": [2, 3, 4, 5]},
             {"design": "counts_wr", "n": 5}, None),
        ]
    return [
        ("srs_N11_n6", "moments", _normal_population(r, 11), {"design": "srs", "n": 6}, None),
        ("srs_wr_N10_n5", "moments", _normal_population(r, 10), {"design": "srs_wr", "n": 5}, None),
        ("rg_222_N9", "moments", _normal_population(r, 9),
         {"design": "srs", "group_sizes": [2, 2, 2]}, None),
        ("pps_wr_N10_n5", "moments", _pps_population(r, [1, 1, 1, 2, 2, 2, 2, 3, 3, 3]),
         {"design": "pps_wr", "n": 5}, None),
        ("pps_wor_N10_n4", "moments", _pps_population(r, [1, 1, 1, 2, 2, 2, 2, 3, 3, 3]),
         {"design": "pps_wor", "n": 4}, None),
        ("compare_srs_N8_n3", "compare", _normal_population(r, 8), {"design": "srs", "n": 3}, None),
        ("compare_pps_N6_n2", "compare", _pps_population(r, [1, 1, 2, 2, 3, 3]),
         {"design": "pps_wor", "n": 2}, None),
        ("compare_acs_grid3x3_n1_3", "compare", _grid_population(r, 3, 3, 1, (2, 2)),
         {"design": "acs", "n1": 3}, None),
        ("counts_K5_n20", "counts", {"subgroup_sizes": [5, 6, 7, 8, 9]},
         {"design": "counts", "n": 20}, None),
        ("counts_wr_K4_n20", "counts", {"subgroup_sizes": [3, 4, 5, 6]},
         {"design": "counts_wr", "n": 20}, None),
        ("counts_K6_n12", "counts", {"subgroup_sizes": [2, 3, 3, 4, 4, 5]},
         {"design": "counts", "n": 12}, None),
    ]


_BUILDERS = {"mc_wor_wide": _mc_wor_wide, "mc_narrow": _mc_narrow, "oracle_exact": _oracle_exact}


def ordered_outcomes(population: dict, design: dict) -> int:
    """Ordered outcomes the exact oracle sums over for one moment enumeration:
    perm(U, n) without replacement, U**n with, where U is the index universe."""
    name = design["design"]
    n = design.get("n") or design.get("n1") or sum(design.get("group_sizes", ()))
    universe = sum(population["sizes"]) if name == "pps_wor" else len(population["values"])
    return universe ** n if name.endswith("_wr") else math.perm(universe, n)


# The with-replacement design `finpop compare` pairs with each WOR design.
WR_PAIR = {"srs": "srs_wr", "pps_wor": "pps_wr", "acs": "acs_wr"}


def make_cli_jobs(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    """Write the workload's input files under `workdir` and return its jobs."""
    r = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for index, (name, kind, population, design, trials) in enumerate(_BUILDERS[workload](r, tiny)):
        pop_path = workdir / f"{name}.pop.json"
        pop_path.write_text(json.dumps(population))
        command = "enumerate" if kind in ("moments", "counts") else kind
        argv = [command, "--population", str(pop_path), "--design", json.dumps(design)]
        if trials is not None:
            argv += ["--trials", str(trials), "--seed", str(seed * 1000 + index)]
        if kind == "verify":
            units = trials
        elif kind == "compare" and trials is not None:
            units = 2 * trials  # the Monte Carlo fallback runs the WOR and the WR design
        elif kind == "compare":
            units = sum(ordered_outcomes(population, dict(design, design=paired))
                        for paired in (design["design"], WR_PAIR[design["design"]]))
        elif kind == "moments":
            units = ordered_outcomes(population, design)
        else:
            units = 0
        method = None
        if kind == "compare":
            method = "monte_carlo" if trials is not None else "enumeration"
        jobs.append(Job(name, argv, kind, str(pop_path), design, units, method))
    return jobs


def make_scalar_inputs(seed: int, workdir: Path, tiny: bool = False) -> Path:
    """Write the scalar_api universes (N=10^2 and N=10^4) to one JSON file.

    The N=10^2 universe is visited `rounds` times per pass so that both sizes
    take a similar share of a pass and per-call overhead is not swamped by
    the O(N) work of the large universe."""
    r = random.Random(f"scalar_api:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    universes = []
    for side, rounds in (((5, 1), (10, 1)) if tiny else ((10, 20), (100, 1))):
        n_units = side * side
        per_size = n_units // 10
        pps = _pps_population(r, [s for s in range(1, 11) for _ in range(per_size)])
        grid = _grid_population(r, side, side, max(1, n_units // 64), (3, 3) if side > 5 else (2, 2))
        universes.append({
            "values": _normal_population(r, n_units)["values"],
            "pps": pps,
            "grid": grid,
            "subgroup_sizes": [n_units // 5] * 5,
            "n": 10,
            "group_sizes": [4, 4, 4],
            "count_n": 20,
            "rounds": rounds,
        })
    path = workdir / "scalar_inputs.json"
    path.write_text(json.dumps({"seed": seed, "universes": universes}))
    return path


# ---------------------------------------------------------------------------
# Correctness checks.  Each returns None when the job's output is correct and
# a one-line reason otherwise.

def _expected(job: Job) -> dict:
    """Reference values from finpop's closed forms, computed once per job."""
    if job._expected is None:
        from finpop.distributions import multinomial_cov, mvhyper_cov
        from finpop.verify import DesignConfig, Instance, theoretical_moments

        inst = Instance.from_mapping(json.loads(Path(job.population).read_text()))
        if job.kind == "counts":
            n = job.design["n"]
            if job.design["design"] == "counts_wr":
                cov = multinomial_cov(inst.classified.proportions, n)
            else:
                cov = mvhyper_cov(inst.classified, n)
            job._expected = {"covariance": cov.tolist()}
        elif job.kind == "moments":
            theo = theoretical_moments(inst, DesignConfig.from_mapping(job.design))
            job._expected = {"mean": theo.mean, "variance": theo.variance}
        else:
            job._expected = {}
    return job._expected


def check(job: Job, returncode: int, output: str, stderr: str = "") -> Optional[str]:
    problem = _problem(job, returncode, output)
    if problem is not None and stderr.strip():
        problem += f" | stderr: {stderr.strip().splitlines()[-1]}"
    return problem


def _problem(job: Job, returncode: int, output: str) -> Optional[str]:
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        report = json.loads(output)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if job.kind == "verify":
        checks = report["checks"]
        if report["verdict"] is not True:
            return f"verdict false: {checks}"
        if checks["empirical_mean_within_band"] is not True:
            return "mean band not evaluated"
        if report["theoretical"]["variance"] is not None and (
            checks["empirical_variance_within_band"] is not True
        ):
            return "variance band not evaluated"
        return None
    if job.kind == "compare":
        if report["verdict"] is not True:
            return f"verdict false: ratio {report['ratio']} vs fpc {report['predicted_fpc']}"
        if report["method"] != job.method:
            return f"method {report['method']}, expected {job.method}"
        if report["ratio"] is None:
            return "no variance ratio"
        return None
    from finpop.verify import Tolerances

    expected, close = _expected(job), Tolerances().close
    if job.kind == "moments":
        if not close(report["mean"], expected["mean"]):
            return f"enumerated mean {report['mean']} != theoretical {expected['mean']}"
        if expected["variance"] is not None and not close(report["variance"], expected["variance"]):
            return f"enumerated variance {report['variance']} != theoretical {expected['variance']}"
        return None
    observed = report["covariance"]
    for row_obs, row_exp in zip(observed, expected["covariance"], strict=True):
        for a, b in zip(row_obs, row_exp, strict=True):
            if not close(a, b):
                return f"count covariance {a} != closed form {b}"
    return None
