"""The enumeration oracle stands apart from what it checks.

`finpop.oracle` imports no sampler, nothing from `designs` or `verify`, no
`fpc` and no closed form (pinned on its source), and its results do not
change when every one of those raises (pinned on its behaviour).  The
closed forms are evaluated once per Monte Carlo run and never by the
oracle, the WOR/WR comparison or the Monte Carlo draws.  `finpop.verify`
still offers every name it offered before the oracle moved out."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import finpop
from finpop import (
    ClassifiedPopulation, DesignConfig, Instance, NetworkPartition, Population, SizeWeights,
    estimators, oracle, verify,
)

pytestmark = pytest.mark.filterwarnings("error")

ORACLE_SOURCE = Path(oracle.__file__)

CLOSED_FORMS = ("srs_mean_variance", "hh_variance", "acs_variance", "rg_pair_expectation")
SAMPLERS = {
    "finpop.designs": ("srs", "_srs", "pps_wr", "pps_wor_extended", "acs", "random_group_split"),
    "finpop.distributions": ("sample_counts",),
    "finpop.verify": ("_wor_indices", "_alias_table", "_alias_indices", "_block_values"),
}
FORBIDDEN_NAMES = {"fpc", *CLOSED_FORMS, *(n for names in SAMPLERS.values() for n in names)}


def test_oracle_imports_only_estimates_the_population_rules_and_numpy():
    allowed_absolute = {"__future__", "functools", "itertools", "dataclasses", "typing", "numpy"}
    tree = ast.parse(ORACLE_SOURCE.read_text())
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in allowed_absolute, alias.name
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            assert not names & FORBIDDEN_NAMES, names
            if node.level == 0:
                assert node.module.split(".")[0] in allowed_absolute, node.module
                continue
            # Relative: from .estimators only estimates and the float-range
            # refusal it shares with the public calls, else the population rules.
            assert node.level == 1 and node.module in ("estimators", "population"), node.module
            if node.module == "estimators":
                assert names == {"estimates", "_float_traps", "_out_of_float_range"}, names
            seen.add(node.module)
    assert seen == {"estimators", "population"}


VALUES = (1.5, -2.0, 7.25, 3.0, 0.5, 11.0)
POP = Population(VALUES)
INST = Instance(
    population=POP,
    weights=SizeWeights((2, 1, 3, 1, 2, 4)),
    partition=NetworkPartition.from_assignment(POP, [0, 0, 1, 2, 2, 3]),
)
SAMPLE_DESIGNS = [
    DesignConfig("srs", n=3),
    DesignConfig("srs_wr", n=3),
    DesignConfig("pps_wr", n=3),
    DesignConfig("pps_wor", n=3),
    DesignConfig("acs", n1=3),
    DesignConfig("acs_wr", n1=3),
    DesignConfig("srs", group_sizes=(2, 1, 2)),
]
CP = ClassifiedPopulation((2, 3, 4))


def _replace_everywhere(monkeypatch, original, replacement):
    """Rebind replacement wherever a finpop module holds original."""
    for name, mod in list(sys.modules.items()):
        if name != "finpop" and not name.startswith("finpop."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, replacement)


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"the oracle called {name}")
    return refused


def _oracle_results():
    moments = [verify.enumerate_moments(INST, cfg) for cfg in SAMPLE_DESIGNS]
    counts = [verify.enumerate_count_distribution(CP, 4, replacement)
              for replacement in (False, True)]
    return moments, counts


def test_oracle_gives_the_same_values_with_every_closed_form_and_sampler_refused(monkeypatch):
    expected = _oracle_results()
    targets = {name: getattr(estimators, name) for name in CLOSED_FORMS}
    targets["fpc"] = finpop.distributions.fpc
    for module, names in SAMPLERS.items():
        targets.update({name: getattr(sys.modules[module], name) for name in names})
    for name, original in targets.items():
        _replace_everywhere(monkeypatch, original, _refuse(name))
    assert finpop.estimators.srs_mean_variance is not targets["srs_mean_variance"]
    assert _oracle_results() == expected


@pytest.fixture
def closed_form_calls(monkeypatch):
    """Counter of closed-form evaluations, by name, while the test runs."""
    calls = Counter()
    for name in ("srs_mean_variance", "hh_variance", "acs_variance"):
        original = getattr(estimators, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        _replace_everywhere(monkeypatch, original, counted)
    return calls


@pytest.mark.parametrize("cfg", SAMPLE_DESIGNS[:6])
def test_a_monte_carlo_run_evaluates_its_closed_form_once(closed_form_calls, cfg):
    verify.run_monte_carlo(INST, cfg, 200, 1)
    assert sum(closed_form_calls.values()) == 1


@pytest.mark.parametrize("cfg", SAMPLE_DESIGNS[:6])
def test_the_oracle_and_the_draws_evaluate_no_closed_form(closed_form_calls, cfg):
    verify.enumerate_moments(INST, cfg)
    verify.simulate_blocks(INST, cfg, 200, 1)
    verify.estimator_spec(INST, cfg)
    assert not closed_form_calls
    verify.theoretical_moments(INST, cfg)
    assert sum(closed_form_calls.values()) == 1


def test_relative_efficiency_evaluates_no_closed_form(closed_form_calls):
    assert verify.relative_efficiency(INST, DesignConfig("pps_wor", n=2)).method == "enumeration"
    forty = Instance(population=Population(tuple(range(40))))
    rep = verify.relative_efficiency(forty, DesignConfig("srs", n=6), trials=200, seed=1)
    assert rep.method == "monte_carlo"
    assert not closed_form_calls


def test_verify_still_offers_every_name():
    # The public names of finpop.verify, and the private ones that tests,
    # bench/ and scripts/ read, before the oracle moved to finpop.oracle.
    from finpop.verify import (  # noqa: F401
        CHUNK_ELEMENTS, COUNT_DESIGNS, DEGENERATE_SPREAD, DESIGN_NAMES, ENUMERATION_LIMIT,
        NUM_BLOCKS, RNG_STREAM, Adjacency, AliasTable, ClassifiedPopulation, DesignConfig,
        EnumerationLimitError, EstimatorSpec, Instance, MomentReport, Moments,
        NetworkPartition, Population, RelativeEfficiencyReport, SizeWeights, Tolerances,
        _alias_indices, _alias_table, _block_sizes, _block_values, _empirical, _merge_moments,
        _run_arguments, _sample_design, _sorts_keys, _wor_indices, as_index, as_indices,
        as_reals, check_covers, compute_networks, count_distributions_upto, count_moments,
        enumerate_count_distribution, enumerate_moments, estimator_spec, extend_pps,
        flatten_networks, fpc, pps_ratios, relative_efficiency, run_monte_carlo, sample_size,
        simulate_blocks, theoretical_moments,
    )

    # The oracle's names are re-exported, not copied, so a wrapper put on
    # one (as the benchmark's tracer does) is seen through the other.
    for name in ("ENUMERATION_LIMIT", "EnumerationLimitError", "EstimatorSpec", "Moments",
                 "count_distributions_upto", "count_moments", "enumerate_count_distribution",
                 "_merge_moments"):
        assert getattr(verify, name) is getattr(oracle, name), name
