"""One sample-size rule: every entry point that takes a sample size refuses
a non-integer, n < 1, and n above its universe without replacement, in the
same words, through population.sample_size."""

import json
import re

import numpy as np
import pytest

from finpop import designs, distributions, estimators, verify
from finpop.cli import main
from finpop.designs import srs
from finpop.population import ClassifiedPopulation, Population, SizeWeights, sample_size
from finpop.verify import DesignConfig, Instance, estimator_spec

POP = Population((1.0, 3.0, 4.0, 8.0, 9.0))  # N = 5
WEIGHTS = SizeWeights((1, 2, 1, 1, 2))  # t_M = 7
CP = ClassifiedPopulation((2, 3))  # N = 5
ACS = Instance.from_mapping(
    {"values": list(POP.values), "adjacency": [[1], [0], [], [4], [3]], "threshold": 2}
)
PPS = Instance(POP, WEIGHTS)


def _rng():
    return np.random.default_rng(1)


# (id, call taking n, universe, replacement)
ENTRY_POINTS = [
    ("sample_size", lambda n: sample_size(n, 5, False), 5, False),
    ("sample_size_wr", lambda n: sample_size(n, 5, True), 5, True),
    ("srs", lambda n: srs(5, n, False, _rng()), 5, False),
    ("srs_wr", lambda n: srs(5, n, True, _rng()), 5, True),
    ("pps_wr", lambda n: designs.pps_wr(WEIGHTS, n, _rng()), 7, True),
    ("pps_wor_extended", lambda n: designs.pps_wor_extended(POP, WEIGHTS, n, _rng()), 7, False),
    ("acs", lambda n: designs.acs(POP, ACS.partition, n, False, _rng()), 5, False),
    ("acs_wr", lambda n: designs.acs(POP, ACS.partition, n, True, _rng()), 5, True),
    ("sample_counts", lambda n: distributions.sample_counts(CP, n, False, _rng()), 5, False),
    ("sample_counts_wr", lambda n: distributions.sample_counts(CP, n, True, _rng()), 5, True),
    ("srs_mean_variance", lambda n: estimators.srs_mean_variance(POP, n, False), 5, False),
    ("srs_mean_variance_wr", lambda n: estimators.srs_mean_variance(POP, n, True), 5, True),
    ("hh_variance", lambda n: estimators.hh_variance(POP, WEIGHTS, n, False), 7, False),
    ("hh_variance_wr", lambda n: estimators.hh_variance(POP, WEIGHTS, n, True), 5, True),
    ("acs_variance", lambda n: estimators.acs_variance(POP, ACS.partition, n, False), 5, False),
    ("rg_pair_expectation_k", lambda n: estimators.rg_pair_expectation(POP, n, 1), 5, False),
    ("rg_pair_expectation_l", lambda n: estimators.rg_pair_expectation(POP, 1, n), 5, False),
    ("fpc", lambda n: distributions.fpc(n, 5), 5, False),
    ("mvhyper_cov", lambda n: distributions.mvhyper_cov(CP, n), 5, False),
    ("multinomial_cov", lambda n: distributions.multinomial_cov(CP.proportions, n), 2, True),
    ("count_distributions_upto",
     lambda n: verify.count_distributions_upto(CP, n, False), 5, False),
    ("count_distributions_upto_wr",
     lambda n: verify.count_distributions_upto(CP, n, True), 5, True),
    ("estimator_spec_srs",
     lambda n: estimator_spec(Instance(POP), DesignConfig("srs", n=n)), 5, False),
    ("estimator_spec_srs_wr",
     lambda n: estimator_spec(Instance(POP), DesignConfig("srs_wr", n=n)), 5, True),
    ("estimator_spec_pps_wr", lambda n: estimator_spec(PPS, DesignConfig("pps_wr", n=n)), 5, True),
    ("estimator_spec_pps_wor",
     lambda n: estimator_spec(PPS, DesignConfig("pps_wor", n=n)), 7, False),
    ("estimator_spec_acs", lambda n: estimator_spec(ACS, DesignConfig("acs", n=n)), 5, False),
    ("estimator_spec_acs_n1", lambda n: estimator_spec(ACS, DesignConfig("acs", n1=n)), 5, False),
    ("estimator_spec_acs_wr",
     lambda n: estimator_spec(ACS, DesignConfig("acs_wr", n1=n)), 5, True),
]

BAD_SIZES = [
    (0, r"must be >= 1, got 0"),
    (-1, r"must be >= 1, got -1"),
    (True, r"must be an integer, got True"),
    (2.0, r"must be an integer, got 2\.0"),
    ("2", r"must be an integer, got '2'"),
]


def _too_many(universe):
    return rf"={universe + 1} exceeds the {universe} units a draw without replacement can take"


def _cases():
    for name, call, universe, replacement in ENTRY_POINTS:
        for n, wording in BAD_SIZES:
            yield pytest.param(call, n, wording, id=f"{name}-{n!r}")
        if not replacement:
            yield pytest.param(call, universe + 1, _too_many(universe), id=f"{name}-universe+1")


@pytest.mark.parametrize("call, n, wording", _cases())
def test_every_entry_point_refuses_a_bad_sample_size_in_one_wording(call, n, wording):
    with pytest.raises(ValueError, match=wording):
        call(n)


@pytest.mark.parametrize(
    "design, n, wording",
    [(d, n, w) for d in ("counts", "counts_wr") for n, w in BAD_SIZES]
    + [("counts", 6, _too_many(5))],
)
def test_the_cli_refuses_a_bad_count_size_in_the_same_wording(
    tmp_path, capsys, design, n, wording
):
    path = tmp_path / "pop.json"
    path.write_text(json.dumps({"subgroup_sizes": list(CP.subgroup_sizes)}))
    code = main(["enumerate", "--population", str(path),
                 "--design", json.dumps({"design": design, "n": n})])
    assert code == 1
    assert re.match(rf"error: .*{wording}", capsys.readouterr().err)


# Two random groups share their universe, so their largest sizes are bounded
# by the sum, which the next test checks.
@pytest.mark.parametrize(
    "call, universe, replacement",
    [pytest.param(*entry[1:], id=entry[0]) for entry in ENTRY_POINTS
     if not entry[0].startswith("rg_pair")],
)
def test_every_entry_point_accepts_the_largest_size_its_universe_allows(
    call, universe, replacement
):
    call(universe + 1 if replacement else universe)


@pytest.mark.parametrize("n_1", [0, 6])
def test_acs_and_its_variance_refuse_a_bad_n_1_in_the_same_words(n_1):
    with pytest.raises(ValueError) as drawn:
        designs.acs(POP, ACS.partition, n_1, False, _rng())
    with pytest.raises(ValueError) as closed_form:
        estimators.acs_variance(POP, ACS.partition, n_1, False)
    assert str(drawn.value) == str(closed_form.value)
    assert str(drawn.value).startswith("n_1")


def test_random_groups_resolve_their_sum_through_the_rule():
    with pytest.raises(ValueError, match=r"sum\(group_sizes\)=6 exceeds the 5 units"):
        estimator_spec(Instance(POP), DesignConfig("srs", group_sizes=(3, 3)))
    with pytest.raises(ValueError, match=r"n_k \+ n_l=6 exceeds the 5 units"):
        estimators.rg_pair_expectation(POP, 3, 3)


def test_srs_takes_its_universe_as_a_positive_int():
    with pytest.raises(ValueError, match="empty universe"):
        sample_size(1, 0, True)
    with pytest.raises(ValueError, match="empty universe"):
        srs(0, 1, True, _rng())
    with pytest.raises(ValueError, match=r"N must be an integer, got 5\.5"):
        srs(5.5, 2, True, _rng())


def test_the_hypergeometric_pmf_bounds_its_total_count_by_the_rule():
    with pytest.raises(ValueError, match=r"total count=6 exceeds the 5 units"):
        distributions.mvhyper_pmf((3, 3), CP)
    assert distributions.mvhyper_pmf((0, 0), CP) == 1.0


def test_a_missing_size_names_the_design_and_the_field():
    with pytest.raises(ValueError, match=r"design 'pps_wor' requires n$"):
        estimator_spec(PPS, DesignConfig("pps_wor"))
    with pytest.raises(ValueError, match=r"design 'acs' requires n1$"):
        estimator_spec(ACS, DesignConfig("acs"))


@pytest.mark.parametrize("design, inst", [("pps_wor", PPS), ("acs", ACS)])
def test_an_oversized_wor_n_is_refused_before_the_transformed_population_is_built(
    monkeypatch, design, inst
):
    def must_not_run(*args):
        raise AssertionError("the transformed population was built before the size check")

    monkeypatch.setattr(verify, "extend_pps", must_not_run)
    monkeypatch.setattr(verify, "flatten_networks", must_not_run)
    with pytest.raises(ValueError, match="exceeds"):
        estimator_spec(inst, DesignConfig(design, n=100))
