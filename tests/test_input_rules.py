"""One definition per input rule: every entry point that checks an input
refuses the same defect in the same words, through the rule's one function,
and coerces nothing.

- integer records: at least one entry, none below a floor (population.as_indices);
- design configs: all eight design names, the size field and sum(group_sizes)
  (verify.DesignConfig); the moment engines refuse a count design in one
  sentence (verify._sample_design);
- run arguments: trials >= 1 and seed >= 0, exact ints (verify._run_arguments);
- probability vectors: finite numbers >= 0 summing to 1 (distributions._probabilities);
- the ACS threshold: a finite number, like every real input (population.as_reals).

The closed forms' overflow guard and the estimator's group-size shape check
are here too: each is one wording from one place.
"""

import json
import math

import numpy as np
import pytest

from finpop import (
    ClassifiedPopulation,
    CountVector,
    DesignConfig,
    DrawSequence,
    GroupedSample,
    Instance,
    NetworkPartition,
    Population,
    SizeWeights,
    acs_variance,
    enumerate_moments,
    estimates,
    hh_variance,
    multinomial_cov,
    multinomial_pmf,
    random_group_split,
    relative_efficiency,
    rg_pair_expectation,
    run_monte_carlo,
    srs_mean_variance,
    theoretical_moments,
)
from finpop.cli import main
from finpop.verify import estimator_spec, simulate_blocks

pytestmark = pytest.mark.filterwarnings("error")

POP = Population((1.0, 3.0, 4.0, 8.0, 9.0))
FORTY = Instance(population=Population(tuple(range(40))))  # srs n=6 needs the Monte Carlo fallback


def _message(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def _cli(tmp_path, capsys, command, population, design, extra=()):
    path = tmp_path / "pop.json"
    path.write_text(json.dumps(population))
    code = main([command, "--population", str(path), "--design", json.dumps(design), *extra])
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# Integer records: the seven sites, each given no entry and an entry below
# its floor.

RECORD_SITES = {
    "DrawSequence": (lambda r: DrawSequence(r, True), "index", 0),
    "GroupedSample": (lambda r: GroupedSample(((0,), r)), "index", 0),
    "CountVector": (lambda r: CountVector(r), "count", 0),
    "SizeWeights": (lambda r: SizeWeights(r), "size weight", 1),
    "ClassifiedPopulation": (lambda r: ClassifiedPopulation(r), "subgroup size", 1),
    "network_sizes": (lambda r: NetworkPartition((0,) * len(r), r, (1.0,) * len(r)),
                      "network size", 1),
    "random_group_split": (lambda r: random_group_split(DrawSequence((0, 1, 2), False), r),
                           "group size", 1),
}


@pytest.mark.parametrize("build, what, floor", RECORD_SITES.values(), ids=RECORD_SITES.keys())
def test_every_integer_record_refuses_no_entry_in_one_wording(build, what, floor):
    assert _message(lambda: build(())) == f"need at least one {what}, each >= {floor}, got none"


@pytest.mark.parametrize("build, what, floor", RECORD_SITES.values(), ids=RECORD_SITES.keys())
def test_every_integer_record_refuses_an_entry_below_its_floor_in_one_wording(build, what, floor):
    low = floor - 1
    assert _message(lambda: build((floor + 2, low))) == (
        f"need at least one {what}, each >= {floor}, got {low}"
    )


def test_an_empty_partition_is_refused():
    # It covers no population, so nothing could use it.
    assert _message(lambda: NetworkPartition((), (), ())) == (
        "need at least one network size, each >= 1, got none"
    )


@pytest.mark.parametrize(
    "command, population, design, words",
    [("verify", {"values": [1, 2, 3], "sizes": [1, 0, 2]}, {"design": "pps_wr", "n": 2},
      "need at least one size weight, each >= 1, got 0"),
     ("enumerate", {"subgroup_sizes": []}, {"design": "counts", "n": 2},
      "need at least one subgroup size, each >= 1, got none")],
)
def test_the_cli_refuses_a_bad_record_in_the_same_words(
    tmp_path, capsys, command, population, design, words
):
    code, _, err = _cli(tmp_path, capsys, command, population, design, ["--seed", "1"])
    assert code == 1 and err == f"error: {words}\n"


# ---------------------------------------------------------------------------
# Design configs: one parser for all eight names.

COUNT_WORDS = "design 'counts' draws class counts, not a sample; run it with finpop enumerate"


@pytest.mark.parametrize("name", ["counts", "counts_wr"])
def test_count_designs_are_design_configs(name):
    config = DesignConfig.from_mapping({"design": name, "n": 3})
    assert (config.design, config.n, config.n1, config.group_sizes) == (name, 3, None, None)


@pytest.mark.parametrize(
    "fields, words",
    [({}, "design 'counts' requires n"),
     ({"n": 2, "n1": 2}, "design 'counts' takes no n1"),
     ({"n": 2, "group_sizes": (1, 1)}, "design 'counts' takes no group_sizes"),
     ({"n": 2.0}, "n must be an integer, got 2.0")],
)
def test_a_count_config_obeys_the_config_rules(fields, words):
    assert _message(lambda: DesignConfig("counts", **fields)) == words


@pytest.mark.parametrize(
    "design, fields, words",
    [("pps_wor", {}, "design 'pps_wor' requires n"),
     ("acs", {}, "design 'acs' requires n1"),
     ("srs", {"n": 3, "group_sizes": (2, 2)}, "n must equal sum(group_sizes)")],
)
def test_config_only_rules_are_refused_when_the_config_is_built(design, fields, words):
    assert _message(lambda: DesignConfig(design, **fields)) == words
    assert _message(lambda: DesignConfig.from_mapping({"design": design, **fields})) == words


ENGINES = {
    "estimator_spec": lambda c: estimator_spec(FORTY, c),
    "theoretical_moments": lambda c: theoretical_moments(FORTY, c),
    "enumerate_moments": lambda c: enumerate_moments(FORTY, c),
    "simulate_blocks": lambda c: simulate_blocks(FORTY, c, 200, 1),
    "run_monte_carlo": lambda c: run_monte_carlo(FORTY, c, 200, 1),
    "relative_efficiency": lambda c: relative_efficiency(FORTY, c, trials=200, seed=1),
}


@pytest.mark.parametrize("call", ENGINES.values(), ids=ENGINES.keys())
def test_every_moment_engine_refuses_a_count_design_in_one_sentence(call):
    assert _message(lambda: call(DesignConfig("counts", n=2))) == COUNT_WORDS


@pytest.mark.parametrize("command", ["verify", "compare"])
def test_the_cli_refuses_a_count_design_outside_enumerate(tmp_path, capsys, command):
    code, out, err = _cli(tmp_path, capsys, command, {"subgroup_sizes": [2, 3]},
                          {"design": "counts", "n": 2}, ["--seed", "1"])
    assert (code, out, err) == (1, "", f"error: {COUNT_WORDS}\n")


@pytest.mark.parametrize(
    "design, words",
    [({"design": "counts"}, "design 'counts' requires n"),
     ({"design": "counts", "n": 2, "n1": 2}, "design 'counts' takes no n1"),
     ({"design": "counts_wr", "n": 2, "nn": 5}, "unknown design config keys: ['nn']")],
)
def test_enumerate_parses_a_count_design_through_the_config(tmp_path, capsys, design, words):
    code, _, err = _cli(tmp_path, capsys, "enumerate", {"subgroup_sizes": [2, 3]}, design)
    assert code == 1 and err == f"error: {words}\n"


# ---------------------------------------------------------------------------
# Run arguments: never coerced, refused where they enter the engines.

BAD_SEEDS = [
    (1.5, "seed must be an integer, got 1.5"),
    ("3", "seed must be an integer, got '3'"),
    (True, "seed must be an integer, got True"),
    (-1, "seed must be >= 0, got -1"),
]
BAD_TRIALS = [
    (True, "trials must be an integer, got True"),
    (2.5, "trials must be an integer, got 2.5"),
    (0, "trials must be >= 1, got 0"),
]
CONFIG = DesignConfig("srs", n=6)


@pytest.mark.parametrize("seed, words", BAD_SEEDS)
def test_a_bad_seed_is_refused_by_every_engine(seed, words):
    assert _message(lambda: simulate_blocks(FORTY, CONFIG, 200, seed)) == words
    assert _message(lambda: run_monte_carlo(FORTY, CONFIG, 200, seed)) == words
    # Refused before the fallback forms seed + 1 for its with-replacement run.
    assert _message(lambda: relative_efficiency(FORTY, CONFIG, trials=200, seed=seed)) == words


@pytest.mark.parametrize("trials, words", BAD_TRIALS)
def test_bad_trials_are_refused_by_every_engine(trials, words):
    assert _message(lambda: simulate_blocks(FORTY, CONFIG, trials, 1)) == words
    assert _message(lambda: run_monte_carlo(FORTY, CONFIG, trials, 1)) == words
    assert _message(lambda: relative_efficiency(FORTY, CONFIG, trials=trials, seed=1)) == words


def test_a_numpy_integer_seed_draws_as_the_same_int():
    same = simulate_blocks(FORTY, CONFIG, 300, 7)
    assert simulate_blocks(FORTY, CONFIG, 300, np.uint64(7)) == same


def test_the_cli_refuses_a_negative_seed_in_finpop_words(tmp_path, capsys):
    code, _, err = _cli(tmp_path, capsys, "verify", {"values": [1, 2, 3]},
                        {"design": "srs", "n": 2}, ["--seed", "-1"])
    assert code == 1 and err == "error: seed must be >= 0, got -1\n"


# ---------------------------------------------------------------------------
# Probability vectors: one check for the pmf and the covariance.

@pytest.mark.parametrize(
    "probs, words",
    [((math.nan, 1.0), "probabilities must be finite"),
     ((math.inf, 0.0), "probabilities must be finite"),
     (("1", 0.0), "probabilities must be numbers, not strings or bools"),
     ((True, 0.0), "probabilities must be numbers, not strings or bools"),
     ((None, 1.0), "probabilities must be numbers"),
     ((-0.5, 1.5), "probabilities must each be >= 0 and sum to 1"),
     ((0.4, 0.5), "probabilities must each be >= 0 and sum to 1")],
)
def test_the_pmf_and_the_covariance_refuse_a_bad_vector_in_one_wording(probs, words):
    assert _message(lambda: multinomial_pmf((1, 1), probs)) == words
    assert _message(lambda: multinomial_cov(probs, 2)) == words


def test_the_covariance_refuses_an_empty_vector():
    assert _message(lambda: multinomial_cov((), 2)) == (
        "probabilities must each be >= 0 and sum to 1"
    )


# ---------------------------------------------------------------------------
# The ACS threshold is a real input like the values: finite, not a string or
# a bool.  A NaN or +inf threshold would make every unit its own network.

ACS_POP = {"values": [1, 3, 5], "adjacency": [[1], [0], []]}


def test_a_finite_threshold_groups_the_linked_units():
    inst = Instance.from_mapping({**ACS_POP, "threshold": 0})
    assert inst.partition.network_sizes == (2, 1)


@pytest.mark.parametrize(
    "threshold, words",
    [(math.nan, "threshold must be finite"),
     (math.inf, "threshold must be finite"),
     (-math.inf, "threshold must be finite"),
     (True, "threshold must be numbers, not strings or bools"),
     ("0", "threshold must be numbers, not strings or bools"),
     ([0], "threshold must be numbers")],
)
def test_a_non_finite_or_non_numeric_threshold_is_refused(threshold, words):
    assert _message(lambda: Instance.from_mapping({**ACS_POP, "threshold": threshold})) == words


def test_the_cli_refuses_a_nan_threshold_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "pop.json"
    path.write_text('{"values": [1, 3, 5], "adjacency": [[1], [0], []], "threshold": NaN}')
    code = main(["verify", "--population", str(path), "--design", '{"design": "acs", "n1": 1}',
                 "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: threshold must be finite\n"


# ---------------------------------------------------------------------------
# The closed forms refuse an overflowing variance in one wording.

OVERFLOW_WORDS = "closed-form variance out of the float range"
OPPOSED = Population((1e308, -1e308))

CLOSED_FORMS = {
    "srs_mean_variance": lambda: srs_mean_variance(OPPOSED, 1, True),
    "hh_variance": lambda: hh_variance(Population((1e308, 1.0)), SizeWeights((1, 1)), 1, True),
    "acs_variance": lambda: acs_variance(
        OPPOSED, NetworkPartition.from_assignment(OPPOSED, [0, 1]), 1, True),
    "rg_pair_expectation": lambda: rg_pair_expectation(Population((1e308, -1e308, 0.0)), 1, 1),
}


@pytest.mark.parametrize("call", CLOSED_FORMS.values(), ids=CLOSED_FORMS.keys())
def test_every_closed_form_refuses_an_overflow_in_one_wording(call):
    assert _message(call) == OVERFLOW_WORDS


def test_the_cli_refuses_an_overflowing_closed_form_in_the_same_words(tmp_path, capsys):
    code, _, err = _cli(tmp_path, capsys, "enumerate", {"values": [1e308, -1e308]},
                        {"design": "srs", "n": 1})
    assert code == 1 and err == f"error: {OVERFLOW_WORDS}\n"


# ---------------------------------------------------------------------------
# The estimator checks that the group sizes fit the samples.

@pytest.mark.parametrize("sizes, total", [((1, 1), 2), ((2, 2), 4)])
def test_estimates_refuses_group_sizes_that_do_not_fit_the_samples(sizes, total):
    drawn = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert _message(lambda: estimates(drawn, sizes)) == (
        f"group sizes sum to {total}, samples have 3 draws"
    )
