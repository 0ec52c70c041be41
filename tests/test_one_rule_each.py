"""One definition per rule of the reduction to SRS: every entry point that
checks a rule refuses the same defect in the same words, through the rule's
one function.

- coverage: a per-unit structure has one entry per unit (population.check_covers);
- index range: drawn indices and positions lie in range (population.in_range);
- PPS value: Y_i/Z_i must be finite (population.pps_ratios);
- ACS value: a unit's network mean (NetworkPartition.means_of);
- random-group sizes: two or more groups of at least 1 (estimators.check_group_sizes).
"""

import json

import numpy as np
import pytest

from finpop import designs, distributions, estimators, verify
from finpop.cli import main
from finpop.designs import AcsSample, DrawSequence, GroupedSample
from finpop.population import (
    Adjacency,
    NetworkPartition,
    Population,
    SizeWeights,
    compute_networks,
    extend_pps,
    flatten_networks,
    pps_ratios,
)
from finpop.verify import DesignConfig, Instance, estimator_spec

pytestmark = pytest.mark.filterwarnings("error")

POP = Population((1.0, 3.0, 4.0, 8.0, 9.0))  # N = 5
WEIGHTS = SizeWeights((1, 2, 1, 1, 2))  # t_M = 7
SHORT_WEIGHTS = SizeWeights((1, 2, 1, 1))
SHORT_LABELS = [0, 0, 1, 2]
SHORT_PARTITION = NetworkPartition.from_assignment(Population((1.0, 3.0, 4.0, 8.0)), SHORT_LABELS)
SHORT_ADJACENCY = Adjacency(((1,), (0,), (), ()))
PARTITION = NetworkPartition.from_assignment(POP, [0, 0, 1, 2, 2])


def _rng():
    return np.random.default_rng(1)


def _message(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def _cli_error(tmp_path, capsys, command, population, design) -> str:
    path = tmp_path / "pop.json"
    path.write_text(json.dumps(population))
    argv = [command, "--population", str(path), "--design", json.dumps(design)]
    if command == "verify":
        argv += ["--trials", "200", "--seed", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


# ---------------------------------------------------------------------------
# Coverage: the ten sites that take a per-unit structure, and estimator_spec,
# each given one of the population's five units too few.

COVERAGE_SITES = {
    "extend_pps": lambda: extend_pps(POP, SHORT_WEIGHTS),
    "flatten_networks": lambda: flatten_networks(POP, SHORT_PARTITION),
    "compute_networks": lambda: compute_networks(POP, SHORT_ADJACENCY, 2.0),
    "from_assignment": lambda: NetworkPartition.from_assignment(POP, SHORT_LABELS),
    "pps_wor_extended": lambda: designs.pps_wor_extended(POP, SHORT_WEIGHTS, 2, _rng()),
    "acs": lambda: designs.acs(POP, SHORT_PARTITION, 2, False, _rng()),
    "hansen_hurvitz": lambda: estimators.hansen_hurvitz(
        POP, SHORT_WEIGHTS, DrawSequence((0,), True)),
    "hh_variance": lambda: estimators.hh_variance(POP, SHORT_WEIGHTS, 2, True),
    "acs_mean": lambda: estimators.acs_mean(
        POP, SHORT_PARTITION, AcsSample(DrawSequence((0,), False), frozenset({0, 1}))),
    "acs_variance": lambda: estimators.acs_variance(POP, SHORT_PARTITION, 2, False),
    "estimator_spec_pps_wr": lambda: estimator_spec(
        Instance(POP, SHORT_WEIGHTS), DesignConfig("pps_wr", n=2)),
    "estimator_spec_pps_wor": lambda: estimator_spec(
        Instance(POP, SHORT_WEIGHTS), DesignConfig("pps_wor", n=2)),
    "estimator_spec_acs": lambda: estimator_spec(
        Instance(POP, partition=SHORT_PARTITION), DesignConfig("acs", n=2)),
}
COVERAGE_WORDS = (
    "4 per-unit entries (size weights, adjacency rows or network labels) "
    "for a population of 5 units"
)


@pytest.mark.parametrize("call", COVERAGE_SITES.values(), ids=COVERAGE_SITES.keys())
def test_every_coverage_site_refuses_a_structure_one_unit_short_in_one_wording(call):
    assert _message(call) == COVERAGE_WORDS


@pytest.mark.parametrize("command", ["verify", "enumerate"])
@pytest.mark.parametrize(
    "key, value, design",
    [("sizes", [1, 2, 1, 1], "pps_wr"), ("sizes", [1, 2, 1, 1], "pps_wor"),
     ("adjacency", [[1], [0], [], []], "acs")],
)
def test_the_cli_refuses_a_structure_one_unit_short_in_the_same_words(
    tmp_path, capsys, command, key, value, design
):
    population = {"values": list(POP.values), key: value}
    if key == "adjacency":
        population["threshold"] = 2.0
    err = _cli_error(tmp_path, capsys, command, population, {"design": design, "n": 2})
    assert err == f"error: {COVERAGE_WORDS}\n"


@pytest.mark.parametrize("command", ["verify", "enumerate"])
def test_the_cli_refuses_surplus_adjacency_rows_in_the_coverage_words(tmp_path, capsys, command):
    # The surplus row would also break symmetry; coverage is checked first.
    population = {"values": [1, 2, 3], "adjacency": [[1], [0, 2], [1], [0]], "threshold": 1}
    err = _cli_error(tmp_path, capsys, command, population, {"design": "acs", "n": 2})
    assert err == (
        "error: 4 per-unit entries (size weights, adjacency rows or network labels) "
        "for a population of 3 units\n"
    )


# ---------------------------------------------------------------------------
# Index range: the estimators and SizeWeights.units_of share one bounds
# check; count vectors are checked by CountVector alone.

@pytest.mark.parametrize(
    "call",
    [
        lambda i: estimators.sample_mean(POP, DrawSequence((0, i), True)),
        lambda i: estimators.hansen_hurvitz(POP, WEIGHTS, DrawSequence((i,), True)),
        lambda i: estimators.acs_mean(
            POP, PARTITION, AcsSample(DrawSequence((i, 0), False), frozenset({0}))),
        lambda i: estimators.random_group_variance_estimate(
            POP, GroupedSample(((0,), (i, 1)))),
    ],
    ids=["sample_mean", "hansen_hurvitz_wr", "acs_mean", "random_group_variance_estimate"],
)
def test_every_estimator_refuses_an_index_out_of_range_in_one_wording(call):
    assert _message(lambda: call(5)) == "index 5 outside population of size 5"
    assert _message(lambda: call(7)) == "index 7 outside population of size 5"


@pytest.mark.parametrize(
    "call",
    [
        lambda p: WEIGHTS.units_of((0, p)),
        lambda p: estimators.hansen_hurvitz(POP, WEIGHTS, DrawSequence((p,), False)),
    ],
    ids=["units_of", "hansen_hurvitz_wor"],
)
def test_every_position_map_refuses_a_position_out_of_range_in_one_wording(call):
    assert _message(lambda: call(7)) == "position 7 outside extended population of size 7"


@pytest.mark.parametrize(
    "counts, words",
    [((2, -1), "need at least one count, each >= 0, got -1"),
     ((2, 1.0), "every count must be an integer"),
     ((), "need at least one count, each >= 0, got none")],
)
def test_the_pmfs_refuse_bad_counts_in_the_count_vector_words(counts, words):
    cp = distributions.ClassifiedPopulation((2, 3))
    messages = {
        _message(lambda: distributions.CountVector(counts)),
        _message(lambda: distributions.mvhyper_pmf(counts, cp)),
        _message(lambda: distributions.multinomial_pmf(counts, (0.5, 0.5))),
    }
    assert len(messages) == 1 and messages.pop().startswith(words)


# ---------------------------------------------------------------------------
# PPS value: the one Y_i/Z_i of both PPS designs, refused where it overflows.
# With values (1e308, 1) and sizes (1, 1), Y_0/Z_0 = 2e308.

HUGE = Population((1e308, 1.0))
EVEN = SizeWeights((1, 1))
RATIO_WORDS = "every Y_i/Z_i must be finite"

RATIO_SITES = {
    "pps_ratios": lambda: pps_ratios(HUGE, EVEN, range(2)),
    "extend_pps": lambda: extend_pps(HUGE, EVEN),
    "hansen_hurvitz_wr": lambda: estimators.hansen_hurvitz(HUGE, EVEN, DrawSequence((0,), True)),
    "hansen_hurvitz_wor": lambda: estimators.hansen_hurvitz(
        HUGE, EVEN, DrawSequence((0,), False)),
    "estimator_spec_pps_wr": lambda: estimator_spec(
        Instance(HUGE, EVEN), DesignConfig("pps_wr", n=1)),
    "estimator_spec_pps_wor": lambda: estimator_spec(
        Instance(HUGE, EVEN), DesignConfig("pps_wor", n=1)),
}


@pytest.mark.parametrize("call", RATIO_SITES.values(), ids=RATIO_SITES.keys())
def test_every_pps_site_refuses_an_overflowing_ratio_in_one_wording(call):
    assert _message(call) == RATIO_WORDS


@pytest.mark.parametrize("command", ["verify", "enumerate"])
@pytest.mark.parametrize("design", ["pps_wr", "pps_wor"])
def test_the_cli_refuses_an_overflowing_ratio_in_the_same_words(tmp_path, capsys, command, design):
    population = {"values": list(HUGE.values), "sizes": list(EVEN.sizes)}
    err = _cli_error(tmp_path, capsys, command, population, {"design": design, "n": 1})
    assert err == f"error: {RATIO_WORDS}\n"


def test_a_unit_off_the_draw_does_not_reach_the_ratio_rule():
    # hansen_hurvitz computes ratios of the drawn units only.
    assert estimators.hansen_hurvitz(HUGE, EVEN, DrawSequence((1,), True)) == 2.0
    assert estimators.hansen_hurvitz(HUGE, EVEN, DrawSequence((1,), False)) == 2.0


def test_both_pps_designs_share_the_ratios():
    ratios = pps_ratios(POP, WEIGHTS, range(POP.size))
    wr = estimator_spec(Instance(POP, WEIGHTS), DesignConfig("pps_wr", n=2))
    wor = estimator_spec(Instance(POP, WEIGHTS), DesignConfig("pps_wor", n=2))
    assert wr.values == ratios
    assert wor.values == tuple(r for r, m in zip(ratios, WEIGHTS.sizes) for _ in range(m))


# ---------------------------------------------------------------------------
# ACS value: the flattened population and the ACS estimator read the same
# network means.

def test_the_flattened_population_and_the_acs_estimator_read_the_same_means():
    flat = flatten_networks(POP, PARTITION)
    assert flat.values == tuple(PARTITION.means_of(range(POP.size))) == (2.0, 2.0, 4.0, 8.5, 8.5)
    sample = AcsSample(DrawSequence((4, 0), False), frozenset({0, 1, 3, 4}))
    assert estimators.acs_mean(POP, PARTITION, sample) == (flat.values[4] + flat.values[0]) / 2


# ---------------------------------------------------------------------------
# Random-group sizes: one group, or an empty one, is refused in one wording
# by the public estimator, the sample estimator, the design config and the
# command line.

@pytest.mark.parametrize("sizes", [(3,), (2, 0)])
def test_every_group_entry_point_refuses_bad_sizes_in_one_wording(sizes):
    words = f"random groups need two or more sizes of at least 1, got {sizes}"
    drawn = np.array([[1.0, 2.0, 3.0][: sum(sizes)]])
    assert _message(lambda: estimators.estimates(drawn, sizes)) == words
    assert _message(lambda: estimators.estimates(drawn, list(sizes))) == words
    assert _message(lambda: DesignConfig("srs", group_sizes=sizes)) == words
    assert _message(lambda: verify.DesignConfig.from_mapping(
        {"design": "srs", "group_sizes": list(sizes)})) == words


def test_a_one_group_sample_is_refused_in_the_same_words():
    one_group = GroupedSample(((0, 1, 2),))
    assert _message(lambda: estimators.random_group_variance_estimate(POP, one_group)) == (
        "random groups need two or more sizes of at least 1, got (3,)"
    )


def test_the_cli_refuses_one_group_in_the_same_words(tmp_path, capsys):
    err = _cli_error(tmp_path, capsys, "verify", {"values": list(POP.values)},
                     {"design": "srs", "group_sizes": [3]})
    assert err == "error: random groups need two or more sizes of at least 1, got (3,)\n"
