import json
import re

import pytest

from finpop import multinomial_pmf
from finpop.cli import main

POP5 = {"values": [1, 2, 3, 4, 5]}
POP_PPS = {"values": [2, 2, 3], "sizes": [1, 2, 3]}
POP_ACS = {
    "values": [1, 3, 5],
    "adjacency": [[1], [0], []],
    "threshold": 0,
}
POP_COUNTS = {"subgroup_sizes": [2, 3]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestVerifyCommand:
    def test_srs_happy_path(self, tmp_path, capsys):
        pop = write(tmp_path, "pop.json", POP5)
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--population", pop,
                "--design", '{"design": "srs", "n": 2}',
                "--trials", "100000",
                "--seed", "42",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdict"] is True
        assert report["theoretical"]["variance"] == pytest.approx(0.75)

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        pop = write(tmp_path, "pop.json", POP5)
        code = main(
            ["verify", "--population", pop, "--design", '{"design": "srs", "n": 2}']
        )
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_missing_population_file(self, tmp_path, capsys):
        code = main(
            [
                "verify",
                "--population", str(tmp_path / "nope.json"),
                "--design", '{"design": "srs", "n": 2}',
                "--seed", "1",
            ]
        )
        assert code == 1

    def test_wor_precondition_violation(self, tmp_path, capsys):
        pop = write(tmp_path, "pop.json", POP5)
        code = main(
            [
                "verify",
                "--population", pop,
                "--design", '{"design": "srs", "n": 9}',
                "--seed", "1",
            ]
        )
        assert code == 1
        assert "exceeds" in capsys.readouterr().err

    def test_design_from_file_and_stdout(self, tmp_path, capsys):
        pop = write(tmp_path, "pop.json", POP_PPS)
        design = write(tmp_path, "design.json", {"design": "pps_wor", "n": 2})
        code = main(
            ["verify", "--population", pop, "--design", design,
             "--trials", "50000", "--seed", "7"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["theoretical"]["variance"] == pytest.approx(2.0, abs=1e-10)

    def test_skipped_variance_band_exits_2(self, tmp_path, capsys):
        # 101 trials leave at most one block with two or more trials, so the
        # variance band cannot be evaluated and the verdict fails.
        pop = write(tmp_path, "pop.json", {"values": list(range(5000))})
        code = main(
            ["verify", "--population", pop, "--design", '{"design": "srs", "n": 10}',
             "--trials", "101", "--seed", "7"]
        )
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["empirical_variance_within_band"] is None
        assert report["verdict"] is False

    def test_table_format(self, tmp_path, capsys):
        pop = write(tmp_path, "pop.json", POP5)
        code = main(
            ["verify", "--population", pop, "--design", '{"design": "srs", "n": 2}',
             "--trials", "20000", "--seed", "3", "--format", "table"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "," not in out.split("variance")[1].split("\n")[0]


class TestCompareCommand:
    def test_srs_ratio(self, tmp_path, capsys):
        pop = write(tmp_path, "pop.json", POP5)
        code = main(
            ["compare", "--population", pop, "--design", '{"design": "srs", "n": 2}']
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ratio"] == pytest.approx(0.75, abs=1e-12)
        assert report["predicted_fpc"] == 0.75
        assert report["verdict"] is True

    def test_pps_ratio(self, tmp_path, capsys):
        pop = write(tmp_path, "pop.json", POP_PPS)
        code = main(
            ["compare", "--population", pop, "--design", '{"design": "pps_wor", "n": 2}']
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ratio"] == pytest.approx(0.8, abs=1e-12)

    def test_acs_ratio(self, tmp_path, capsys):
        pop = write(tmp_path, "pop.json", POP_ACS)
        code = main(
            ["compare", "--population", pop, "--design", '{"design": "acs", "n1": 2}']
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ratio"] == pytest.approx(0.5, abs=1e-12)

    def test_unsupported_pairing(self, tmp_path, capsys):
        pop = write(tmp_path, "pop.json", POP5)
        code = main(
            ["compare", "--population", pop,
             "--design", '{"design": "srs", "group_sizes": [2, 2]}']
        )
        assert code == 1


    def test_monte_carlo_census_ratio_zero(self, tmp_path, capsys):
        # n = N: every WOR sample mean is the population mean, so the WOR
        # variance is exactly 0 and the ratio is judged without dividing by it.
        pop = write(tmp_path, "pop.json", {"values": list(range(40))})
        code = main(
            ["compare", "--population", pop, "--design", '{"design": "srs", "n": 40}',
             "--trials", "1000", "--seed", "1"]
        )
        out, err = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in err
        report = json.loads(out)
        assert report["method"] == "monte_carlo"
        assert report["ratio"] == 0.0
        assert report["verdict"] is True


class TestEnumerateCommand:
    def test_count_distribution(self, tmp_path, capsys):
        pop = write(tmp_path, "pop.json", POP_COUNTS)
        code = main(
            ["enumerate", "--population", pop, "--design", '{"design": "counts", "n": 2}']
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        dist = {tuple(e["counts"]): e["probability"] for e in record["distribution"]}
        assert dist[(1, 1)] == pytest.approx(0.6, abs=1e-12)
        assert dist[(2, 0)] == pytest.approx(0.1, abs=1e-12)
        assert dist[(0, 2)] == pytest.approx(0.3, abs=1e-12)

    def test_multinomial_pmf_column_equals_the_public_pmf(self, tmp_path, capsys):
        # enumerate checks the proportions once and calls the pmf core per
        # state; each value must be exactly what multinomial_pmf returns.
        subgroup_sizes = [3, 4, 5, 6]
        pop = write(tmp_path, "pop.json", {"subgroup_sizes": subgroup_sizes})
        code = main(
            ["enumerate", "--population", pop, "--design", '{"design": "counts_wr", "n": 6}']
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        props = [s / sum(subgroup_sizes) for s in subgroup_sizes]
        assert len(record["distribution"]) == 84
        for entry in record["distribution"]:
            assert entry["pmf"] == multinomial_pmf(entry["counts"], props)

    def test_single_class_distribution(self, tmp_path, capsys):
        pop = write(tmp_path, "pop.json", {"subgroup_sizes": [4]})
        code = main(
            ["enumerate", "--population", pop, "--design", '{"design": "counts", "n": 2}']
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert len(record["distribution"]) == 1

    def test_estimator_moments(self, tmp_path, capsys):
        pop = write(tmp_path, "pop.json", POP5)
        code = main(
            ["enumerate", "--population", pop, "--design", '{"design": "srs", "n": 2}']
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["variance"] == pytest.approx(0.75, abs=1e-12)

    def test_instance_too_large(self, tmp_path, capsys):
        pop = write(tmp_path, "pop.json", {"values": list(range(40))})
        code = main(
            ["enumerate", "--population", pop, "--design", '{"design": "srs", "n": 8}']
        )
        assert code == 1
        assert "limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, population, design, extra",
    [
        ("verify", [1, 2, 3], '{"design": "srs", "n": 2}', ["--seed", "1"]),
        ("verify", POP5, '{"design": "srs", "n": [2]}', ["--seed", "1"]),
        ("enumerate", POP_COUNTS, '{"design": "counts", "n": [2]}', []),
        ("verify", {"values": 5}, '{"design": "srs", "n": 2}', ["--seed", "1"]),
        ("verify", {"values": [1, [2]]}, '{"design": "srs", "n": 2}', ["--seed", "1"]),
        ("verify", {"values": [1, 2], "adjacency": [1, 0], "threshold": 0},
         '{"design": "acs", "n1": 1}', ["--seed", "1"]),
        ("verify", {"values": [1, 2, 3], "adjacency": [[1], [0, 2], 5], "threshold": 1},
         '{"design": "acs", "n1": 1}', ["--seed", "1"]),
        ("compare", {"values": list(range(40))}, '{"design": "srs", "n": 6}',
         ["--trials", "50", "--seed", "1"]),
        ("enumerate", {"values": ["1", "2", "3"]}, '{"design": "srs", "n": 2}', []),
        ("verify", POP5, '{"design": "srs", "n": true}', ["--seed", "1"]),
        ("verify", POP5, '{"design": "srs", "group_sizes": [true, true]}', ["--seed", "1"]),
        ("verify", {"values": [2, 2, 3], "sizes": [True, 2, 3]}, '{"design": "pps_wr", "n": 2}',
         ["--seed", "1"]),
        ("verify", {**POP_ACS, "threshold": True}, '{"design": "acs", "n1": 1}', ["--seed", "1"]),
        ("enumerate", {"values": [1e308, 1e308, 1.0]}, '{"design": "srs", "n": 2}', []),
        ("verify", {"values": [1e200, -1e200, 0]}, '{"design": "srs", "n": 2}',
         ["--trials", "200", "--seed", "1"]),
        ("verify", {"values": [1, 2], "sizes": [1, 10**400]}, '{"design": "pps_wr", "n": 1}',
         ["--trials", "200", "--seed", "1"]),
        ("verify", {"values": [1e308, 1.0], "sizes": [1, 6]}, '{"design": "pps_wr", "n": 2}',
         ["--trials", "200", "--seed", "1"]),
        ("compare", {"values": [1e308], "sizes": [2]}, '{"design": "pps_wr", "n": 1}', []),
        ("enumerate", {"subgroup_sizes": [3]}, '{"design": "counts_wr", "n": 1000000000000}', []),
        ("enumerate", POP_COUNTS, '{"design": "counts", "n": 2, "nn": 5}', []),
        ("enumerate", POP_COUNTS, '{"design": "counts_wr"}', []),
        ("compare", POP5, '{"design": "srs", "n": 2}', ["--tolerance-abs", "inf"]),
        ("compare", POP5, '{"design": "srs", "n": 2}', ["--tolerance-abs", "nan"]),
        ("compare", POP5, '{"design": "srs", "n": 2}', ["--tolerance-abs=-1e-10"]),
        ("verify", POP5, '{"design": "srs", "n": 2}', ["--tolerance-abs", "inf", "--seed", "1"]),
        # A design field the design does not read is refused, not ignored.
        ("enumerate", POP_PPS, '{"design": "pps_wor", "n": 2, "group_sizes": [1, 1]}', []),
        ("enumerate", POP5, '{"design": "srs_wr", "n": 2, "group_sizes": [1, 1]}', []),
        ("verify", POP5, '{"design": "srs", "n": 2, "n1": 2}', ["--seed", "1"]),
        ("enumerate", POP_PPS, '{"design": "pps_wr", "n": 2, "n1": 2}', []),
        ("verify", POP_ACS, '{"design": "acs", "n": 3, "n1": 2}', ["--seed", "1"]),
        ("compare", POP_ACS, '{"design": "acs_wr", "n": 2, "n1": 2}', []),
        # A population key no design reads is refused, not ignored.
        ("verify", {"values": [1, 2, 3, 4], "sizez": [1, 2, 3, 4], "comment": "x"},
         '{"design": "srs", "n": 2}', ["--seed", "1"]),
        ("enumerate", {"values": [1, 2, 3], "threshold": 1.0}, '{"design": "srs", "n": 2}', []),
    ],
)
def test_bad_input_exits_1_without_traceback(tmp_path, capsys, command, population, design, extra):
    pop = write(tmp_path, "pop.json", population)
    code = main([command, "--population", pop, "--design", design, *extra])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not re.fullmatch(r"error: '\w*'\n", err), "a bare KeyError names no problem"


@pytest.mark.parametrize("flag", [["--trials", "0"], ["--seed", "-5"], ["--tolerance-abs", "3"]])
def test_enumerate_refuses_the_run_flags(tmp_path, capsys, flag):
    # enumerate runs no Monte Carlo and checks no tolerance: a run flag given
    # to it is refused, not ignored.
    pop = write(tmp_path, "pop.json", POP5)
    code = main(["enumerate", "--population", pop, "--design", '{"design": "srs", "n": 2}', *flag])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {' '.join(flag)}" in err and "Traceback" not in err


SRS2 = '{"design": "srs", "n": 2}'


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--population", "{pop}", "--design", SRS2, "--trials", "0"],
        ["verify", "--design", SRS2, "--seed", "1"],
        ["verify", "--population", "{pop}", "--design", SRS2, "--trials", "x", "--seed", "1"],
        ["estimate", "--population", "{pop}", "--design", SRS2],
        ["enumerate", "--population", "{pop}", "--design", SRS2, "--format", "xml"],
        [],
    ],
    ids=["run-flag-on-enumerate", "no-population", "non-integer-trials", "unknown-command",
         "unknown-format", "no-command"],
)
def test_a_usage_error_is_one_error_line(tmp_path, capsys, argv):
    # argparse's own refusals read like every other exit-1 failure: no usage
    # text, no "finpop: error:" prefix.
    pop = write(tmp_path, "pop.json", POP5)
    code = main([arg.replace("{pop}", pop) for arg in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["--help"], ["compare", "--help"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: finpop")


def test_compare_past_the_enumeration_limit_names_the_seed(tmp_path, capsys):
    # 40 * 39 * ... * 35 ordered outcomes: without a seed there is no
    # Monte Carlo fallback, and the refusal says what would run it.
    pop = write(tmp_path, "pop.json", {"values": list(range(40))})
    code = main(["compare", "--population", pop, "--design", '{"design": "srs", "n": 6}'])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "exceed the enumeration limit" in err and "--seed" in err


@pytest.mark.parametrize(
    "flag, words",
    [(["--trials", "0"], "trials must be >= 1, got 0"),
     (["--seed", "-3"], "seed must be >= 0, got -3")],
)
def test_compare_checks_a_given_run_flag_before_it_enumerates(tmp_path, capsys, flag, words):
    pop = write(tmp_path, "pop.json", POP5)
    code = main(["compare", "--population", pop, "--design", '{"design": "srs", "n": 2}', *flag])
    assert (code, *capsys.readouterr()) == (1, "", f"error: {words}\n")


def test_random_groups_at_a_large_offset_match_the_closed_form(tmp_path, capsys):
    # Values 1e8 from 0 and 0.1 apart: a group mean taken before centring
    # is off by about 1e-8, enough to move the oracle's mean past the oracle
    # tolerance of S^2.
    values = [100000000.0, 100000000.3, 99999999.9, 100000000.7, 100000000.2,
              99999999.6, 100000000.4, 100000000.1, 99999999.5]
    pop = write(tmp_path, "pop.json", {"values": values})
    code = main(["verify", "--population", pop,
                 "--design", '{"design": "srs", "group_sizes": [2, 2, 2]}',
                 "--trials", "2000", "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["checks"]["enumerated_mean_matches"] is True


def test_oracle_refused_on_a_huge_ordered_count(tmp_path, capsys):
    # 10**5000 ordered outcomes: the refusal must not spell the count out.
    pop = write(tmp_path, "pop.json", {"values": list(range(10))})
    code = main(["verify", "--population", pop, "--design", '{"design": "srs_wr", "n": 5000}',
                 "--trials", "102", "--seed", "1"])
    assert code in (0, 2)
    report = json.loads(capsys.readouterr().out)
    for name in ("enumerated_mean_matches", "enumerated_variance_matches"):
        assert report["checks"][name] is None
        assert "exceed the enumeration limit" in report["skipped"][name]


# The report is streamed to stdout or to --out: both get the same bytes, and
# the JSON reads as json.dumps(record, indent=2) and a newline.
@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize(
    "command, population, design, extra",
    [
        ("verify", POP5, {"design": "srs", "n": 2}, ["--trials", "2000", "--seed", "3"]),
        ("compare", POP_PPS, {"design": "pps_wor", "n": 2}, []),
        ("enumerate", POP_ACS, {"design": "acs", "n1": 2}, []),
        ("enumerate", POP_COUNTS, {"design": "counts", "n": 2}, []),
    ],
)
def test_stdout_and_out_file_get_the_same_bytes(
    tmp_path, capsys, fmt, command, population, design, extra
):
    pop = write(tmp_path, "pop.json", population)
    argv = [command, "--population", pop, "--design", json.dumps(design), "--format", fmt, *extra]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")
    if fmt == "json":
        assert printed == json.dumps(json.loads(printed), indent=2) + "\n"
