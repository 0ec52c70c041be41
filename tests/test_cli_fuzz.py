"""Fuzz of the command line: whatever the population file and design hold,
`finpop` exits 0, 1 or 2, writes nothing to stderr but `error:` lines (a
warning would reach stderr too), and prints JSON unless it exits 1."""

import contextlib
import io
import json
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finpop.cli import main

DESIGNS = ("srs", "srs_wr", "pps_wr", "pps_wor", "acs", "acs_wr", "counts", "counts_wr")

# Ints of 2**63 and beyond cannot size a Python list, so a size measure that
# large is refused at once; between about 10**8 and 2**63 the extended
# population of pps_wor would be built in full, which is left out here.
huge_float = st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 1e200, -1e200, 1e154])
huge_int = st.sampled_from([2**63, 10**30, 10**400])
number = st.one_of(st.integers(-2, 12), st.floats(), huge_float, huge_int, st.booleans())
junk = st.one_of(number, st.text(max_size=2), st.none(), st.lists(number, max_size=3))


def mostly(valid, invalid=junk):
    """valid seven times in eight, else invalid, so that many runs get past
    the input checks (st.one_of would weigh each branch of junk alike)."""
    return st.integers(0, 7).flatmap(lambda k: invalid if k == 7 else valid)


count = mostly(st.integers(1, 6))
counts = mostly(st.lists(st.integers(1, 6), min_size=2, max_size=4))


@st.composite
def populations(draw):
    small = st.integers(-5, 5) | st.floats(-10, 10)
    values = draw(mostly(
        st.lists(small, min_size=1, max_size=8),
        st.lists(small | huge_float, max_size=8) | st.lists(junk, max_size=8) | junk,
    ))
    size = len(values) if isinstance(values, list) else 0
    pop = {"values": values}
    if draw(st.booleans()):
        # One list in eight is a unit short or long, for the coverage check.
        length = draw(mostly(st.just(size), st.sampled_from([size + 1, max(size - 1, 0)])))
        pop["sizes"] = draw(mostly(
            st.lists(st.integers(1, 6), min_size=length, max_size=length),
            st.lists(number, min_size=length, max_size=length) | junk,
        ))
    if draw(st.booleans()):
        path = [[j for j in (i - 1, i + 1) if 0 <= j < size] for i in range(size)]
        pop["adjacency"] = draw(mostly(st.just(path), st.lists(junk, max_size=8) | junk))
        pop["threshold"] = draw(mostly(st.floats(-5, 5)))
    if draw(st.booleans()):
        pop["subgroup_sizes"] = draw(counts)
    if draw(mostly(st.just(False), st.just(True))):
        pop[draw(st.sampled_from(["sizez", "comment", "Values", ""]))] = draw(junk)
    return pop


@st.composite
def designs(draw):
    design = {"design": draw(mostly(st.sampled_from(DESIGNS)))}
    if draw(mostly(st.just(True), st.just(False))):
        design["n"] = draw(count)
    for key, value in (("n1", count), ("group_sizes", counts)):
        if draw(st.booleans()):
            design[key] = draw(value)
    return design


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["verify", "compare", "enumerate"]),
    population=populations(),
    design=designs(),
    trials=st.integers(-1, 200),
    seed=st.integers(-1, 2**64),
)
def test_cli_exits_cleanly(tmp_path_factory, command, population, design, trials, seed):
    path = tmp_path_factory.mktemp("fuzz") / "pop.json"
    path.write_text(json.dumps(population))
    argv = [command, "--population", str(path), "--design", json.dumps(design),
            "--trials", str(trials), "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    assert all(line.startswith("error:") for line in err.splitlines()), err
    if code != 1:
        json.loads(out)
