"""`python -m finpop.cli` run as a process, with warnings turned into errors:
exit codes, stdout and stderr as a user sees them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(tmp_path, command, population, design, *extra):
    path = tmp_path / "pop.json"
    path.write_text(json.dumps(population))
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error"}
    argv = [sys.executable, "-m", "finpop.cli", command, "--population", str(path),
            "--design", json.dumps(design), *extra]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize(
    "command, population, design, extra, code",
    [
        ("verify", {"values": [1, 2, 3, 4, 5]}, {"design": "srs", "n": 2},
         ["--trials", "20000", "--seed", "42"], 0),
        # 101 trials leave the variance band unevaluated, so the verdict fails.
        ("verify", {"values": list(range(5000))}, {"design": "srs", "n": 10},
         ["--trials", "101", "--seed", "7"], 2),
        ("enumerate", {"subgroup_sizes": [2, 3]}, {"design": "counts", "n": 2}, [], 0),
    ],
    ids=["verify-passes", "verify-fails", "enumerate-counts"],
)
def test_a_report_is_json_on_stdout_with_its_exit_code(
    tmp_path, command, population, design, extra, code
):
    proc = run_cli(tmp_path, command, population, design, *extra)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == ""
    assert isinstance(json.loads(proc.stdout), dict)


def test_a_count_design_outside_enumerate_is_one_error_line(tmp_path):
    proc = run_cli(tmp_path, "verify", {"subgroup_sizes": [2, 3]}, {"design": "counts", "n": 2},
                   "--seed", "1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_an_unwritable_out_is_one_error_line(tmp_path, where):
    out = tmp_path / "no" / "such" / "x.json" if where == "missing-directory" else tmp_path
    proc = run_cli(tmp_path, "enumerate", {"values": [1, 2, 3]}, {"design": "srs", "n": 2},
                   "--out", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: cannot write {out}: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_an_fsum_overflow_is_one_error_line(tmp_path):
    # math.fsum raises OverflowError on the population's own sums.
    proc = run_cli(tmp_path, "verify", {"values": [1e308, 1e308]}, {"design": "srs", "n": 1},
                   "--seed", "1", "--trials", "200")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: numbers out of range: intermediate overflow in fsum\n"


def test_importing_finpop_loads_no_more_of_numpy_random_than_numpy_does():
    # numpy 2 loads numpy.random on first use, some 5 MB of resident memory
    # (numpy 1 loads it with numpy itself).  finpop reaches for it only when
    # it samples, so a process that runs the oracle, or only imports finpop,
    # does not pay for it.
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; import finpop; "
            "print(before, 'numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    before, after = proc.stdout.split()
    assert after == before, proc.stderr
