import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from finpop import verify

DEMO = Path(__file__).resolve().parent.parent / "scripts" / "efficiency_demo.py"


@pytest.fixture
def demo():
    spec = importlib.util.spec_from_file_location("efficiency_demo", DEMO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_efficiency_demo_passes(demo, capsys):
    assert demo.main() == 0
    assert "FAIL" not in capsys.readouterr().out


def test_efficiency_demo_exits_1_on_a_failed_row(demo, monkeypatch, capsys):
    real = demo.relative_efficiency
    calls = []

    def second_row_fails(inst, cfg):
        calls.append(cfg)
        rep = real(inst, cfg)
        return dataclasses.replace(rep, verdict=rep.verdict and len(calls) != 2)

    monkeypatch.setattr(demo, "relative_efficiency", second_row_fails)
    assert demo.main() == 1
    assert capsys.readouterr().out.count("FAIL") == 1


CALIBRATE = Path(__file__).resolve().parent.parent / "scripts" / "calibrate_bands.py"


@pytest.fixture
def calibrate():
    spec = importlib.util.spec_from_file_location("calibrate_bands", CALIBRATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_bands_counts_every_band_at_a_few_seeds(calibrate, capsys):
    assert calibrate.main(["--seeds", "3", "--trials", "2000", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rng_stream"] == verify.RNG_STREAM and report["seeds"] == 3
    rows = report["rows"]
    assert len(rows) == 2 * 6
    for row in rows:
        no_variance = row["case"] == "rg_222_N8" and row["band"] == "empirical_variance_within_band"
        assert row["seeds"] == (0 if no_variance else 3)
        if row["seeds"]:
            low, high = row["clopper_pearson_95"]
            assert 0 <= low <= row["rate"] <= high <= 1
    assert calibrate.main(["--seeds", "2", "--trials", "500"]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].startswith("finpop=") and len(table) == 2 + 12
    assert "n/a" in table[-3]


def test_clopper_pearson_matches_known_intervals(calibrate):
    # Beta quantiles: 1 - 0.025^(1/200), and the symmetric 5-of-10 interval.
    assert calibrate.clopper_pearson(0, 200) == pytest.approx((0.0, 1 - 0.025 ** (1 / 200)))
    low, high = calibrate.clopper_pearson(5, 10)
    assert low == pytest.approx(0.187086, abs=1e-6) and high == pytest.approx(1 - low)
    assert calibrate.clopper_pearson(10, 10) == pytest.approx((0.025 ** (1 / 10), 1.0))
