import dataclasses
import importlib.util
from pathlib import Path

import pytest

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
