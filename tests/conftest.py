import numpy as np
import pytest


def compositions(total, parts):
    """All ordered splits of `total` into `parts` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


class ScriptedRng:
    """Deterministic stand-in feeding a fixed script of choices, used to
    enumerate every reachable sampler output."""

    def __init__(self, script):
        self.script = list(script)
        self.pos = 0

    def integers(self, low, high=None):
        if high is None:
            low, high = 0, low
        v = self.script[self.pos]
        self.pos += 1
        assert low <= v < high
        return v


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
