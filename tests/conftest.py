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
    enumerate every reachable sampler output.

    Like Generator.integers it takes a scalar or an array `high`, and a
    `size`: an array call returns that many scripted values in order, each
    checked against its own bound."""

    def __init__(self, script):
        self.script = list(script)
        self.pos = 0

    def integers(self, low, high=None, size=None):
        if high is None:
            low, high = 0, low
        if size is None and np.ndim(high) == 0:
            return self._next(low, high)
        bounds = np.broadcast_to(high, np.shape(high) if size is None else size)
        return np.array([self._next(low, int(b)) for b in bounds.flat]).reshape(bounds.shape)

    def _next(self, low, high):
        v = self.script[self.pos]
        self.pos += 1
        assert low <= v < high
        return v


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
