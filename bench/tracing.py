"""Span recorder that times finpop's layers from outside.

`Tracer.installed()` replaces public functions of the finpop modules with
wrappers that record a span per call: name, start, end, parent span and job
id, plus an optional count of the work the call did.  Spans stay in memory
until the benchmark reads them.  Nothing under ``src/`` changes: the
wrappers are put into every finpop module namespace that holds the original
function object, and taken out again when the context ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from jobs import ordered_outcomes


@dataclass
class Span:
    name: str
    parent: Optional[int]
    job: Optional[str]
    start: float = 0.0
    end: float = 0.0
    count: float = 0.0
    error: Optional[str] = None


def _trials(args, kwargs, result) -> float:
    return float(kwargs.get("trials", args[2] if len(args) > 2 else 0))


def _states(args, kwargs, result) -> float:
    return float(sum(len(step) for step in result))


def _outcomes(args, kwargs, result) -> float:
    inst, config = args[:2]
    population = {"values": inst.population.values,
                  "sizes": None if inst.weights is None else inst.weights.sizes}
    design = {"design": config.design, "n": config.n, "n1": config.n1,
              "group_sizes": config.group_sizes or ()}
    return float(ordered_outcomes(population, design))


# (span name, module, attribute, count).  An attribute "Class.method" wraps a
# classmethod.  Two entries may share a span name.
LAYERS = (
    ("cli.main", "finpop.cli", "main", None),
    ("population.instance_from_mapping", "finpop.verify", "Instance.from_mapping", None),
    ("population.compute_networks", "finpop.population", "compute_networks", None),
    ("population.extend_pps", "finpop.population", "extend_pps", None),
    ("population.flatten_networks", "finpop.population", "flatten_networks", None),
    ("verify.estimator_spec", "finpop.verify", "estimator_spec", None),
    ("verify.run_monte_carlo", "finpop.verify", "run_monte_carlo", None),
    ("verify.simulate_blocks", "finpop.verify", "simulate_blocks", _trials),
    ("verify.relative_efficiency", "finpop.verify", "relative_efficiency", None),
    ("verify.enumerate_moments", "finpop.verify", "enumerate_moments", _outcomes),
    ("verify.count_distributions_upto", "finpop.verify", "count_distributions_upto", _states),
    ("verify.count_moments", "finpop.verify", "count_moments", None),
    ("distributions.pmf", "finpop.distributions", "mvhyper_pmf", None),
    ("distributions.pmf", "finpop.distributions", "multinomial_pmf", None),
    ("distributions.sample_counts", "finpop.distributions", "sample_counts", None),
    ("designs.srs", "finpop.designs", "srs", None),
    ("designs.pps_wr", "finpop.designs", "pps_wr", None),
    ("designs.pps_wor_extended", "finpop.designs", "pps_wor_extended", None),
    ("designs.acs", "finpop.designs", "acs", None),
    ("designs.random_group_split", "finpop.designs", "random_group_split", None),
    ("estimators.sample_mean", "finpop.estimators", "sample_mean", None),
    ("estimators.hansen_hurvitz", "finpop.estimators", "hansen_hurvitz", None),
    ("estimators.acs_mean", "finpop.estimators", "acs_mean", None),
    ("estimators.random_group_variance_estimate", "finpop.estimators",
     "random_group_variance_estimate", None),
)


class Tracer:
    """Collects spans; `job` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: Optional[str] = None
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.job)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                raise
            else:
                span.end = time.perf_counter()
                if count is not None:
                    span.count = count(args, kwargs, result)
                return result
            finally:
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer in LAYERS for the duration of the context."""
        restore: list[tuple[object, str, object]] = []
        try:
            for name, module_name, attr, count in LAYERS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    restore.append((cls, method, cls.__dict__[method]))
                    setattr(cls, method, self.wrap(name, getattr(cls, method), count))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, count)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "finpop" and not mod_name.startswith("finpop."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for target, key, original in reversed(restore):
                setattr(target, key, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own
