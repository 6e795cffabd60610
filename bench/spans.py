"""In-memory span tracer that instruments cotv from outside.

``install`` replaces cotv's public functions and methods with wrappers
that open a span around each call and count the work passed in; the
returned function puts every original back.  Nothing under ``src/`` is
edited.  A function is replaced at every module attribute that holds it,
because cotv reaches the same function by several names: ``eu`` and
``non_eu`` bind ``find_root`` at import time, ``cli`` binds
``parse_config`` and the valuation entry points, and the expectation
methods and ``rdu_valuation`` import ``integrate``/``expand_bracket`` from
``cotv.numerics`` at call time (which the module attribute covers).

A span is ``[name, start_ns, end_ns, parent, op]``.  Spans stay in memory
until the caller takes them with ``Tracer.drain``; a layer's self time is
its span time minus the time covered by its child spans.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

import numpy as np

# Span names are the per-layer metric stems: "<name>_s" is their self time.
CONFIG = "config.parse"
CONSTRUCT = "preferences.construct"
PDF_CDF = "distributions.pdf_cdf"
EXPECT = "distributions.expect"
INTEGRATE = "numerics.integrate"
FIND_ROOT = "numerics.find_root"
BRACKET = "numerics.expand_bracket"
OP = "op"

# (module, attribute, span name, call counter or None)
_FUNCTIONS = [
    ("cotv.config", "parse_config", CONFIG, "config.parse_calls"),
    ("cotv.config", "build_model", CONFIG, "config.model_builds"),
    ("cotv.config", "build_utility", CONFIG, "config.utility_builds"),
    ("cotv.config", "build_weighting", CONFIG, "config.weighting_builds"),
    ("cotv.eu", "evaluate", "eu.evaluate", None),
    ("cotv.non_eu", "dt_valuation", "non_eu.dt_valuation", None),
    ("cotv.non_eu", "rdu_valuation", "non_eu.rdu_valuation", None),
    ("cotv.cli", "run_scenario", "cli.run_scenario", "cli.run_scenario_calls"),
    ("cotv.cli", "render_envelope", "cli.render", None),
    ("cotv.cli", "render_csv", "cli.render", None),
]

_EXPECT_METHODS = ("expect", "dual_expect", "distorted_expect")


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.stack.pop()

    def drain(self) -> tuple[list[list], collections.Counter]:
        """Take the spans and counters recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], collections.Counter()
        return spans, counts


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds of self time per span name."""
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = collections.defaultdict(float)
    for (name, start, end, _, _), child in zip(spans, covered):
        totals[name] += (end - start - child) * 1e-9
    return dict(totals)


def _span(tracer: Tracer, name: str, fn, counter: str | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter:
            tracer.counts[counter] += 1
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


def _nodes_span(tracer: Tracer, counter: str, fn):
    """pdf/cdf: one call and ``size(t)`` nodes per evaluation."""
    @functools.wraps(fn)
    def wrapper(self, t):
        tracer.counts[counter] += 1
        tracer.counts["distributions.nodes"] += np.size(t)
        index = tracer.open(PDF_CDF)
        try:
            return fn(self, t)
        finally:
            tracer.close(index)
    return wrapper


def _counting(tracer: Tracer, fn, calls: str, nodes: str | None = None):
    """Wrap a callback handed to the kernel so its evaluations are counted."""
    def counted(x):
        tracer.counts[calls] += 1
        if nodes:
            tracer.counts[nodes] += np.size(x)
        return fn(x)
    return counted


def _integrate(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(f, lo, hi, *args, **kwargs):
        tracer.counts["numerics.integrate_calls"] += 1
        index = tracer.open(INTEGRATE)
        try:
            counted = _counting(tracer, f, "numerics.panels",
                                "numerics.integrand_evals")
            return fn(counted, lo, hi, *args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


def _find_root(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(g, lo, hi, *args, **kwargs):
        tracer.counts["numerics.find_root_calls"] += 1
        index = tracer.open(FIND_ROOT)
        try:
            return fn(_counting(tracer, g, "numerics.root_evals"), lo, hi,
                      *args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


def _expand_bracket(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(g, lo, hi, *args, **kwargs):
        tracer.counts["numerics.expand_bracket_calls"] += 1
        index = tracer.open(BRACKET)
        try:
            return fn(_counting(tracer, g, "numerics.bracket_evals"), lo, hi,
                      *args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


def _replace_everywhere(original, replacement, undo: list) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cotv" or name.startswith("cotv.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def _replace_method(cls, attr: str, replacement, undo: list) -> None:
    undo.append((cls, attr, cls.__dict__[attr]))
    setattr(cls, attr, replacement)


def install(tracer: Tracer):
    """Instrument the imported cotv modules; returns the undo function."""
    import cotv.cli  # noqa: F401  (imports config, eu, non_eu, numerics)
    from cotv import distributions, numerics, preferences

    undo: list = []
    for module_name, attr, span, counter in _FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        _replace_everywhere(original, _span(tracer, span, original, counter), undo)
    for attr, make in (("integrate", _integrate), ("find_root", _find_root),
                       ("expand_bracket", _expand_bracket)):
        original = getattr(numerics, attr)
        _replace_everywhere(original, make(tracer, original), undo)

    config = sys.modules["cotv.config"]
    original = config.ScenarioConfig.canonical
    _replace_method(config.ScenarioConfig, "canonical",
                    _span(tracer, CONFIG, original), undo)

    for cls in vars(distributions).values():
        if not (isinstance(cls, type) and issubclass(cls, distributions.ServiceTimeModel)):
            continue
        for attr, counter in (("pdf", "distributions.pdf_calls"),
                              ("cdf", "distributions.cdf_calls")):
            if attr in cls.__dict__:
                _replace_method(cls, attr,
                                _nodes_span(tracer, counter, cls.__dict__[attr]), undo)
        for attr in _EXPECT_METHODS:
            if attr in cls.__dict__:
                _replace_method(cls, attr, _span(tracer, EXPECT, cls.__dict__[attr],
                                                 "distributions.expect_calls"), undo)

    bases = (preferences.UtilityFunction, preferences.WeightingFunction)
    for cls in vars(preferences).values():
        if isinstance(cls, type) and issubclass(cls, bases) and "__init__" in cls.__dict__:
            _replace_method(cls, "__init__",
                            _span(tracer, CONSTRUCT, cls.__dict__["__init__"]), undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


def layer_metrics(spans: list[list], counts: collections.Counter) -> dict[str, float]:
    """Per-layer counters and self times of one traced pass."""
    metrics = {name: float(value) for name, value in counts.items()}
    calls = counts["numerics.expand_bracket_calls"]
    # two evaluations open every bracket search; the rest are expansion steps
    metrics["numerics.bracket_expansions"] = float(counts["numerics.bracket_evals"] - 2 * calls)
    for name, seconds in self_times(spans).items():
        metrics[f"{name}_s"] = seconds
    return metrics
