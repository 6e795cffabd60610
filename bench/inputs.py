"""Seeded inputs for the three workloads.

Every generator takes the workload seed and returns plain scenario dicts
(the same JSON documents a user would pass to ``cotv value``), so the
program under test sees only generated inputs.  The report corpus is
stratified: each cell below contributes the same number of scenarios at
every seed, and the seed moves parameters only inside the cell's ranges.
That keeps the cost mix, and so the measured rates, the same from seed to
seed.

The ranges fix the domain in which every scenario converges.  They are
chosen from the parameter regions recorded in ``ledger.json``, never by
running scenarios and dropping the failures.
"""

from __future__ import annotations

import random

# 15 scenarios a cell: the p90 of report-mix sits inside the cluster of
# costly RDU reports, whose cost varies with the drawn parameters, so with
# 5 a cell the p90 moved 9% between seeds and with 15 it moves 4%.
SCENARIOS_PER_CELL = 15
GRIDS = 32
GRID_MODELS = 8
GRID_B_VALUES = 4


def _scenario(framework, distribution, preference, weighting=None,
              method="both"):
    raw = {"framework": framework, "distribution": distribution,
           "preference": preference, "economics": {"phi": 1.0},
           "method": method, "seed": 0}
    if weighting is not None:
        raw["weighting"] = weighting
    return raw


def _round(x):
    return float(f"{x:.4g}")


class _Draw:
    """Parameter draws inside the converging domain.

    Inside ``cell(n)`` the draws are Latin-hypercube stratified: the k-th of
    the n scenarios takes each parameter from its own 1/n slice of the
    range, the slices shuffled independently per parameter.  Every seed then
    covers each range evenly, which keeps the cost mix steady across seeds.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.size = 1
        self.strata: dict[int, list[int]] = {}
        self.scenario = 0
        self.calls = 0

    def cell(self, size: int) -> None:
        self.size, self.strata, self.scenario = size, {}, -1

    def next_scenario(self) -> None:
        self.scenario += 1
        self.calls = 0

    def u(self, lo, hi):
        if self.size == 1:
            return _round(self.rng.uniform(lo, hi))
        if self.calls not in self.strata:
            self.strata[self.calls] = self.rng.sample(range(self.size), self.size)
        slot = self.strata[self.calls][self.scenario]
        self.calls += 1
        return _round(lo + (slot + self.rng.random()) * (hi - lo) / self.size)

    def spread(self, lo, hi, n):
        """n ascending values, one from each 1/n slice of [lo, hi]."""
        return [_round(lo + (i + self.rng.random()) * (hi - lo) / n) for i in range(n)]

    # -- distributions
    def exponential(self):
        return {"family": "exponential", "params": {"rate": self.u(0.2, 3.0)}}

    def uniform(self):
        lo = self.u(0.0, 5.0)
        return {"family": "uniform",
                "params": {"lo": lo, "hi": _round(lo + self.u(0.5, 10.0))}}

    def lognormal(self):
        # 0.25 <= log_sd <= 0.6 stays clear of ledger regions (c) and (g)
        return {"family": "lognormal",
                "params": {"log_mean": self.u(0.0, 2.0), "log_sd": self.u(0.25, 0.6)}}

    def gamma(self):
        # shape >= 1.5 stays clear of ledger region (e)
        return {"family": "gamma",
                "params": {"shape": self.u(1.5, 5.0), "rate": self.u(0.3, 3.0)}}

    def discrete(self):
        n = self.rng.randint(3, 8)
        outcomes = sorted({self.u(0.5, 20.0) for _ in range(n)})
        weights = [self.rng.uniform(0.1, 1.0) for _ in outcomes]
        total = sum(weights)
        probabilities = [w / total for w in weights]
        probabilities[-1] = 1.0 - sum(probabilities[:-1])
        return {"family": "discrete", "outcomes": outcomes,
                "probabilities": probabilities}

    def banded(self, p0=0.5, psi=0.5):
        half = self.rng.randint(1, 4)
        steps = sorted(self.u(0.2, 3.0) for _ in range(half))
        xi = [-s for s in reversed(steps)] + ([0.0] if self.rng.random() < 0.5 else []) + steps
        return {"family": "discrete",
                "dt": {"t0": self.u(5.0, 30.0), "xi": xi, "p0": p0, "psi": psi}}

    # -- preferences
    def pure_quadratic(self):
        return {"family": "pure_quadratic", "params": {"a": -self.u(0.1, 2.0)}}

    def quadratic(self):
        return {"family": "quadratic",
                "params": {"a": -self.u(0.1, 2.0), "b": -self.u(0.0, 3.0)}}

    def power(self):
        return {"family": "power", "params": {"exponent": self.u(1.2, 3.0)}}

    def affine(self):
        return {"family": "affine", "params": {"slope": self.u(0.5, 2.0)}}

    # -- weightings
    def inverse_s(self, lo=0.6, p0=0.5, psi=0.5):
        return {"family": "inverse_s", "params": {"gamma": self.u(lo, 0.9)},
                "p0": p0, "psi": psi}

    def power_weighting(self, lo, hi):
        return {"family": "power", "params": {"gamma": self.u(lo, hi)}}

    @staticmethod
    def identity():
        return {"family": "identity"}


def _cells(d: _Draw):
    """(tags, weight, scenario factory), one per corpus cell.

    A cell holds ``weight * SCENARIOS_PER_CELL`` scenarios.  The RDU
    lognormal cell weighs double: with its identity twins it makes the
    costliest 45 of 315 reports, so the p90 falls inside that cluster
    rather than on the edge between two.

    Tags name the correctness checks a cell takes part in: ``pq_bound``
    scenarios must attain the quadratic ceiling rho = CV^2/2 exactly, and
    an ``eu_twin`` is re-run as an ``rdu_identity`` scenario that must
    reproduce it.
    """
    return [
        # expected utility
        ("pq_bound eu_twin", 1, lambda: _scenario("eu", d.exponential(), d.pure_quadratic())),
        ("", 1, lambda: _scenario("eu", d.uniform(), d.quadratic())),
        ("eu_twin", 1, lambda: _scenario("eu", d.lognormal(), d.power())),
        ("", 1, lambda: _scenario("eu", d.gamma(), d.quadratic())),
        ("", 1, lambda: _scenario("eu", d.discrete(), d.power())),
        ("pq_bound", 1, lambda: _scenario("eu", d.banded(), d.pure_quadratic())),
        # dual theory (linear utility; the preference block is required but unused)
        ("", 1, lambda: _scenario("dt", d.exponential(), d.affine(), d.inverse_s())),
        ("", 1, lambda: _scenario("dt", d.gamma(), d.affine(), d.power_weighting(0.6, 1.6))),
        ("", 1, lambda: _scenario("dt", d.lognormal(), d.affine(), d.inverse_s())),
        # gamma >= 2 on uniform stays clear of ledger regions (a) and (h)
        ("", 1, lambda: _scenario("dt", d.uniform(), d.affine(), d.power_weighting(2.0, 3.0))),
        ("", 1, lambda: _scenario("dt", d.banded(0.4, 0.3), d.affine(), d.inverse_s(p0=0.4, psi=0.3))),
        ("", 1, lambda: _scenario("dt", d.discrete(), d.affine(), d.power_weighting(0.5, 2.0))),
        # rank-dependent utility: power weighting only with gamma > 1 (region
        # b; >= 2 on uniform, region h), inverse-S gamma >= 0.75 on continuous
        # models (region g), and u'(0) = 0 utilities on supports from 0, which
        # keep the inverse-S singularity of w' at F = 0 harmless (region d)
        ("", 2, lambda: _scenario("rdu", d.lognormal(), d.power(), d.inverse_s(0.75))),
        ("", 1, lambda: _scenario("rdu", d.exponential(), d.pure_quadratic(), d.inverse_s(0.75))),
        ("", 1, lambda: _scenario("rdu", d.gamma(), d.power(), d.inverse_s(0.75))),
        ("", 1, lambda: _scenario("rdu", d.uniform(), d.affine(), d.power_weighting(2.0, 3.0))),
        ("", 1, lambda: _scenario("rdu", d.banded(), d.quadratic(), d.inverse_s())),
        ("", 1, lambda: _scenario("rdu", d.discrete(), d.power(), d.power_weighting(1.1, 2.0))),
    ]


def report_corpus(seed: int) -> list[dict]:
    """Stratified report corpus: ``[{"config", "cell", "tags", "twin"}]``.

    ``twin`` is the index of the EU scenario an ``rdu_identity`` item must
    reproduce, else None.  The order is shuffled by the seed.
    """
    rng = random.Random(seed)
    d = _Draw(rng)
    items = []
    for cell, (tags, weight, make) in enumerate(_cells(d)):
        d.cell(weight * SCENARIOS_PER_CELL)
        for _ in range(weight * SCENARIOS_PER_CELL):
            d.next_scenario()
            items.append({"config": make(), "cell": cell, "tags": tags.split(),
                          "twin": None})
    rng.shuffle(items)
    for index in range(len(items)):
        item = items[index]
        if "eu_twin" in item["tags"]:
            twin = dict(item["config"], framework="rdu", weighting=d.identity())
            items.append({"config": twin, "cell": -item["cell"] - 1,
                          "tags": ["rdu_identity"], "twin": index})
    return items


def sweep_grids(seed: int) -> list[dict]:
    """Two-axis EU grids: a model axis mixing exponential and uniform
    models, times the linear coefficient b of a quadratic utility.  Every
    grid has both families, so every sweep costs about the same, and
    includes b = 0, whose rows must attain the quadratic ceiling."""
    d = _Draw(random.Random(seed))
    grids = []
    d.cell(GRIDS)
    for _ in range(GRIDS):
        d.next_scenario()
        rates = d.spread(0.2, 3.0, GRID_MODELS // 2)
        widths = d.spread(0.5, 10.0, GRID_MODELS // 2)
        lows = d.spread(0.0, 5.0, GRID_MODELS // 2)
        d.rng.shuffle(lows)
        models = ([{"family": "exponential", "params": {"rate": rate}} for rate in rates]
                  + [{"family": "uniform", "params": {"lo": lo, "hi": _round(lo + width)}}
                     for lo, width in zip(lows, widths)])
        raw = _scenario("eu", models[0], {"family": "quadratic",
                                          "params": {"a": -d.u(0.1, 2.0), "b": 0.0}})
        b_axis = d.spread(-3.0, -0.01, GRID_B_VALUES - 1) + [0.0]
        raw["sweep"] = {"axes": {"distribution": models, "preference.params.b": b_axis}}
        raw["output"] = {"format": "csv", "path": None}
        grids.append(raw)
    return grids


def cli_configs(seed: int) -> list[dict]:
    """The three ``cotv value`` scenarios the cold-CLI workload cycles through."""
    d = _Draw(random.Random(seed))
    return [
        _scenario("eu", d.exponential(), d.pure_quadratic()),
        _scenario("dt", d.banded(), d.affine(), d.inverse_s()),
        _scenario("rdu", d.lognormal(), d.power(), d.inverse_s(0.75),
                  method="second_order"),
    ]
