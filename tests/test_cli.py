import copy
import csv
import io
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cotv import cli, config
from cotv.cli import (
    main,
    render_csv,
    render_envelope,
    run_scenario,
    scenario_row,
    sweep_rows,
)
from cotv.config import parse_config
from cotv.errors import ConfigError, CotvError, GridTooLargeError
from cotv.non_eu import (
    DtContext,
    RduContext,
    _dt_reports,
    _rdu_reports,
    dt_valuation,
    rdu_valuation,
)

from oracles import bench_inputs


BASE = {
    "framework": "eu",
    "distribution": {"family": "exponential", "params": {"rate": 1.0}},
    "preference": {"family": "pure_quadratic", "params": {"a": -1.0}},
    "economics": {"phi": 1.0},
    "method": "both",
    "seed": 42,
}

EXPONENTIAL = {"family": "exponential", "params": {"rate": 1.0}}
BANDED = {"family": "discrete",
          "dt": {"t0": 2.0, "xi": [-1.0, 1.0], "p0": 0.5, "psi": 0.3}}
DT_TAU_H = {"framework": "dt", "distribution": EXPONENTIAL,
            "preference": {"family": "affine", "params": {}},
            "weighting": {"family": "inverse_s", "params": {"gamma": 0.7},
                          "tau_h": 5}}


def inverse_s(gamma):
    return {"family": "inverse_s", "params": {"gamma": gamma}}


def make_config(**overrides):
    raw = copy.deepcopy(BASE)
    raw.update(overrides)
    return parse_config(raw)


def write_config(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            make_config(bogus=1)
        assert err.value.path == "bogus"

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError) as err:
            make_config(distribution={"family": "exponential",
                                      "params": {"rate": 1.0, "shape": 2.0}})
        assert err.value.path == "distribution.params.shape"

    def test_unknown_family(self):
        with pytest.raises(ConfigError) as err:
            make_config(distribution={"family": "weibull", "params": {}})
        assert err.value.path == "distribution.family"

    def test_weighting_required_for_dt(self):
        raw = copy.deepcopy(BASE)
        raw["framework"] = "dt"
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.path == "weighting"

    def test_weighting_forbidden_for_eu(self):
        with pytest.raises(ConfigError) as err:
            make_config(weighting={"family": "identity"})
        assert err.value.path == "weighting"

    def test_phi_must_be_positive(self):
        with pytest.raises(ConfigError) as err:
            make_config(economics={"phi": 0.0})
        assert err.value.path == "economics.phi"

    def test_seed_must_be_unsigned_64(self):
        with pytest.raises(ConfigError):
            make_config(seed=-3)
        with pytest.raises(ConfigError):
            make_config(seed=2**64)

    def test_invalid_utility_parameters_carry_path(self):
        with pytest.raises(ConfigError) as err:
            make_config(preference={"family": "pure_quadratic",
                                    "params": {"a": 1.0}})
        assert err.value.path == "preference"

    def test_grid_too_large(self):
        with pytest.raises(GridTooLargeError):
            make_config(sweep={"axes": {
                "distribution.params.rate": list(range(1001)),
                "economics.phi": list(range(1001)),
            }})

    @pytest.mark.parametrize("tau_h", [-1, 0, True])
    def test_tau_h_must_be_auto_or_positive(self, tau_h):
        raw = copy.deepcopy(BASE)
        raw["framework"] = "rdu"
        raw["weighting"] = {"family": "identity", "tau_h": tau_h}
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.path == "weighting.tau_h"

    @pytest.mark.parametrize("overrides, path, message", [
        pytest.param(
            {"distribution": {"family": "exponential", "params": {"rate": 0.0}}},
            "distribution", "distribution: exponential rate must be positive",
            id="exponential-rate-zero"),
        pytest.param(
            {"distribution": {"family": "uniform",
                              "params": {"lo": 2.0, "hi": 1.0}}},
            "distribution", "distribution: uniform requires hi > lo",
            id="uniform-hi-below-lo"),
        pytest.param(
            {"distribution": [1, 2]},
            "distribution", "distribution: expected an object, got list",
            id="distribution-list"),
        pytest.param(
            {"distribution": {"family": "weibull", "params": {}}},
            "distribution.family",
            "distribution.family: unknown distribution family 'weibull'",
            id="unknown-distribution"),
        pytest.param(
            {"distribution": {"family": "shifted_scaled", "base": EXPONENTIAL,
                              "scale": 0.0}},
            "distribution", "distribution: scale must be positive",
            id="shifted-scale-zero"),
        pytest.param(
            {"distribution": {"family": "shifted_scaled", "base": {
                "family": "exponential", "params": {"rate": -1.0}}}},
            "distribution.base",
            "distribution.base: exponential rate must be positive",
            id="shifted-bad-base"),
        pytest.param(
            {"distribution": {"family": "shifted_scaled", "base": {
                "family": "degenerate", "params": {"value": 1.0}}, "loc": 1.0}},
            "distribution",
            "distribution: shifted_scaled wraps continuous models only",
            id="shifted-degenerate-base"),
        pytest.param(
            {"distribution": {"family": "discrete", "outcomes": [1.0, 2.0],
                              "probabilities": [0.5, 0.6]}},
            "distribution", "distribution: probabilities sum to 1.1, not 1",
            id="discrete-mass"),
        pytest.param(
            {"distribution": {"family": "discrete", "outcomes": [2.0, 1.0],
                              "probabilities": [0.5, 0.5]}},
            "distribution", "distribution: outcomes must be sorted ascending",
            id="discrete-unsorted"),
        pytest.param(
            {"distribution": dict(BANDED, outcomes=[1.0, 3.5])},
            "distribution.outcomes",
            "distribution.outcomes: disagrees with the dt construction",
            id="banded-outcomes-disagree"),
        pytest.param(
            {"distribution": {"family": "discrete",
                              "dt": dict(BANDED["dt"], bogus=1)}},
            "distribution.dt.bogus", "distribution.dt.bogus: unknown key",
            id="dt-extra-key"),
        pytest.param(
            {"distribution": {"family": "discrete",
                              "dt": {"t0": 3.0, "xi": [-1e-200, 1e-200]}}},
            "distribution.dt.xi", "distribution.dt.xi: t0 + xi rounds distinct "
            "perturbations to one outcome at t0=3.0",
            id="dt-collapsed-band"),
        pytest.param(
            {"distribution": {"family": "degenerate", "params": {"value": 1e-300}},
             "preference": {"family": "constant_prudence", "params": {"prudence": 2.0}}},
            "preference", "preference: mean time 1e-300 lies outside the "
            "utility's interval [1, 1000]",
            id="mean-outside-interval"),
        pytest.param(
            # rdu values a band at its anchor t0 = 0.5; its mean is 1.35
            {"framework": "rdu", "weighting": {"family": "identity"},
             "distribution": {"family": "discrete", "dt": {
                 "t0": 0.5, "xi": [-0.25, 0.25], "psi": 0.3, "t_max": 5.0}},
             "preference": {"family": "power", "params": {"exponent": 1.5},
                            "interval": [1.0, 10.0]}},
            "preference", "preference: mean time 0.5 lies outside the "
            "utility's interval [1, 10]",
            id="band-anchor-outside-interval"),
        pytest.param(
            {"preference": {"family": "pure_quadratic", "params": {"a": 1.0}}},
            "preference", "preference: quadratic utility requires a < 0",
            id="pure-quadratic-a-positive"),
        pytest.param(
            {"preference": {"family": "pure_quadratic", "params": {"a": -1.0},
                            "interval": [0, 1, 2]}},
            "preference.interval", "preference.interval: expected [lo, hi]",
            id="interval-three"),
        pytest.param(
            {"preference": {"family": "cubic", "params": {}}},
            "preference.family",
            "preference.family: must be one of ('quadratic', 'pure_quadratic', "
            "'power', 'constant_prudence', 'affine'), got 'cubic'",
            id="unknown-utility"),
        pytest.param(
            {"framework": "rdu", "weighting": {"family": "prelec"}},
            "weighting.family",
            "weighting.family: must be one of ('identity', 'power', "
            "'inverse_s'), got 'prelec'",
            id="unknown-weighting"),
        pytest.param(
            {"framework": "rdu", "weighting": {"family": "power",
                                               "params": {"gamma": -1.0}}},
            "weighting", "weighting: power weighting requires gamma > 0",
            id="power-gamma-negative"),
        pytest.param(
            {"framework": "rdu", "weighting": {"family": "identity",
                                               "params": {"gamma": 1.0}}},
            "weighting.params.gamma", "weighting.params.gamma: unknown key",
            id="weighting-extra-param"),
    ])
    def test_config_error_path_and_message(self, overrides, path, message):
        with pytest.raises(ConfigError) as err:
            make_config(**copy.deepcopy(overrides))
        assert (err.value.path, str(err.value)) == (path, message)

    @pytest.mark.parametrize("gamma", [1e10, 1e300])
    def test_weighting_slope_must_be_finite(self, gamma):
        # (1 - p)^gamma and p^gamma underflow to 0/0, so w' is NaN inside (0, 1)
        with pytest.raises(ConfigError) as err:
            make_config(framework="rdu", weighting=inverse_s(gamma))
        assert (err.value.path, str(err.value)) == (
            "weighting", "weighting: inverse_s: derivative not finite on (0, 1)")

    def test_tau_h_is_an_unknown_key_for_dt(self):
        raw = copy.deepcopy(DT_TAU_H)
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert (err.value.path, err.value.message) == ("weighting.tau_h",
                                                       "unknown key")
        raw["framework"] = "rdu"
        assert parse_config(raw).data["weighting"]["tau_h"] == 5

    def test_xi_mean_message_is_a_plain_float(self):
        with pytest.raises(ConfigError) as err:
            make_config(distribution={"family": "discrete",
                                      "dt": {"t0": 2.0, "xi": [0.0, 1.0]}})
        assert "got mean 0.5" in str(err.value)
        assert "np.float64" not in str(err.value)

    def test_readme_names_every_family(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        families = [*config._MODELS, "shifted_scaled", "discrete",
                    *config._UTILITIES, *config._WEIGHTINGS]
        assert [f for f in families if f"`{f}`" not in readme] == []

    def test_round_trip_canonicalisation(self):
        config = make_config()
        echoed = parse_config(config.canonical())
        assert echoed.canonical() == config.canonical()

    def test_canonical_shares_no_container(self):
        raw = dict(copy.deepcopy(BASE), framework="rdu",
                   distribution={"family": "discrete", "outcomes": [1.0, 2.0],
                                 "probabilities": [0.5, 0.5]},
                   weighting={"family": "power", "params": {"gamma": 1.5}},
                   sweep={"axes": {"economics.phi": [1.0, 2.0],
                                   "distribution": [EXPONENTIAL]}})
        config = parse_config(raw)
        before = copy.deepcopy(config.data)
        echo = config.canonical()
        assert echo == config.data

        def containers(tree):
            if isinstance(tree, dict):
                return [tree] + [c for value in tree.values() for c in containers(value)]
            if isinstance(tree, list):
                return [tree] + [c for value in tree for c in containers(value)]
            return []

        assert len(containers(echo)) == 16
        shared = {id(c) for c in containers(echo)} & (
            {id(c) for c in containers(config.data)}
            | {id(c) for c in containers(raw)})
        assert shared == set()
        echo["weighting"]["params"]["gamma"] = 9.0
        echo["sweep"]["axes"]["distribution"][0]["params"]["rate"] = 9.0
        raw["distribution"]["outcomes"].append(3.0)
        assert config.canonical() == config.data == before

    def test_canonical_deep_copies_other_values(self):
        # the library API takes any axis value; one that is not JSON is
        # deep-copied
        leaf = ([1.0, 2.0], {"b": [3.0]})
        config = make_config(sweep={"axes": {"economics.phi": [leaf]}})
        kept = config.data["sweep"]["axes"]["economics.phi"][0]
        echo = config.canonical()["sweep"]["axes"]["economics.phi"][0]
        for copied in (kept, echo):
            assert copied == leaf
            assert copied[0] is not leaf[0] and copied[1]["b"] is not leaf[1]["b"]
        assert echo[0] is not kept[0] and echo[1]["b"] is not kept[1]["b"]

    def test_env_seed_fallback(self, monkeypatch):
        raw = copy.deepcopy(BASE)
        del raw["seed"]
        monkeypatch.setenv("COTV_SEED", "777")
        assert parse_config(raw).seed == 777

    def test_env_seed_must_be_an_integer(self, monkeypatch):
        raw = copy.deepcopy(BASE)
        del raw["seed"]
        monkeypatch.setenv("COTV_SEED", "abc")
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert info.value.path == "seed"
        assert info.value.message == "COTV_SEED must be an integer, got 'abc'"

    def test_seed_override_wins(self):
        raw = copy.deepcopy(BASE)
        assert parse_config(raw, seed_override=9).seed == 9


class TestRunScenario:
    def test_poisson_quadratic_headline(self):
        envelope = run_scenario(make_config())
        results = envelope["results"]
        assert results["rho_exact"] == pytest.approx(0.5, abs=1e-6)
        assert results["rho_second_order"] == pytest.approx(0.5, abs=1e-10)
        assert results["rho_upper_bound"] == pytest.approx(0.5)
        assert results["congestion_multiplier_exact"] == pytest.approx(1.5, abs=1e-6)

    def test_degenerate_scenario(self):
        envelope = run_scenario(make_config(
            distribution={"family": "degenerate", "params": {"value": 5.0}}))
        results = envelope["results"]
        assert results["premium_exact"] == 0.0
        assert results["cotv_exact"] == 0.0
        assert results["rho_exact"] == 0.0
        assert results["eta_exact"] == 1.0
        assert results["eta_second_order"] == 1.0

    def test_rdu_identity_weighting_matches_eu(self):
        eu_env = run_scenario(make_config(
            distribution={"family": "discrete",
                          "dt": {"t0": 10.0, "xi": [-2.0, 0.0, 2.0]}},
            preference={"family": "quadratic", "params": {"a": -1.0, "b": -0.5}},
        ))
        raw = copy.deepcopy(BASE)
        raw["framework"] = "rdu"
        raw["distribution"] = {"family": "discrete",
                               "dt": {"t0": 10.0, "xi": [-2.0, 0.0, 2.0]}}
        raw["preference"] = {"family": "quadratic", "params": {"a": -1.0, "b": -0.5}}
        raw["weighting"] = {"family": "identity"}
        rdu_env = run_scenario(parse_config(raw))
        for field in ("premium_exact", "vot_exact", "cot_exact", "cotv_exact",
                      "rho_exact"):
            assert rdu_env["results"][field] == pytest.approx(
                eu_env["results"][field], abs=1e-9)

    def test_all_numeric_fields_finite(self):
        envelope = run_scenario(make_config())
        for key, value in envelope["results"].items():
            if isinstance(value, float):
                assert value == value and abs(value) != float("inf"), key

    def test_dt_partial_band_scenario(self):
        raw = copy.deepcopy(BASE)
        raw["framework"] = "dt"
        raw["distribution"] = {
            "family": "discrete",
            "dt": {"t0": 10.0, "xi": [-1.0, 1.0], "p0": 0.5, "psi": 0.25,
                   "t_min": 8.0, "t_max": 12.0}}
        raw["weighting"] = {"family": "power", "params": {"gamma": 2.0},
                            "p0": 0.5, "psi": 0.25}
        envelope = run_scenario(parse_config(raw))
        # band weight increments (0.1875, 0.3125) of total 0.5
        assert envelope["results"]["premium_exact"] == pytest.approx(0.25, abs=1e-12)

    def test_dt_plain_discrete_scenario(self):
        # without band metadata the premium comes from the distorted mean
        raw = copy.deepcopy(BASE)
        raw["framework"] = "dt"
        raw["distribution"] = {"family": "discrete",
                               "outcomes": [1.0, 3.0],
                               "probabilities": [0.5, 0.5]}
        raw["weighting"] = {"family": "power", "params": {"gamma": 2.0}}
        envelope = run_scenario(parse_config(raw))
        # distorted mean = 0.25*1 + 0.75*3 = 2.5, plain mean = 2
        assert envelope["results"]["premium_exact"] == pytest.approx(0.5, abs=1e-12)

    def test_shifted_scaled_scenario(self):
        envelope = run_scenario(make_config(distribution={
            "family": "shifted_scaled",
            "base": {"family": "uniform", "params": {"lo": 0.0, "hi": 1.0}},
            "loc": 0.5, "scale": 1.0}))
        assert envelope["results"]["mu"] == pytest.approx(1.0)
        assert envelope["results"]["premium_exact"] == pytest.approx(
            (13.0 / 12.0) ** 0.5 - 1.0, abs=1e-9)


# Grids crossing a whole-distribution axis with preference, weighting and
# economics axes, one per framework.
SWEEP_MODELS = [EXPONENTIAL, {"family": "discrete", "outcomes": [1.0, 3.0],
                              "probabilities": [0.5, 0.5]}]
SWEEP_PARITY = {
    "eu": {"framework": "eu", "distribution": EXPONENTIAL,
           "preference": {"family": "quadratic", "params": {"a": -1.0, "b": -0.5}},
           "economics": {"phi": 1.0},
           "sweep": {"axes": {"distribution": SWEEP_MODELS,
                              "preference.params.a": [-1.0, -2.0],
                              "preference.params.b": [-0.5, 0.0],
                              "economics.phi": [1.0, 2.5]}}},
    "dt": {"framework": "dt", "distribution": EXPONENTIAL,
           "preference": {"family": "affine", "params": {"slope": 1.0}},
           "weighting": inverse_s(0.7), "economics": {"phi": 1.0},
           "sweep": {"axes": {"distribution": SWEEP_MODELS,
                              "preference.params.slope": [1.0, 2.0],
                              "weighting.params.gamma": [0.7, 0.9],
                              "economics.phi": [1.0, 2.5]}}},
    "rdu": {"framework": "rdu", "distribution": EXPONENTIAL,
            "preference": {"family": "power", "params": {"exponent": 1.5}},
            "weighting": inverse_s(0.7), "economics": {"phi": 1.0},
            "sweep": {"axes": {"distribution": SWEEP_MODELS,
                               "preference.params.exponent": [1.5, 2.0],
                               "weighting.params.gamma": [0.7, 0.9],
                               "economics.phi": [1.0, 2.5]}}},
    # two axes under one block, the nested one overriding the whole-block
    # one, and a top-level scalar axis
    "shared-blocks": {"framework": "eu", "distribution": EXPONENTIAL,
                      "preference": {"family": "power", "params": {"exponent": 1.5}},
                      "sweep": {"axes": {
                          "distribution": [EXPONENTIAL, {"family": "gamma", "params":
                                                         {"shape": 2.0, "rate": 1.0}}],
                          "distribution.params.rate": [0.5, 2.0],
                          "method": ["exact", "second_order", "both"]}}},
}


def bits(value):
    """A value's exact text: floats by repr, so -0.0 differs from 0.0."""
    return json.dumps(value, sort_keys=True)


class TestSweep:
    def test_single_point_matches_value(self):
        config = make_config(sweep={"axes": {"economics.phi": [1.0]}})
        columns, rows = sweep_rows(config)
        assert len(rows) == 1
        single = run_scenario(make_config())
        expected = scenario_row(single)
        for key, value in expected.items():
            assert rows[0][key] == value

    def test_lexicographic_ordering(self):
        config = make_config(sweep={"axes": {
            "economics.phi": [1.0, 2.0],
            "distribution.params.rate": [1.0, 4.0],
        }})
        columns, rows = sweep_rows(config)
        assert columns[0] == "axis:distribution.params.rate"
        assert columns[1] == "axis:economics.phi"
        combos = [(row["axis:distribution.params.rate"], row["axis:economics.phi"])
                  for row in rows]
        assert combos == [(1.0, 1.0), (1.0, 2.0), (4.0, 1.0), (4.0, 2.0)]

    def test_sigma_halving_errors_monotone(self):
        # whole-distribution axis values: shrinking spreads around mean 1
        def dist(sigma):
            return {"family": "discrete",
                    "outcomes": [1.0 - sigma, 1.0 + sigma],
                    "probabilities": [0.5, 0.5]}

        config = make_config(
            preference={"family": "power", "params": {"exponent": 1.5}},
            sweep={"axes": {"distribution": [dist(0.4), dist(0.2), dist(0.1)]}})
        _, rows = sweep_rows(config)
        scaled = [row["premium_scaled_error"] for row in rows]
        assert scaled[0] > scaled[1] > scaled[2]

    def test_bad_axis_path(self):
        config = make_config(sweep={"axes": {"distribution.params.shape": [1.0]}})
        with pytest.raises(ConfigError):
            sweep_rows(config)

    def test_first_bad_axis_in_name_order_is_reported(self):
        # "preference-x.q" sorts between "preference" and "preference.params..."
        # ('-' < '.'), so the error names it, though its block comes second
        config = make_config(sweep={"axes": {
            "preference": [{"family": "pure_quadratic", "params": {"a": -1.0}}],
            "preference-x.q": [1.0],
            "preference.params.a.q": [1.0],
        }})
        with pytest.raises(ConfigError) as error:
            sweep_rows(config)
        assert (error.value.path, error.value.message) == \
            ("sweep.axes.preference-x.q", "path does not exist in the base config")

    def test_quadratic_grid_has_no_bound_violations(self):
        config = make_config(sweep={"axes": {
            "preference.params.a": [-0.5, -2.0],
        }})
        _, rows = sweep_rows(config)
        for row in rows:
            assert row["bound_violated_exact"] is False
            assert row["bound_slack_exact"] >= -1e-9

    def test_nested_axis_leaves_base_config_and_axis_values(self):
        exponentials = [{"family": "exponential", "params": {"rate": 1.0}},
                        {"family": "exponential", "params": {"rate": 3.0}}]
        config = make_config(sweep={"axes": {
            "distribution": copy.deepcopy(exponentials),
            "distribution.params.rate": [0.5, 2.0],
        }})
        before = config.canonical()
        _, rows = sweep_rows(config)
        assert config.canonical() == before
        assert [row["axis:distribution"] for row in rows] == \
            [exponentials[0]] * 2 + [exponentials[1]] * 2
        assert [row["axis:distribution.params.rate"] for row in rows] == \
            [0.5, 2.0] * 2
        # the nested axis overrides the whole-block axis: mu = 1 / rate
        assert [row["mu"] for row in rows] == [2.0, 0.5] * 2

    @pytest.mark.parametrize("framework", SWEEP_PARITY)
    def test_rows_equal_value_runs_of_their_points(self, framework):
        raw = SWEEP_PARITY[framework]
        names = sorted(raw["sweep"]["axes"])
        _, rows = sweep_rows(parse_config(raw))
        combos = list(itertools.product(
            *(raw["sweep"]["axes"][name] for name in names)))
        assert len(rows) == len(combos)
        for row, combo in zip(rows, combos):
            point = {key: copy.deepcopy(value) for key, value in raw.items()
                     if key != "sweep"}
            for name, value in zip(names, combo):
                *parents, leaf = name.split(".")
                node = point
                for part in parents:
                    node = node[part]
                node[leaf] = copy.deepcopy(value)
            expected = scenario_row(run_scenario(parse_config(point)))
            assert [row[f"axis:{name}"] for name in names] == list(combo)
            for key, value in expected.items():
                assert bits(row[key]) == bits(value), (combo, key)


# One model per kind of input a report can take: continuous, raw discrete
# (no band metadata), banded and degenerate.
PARITY_MODELS = {
    "continuous": EXPONENTIAL,
    "discrete": {"family": "discrete", "outcomes": [1.0, 3.0],
                 "probabilities": [0.5, 0.5]},
    "banded": BANDED,
    "degenerate": {"family": "degenerate", "params": {"value": 5.0}},
}
PARITY_FRAMEWORKS = {
    "eu": {"framework": "eu",
           "preference": {"family": "quadratic", "params": {"a": -1.0, "b": -0.5}}},
    "dt": {"framework": "dt", "preference": {"family": "affine", "params": {}},
           "weighting": {"family": "inverse_s", "params": {"gamma": 0.7},
                         "psi": 0.3}},
    "rdu": {"framework": "rdu",
            "preference": {"family": "power", "params": {"exponent": 1.5}},
            "weighting": {"family": "inverse_s", "params": {"gamma": 0.7}}},
}
LEDGER = json.loads(
    (Path(__file__).parent.parent / "bench" / "ledger.json").read_text())


def ledger_config(region_id):
    return next(region["config"] for region in LEDGER["regions"]
                if region["id"] == region_id)


# Ledger regions a and c-exact render since the probability-plane kernel.
# Their failing stand-ins: region a's dual-theory scenario on a lognormal
# so heavy that t w'(p) overflows at the top node under inverse-S 0.7
# (and not under 2.0, where w'(p) vanishes there), and region c's on an
# exponential shifted to start at -1, where u = -t^1.5 is NaN.
FAILING_STAND_INS = {
    "a": dict(ledger_config("a"), distribution={
        "family": "lognormal", "params": {"log_mean": 0.0, "log_sd": 15.0}}),
    "c-exact": dict(ledger_config("c-exact"), distribution={
        "family": "shifted_scaled", "loc": -1.0, "scale": 1.0,
        "base": {"family": "exponential", "params": {"rate": 0.5}}}),
}


def outcome(raw):
    """The envelope of a scenario, or its error class and message."""
    try:
        return run_scenario(parse_config(raw))
    except CotvError as exc:
        return (type(exc).__name__, str(exc))


class TestBothMethods:
    """A ``both`` scenario computes the inputs its methods share once; its
    reports must equal two single-method runs bit for bit."""

    @pytest.mark.parametrize("model", PARITY_MODELS)
    @pytest.mark.parametrize("framework", PARITY_FRAMEWORKS)
    def test_both_equals_single_method_runs(self, framework, model):
        raw = dict(PARITY_FRAMEWORKS[framework], distribution=PARITY_MODELS[model],
                   method="both")
        both = run_scenario(parse_config(raw))
        for method in ("exact", "second_order"):
            single = run_scenario(parse_config(dict(raw, method=method)))
            assert bits(both["diagnostics"][method]) == \
                bits(single["diagnostics"][method])
            for key, value in single["results"].items():
                assert bits(both["results"][key]) == bits(value), key

    @pytest.mark.parametrize("model", PARITY_MODELS)
    @pytest.mark.parametrize("framework", ["dt", "rdu"])
    def test_public_valuation_equals_its_shared_report(self, framework, model):
        config = parse_config(dict(PARITY_FRAMEWORKS[framework],
                                   distribution=PARITY_MODELS[model]))
        anchor = config.data["weighting"]
        if framework == "dt":
            ctx = DtContext(w=config.weighting, p0=anchor["p0"], psi=anchor["psi"])
            valuation, reports = dt_valuation, _dt_reports
        else:
            ctx = RduContext(u=config.utility, w=config.weighting,
                             p0=anchor["p0"], tau_h=anchor["tau_h"])
            valuation, reports = rdu_valuation, _rdu_reports
        methods = ("exact", "second_order")
        shared = reports(config.model, ctx, config.phi, methods, None)
        assert list(shared) == list(methods)
        for method in methods:
            single = valuation(config.model, ctx, config.phi, method=method)
            assert repr(shared[method]) == repr(single)

    # the ledger reproducers hit singular weightings on purpose
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("region", ["a", "c-exact"])
    def test_ledger_error_matches_exact_run(self, region):
        raw = FAILING_STAND_INS[region]
        failure = outcome(dict(raw, method="both"))
        assert isinstance(failure, tuple)
        assert failure == outcome(dict(raw, method="exact"))


def stdlib_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def outcome_of(render, payload):
    """Text of a render, or its error class and message."""
    try:
        return render(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-7,
                     1.7976931348623157e308, 2**53 + 1.0]),
    st.text(st.characters(exclude_categories=())),
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(st.characters(exclude_categories=())), inner,
                        max_size=4)),
    max_leaves=30)
CIRCULAR: list = []
CIRCULAR.append(CIRCULAR)


class TestRendering:
    def test_envelope_is_canonical_json(self):
        envelope = run_scenario(make_config())
        text = render_envelope(envelope)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed == envelope

    @given(JSON_TREES)
    @settings(max_examples=300, deadline=None)
    def test_envelope_bytes_are_json_dumps(self, tree):
        assert render_envelope(tree) == stdlib_json(tree)

    @pytest.mark.parametrize("payload", [
        {"a": float("nan")}, [1.0, [float("inf")]], float("-inf"),
        {"a": [{"b": -float("inf")}]}, {"flag": np.bool_(True)},
        {"x": np.float64(1.5), "y": np.int64(2)}, {1: "a", 2.5: "b", None: "c"},
        {1: "a", "b": 2}, {True: 1, "t": 2}, {(1, 2): 3}, {"s": {1, 2}},
        CIRCULAR, {"n": 10**5000},
    ])
    def test_other_payloads_render_as_json_dumps(self, payload):
        assert outcome_of(render_envelope, payload) == outcome_of(stdlib_json, payload)

    def test_report_envelopes_are_json_dumps(self):
        for item in bench_inputs().report_corpus(1)[:60]:
            envelope = run_scenario(parse_config(item["config"]))
            assert render_envelope(envelope) == stdlib_json(envelope)

    def test_csv_uses_lf_and_header(self):
        columns, rows = sweep_rows(make_config(
            sweep={"axes": {"economics.phi": [1.0, 2.0]}}))
        text = render_csv(columns, rows)
        lines = text.split("\n")
        assert "\r" not in text
        assert lines[0].startswith("axis:economics.phi,framework,")
        assert len([line for line in lines if line]) == 3

    def test_determinism_in_process(self):
        config = make_config()
        assert render_envelope(run_scenario(config)) == \
            render_envelope(run_scenario(config))


POLE = dict(BASE, method="both",
            preference={"family": "power", "params": {"exponent": 3.0}})


def eu_quadratic(distribution):
    return dict(BASE, distribution=distribution,
                preference={"family": "quadratic", "params": {"a": -1.0}})


EXTREME_PARAMETERS = {
    "exponential": (eu_quadratic({"family": "exponential",
                                  "params": {"rate": 1e-170}}),
                    "config error: distribution"),
    "gamma": (eu_quadratic({"family": "gamma",
                            "params": {"shape": 2.0, "rate": 1e-170}}),
              "config error: distribution"),
    "uniform": (eu_quadratic({"family": "uniform",
                              "params": {"lo": 0.0, "hi": 1e200}}),
                "config error: distribution"),
    "lognormal": (eu_quadratic({"family": "lognormal",
                                "params": {"log_mean": 800.0, "log_sd": 1.0}}),
                  "config error: distribution"),
    "shifted_scaled": (eu_quadratic({"family": "shifted_scaled",
                                     "base": EXPONENTIAL, "scale": 1e200}),
                       "config error: distribution"),
    "dt_degenerate": ({"framework": "dt",
                       "distribution": {"family": "degenerate",
                                        "params": {"value": 1e-170}},
                       "preference": {"family": "affine", "params": {}},
                       "weighting": {"family": "power", "params": {"gamma": 2.0}},
                       "method": "both"},
                      "computation error (DomainError): "),
}


class TestCliProcess:
    def test_value_exit_zero_and_deterministic(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["value", "--config", path, "--out", str(out_a)]) == 0
        assert main(["value", "--config", path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_value_csv_format(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        assert main(["value", "--config", path, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("framework,phi,mu,")

    def test_config_error_exit_two(self, tmp_path, capsys):
        raw = copy.deepcopy(BASE)
        raw["bogus"] = 1
        path = write_config(tmp_path, raw)
        assert main(["value", "--config", path]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", [
        {"t0": 0.114, "xi": [-0.599, 0.599]},
        {"t0": 2.0, "xi": [-1.0, 1.0], "p0": 0.5, "psi": 0.25, "t_min": -0.5},
    ], ids=["band", "t_min"])
    def test_band_below_zero_exit_two(self, dt, tmp_path, capsys):
        raw = {"framework": "rdu", "distribution": {"family": "discrete", "dt": dt},
               "preference": {"family": "power", "params": {"exponent": 1.5}},
               "weighting": {"family": "power", "params": {"gamma": 0.7}},
               "method": "exact"}
        path = write_config(tmp_path, raw)
        assert main(["value", "--config", path]) == 2
        assert capsys.readouterr().err.splitlines()[0] == (
            "config error: distribution: service times carry no mass below zero")

    # The band is built at p0 = 0.4, psi = 0.3; the reports value it at its
    # own anchor, dt reading p0 and psi and rdu reading p0.
    @pytest.mark.parametrize("framework, anchor, expected", [
        ("dt", {}, "weighting.p0: disagrees with the banded instance's p0=0.4"),
        ("dt", {"p0": 0.4, "psi": 0.4},
         "weighting.psi: disagrees with the banded instance's psi=0.3"),
        ("rdu", {}, "weighting.p0: disagrees with the banded instance's p0=0.4"),
        ("rdu", {"p0": 0.4 + 1e-13, "psi": 0.4}, None),
        ("dt", {"p0": 0.4, "psi": 0.3 - 1e-13}, None),
    ], ids=["dt-p0", "dt-psi", "rdu-p0", "rdu-psi-unread", "dt-within-1e-12"])
    def test_band_anchor_disagreeing_with_weighting_exit_two(self, framework, anchor,
                                                             expected, tmp_path, capsys):
        raw = {"framework": framework,
               "distribution": {"family": "discrete",
                                "dt": {"t0": 3, "xi": [-1, 1], "p0": 0.4, "psi": 0.3}},
               "preference": {"family": "affine", "params": {"slope": 1.0}},
               "weighting": {"family": "power", "params": {"gamma": 2.0}, **anchor}}
        path = write_config(tmp_path, raw)
        if expected is None:
            assert main(["value", "--config", path]) == 0
        else:
            assert main(["value", "--config", path]) == 2
            assert capsys.readouterr().err.splitlines()[0] == f"config error: {expected}"

    def test_bad_tau_h_exit_two(self, tmp_path, capsys):
        raw = copy.deepcopy(BASE)
        raw["framework"] = "rdu"
        raw["weighting"] = {"family": "identity", "tau_h": 0}
        path = write_config(tmp_path, raw)
        assert main(["value", "--config", path]) == 2
        assert "weighting.tau_h" in capsys.readouterr().err

    def test_dt_tau_h_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, DT_TAU_H)
        assert main(["value", "--config", path]) == 2
        assert "weighting.tau_h: unknown key" in capsys.readouterr().err

    def test_non_finite_weighting_exit_two(self, tmp_path, capsys):
        raw = dict(copy.deepcopy(BASE), framework="rdu",
                   weighting=inverse_s(1e300))
        path = write_config(tmp_path, raw)
        assert main(["value", "--config", path]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: weighting: inverse_s: derivative not finite")

    def test_non_integer_env_seed_exit_two(self, tmp_path, capsys, monkeypatch):
        raw = copy.deepcopy(BASE)
        del raw["seed"]
        path = write_config(tmp_path, raw)
        monkeypatch.setenv("COTV_SEED", "abc")
        assert main(["value", "--config", path]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: seed: COTV_SEED must be an integer, got 'abc'\n")

    def test_missing_file_exit_two(self, capsys):
        assert main(["value", "--config", "/nonexistent/config.json"]) == 2

    @pytest.mark.parametrize("content", [
        b'{"seed": 1}\xff',
        b"[" * 200_000 + b"]" * 200_000,
        b'{"seed": ' + b"7" * 5000 + b"}",
    ], ids=["not-utf-8", "too-deep", "too-many-digits"])
    def test_undecodable_config_exit_two(self, content, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        assert main(["value", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("config error: invalid JSON: ")
        assert err[-1].startswith("wall-time: ")

    @pytest.mark.parametrize("source", ["--out", "output.path"])
    def test_unwritable_output_exit_two(self, source, tmp_path, capsys):
        target = str(tmp_path / "no" / "such" / "out.json")
        raw = copy.deepcopy(BASE)
        if source == "output.path":
            raw["output"] = {"path": target}
        argv = ["--out", target] if source == "--out" else []
        path = write_config(tmp_path, raw)
        assert main(["value", "--config", path, *argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"config error: {source}: cannot write output file: ")
        assert err[-1].startswith("wall-time: ")

    def test_computation_error_exit_one(self, tmp_path, capsys):
        # utility diverges at zero while the model carries mass there, so
        # quadrature cannot converge
        raw = copy.deepcopy(BASE)
        raw["distribution"] = {"family": "uniform", "params": {"lo": 0.0, "hi": 1.0}}
        raw["preference"] = {"family": "constant_prudence",
                             "params": {"prudence": 3.0, "slope_at_one": -100.0},
                             "interval": [0.1, 1000.0]}
        raw["method"] = "exact"
        path = write_config(tmp_path, raw)
        assert main(["value", "--config", path]) == 1
        assert "computation error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_sweep_names_its_point(self, tmp_path, capsys):
        # inverse-S with gamma < 1 is singular at the ends of (0, 1), and
        # gamma = 2 is not (see FAILING_STAND_INS)
        raw = dict(FAILING_STAND_INS["a"], sweep={
            "axes": {"weighting.params.gamma": [2.0, 0.7]}})
        path = write_config(tmp_path, raw)
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", path, "--format", "csv",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()[0]
        assert err.startswith("computation error (NonFiniteError): ")
        assert err.endswith(" at sweep point weighting.params.gamma=0.7")
        assert not out.exists()

    @pytest.mark.parametrize("command, fmt", [("value", "json"), ("sweep", "json"),
                                              ("sweep", "csv")])
    def test_non_finite_result_field_exit_one(self, command, fmt, tmp_path, capsys,
                                              monkeypatch):
        # an exact premium 1e300 off the second-order one on a sigma of
        # 1e-10, a normal sigma^2: the scaled premium error overflows to inf
        evaluate = cli._evaluate

        def far_premium(*args):
            reports = evaluate(*args)
            reports["exact"].premium, reports["exact"].sigma = 1e300, 1e-10
            return reports

        monkeypatch.setattr(cli, "_evaluate", far_premium)
        raw = dict(BASE, sweep={"axes": {"economics.phi": [1.0]}})
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, raw),
                     "--format", fmt, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("computation error (NonFiniteError): result field "
                                 "'premium_scaled_error' is not finite: inf")
        assert err[0].endswith(" at sweep point economics.phi=1.0") == (command == "sweep")
        assert err[-1].startswith("wall-time: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, fmt", [("value", "json"), ("sweep", "json"),
                                              ("sweep", "csv")])
    def test_subnormal_variance_prints_null_scaled_error(self, command, fmt, tmp_path,
                                                         capsys):
        # sigma^2 is a subnormal 8.3e-322, and the power utility's premium
        # root stops within its absolute tolerance, far above 1e-162: the
        # premium error over sigma^2 would be inf here, as it was 7.1e158,
        # the rounding of sigma^2, with a quadratic utility
        raw = dict(BASE, distribution={"family": "uniform",
                                       "params": {"lo": 0.0, "hi": 1e-160}},
                   preference={"family": "power", "params": {"exponent": 1.5},
                               "interval": [0.0, 10.0]},
                   sweep={"axes": {"economics.phi": [1.0]}})
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, raw),
                     "--format", fmt, "--out", str(out)]) == 0
        if fmt == "csv":
            rows = list(csv.DictReader(io.StringIO(out.read_text())))
        else:
            payload = json.loads(out.read_text())
            rows = payload["rows"] if command == "sweep" else [payload["results"]]
        assert [row["premium_scaled_error"] for row in rows] == \
            ["" if fmt == "csv" else None]
        assert float(rows[0]["premium_abs_error"]) > 0.0

    def test_second_order_pole_exit_one(self, tmp_path, capsys):
        # exponential(1) with power(3): 1 + R2 R3 CV^2 / 2 is exactly 0
        path = write_config(tmp_path, POLE)
        assert main(["value", "--config", path]) == 1
        assert capsys.readouterr().err.startswith(
            "computation error (DomainError): ")

    def test_sweep_through_the_pole_names_its_point(self, tmp_path, capsys):
        raw = dict(POLE, sweep={"axes": {"preference.params.exponent": [2.0, 3.0]}})
        path = write_config(tmp_path, raw)
        assert main(["sweep", "--config", path, "--format", "csv"]) == 1
        err = capsys.readouterr().err.splitlines()[0]
        assert err.startswith("computation error (DomainError): ")
        assert err.endswith(" at sweep point preference.params.exponent=3.0")

    @pytest.mark.parametrize("raw, prefix", EXTREME_PARAMETERS.values(),
                             ids=EXTREME_PARAMETERS)
    def test_extreme_parameters_end_in_a_typed_error(self, raw, prefix, tmp_path,
                                                     capsys):
        path = write_config(tmp_path, raw)
        assert main(["value", "--config", path]) == (2 if prefix.startswith("config")
                                                      else 1)
        assert capsys.readouterr().err.splitlines()[0].startswith(prefix)

    def test_classify_output(self, tmp_path, capsys):
        raw = copy.deepcopy(BASE)
        raw["preference"] = {"family": "power", "params": {"exponent": 1.5}}
        path = write_config(tmp_path, raw)
        assert main(["classify", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["rel_risk_aversion"] == pytest.approx(0.5)
        assert payload["results"]["mean_vs_variance"] == "mean-priority"

    def test_dualmoments_output(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        assert main(["dualmoments", "--config", path, "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["m2_dual_mean"] == pytest.approx(0.5, abs=1e-8)
        assert payload["results"]["mc_within_3se"] is True

    # a d(F^2) integral on a gamma below shape 0.5 ran to the panel cap and
    # exited 1; the closed forms take no integral
    @pytest.mark.parametrize("command, framework, preference", [
        ("value", "rdu", {"family": "power", "params": {"exponent": 1.5}}),
        ("value", "dt", {"family": "affine", "params": {}}),
        ("dualmoments", "rdu", {"family": "power", "params": {"exponent": 1.5}}),
    ], ids=["value-rdu", "value-dt", "dualmoments"])
    def test_gamma_below_half_shape(self, tmp_path, capsys, command, framework,
                                    preference):
        raw = dict(BASE, framework=framework, method="second_order",
                   distribution={"family": "gamma", "params": {"shape": 0.3, "rate": 1.0}},
                   preference=preference, weighting=inverse_s(0.8))
        assert main([command, "--config", write_config(tmp_path, raw)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        if command == "dualmoments":
            assert results["mc_within_3se"] is True

    def test_sweep_csv_deterministic(self, tmp_path):
        raw = copy.deepcopy(BASE)
        raw["sweep"] = {"axes": {"distribution.params.rate": [0.5, 1.0, 2.0]}}
        raw["output"] = {"format": "csv", "path": None}
        path = write_config(tmp_path, raw)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--config", path, "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        first_line = out_a.read_text().splitlines()[0]
        assert first_line.startswith("axis:distribution.params.rate,")

    def test_sweep_json_envelope(self, tmp_path, capsys):
        raw = copy.deepcopy(BASE)
        raw["sweep"] = {"axes": {"economics.phi": [1.0, 2.0]}}
        path = write_config(tmp_path, raw)
        assert main(["sweep", "--config", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"][0] == "axis:economics.phi"
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["rho_exact"] == pytest.approx(0.5, abs=1e-6)

    def test_dt_continuous_scenario(self, tmp_path, capsys):
        raw = copy.deepcopy(BASE)
        raw["framework"] = "dt"
        raw["weighting"] = {"family": "inverse_s", "params": {"gamma": 0.7}}
        raw["method"] = "both"
        path = write_config(tmp_path, raw)
        assert main(["value", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        results = payload["results"]
        # overweighting the long-time tail makes variability costly
        assert results["premium_exact"] > 0
        assert results["rho_exact"] == pytest.approx(
            results["premium_exact"] / results["mu"], abs=1e-12)

    def test_verify_reports_only_known_impossible_check(self, capsys):
        # the dual-theory scaling check cannot pass (both premium forms are
        # linear in the outcome scale); everything else must pass
        status = main(["verify", "--profile", "quick"])
        out = capsys.readouterr().out
        failures = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert status == 1
        assert len(failures) == 1
        assert "A6-dt-approx-scaling" in failures[0]

    def test_verify_negative_control(self, capsys):
        status = main(["verify", "--profile", "quick",
                       "--inject-tolerance-fault"])
        out = capsys.readouterr().out
        failures = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert status == 1
        assert len(failures) > 3
