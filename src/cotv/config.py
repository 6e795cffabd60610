"""Scenario configuration: strict schema, canonical echo, object builders.

Configs are JSON documents with explicit keys.  Unknown keys are rejected
with the offending field path, numbers may be decimal or scientific, and
units are labels only (times in abstract time units, money in abstract
money units).  ``parse_config`` is the only place a scenario's model,
utility and weighting are built: it validates by building them and keeps
them on the returned :class:`ScenarioConfig`.  Each kind of object has one
family table (family -> constructor and parameter names) and each
non-EU framework one anchor table entry (the anchor keys its weighting
block may carry, with their defaults); a key outside them is rejected.
``canonical()`` materialises defaults so that the echoed config re-parses
to an equivalent scenario.  A sweep parses every grid point, but builds
each distinct block (equal canonical JSON) once per sweep, and writes that
JSON once per block dict it hands its points.
"""

from __future__ import annotations

import copy
import json
import math
import os
from collections.abc import Mapping
from typing import Any, NamedTuple

from .distributions import (
    Degenerate,
    DiscreteModel,
    Exponential,
    Gamma,
    LogNormal,
    ServiceTimeModel,
    ShiftedScaled,
    Uniform,
    build_dt_instance,
)
from .errors import CollapsedBandError, ConfigError, DomainError, GridTooLargeError
from .eu import _report_mean
from .preferences import (
    AffineUtility,
    ConstantPrudenceUtility,
    IdentityWeighting,
    InverseSWeighting,
    PowerUtility,
    PowerWeighting,
    PureQuadraticUtility,
    QuadraticUtility,
    UtilityFunction,
    WeightingFunction,
)

__all__ = ["ScenarioConfig", "parse_config", "load_config", "MAX_GRID_POINTS"]

MAX_GRID_POINTS = 1_000_000

_FRAMEWORKS = ("eu", "dt", "rdu")
_METHODS = ("exact", "second_order", "both")
_FORMATS = ("json", "csv")

_TOP_KEYS = {"framework", "distribution", "preference", "weighting",
             "economics", "method", "seed", "sweep", "output"}


def _require(data: Mapping, key: str, path: str) -> Any:
    if key not in data:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
    return data[key]


def _check_keys(data: Mapping, allowed: set[str], path: str) -> None:
    if not isinstance(data, Mapping):
        raise ConfigError(path, f"expected an object, got {type(data).__name__}")
    unknown = set(data) - allowed
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"{path}.{name}" if path else name, "unknown key")


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ConfigError(path, "number must be finite")
    return float(value)


def _string(value: Any, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    if choices and value not in choices:
        raise ConfigError(path, f"must be one of {choices}, got {value!r}")
    return value


def _number_list(value: Any, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, "expected an array of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


# ---------------------------------------------------------------- builders

# family -> (constructor, parameter names), one table per kind of object.
# Utility and weighting error messages list the families in table order.
_MODELS = {
    "degenerate": (Degenerate, {"value"}),
    "exponential": (Exponential, {"rate"}),
    "uniform": (Uniform, {"lo", "hi"}),
    "lognormal": (LogNormal, {"log_mean", "log_sd"}),
    "gamma": (Gamma, {"shape", "rate"}),
}

_UTILITIES = {
    "quadratic": (QuadraticUtility, {"a", "b", "c"}),
    "pure_quadratic": (PureQuadraticUtility, {"a", "c"}),
    "power": (PowerUtility, {"exponent"}),
    "constant_prudence": (ConstantPrudenceUtility,
                          {"prudence", "curvature", "slope_at_one"}),
    "affine": (AffineUtility, {"slope", "intercept"}),
}

_WEIGHTINGS = {
    "identity": (IdentityWeighting, set()),
    "power": (PowerWeighting, {"gamma"}),
    "inverse_s": (InverseSWeighting, {"gamma"}),
}

# framework -> the anchor keys its weighting block may carry, with their
# defaults.  dt reads p0 and psi; rdu reads p0 and tau_h and accepts psi.
_ANCHORS = {
    "dt": {"p0": 0.5, "psi": 0.5},
    "rdu": {"p0": 0.5, "psi": 0.5, "tau_h": "auto"},
}


def _params(spec: Mapping, names: set[str], path: str) -> dict[str, float]:
    params = spec.get("params", {})
    _check_keys(params, names, f"{path}.params")
    return {k: _number(v, f"{path}.params.{k}") for k, v in params.items()}


def _construct(constructor, path: str, *args, **kwargs):
    """Call a constructor; its argument errors become a ConfigError at
    ``path``, and a band's collapse at the path of its ``xi``."""
    try:
        return constructor(*args, **kwargs)
    except CollapsedBandError as exc:
        raise ConfigError(f"{path}.dt.xi", str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


def build_model(spec: Mapping, path: str = "distribution") -> ServiceTimeModel:
    if not isinstance(spec, Mapping):
        raise ConfigError(path, f"expected an object, got {type(spec).__name__}")
    family = _string(_require(spec, "family", path), f"{path}.family")
    if family in _MODELS:
        _check_keys(spec, {"family", "params"}, path)
        cls, names = _MODELS[family]
        return _construct(cls, path, **_params(spec, names, path))
    if family == "shifted_scaled":
        _check_keys(spec, {"family", "base", "loc", "scale"}, path)
        return _construct(
            ShiftedScaled, path,
            base=build_model(_require(spec, "base", path), f"{path}.base"),
            loc=_number(spec.get("loc", 0.0), f"{path}.loc"),
            scale=_number(spec.get("scale", 1.0), f"{path}.scale"),
        )
    if family != "discrete":
        raise ConfigError(f"{path}.family", f"unknown distribution family {family!r}")
    _check_keys(spec, {"family", "outcomes", "probabilities", "dt"}, path)
    dt_spec = spec.get("dt")
    if dt_spec is None:
        return _construct(
            DiscreteModel, path,
            _number_list(_require(spec, "outcomes", path), f"{path}.outcomes"),
            _number_list(_require(spec, "probabilities", path),
                         f"{path}.probabilities"),
        )
    _check_keys(dt_spec, {"t0", "p0", "psi", "xi", "t_min", "t_max"}, f"{path}.dt")
    instance = _construct(
        build_dt_instance, path,
        t0=_number(_require(dt_spec, "t0", f"{path}.dt"), f"{path}.dt.t0"),
        xi=_number_list(_require(dt_spec, "xi", f"{path}.dt"), f"{path}.dt.xi"),
        p0=_number(dt_spec.get("p0", 0.5), f"{path}.dt.p0"),
        psi=_number(dt_spec.get("psi", 0.5), f"{path}.dt.psi"),
        t_min=(None if "t_min" not in dt_spec
               else _number(dt_spec["t_min"], f"{path}.dt.t_min")),
        t_max=(None if "t_max" not in dt_spec
               else _number(dt_spec["t_max"], f"{path}.dt.t_max")),
    )
    if "outcomes" in spec or "probabilities" in spec:
        outs = _number_list(_require(spec, "outcomes", path), f"{path}.outcomes")
        if list(instance.outcomes) != outs:
            raise ConfigError(f"{path}.outcomes", "disagrees with the dt construction")
    return instance


def build_utility(spec: Mapping, path: str = "preference") -> UtilityFunction:
    _check_keys(spec, {"family", "params", "interval"}, path)
    family = _string(_require(spec, "family", path), f"{path}.family",
                     tuple(_UTILITIES))
    cls, names = _UTILITIES[family]
    kwargs = _params(spec, names, path)
    if "interval" in spec:
        interval = _number_list(spec["interval"], f"{path}.interval")
        if len(interval) != 2:
            raise ConfigError(f"{path}.interval", "expected [lo, hi]")
        kwargs["interval"] = (interval[0], interval[1])
    return _construct(cls, path, **kwargs)


def build_weighting(spec: Mapping, path: str = "weighting") -> WeightingFunction:
    """Weighting function of a block's ``family`` and ``params``.

    The block's other keys are its framework's anchor, which
    :func:`parse_config` checks against the anchor table.
    """
    family = _string(_require(spec, "family", path), f"{path}.family",
                     tuple(_WEIGHTINGS))
    cls, names = _WEIGHTINGS[family]
    return _construct(cls, path, **_params(spec, names, path))


def _copy_tree(value: Any) -> Any:
    """Copy of a JSON tree: each ``dict`` and ``list`` rebuilt, the
    immutable str, int, float, bool and None leaves shared, and any other
    value deep-copied."""
    kind = type(value)
    if kind is dict:
        return {key: _copy_tree(item) for key, item in value.items()}
    if kind is list:
        return [_copy_tree(item) for item in value]
    if kind in (str, int, float, bool, type(None)):
        return value
    return copy.deepcopy(value)


def _build(blocks: dict | None, build, spec: Any) -> tuple[Any, dict]:
    """``build(spec)`` and a copy of ``spec`` for the canonical echo, or the
    pair ``blocks`` holds for an equal block.

    ``blocks`` maps (builder, canonical JSON) to that pair, so the points
    of one sweep share it.  A sweep hands every point with the same axis
    values under a block the same dict, so ``blocks`` also maps (builder,
    id of the dict) to the dict and its pair: a dict seen before is found
    by identity, and only a new one is written as JSON.  Holding the dict
    keeps its id from being reused while ``blocks`` lives.  A block that
    fails to build is not kept: each point using it raises the error a
    parse of that point alone raises.
    """
    if blocks is None:
        return build(spec), _copy_tree(dict(spec))
    seen = blocks.get((build, id(spec)))
    if seen is not None:
        return seen[1]
    try:
        key = (build, json.dumps(spec, sort_keys=True))
    except (TypeError, ValueError):  # not JSON: nothing to compare by
        return build(spec), _copy_tree(dict(spec))
    pair = blocks.get(key)
    if pair is None:
        pair = blocks[key] = build(spec), _copy_tree(dict(spec))
    blocks[build, id(spec)] = spec, pair
    return pair


# ---------------------------------------------------------------- scenario

class ScenarioConfig(NamedTuple):
    """Validated scenario, as returned by :func:`parse_config`.

    ``data`` holds the canonical raw document, with the weighting anchor
    (``p0``, ``psi`` and, for rdu, ``tau_h``) filled in.  ``model``,
    ``utility`` and ``weighting`` are the objects built from it while
    validating; ``weighting`` is ``None`` for the eu framework.
    """

    data: dict
    model: ServiceTimeModel
    utility: UtilityFunction
    weighting: WeightingFunction | None

    @property
    def framework(self) -> str:
        return self.data["framework"]

    @property
    def method(self) -> str:
        return self.data["method"]

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def phi(self) -> float:
        return self.data["economics"]["phi"]

    @property
    def sweep(self) -> dict | None:
        return self.data.get("sweep")

    @property
    def output_format(self) -> str:
        return self.data["output"]["format"]

    @property
    def output_path(self) -> str | None:
        return self.data["output"]["path"]

    def canonical(self) -> dict:
        """A copy of ``data`` that shares no dict or list with it: only its
        str, int, float, bool and None values are the same objects, and
        any other value is a deep copy."""
        return _copy_tree(self.data)


def parse_config(raw: Mapping, seed_override: int | None = None,
                 method_override: str | None = None, *,
                 _blocks: dict | None = None) -> ScenarioConfig:
    """Validate a raw mapping into a scenario with defaults materialised.

    ``_blocks`` is a sweep's memo of built blocks (see :func:`_build`);
    it lives for one sweep and changes no result.
    """
    _check_keys(raw, _TOP_KEYS, "")
    framework = _string(_require(raw, "framework", ""), "framework", _FRAMEWORKS)

    distribution = _require(raw, "distribution", "")
    model, distribution = _build(_blocks, build_model, distribution)

    preference = raw.get("preference")
    if preference is None:
        raise ConfigError("preference", "missing required key")
    utility, preference = _build(_blocks, build_utility, preference)

    weighting = raw.get("weighting")
    w = None
    if framework == "eu" and weighting is not None:
        raise ConfigError("weighting", "not allowed for the eu framework")
    if framework != "eu":
        if weighting is None:
            raise ConfigError("weighting", f"required for framework {framework!r}")
        defaults = _ANCHORS[framework]
        _check_keys(weighting, {"family", "params", *defaults}, "weighting")
        w, echo = _build(_blocks, build_weighting, weighting)
        anchor = {key: weighting.get(key, default) for key, default in defaults.items()}
        p0 = _number(anchor["p0"], "weighting.p0")
        psi = _number(anchor["psi"], "weighting.psi")
        if not 0 < p0 < 1:
            raise ConfigError("weighting.p0", "must lie strictly inside (0, 1)")
        if not 0 < psi <= min(p0, 1 - p0) + 1e-15:
            raise ConfigError("weighting.psi",
                              "must satisfy 0 < psi <= min(p0, 1 - p0)")
        if ("tau_h" in anchor and anchor["tau_h"] != "auto"
                and not _number(anchor["tau_h"], "weighting.tau_h") > 0):
            raise ConfigError("weighting.tau_h", "must be 'auto' or a positive number")
        # the reports value a banded instance at its own anchor: dt checks
        # p0 and psi against the weighting's, rdu p0, within 1e-12
        meta = model.dt_meta
        checked = {"p0": p0, "psi": psi} if framework == "dt" else {"p0": p0}
        for key, value in checked.items():
            if meta is not None and abs(getattr(meta, key) - value) > 1e-12:
                raise ConfigError(f"weighting.{key}", f"disagrees with the banded "
                                  f"instance's {key}={getattr(meta, key)!r}")
    if framework != "dt":
        try:
            _report_mean(utility, model, rank_dependent=framework == "rdu")
        except DomainError as exc:
            raise ConfigError("preference", str(exc)) from exc

    economics = raw.get("economics", {"phi": 1.0})
    _check_keys(economics, {"phi"}, "economics")
    phi = _number(economics.get("phi", 1.0), "economics.phi")
    if not phi > 0:
        raise ConfigError("economics.phi", "must be strictly positive")

    if method_override is not None:
        method = _string(method_override, "method", _METHODS)
    else:
        method = _string(raw.get("method", "both"), "method", _METHODS)

    if seed_override is not None:
        seed = seed_override
    elif "seed" in raw:
        seed = raw["seed"]
    else:
        env = os.environ.get("COTV_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(
                "seed", f"COTV_SEED must be an integer, got {env!r}") from None
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed", f"expected an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed", "must fit in an unsigned 64-bit integer")

    sweep = raw.get("sweep")
    if sweep is not None:
        _check_keys(sweep, {"axes"}, "sweep")
        axes = _require(sweep, "axes", "sweep")
        if not isinstance(axes, Mapping) or not axes:
            raise ConfigError("sweep.axes", "expected a non-empty object")
        total = 1
        for axis, values in axes.items():
            if not isinstance(values, list) or not values:
                raise ConfigError(f"sweep.axes.{axis}", "expected a non-empty array")
            total *= len(values)
        if total > MAX_GRID_POINTS:
            raise GridTooLargeError(
                "sweep.axes", f"{total} grid points exceed the {MAX_GRID_POINTS} cap")

    output = raw.get("output", {})
    _check_keys(output, {"format", "path"}, "output")
    out_format = _string(output.get("format", "json"), "output.format", _FORMATS)
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("output.path", "expected a string path")

    data: dict = {
        "framework": framework,
        "distribution": distribution,
        "preference": preference,
        "economics": {"phi": phi},
        "method": method,
        "seed": seed,
        "output": {"format": out_format, "path": out_path},
    }
    if w is not None:
        data["weighting"] = {**echo, **anchor}
    if sweep is not None:
        data["sweep"] = _copy_tree(dict(sweep))
    return ScenarioConfig(data=data, model=model, utility=utility, weighting=w)


def load_config(path: str, seed_override: int | None = None,
                method_override: str | None = None) -> ScenarioConfig:
    """Parse a JSON scenario file; NaN/Infinity literals are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(
                handle,
                parse_constant=lambda name: (_ for _ in ()).throw(
                    ConfigError("", f"non-finite literal {name!r} not allowed")),
            )
    except OSError as exc:
        raise ConfigError("", f"cannot read config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, as is an
        # integer literal past the str-to-int digit limit
        raise ConfigError("", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("", "top-level config must be an object")
    return parse_config(raw, seed_override, method_override)
