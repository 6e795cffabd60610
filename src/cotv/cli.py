"""Scenario-driven command line interface.

Subcommands map one-to-one onto module surfaces: ``value`` runs a single
scenario, ``sweep`` evaluates a parameter grid into a flat table,
``verify`` executes the built-in verification suite, ``classify`` reports
risk coefficients and moment-preference labels, and ``dualmoments``
reports the moment diagnostics of a distribution.

Output is deterministic: identical config + seed produce byte-identical
files.  JSON output is canonical JSON, equal to ``json.dumps(payload,
sort_keys=True, indent=2) + "\n"``: ``indent`` would send each report to
json's pure-Python encoder, so a small emitter writes the trees a report
holds and json writes any other payload.  Wall time goes to stderr only,
never into the payload; it is counted from the start of ``import cotv``,
so it covers importing the package but not the interpreter's own
start-up.  Exit codes: 0 success, 1 computation failure, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Mapping

from . import _STARTED, __version__
from .config import ScenarioConfig, load_config, parse_config
from .distributions import moments
from .errors import ConfigError, CotvError, NonFiniteError
from .eu import _eu_reports
from .non_eu import DtContext, RduContext, _dt_reports, _rdu_reports
from .numerics import RngStream, mc_estimate
from .preferences import classify_moment_preference, risk_coefficients

__all__ = ["main", "entrypoint", "run_scenario", "scenario_row", "sweep_rows",
           "render_envelope", "render_csv"]

_BASE_COLUMNS = ["framework", "phi", "mu", "sigma", "cv", "vot_at_mu",
                 "rho_upper_bound"]
_METHOD_COLUMNS = ["premium", "vot", "cot", "cotv", "rho", "eta",
                   "congestion_multiplier", "bound_slack", "bound_violated"]
_CROSS_COLUMNS = ["premium_abs_error", "premium_scaled_error", "rho_gap"]

_BOUND_SLACK_TOL = 1e-9


_VALUE_COLUMNS = (_BASE_COLUMNS
                  + [f"{name}_{method}" for method in ("exact", "second_order")
                     for name in _METHOD_COLUMNS]
                  + _CROSS_COLUMNS)


def _evaluate(config: ScenarioConfig, methods: tuple[str, ...],
              moments: dict | None = None) -> dict:
    """{method: report} of one scenario; each framework computes the
    inputs its methods share once, and reads the basis integrals a sweep's
    ``moments`` holds (:func:`cotv.eu._moments`): weighted integrals, and
    EU's sums on a discrete model; EU reads a continuous model's in
    closed form."""
    if config.framework == "eu":
        return _eu_reports(config.utility, config.model, config.phi, methods, None,
                           moments)
    anchor = config.data["weighting"]
    if config.framework == "dt":
        ctx = DtContext(w=config.weighting, p0=anchor["p0"], psi=anchor["psi"])
        return _dt_reports(config.model, ctx, config.phi, methods, None, moments)
    ctx = RduContext(u=config.utility, w=config.weighting, p0=anchor["p0"],
                     tau_h=anchor["tau_h"])
    return _rdu_reports(config.model, ctx, config.phi, methods, None, moments)


def _header(config: ScenarioConfig, **body: Any) -> dict:
    """A payload: the tool, the canonical config and ``body``."""
    return {"tool": {"name": "cotv", "version": __version__},
            "config": config.canonical(), **body}


def _finite(name: str, value: float) -> float:
    """``value`` of the result field ``name``, which the reports do not
    check; ``NonFiniteError`` if it is not finite."""
    if not math.isfinite(value):
        raise NonFiniteError(f"result field {name!r} is not finite: {value!r}")
    return value


def _scaled_error(err: float, sigma: float) -> float | None:
    """The premium error over sigma^2: 0 for a point mass, and None where
    sigma^2 is below the smallest normal float, where the quotient would
    print the rounding of sigma^2 rather than the error."""
    if sigma == 0.0:
        return 0.0
    variance = sigma * sigma
    if variance < sys.float_info.min:
        return None
    return _finite("premium_scaled_error", err / variance)


def _scenario_body(config: ScenarioConfig, moments: dict | None = None) -> dict:
    """The ``results`` and ``diagnostics`` of one scenario's reports;
    ``moments`` is a sweep's memo of basis integrals (:func:`_evaluate`)."""
    methods = (("exact", "second_order") if config.method == "both"
               else (config.method,))
    reports = _evaluate(config, methods, moments)

    first = reports[methods[0]]
    results: dict[str, Any] = {name: getattr(first, name) for name in _BASE_COLUMNS}
    for method, report in reports.items():
        for name in _METHOD_COLUMNS:
            if name in ("bound_slack", "bound_violated"):
                continue
            results[f"{name}_{method}"] = getattr(report, name)
        if report.rho_upper_bound is not None:
            slack = _finite(f"bound_slack_{method}", report.rho_upper_bound - report.rho)
            results[f"bound_slack_{method}"] = slack
            results[f"bound_violated_{method}"] = bool(slack < -_BOUND_SLACK_TOL)
        else:
            results[f"bound_slack_{method}"] = None
            results[f"bound_violated_{method}"] = None
    if len(reports) == 2:
        exact = reports["exact"]
        second = reports["second_order"]
        err = _finite("premium_abs_error", abs(exact.premium - second.premium))
        results["premium_abs_error"] = err
        results["premium_scaled_error"] = _scaled_error(err, exact.sigma)
        results["rho_gap"] = _finite("rho_gap", abs(exact.rho - second.rho))

    diagnostics = {method: dict(report.diagnostics)
                   for method, report in reports.items()}
    return {"results": results, "diagnostics": diagnostics}


def run_scenario(config: ScenarioConfig) -> dict:
    """Evaluate one scenario into a report envelope (JSON-ready dict)."""
    return _header(config, **_scenario_body(config))


def scenario_row(envelope: Mapping) -> dict:
    """Flat table row of an envelope's ``results``, keyed by the fixed
    column list."""
    results = envelope["results"]
    return {column: results.get(column) for column in _VALUE_COLUMNS}


def _set_path(data: dict, dotted: str, value: Any) -> None:
    """Set ``value`` at a dotted path of ``data``, copying each dict on the
    path first, so dicts ``data`` shares with other points stay unwritten."""
    parts = dotted.split(".")
    node = data
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"sweep.axes.{dotted}",
                              "path does not exist in the base config")
        if isinstance(node[part], dict):
            node[part] = dict(node[part])
        node = node[part]
    if not isinstance(node, dict):
        raise ConfigError(f"sweep.axes.{dotted}",
                          "path does not exist in the base config")
    node[parts[-1]] = value


def sweep_rows(config: ScenarioConfig) -> tuple[list[str], list[dict]]:
    """Evaluate the scenario grid; rows are ordered lexicographically over
    the sorted axis names, values in the order given.  A computation error
    at a grid point is re-raised with the point's axis values appended.

    Axes are set in sorted-name order, so a nested axis overrides a
    whole-block axis.  A point is the base config with each top-level
    block that an axis is under replaced.  That block is made once per
    combination of the values of the axes under it, the base block with
    the dicts on their paths copied, and every point with that
    combination shares it, so a parse finds the block's build by the
    dict's identity (see :func:`cotv.config._build`): each distinct
    distribution, preference and weighting block is built once per call.
    The basis integrals E_w[t] and E_w[t^2] depend on the model and the
    weighting alone, so they are integrated once per (model, weighting)
    of the call and read at every point that shares them; no memo
    outlives the call.  EU reads a continuous model's in closed form.
    """
    sweep = config.sweep
    if sweep is None:
        raise ConfigError("sweep", "config has no sweep block")
    axes = sweep["axes"]
    names = sorted(axes)
    columns = [f"axis:{name}" for name in names] + _VALUE_COLUMNS
    base = config.canonical()
    del base["sweep"]
    # top-level key -> the positions in ``names`` of the axes under it
    groups: dict[str, list[int]] = {}
    for position, name in enumerate(names):
        groups.setdefault(name.split(".", 1)[0], []).append(position)
    made: dict = {}  # (top-level key, *indices of its axes' values) -> block
    blocks: dict = {}
    moments: dict = {}
    rows = []
    for indices in itertools.product(*(range(len(axes[name])) for name in names)):
        combo = [axes[name][index] for name, index in zip(names, indices)]
        point = dict(base)
        failed = []
        for key, positions in groups.items():
            at = (key, *(indices[position] for position in positions))
            if at not in made:
                holder = {key: base[key]} if key in base else {}
                try:
                    for position in positions:
                        _set_path(holder, names[position], combo[position])
                except ConfigError as exc:
                    failed.append(exc)
                    continue
                made[at] = holder[key]
            point[key] = made[at]
        if failed:  # the first axis, in sorted-name order, that fails
            raise min(failed, key=lambda exc: exc.path)
        point_config = parse_config(point, _blocks=blocks)
        try:
            body = _scenario_body(point_config, moments)
        except ConfigError:
            raise
        except CotvError as exc:
            where = ", ".join(f"{name}={_cell(value)}"
                              for name, value in zip(names, combo))
            raise type(exc)(f"{exc} at sweep point {where}") from exc
        row = {f"axis:{name}": value for name, value in zip(names, combo)}
        row.update(scenario_row(body))
        rows.append(row)
    return columns, rows


def classify_payload(config: ScenarioConfig) -> dict:
    """Risk coefficients at the mean time plus moment-preference labels."""
    profile = risk_coefficients(config.utility, config.model.mean())
    labels = classify_moment_preference(profile)
    return _header(config, results={**profile.to_dict(), **labels.to_dict()})


def dualmoments_payload(config: ScenarioConfig) -> dict:
    """Moment diagnostics with a seeded order-statistic Monte Carlo check.

    ``mc_quadrature_delta`` is the Monte Carlo estimate minus
    ``m2_dual_mean``, the closed form on every continuous family and an
    exact sum on a discrete model.
    """
    model = config.model
    mset = moments(model)
    stream = RngStream(seed=config.seed, stream_id=0)

    def sampler(gen, n):
        return model.draw(gen, 2 * n).reshape(n, 2)

    # max(pair) - mean(pair) estimates the dual moment about the mean
    def statistic(pairs):
        return pairs.max(axis=1) - pairs.mean(axis=1)

    mc = mc_estimate(sampler, statistic, 100_000, stream)
    delta = mc.estimate - mset.m2_dual_mean
    return _header(config, results={
        **mset.to_dict(),
        "mc_m2_dual_mean": mc.estimate,
        "mc_std_error": mc.std_error,
        "mc_quadrature_delta": delta,
        "mc_within_3se": bool(abs(delta) <= 3.0 * mc.std_error
                              or mc.std_error == 0.0),
    })


# ---------------------------------------------------------------- rendering

def _json(value: Any, indent: str) -> str:
    """``value`` as ``json.dumps(sort_keys=True, indent=2)`` writes it at
    ``indent``.  Only trees of dict, list and tuple with str keys over
    finite float, str, int, bool and None (those exact types) are written;
    anything else raises, and :func:`render_envelope` leaves it to json."""
    kind = type(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    inner = indent + "  "
    if kind is dict:
        items = []
        for key, item in sorted(value.items()):
            item_kind = type(item)  # a report's floats and strings inline
            if item_kind is float and math.isfinite(item):
                items.append(_quote(key) + ": " + float.__repr__(item))
            elif item_kind is str:
                items.append(_quote(key) + ": " + _quote(item))
            else:
                items.append(_quote(key) + ": " + _json(item, inner))
        ends = "{}"
    elif kind is list or kind is tuple:
        items = [_json(item, inner) for item in value]
        ends = "[]"
    else:
        raise TypeError(f"{kind.__name__} is left to json.dumps")
    if not items:
        return ends
    return ends[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + ends[1]


def render_envelope(payload: Mapping) -> str:
    """The canonical JSON text of ``payload`` (see the module docstring)."""
    try:
        return _json(payload, "") + "\n"
    except (TypeError, ValueError, RecursionError):
        # floats that are not finite, other keys and types, ints too long
        # for str, and cycles: json.dumps gives the output or the error
        return json.dumps(payload, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def render_csv(columns: list[str], rows: list[Mapping]) -> str:
    """The table as CSV.  A dict or list cell is rendered once per call,
    however many rows hold it, as a sweep's axis values are."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    # id of a dict or list cell: the cell, held so its id stays its own, and its text
    rendered: dict[int, tuple] = {}

    def cell(value: Any) -> str:
        kind = type(value)
        if kind is not dict and kind is not list:
            return _cell(value)
        held = rendered.get(id(value))
        if held is None:
            held = rendered[id(value)] = (value, _cell(value))
        return held[1]

    for row in rows:
        writer.writerow([float.__repr__(value) if type(value) is float else cell(value)
                         for value in map(row.get, columns)])
    return buffer.getvalue()


def _emit(text: str, path: str | None, source: str) -> None:
    """Write ``text`` to ``path``, or to stdout; ``source`` names the option
    or config key that set ``path``, for the error an unwritable path gives."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(source, f"cannot write output file: {exc}") from exc


# ---------------------------------------------------------------- commands

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="override the config output format")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--method", choices=("exact", "second_order", "both"),
                        default=None, help="override the config method")


# Each scenario subcommand has a table: a function mapping a config to its
# JSON payload, CSV columns and CSV rows.

def _value_table(config: ScenarioConfig):
    envelope = run_scenario(config)
    return envelope, list(_VALUE_COLUMNS), [scenario_row(envelope)]


def _sweep_table(config: ScenarioConfig):
    columns, rows = sweep_rows(config)
    return _header(config, columns=columns, rows=rows), columns, rows


def _results_table(payload: Callable[[ScenarioConfig], dict]):
    """Table of a payload whose CSV form is one row of its ``results``."""
    def table(config: ScenarioConfig):
        envelope = payload(config)
        return envelope, list(envelope["results"]), [envelope["results"]]
    return table


_SCENARIO_COMMANDS = [
    ("value", "evaluate one scenario", _value_table),
    ("sweep", "evaluate a scenario grid", _sweep_table),
    ("classify", "risk coefficients and moment-preference labels",
     _results_table(classify_payload)),
    ("dualmoments", "distribution moment diagnostics",
     _results_table(dualmoments_payload)),
]


def _run_scenario_command(args) -> int:
    config = load_config(args.config, args.seed, args.method)
    payload, columns, rows = args.table(config)
    out_format = args.format or config.output_format
    out_path, source = ((args.out, "--out") if args.out is not None
                        else (config.output_path, "output.path"))
    _emit(render_envelope(payload) if out_format == "json"
          else render_csv(columns, rows), out_path, source)
    return 0


def _run_verify(args) -> int:
    from .verification import format_line, run_checks

    checks = run_checks(args.profile, fault=args.inject_tolerance_fault)
    failed = [check for check in checks if not check.passed]
    for check in checks:
        sys.stdout.write(format_line(check) + "\n")
    sys.stdout.write(
        f"{len(checks) - len(failed)}/{len(checks)} checks passed "
        f"(profile={args.profile})\n")
    return 0 if not failed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cotv",
        description="Valuation of service-time variability: premiums, time "
                    "costs, variability costs, and their ratios.")
    parser.add_argument("--version", action="version",
                        version=f"cotv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, table in _SCENARIO_COMMANDS:
        scenario_parser = sub.add_parser(name, help=help_text)
        _add_common(scenario_parser)
        scenario_parser.set_defaults(func=_run_scenario_command, table=table)

    verify_parser = sub.add_parser("verify", help="run the verification suite")
    verify_parser.add_argument("--profile", choices=("quick", "full"),
                               default="quick")
    verify_parser.add_argument("--inject-tolerance-fault", action="store_true",
                               help=argparse.SUPPRESS)
    verify_parser.set_defaults(func=_run_verify)

    args = parser.parse_args(argv)
    try:
        status = args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except CotvError as exc:
        sys.stderr.write(f"computation error ({type(exc).__name__}): {exc}\n")
        return 1
    finally:
        elapsed = time.perf_counter() - _STARTED
        sys.stderr.write(f"wall-time: {elapsed:.3f}s\n")
    return status


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
