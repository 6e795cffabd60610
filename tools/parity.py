"""Render the same inputs with two trees of cotv and compare them.

    python tools/parity.py --against REV

REV is any git revision.  It is checked out into a temporary
``git worktree``, which is removed afterwards, and each tree renders every
case in a child process with its own ``src/`` on ``PYTHONPATH``.  Nothing
touches the network.  The cases are:

* the benchmark's report-mix corpora (``bench/inputs.py``) of each seed,
  under the methods exact, second_order and both;
* the benchmark's sweep grids of each seed, and their DT and RDU
  variants: each grid's axes crossed with the gamma of a power weighting
  (2 and 3, clear of the ledger's regions) and with phi (1 and 2.5), so a
  sweep shares its basis integrals per model and weighting across the
  values of b and phi;
* a shared-block group: an EU, a DT and an RDU sweep, each crossing a
  whole-block model axis with the nested rate axis under that block and
  the top-level method axis, plus an axis under the preference or the
  weighting; every axis but method repeats a value JSON-equal to an
  earlier one, so the points that share a block by its dict and those
  that share it by its JSON are both rendered;
* the fast reproducers of ``bench/ledger.json``, under the three methods;
* a band group: RDU on a banded instance of half-mass psi 0.5 (anchor
  p0 0.5) and 0.3 (p0 0.35), each with its flanks at the band's ends and
  at t_min and t_max apart from it, under every utility family, every
  weighting family and the three methods, so the band premium is solved
  in closed form and searched for, above 0 and (under the inverse-S
  weighting at p0 0.35) below it;
* a discrete group: raw discrete models with tied outcomes, of 3 and of 9
  states, and bands of 8 and 9 states (numpy's pairwise-sum threshold is
  8) with tied xi, one spread over all probability and one with flanks
  apart from it, under EU with every utility family, DT, and RDU with
  every utility family, DT and RDU each under a power and an inverse-S
  weighting, the three methods;
* a point-mass grid: values 0, 1, 2.5 and 1e-300, every utility family,
  EU and DT and RDU under every weighting family, phi 1 and 2.5, the
  three methods;
* a heavy-tail grid: lognormals of mean 1 and log_sd 3, 8 and 11, whose
  certainty equivalents lie far above the mean, so a premium root search
  doubles its upper end many times; power(1.5) and constant_prudence(2),
  EU and RDU under the identity and inverse-S weightings, the three
  methods;
* a certification group: RDU under inverse-S weightings whose gamma lies
  around the monotonicity threshold 0.2792042..., the bound 50 below which
  no slope is read, and the large gammas the grid rejected, and under
  power weightings of gamma 108, 109 and 1e300; and EU under utilities
  whose slope rises at the interval's lower end or overflows at its upper
  end;
* the one-quantity views (``premium_exact``, ``vot_mean``, ``cot``,
  ``cotv``, ``ratio_rho``, ``ratio_eta``, ``ratio_rho_coefficient_form``
  and ``rdu_ratio``) over the point-mass grid and a band whose variance
  underflows to 0, and ``rdu_ratio`` over the report-mix RDU scenarios of
  each seed.

A case renders as the text ``cotv value`` or ``cotv sweep`` would write,
a view as ``{"<function>": <value>}`` with the value's repr, or as
``"<ErrorClass>: <message>"`` when it fails, plus the warnings it
raised.  The tool prints how many cases are identical, the largest
relative change of each numeric field that moved, and each case whose
error or warnings changed, with its id.  A change is relative to the old
value, or for a difference field such as ``premium_abs_error`` to the
larger of its old operands (:data:`OPERANDS`).  It exits 0 when every
case is identical and 1 otherwise.  The inputs come from this checkout's
``bench/``, so both trees render the same documents.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METHODS = ("exact", "second_order", "both")

POINT_MASS_VALUES = (0.0, 1.0, 2.5, 1e-300)
POINT_MASS_PHIS = (1.0, 2.5)
UTILITIES = (
    {"family": "quadratic", "params": {"a": -0.5, "b": -0.2}},
    {"family": "pure_quadratic", "params": {"a": -1.0}},
    {"family": "power", "params": {"exponent": 1.5}},
    {"family": "constant_prudence", "params": {"prudence": 2.0}},
    {"family": "affine", "params": {"slope": 1.0}},
)
# the heavy-tail grid's lognormal spreads (each of mean 1), and the
# utilities that search for their premium
HEAVY_TAIL_SDS = (3.0, 8.0, 11.0)
HEAVY_TAIL_UTILITIES = (UTILITIES[2], UTILITIES[3])
# the power weighting's gamma axis and the phi axis of the DT and RDU
# sweep variants
SWEEP_GAMMAS = (2.0, 3.0)
SWEEP_PHIS = (1.0, 2.5)
WEIGHTINGS = (
    {"family": "identity"},
    {"family": "power", "params": {"gamma": 2.0}},
    {"family": "inverse_s", "params": {"gamma": 0.8}},
)
# the shared-block group's model axis and its rate axis, each with a
# value JSON-equal to its first, and its axis under the preference or
# the weighting, per framework
SHARED_MODELS = (
    {"family": "exponential", "params": {"rate": 1.0}},
    {"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}},
    {"family": "exponential", "params": {"rate": 1.0}},
)
SHARED_RATES = (0.5, 2.0, 0.5)
SHARED_FRAMEWORKS = {
    "eu": ({"preference": {"family": "quadratic", "params": {"a": -1.0, "b": -0.5}}},
           {"preference.params.a": [-1.0, -2.0, -1.0]}),
    "dt": ({"preference": {"family": "affine", "params": {"slope": 1.0}},
            "weighting": {"family": "inverse_s", "params": {"gamma": 0.7}}},
           {"weighting.params.gamma": [0.7, 0.9, 0.7]}),
    "rdu": ({"preference": {"family": "power", "params": {"exponent": 1.5}},
             "weighting": WEIGHTINGS[1]},
            {"weighting": [WEIGHTINGS[1], WEIGHTINGS[2], WEIGHTINGS[1]]}),
}
# the band group's instance: t0, a zero-mean xi, and the flanks it is
# built with apart from the band's ends
BAND_T0 = 4.0
BAND_XI = (-1.5, -0.25, 0.5, 1.25)
BAND_FLANKS = {"t_min": 1.0, "t_max": 9.0}
# (p0, psi) of the band group's instances and weightings
BAND_ANCHORS = ((0.5, 0.5), (0.35, 0.3))
# the discrete group's models: raw ones with ties, and bands of 8 or more
# tied states, one with flanks
DISCRETE_MODELS = {
    "raw-3": {"family": "discrete", "outcomes": [0.5, 0.5, 3.0],
              "probabilities": [0.2, 0.3, 0.5]},
    "raw-9": {"family": "discrete",
              "outcomes": [1.0, 2.5, 2.5, 2.5, 4.0, 7.0, 7.0, 9.5, 12.0],
              "probabilities": [0.0683, 0.16, 0.0968, 0.1408, 0.0975, 0.1171, 0.0583,
                                0.1166, 0.1446]},
    "band-8": {"family": "discrete",
               "dt": {"t0": 12.0, "xi": [-2.25, -2.25, -0.75, -0.75, 0.75, 0.75, 2.25, 2.25]}},
    "band-9-flanks": {"family": "discrete",
                      "dt": {"t0": 6.0, "xi": [-1.5, -1.5, -0.5, 0.0, 0.0, 0.0, 0.5, 1.5, 1.5],
                             "p0": 0.4, "psi": 0.3, "t_min": 2.0, "t_max": 15.0}},
}
# the certification group's weighting gammas and utilities
CERTIFICATION_WEIGHTINGS = (
    *({"family": "inverse_s", "params": {"gamma": gamma}}
      for gamma in (0.2792028, 0.279203, 0.2792042, 0.2792043, 0.28, 50.0, 50.0001,
                    500.0, 1100.0, 1e10)),
    *({"family": "power", "params": {"gamma": gamma}} for gamma in (108.0, 109.0, 1e300)),
)
CERTIFICATION_UTILITIES = (
    {"family": "constant_prudence", "params": {"prudence": 3.0}, "interval": [0.1, 10.0]},
    {"family": "power", "params": {"exponent": 1.5}, "interval": [0.0, 1e300]},
    {"family": "power", "params": {"exponent": 3.0}, "interval": [0.0, 1e300]},
)
EU_VIEWS = ("premium_exact", "vot_mean", "cot", "cotv", "ratio_rho", "ratio_eta",
            "ratio_rho_coefficient_form")
VIEWS = EU_VIEWS + ("rdu_ratio",)
# the EU views that take an EconomicContext, so a phi and a method
CONTEXT_VIEWS = ("vot_mean", "cot", "cotv", "ratio_rho")
VIEW_MODELS = {
    **{f"point-mass/{value!r}": {"family": "degenerate", "params": {"value": value}}
       for value in POINT_MASS_VALUES},
    # a real spread whose variance underflows to 0, at a t0 small enough to
    # keep its outcomes apart
    "band-underflow": {"family": "discrete",
                       "dt": {"t0": 1e-200, "xi": [-5e-201, 5e-201]}},
}
# a difference field's change is relative to the larger of the fields it
# is the difference of, as a change of those is (premium_scaled_error's
# are divided by sigma^2)
OPERANDS = {
    "premium_abs_error": ("premium_exact", "premium_second_order"),
    "premium_scaled_error": ("premium_exact", "premium_second_order"),
    "rho_gap": ("rho_exact", "rho_second_order"),
    "mc_quadrature_delta": ("mc_m2_dual_mean", "m2_dual_mean"),
}


def _bench_inputs():
    path = ROOT / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _weighted_sweep(grid: dict, framework: str) -> dict:
    """``grid`` under ``framework`` with a power weighting, its axes
    crossed with :data:`SWEEP_GAMMAS` and :data:`SWEEP_PHIS`."""
    axes = dict(grid["sweep"]["axes"], **{"weighting.params.gamma": list(SWEEP_GAMMAS),
                                          "economics.phi": list(SWEEP_PHIS)})
    return dict(grid, framework=framework, sweep={"axes": axes},
                weighting={"family": "power", "params": {"gamma": SWEEP_GAMMAS[0]}})


def _point_mass_cases() -> list[tuple[str, str, dict]]:
    cases = []
    for value in POINT_MASS_VALUES:
        for utility in UTILITIES:
            for framework in ("eu", "dt", "rdu"):
                for weighting in (None,) if framework == "eu" else WEIGHTINGS:
                    for phi in POINT_MASS_PHIS:
                        for method in METHODS:
                            raw = {"framework": framework,
                                   "distribution": {"family": "degenerate",
                                                    "params": {"value": value}},
                                   "preference": utility, "economics": {"phi": phi},
                                   "method": method, "seed": 0}
                            name = f"point-mass/{value!r}/{utility['family']}/{framework}"
                            if weighting is not None:
                                raw["weighting"] = weighting
                                name += f"/{weighting['family']}"
                            cases.append((f"{name}/{phi!r}/{method}", "value", raw))
    return cases


def _heavy_tail_cases() -> list[tuple[str, str, dict]]:
    cases = []
    for log_sd in HEAVY_TAIL_SDS:
        distribution = {"family": "lognormal",
                        "params": {"log_mean": -0.5 * log_sd * log_sd, "log_sd": log_sd}}
        for utility in HEAVY_TAIL_UTILITIES:
            for framework, weighting in (("eu", None), ("rdu", WEIGHTINGS[0]),
                                         ("rdu", WEIGHTINGS[2])):
                name = f"heavy-tail/{log_sd!r}/{utility['family']}/{framework}"
                raw = {"framework": framework, "distribution": distribution,
                       "preference": utility, "seed": 0}
                if weighting is not None:
                    raw["weighting"] = weighting
                    name += f"/{weighting['family']}"
                for method in METHODS:
                    cases.append((f"{name}/{method}", "value", dict(raw, method=method)))
    return cases


def _shared_block_cases() -> list[tuple[str, str, dict]]:
    cases = []
    for framework, (blocks, axes) in SHARED_FRAMEWORKS.items():
        raw = {"framework": framework, "distribution": SHARED_MODELS[0], **blocks,
               "seed": 0,
               "sweep": {"axes": {"distribution": list(SHARED_MODELS),
                                  "distribution.params.rate": list(SHARED_RATES),
                                  "method": list(METHODS), **axes}}}
        cases.append((f"shared-blocks/{framework}", "sweep", raw))
    return cases


def _band_cases() -> list[tuple[str, str, dict]]:
    cases = []
    for p0, psi in BAND_ANCHORS:
        for flanks in ({}, BAND_FLANKS):
            band = {"t0": BAND_T0, "xi": list(BAND_XI), "p0": p0, "psi": psi, **flanks}
            for utility in UTILITIES:
                for weighting in WEIGHTINGS:
                    name = (f"band/{psi!r}/{'flanks' if flanks else 'ends'}/"
                            f"{utility['family']}/{weighting['family']}")
                    raw = {"framework": "rdu",
                           "distribution": {"family": "discrete", "dt": band},
                           "preference": utility,
                           "weighting": dict(weighting, p0=p0, psi=psi), "seed": 0}
                    cases += [(f"{name}/{method}", "value", dict(raw, method=method))
                              for method in METHODS]
    return cases


def _discrete_cases() -> list[tuple[str, str, dict]]:
    cases = []
    for model_id, distribution in DISCRETE_MODELS.items():
        anchor = {key: distribution["dt"][key] for key in ("p0", "psi")
                  if key in distribution.get("dt", {})}
        runs = [("eu", utility, None) for utility in UTILITIES]
        runs += [("dt", UTILITIES[4], weighting) for weighting in WEIGHTINGS[1:]]
        runs += [("rdu", utility, weighting) for weighting in WEIGHTINGS[1:]
                 for utility in UTILITIES]
        for framework, utility, weighting in runs:
            name = f"discrete/{model_id}/{framework}/{utility['family']}"
            raw = {"framework": framework, "distribution": distribution,
                   "preference": utility, "seed": 0}
            if weighting is not None:
                raw["weighting"] = dict(weighting, **anchor)
                name += f"/{weighting['family']}"
            cases += [(f"{name}/{method}", "value", dict(raw, method=method))
                      for method in METHODS]
    return cases


def _certification_cases() -> list[tuple[str, str, dict]]:
    base = {"distribution": {"family": "uniform", "params": {"lo": 1.0, "hi": 3.0}},
            "method": "both", "seed": 0}
    cases = []
    for weighting in CERTIFICATION_WEIGHTINGS:
        raw = dict(base, framework="rdu", weighting=weighting,
                   preference={"family": "quadratic", "params": {"a": -0.5, "b": -0.2}})
        gamma = weighting["params"]["gamma"]
        cases.append((f"certification/{weighting['family']}/{gamma!r}", "value", raw))
    for utility in CERTIFICATION_UTILITIES:
        raw = dict(base, framework="eu", preference=utility)
        name = "/".join(map(repr, (*utility["params"].values(), *utility["interval"])))
        cases.append((f"certification/{utility['family']}/{name}", "value", raw))
    return cases


def _view_case(case_id: str, view: str, config: dict) -> tuple[str, str, dict]:
    return f"view/{view}/{case_id}", "view", {"view": view, "config": config}


def _view_cases(corpora) -> list[tuple[str, str, dict]]:
    """Each view over :data:`VIEW_MODELS` and every utility family, and
    ``rdu_ratio`` over the RDU scenarios of each ``(seed, corpus)``."""
    cases = []
    for model_id, distribution in VIEW_MODELS.items():
        for utility in UTILITIES:
            raw = {"framework": "eu", "distribution": distribution,
                   "preference": utility, "seed": 0}
            case_id = f"{model_id}/{utility['family']}"
            for view in EU_VIEWS:
                if view not in CONTEXT_VIEWS:
                    cases.append(_view_case(case_id, view, raw))
                    continue
                for phi in POINT_MASS_PHIS:
                    for method in ("exact", "second_order"):
                        cases.append(_view_case(
                            f"{case_id}/{phi!r}/{method}", view,
                            dict(raw, method=method, economics={"phi": phi})))
            for weighting in WEIGHTINGS:
                for phi in POINT_MASS_PHIS:
                    cases.append(_view_case(
                        f"{case_id}/{weighting['family']}/{phi!r}", "rdu_ratio",
                        dict(raw, framework="rdu", weighting=weighting,
                             economics={"phi": phi})))
    for seed, corpus in corpora:
        for index, item in enumerate(corpus):
            if item["config"]["framework"] == "rdu":
                cases.append(_view_case(f"report-mix/{seed}/{index}", "rdu_ratio",
                                        item["config"]))
    return cases


def build_cases(seeds=(1, 2, 3)) -> list[tuple[str, str, dict]]:
    """``(id, kind, config)`` for every case; kind is "value", "sweep" or
    "view"."""
    inputs = _bench_inputs()
    corpora = [(seed, inputs.report_corpus(seed)) for seed in seeds]
    cases = []
    for seed, corpus in corpora:
        for index, item in enumerate(corpus):
            for method in METHODS:
                cases.append((f"report-mix/{seed}/{index}/{method}", "value",
                              dict(item["config"], method=method)))
    for seed in seeds:
        for index, raw in enumerate(inputs.sweep_grids(seed)):
            cases.append((f"sweep-grid/{seed}/{index}", "sweep", raw))
            for framework in ("dt", "rdu"):
                cases.append((f"sweep-{framework}/{seed}/{index}", "sweep",
                              _weighted_sweep(raw, framework)))
    ledger = json.loads((ROOT / "bench" / "ledger.json").read_text(encoding="utf-8"))
    for region in ledger["regions"]:
        if region["fast"]:
            for method in METHODS:
                cases.append((f"ledger/{region['id']}/{method}", "value",
                              dict(region["config"], method=method)))
    return (cases + _shared_block_cases() + _band_cases() + _discrete_cases()
            + _point_mass_cases() + _heavy_tail_cases() + _certification_cases()
            + _view_cases(corpora))


def _render_view(view: str, config) -> str:
    """``{view: value}`` as JSON, which writes a float as its repr."""
    from cotv import eu, non_eu

    u, model = config.utility, config.model
    if view == "rdu_ratio":
        anchor = config.data["weighting"]
        ctx = non_eu.RduContext(u, config.weighting, anchor["p0"], anchor["tau_h"])
        value = non_eu.rdu_ratio(model, ctx, config.phi)
    elif view in CONTEXT_VIEWS:
        value = getattr(eu, view)(u, model, eu.EconomicContext(config.phi, config.method))
    else:
        value = getattr(eu, view)(u, model)
    return json.dumps({view: value})


def _render_all(cases: list[list]) -> list[dict]:
    """Runs in the child, with the tree under test first on the path."""
    from cotv.cli import render_csv, render_envelope, run_scenario, sweep_rows
    from cotv.config import parse_config

    outputs = []
    for kind, raw in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                if kind == "view":
                    text = _render_view(raw["view"], parse_config(raw["config"]))
                elif kind == "sweep":
                    text = render_csv(*sweep_rows(parse_config(raw)))
                else:
                    text = render_envelope(run_scenario(parse_config(raw)))
                error = None
            except Exception as exc:  # the error is the case's output
                text, error = None, f"{type(exc).__name__}: {exc}"
        found = sorted({f"{w.category.__name__}: {w.message}" for w in caught})
        outputs.append({"text": text, "error": error, "warnings": found})
    return outputs


def render_tree(tree: Path, cases: list[tuple[str, str, dict]]) -> list[dict]:
    """Each case rendered by the cotv of ``tree`` in a child process."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    payload = json.dumps([[kind, raw] for _, kind, raw in cases])
    result = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--render"],
                            input=payload, capture_output=True, text=True, env=env,
                            check=False)
    if result.returncode != 0:
        raise RuntimeError(f"rendering in {tree} failed:\n{result.stderr}")
    return json.loads(result.stdout)


def _fields(text: str) -> dict[str, list[float]]:
    """The numbers of an envelope by JSON key, or of a CSV by column."""
    fields = defaultdict(list)

    def walk(name, node):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(key, value)
        elif isinstance(node, list):
            for value in node:
                walk(name, value)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            fields[name].append(float(node))

    try:
        walk(None, json.loads(text))
    except ValueError:
        for row in csv.DictReader(io.StringIO(text)):
            for name, value in row.items():
                with contextlib.suppress(TypeError, ValueError):
                    fields[name].append(float(value))
    return fields


def relative_changes(before: dict, after: dict, name: str) -> list[tuple]:
    """``(change, old, new)`` of each number of the field ``name`` that
    moved between the :func:`_fields` ``before`` and ``after``, relative
    to its old value, or to the larger of its old operands where it is a
    difference field whose operands line up with it."""
    x, y = before.get(name, []), after.get(name, [])
    scales = [abs(p) for p in x]
    operands = [before.get(field, []) for field in OPERANDS.get(name, ())]
    if operands and all(len(values) == len(x) for values in operands):
        scales = [max(abs(values[i]) for values in operands) for i in range(len(x))]
        if name == "premium_scaled_error" and len(before.get("sigma", [])) == len(x):
            scales = [scale / (sigma * sigma) if sigma * sigma else scale
                      for scale, sigma in zip(scales, before["sigma"])]
    return [(abs(q - p) / scale if scale else abs(q), p, q)
            for p, q, scale in zip(x, y, scales) if p != q]


def compare(cases, old: list[dict], new: list[dict]) -> list[str]:
    """The summary lines; the first one counts the identical cases."""
    identical = 0
    worst: dict[str, tuple] = {}
    lines = []
    for (case_id, _, _), a, b in zip(cases, old, new):
        if a == b:
            identical += 1
            continue
        if a["error"] != b["error"] or a["warnings"] != b["warnings"]:
            lines.append(f"{case_id}: {a['error']} {a['warnings']} "
                         f"-> {b['error']} {b['warnings']}")
        if a["text"] is None or b["text"] is None or a["text"] == b["text"]:
            continue
        before, after = _fields(a["text"]), _fields(b["text"])
        for name in sorted(before.keys() | after.keys()):
            x, y = before.get(name, []), after.get(name, [])
            if len(x) != len(y):
                lines.append(f"{case_id}: {name} has {len(x)} -> {len(y)} numbers")
                continue
            for change, p, q in relative_changes(before, after, name):
                if change >= worst.get(name, (-1.0,))[0]:
                    worst[name] = (change, p, q, case_id)
        if before == after:
            lines.append(f"{case_id}: text changed, no number moved")
    summary = [f"identical: {identical} of {len(cases)}"]
    summary += [f"{name}: {change:.3g} ({p!r} -> {q!r}) at {case_id}"
                for name, (change, p, q, case_id) in sorted(worst.items())]
    return summary + lines


@contextlib.contextmanager
def _checkout(rev: str):
    with tempfile.TemporaryDirectory(prefix="cotv-parity-") as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), rev], check=True)
        try:
            yield tree
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(tree)], check=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="git revision to compare the working tree with")
    parser.add_argument("--render", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.render:
        json.dump(_render_all(json.load(sys.stdin)), sys.stdout)
        return 0
    if args.against is None:
        parser.error("--against REV is required")
    cases = build_cases()
    with _checkout(args.against) as tree:
        old = render_tree(tree, cases)
    new = render_tree(ROOT, cases)
    summary = compare(cases, old, new)
    print("\n".join(summary))
    return 0 if summary[0] == f"identical: {len(cases)} of {len(cases)}" else 1


if __name__ == "__main__":
    sys.exit(main())
