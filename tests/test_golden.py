"""Golden corpus: fixed scenarios whose rendered output must not change.

``tests/golden/corpus.json`` holds, for every scenario below, the exact
text the package rendered for it: a ``value`` or ``dualmoments`` envelope,
a ``sweep`` CSV, or ``"<ErrorClass>: <message>"`` when the computation
fails.  It keeps every fast reproducer of ``bench/ledger.json``, whether
it still fails or renders since its defect was fixed.  The ``cli`` cases
run ``cotv.cli.main`` on a config file and keep ``"exit <code>"``
followed by the bytes of the ``--out`` file, or by the first stderr line
when the run writes none.  The comparison is byte equality; a refactor
that changes one digit of one number fails here.
The corpus was rendered with CPython 3.11 and numpy 2.4; the package
imports no scipy.  The lognormal cases depend on CPython's ``math.erfc``
and ``math.log``, and the gamma cases on numpy's ``exp``, ``log`` and
``log1p``.  Another build of Python or numpy may move last digits, and
this test then fails without a code change.

Regenerate only for a deliberate change of output, and say so where the
change is recorded::

    PYTHONPATH=src python tests/test_golden.py

It prints the ids of the cases it adds, removes or changes before it
writes the file, and under each changed case the largest relative change
of each numeric field that moved, so a regeneration can be checked
against the bound it was made under.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path

import pytest

from cotv.cli import (
    dualmoments_payload,
    main,
    render_csv,
    render_envelope,
    run_scenario,
    sweep_rows,
)
from cotv.config import parse_config
from cotv.errors import CotvError

CORPUS = Path(__file__).parent / "golden" / "corpus.json"
LEDGER = Path(__file__).parent.parent / "bench" / "ledger.json"

EXPONENTIAL = {"family": "exponential", "params": {"rate": 0.8}}
UNIFORM = {"family": "uniform", "params": {"lo": 1.0, "hi": 4.0}}
LOGNORMAL = {"family": "lognormal", "params": {"log_mean": 1.0, "log_sd": 0.5}}
GAMMA = {"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}}
SHIFTED = {"family": "shifted_scaled", "base": {"family": "exponential",
           "params": {"rate": 1.0}}, "loc": 1.5, "scale": 2.0}
DEGENERATE = {"family": "degenerate", "params": {"value": 2.5}}
# a zero mean: no cv, and u'(0) = 0 for a power utility
DEGENERATE_ZERO = {"family": "degenerate", "params": {"value": 0.0}}
# sigma^2 underflows to a subnormal: the scaled premium error is inf
UNIFORM_TINY = {"family": "uniform", "params": {"lo": 0.0, "hi": 1e-160}}
# tied outcomes; the float cumulative mass ends at 1.0000000000000002
RAW = {"family": "discrete", "outcomes": [1.0, 2.0, 2.0, 3.5, 5.0, 8.0],
       "probabilities": [0.1, 0.2, 0.15, 0.25, 0.2, 0.1]}
# the float cumulative mass ends at 0.9999999999999999
RAW_TENTHS = {"family": "discrete",
              "outcomes": [0.5, 1.0, 1.5, 2.0, 2.0, 3.0, 4.0, 5.0, 7.0, 9.0],
              "probabilities": [0.1] * 10}
BANDED = {"family": "discrete", "dt": {"t0": 3.0, "xi": [-1.0, -0.5, 0.5, 1.0],
                                        "p0": 0.5, "psi": 0.3}}

PURE_QUADRATIC = {"family": "pure_quadratic", "params": {"a": -1.0}}
QUADRATIC = {"family": "quadratic", "params": {"a": -0.5, "b": -0.2}}
POWER = {"family": "power", "params": {"exponent": 1.5}}
PRUDENCE = {"family": "constant_prudence", "params": {"prudence": 2.0}}
AFFINE = {"family": "affine", "params": {"slope": 1.0}}

INVERSE_S = {"family": "inverse_s", "params": {"gamma": 0.8}}
POWER_W = {"family": "power", "params": {"gamma": 2.0}}
IDENTITY = {"family": "identity"}


def _scenario(framework, distribution, preference, method, phi=2.5,
              weighting=None):
    raw = {"framework": framework, "distribution": distribution,
           "preference": preference, "economics": {"phi": phi},
           "method": method, "seed": 7}
    if weighting is not None:
        raw["weighting"] = weighting
    return raw


def _anchor(weighting, **anchor):
    return {**weighting, **anchor}


SCENARIOS = {
    "eu-exponential-pure_quadratic-both": _scenario("eu", EXPONENTIAL, PURE_QUADRATIC, "both"),
    "eu-uniform-power-exact": _scenario("eu", UNIFORM, POWER, "exact"),
    "eu-uniform-pure_quadratic-second_order": _scenario("eu", UNIFORM, PURE_QUADRATIC,
                                                        "second_order"),
    "eu-lognormal-power-both": _scenario("eu", LOGNORMAL, POWER, "both"),
    "eu-lognormal-prudence-exact": _scenario("eu", LOGNORMAL, PRUDENCE, "exact", phi=1.0),
    "eu-gamma-prudence-both": _scenario("eu", GAMMA, PRUDENCE, "both"),
    "eu-shifted-quadratic-both": _scenario("eu", SHIFTED, QUADRATIC, "both"),
    "eu-degenerate-pure_quadratic-both": _scenario("eu", DEGENERATE, PURE_QUADRATIC, "both"),
    "eu-raw-power-both": _scenario("eu", RAW, POWER, "both"),
    "eu-raw_tenths-pure_quadratic-exact": _scenario("eu", RAW_TENTHS, PURE_QUADRATIC, "exact"),
    "eu-banded-pure_quadratic-both": _scenario("eu", BANDED, PURE_QUADRATIC, "both"),
    "eu-degenerate_zero-quadratic-both": _scenario("eu", DEGENERATE_ZERO, QUADRATIC, "both"),
    "eu-degenerate_zero-power-both": _scenario("eu", DEGENERATE_ZERO, POWER, "both"),
    "eu-uniform_tiny-quadratic-both": _scenario(
        "eu", UNIFORM_TINY, {"family": "quadratic", "params": {"a": -1.0}}, "both"),
    "dt-exponential-inverse_s-both": _scenario("dt", EXPONENTIAL, AFFINE, "both",
                                               weighting=INVERSE_S),
    "dt-uniform-power-both": _scenario("dt", UNIFORM, AFFINE, "both", weighting=POWER_W),
    "dt-lognormal-inverse_s-exact": _scenario("dt", LOGNORMAL, AFFINE, "exact",
                                              weighting=INVERSE_S),
    "dt-gamma-power-second_order": _scenario("dt", GAMMA, AFFINE, "second_order",
                                             weighting=POWER_W),
    "dt-shifted-identity-both": _scenario("dt", SHIFTED, AFFINE, "both", weighting=IDENTITY),
    "dt-degenerate-inverse_s-both": _scenario("dt", DEGENERATE, AFFINE, "both",
                                              weighting=INVERSE_S),
    "dt-raw-inverse_s-both": _scenario("dt", RAW, AFFINE, "both", weighting=INVERSE_S),
    "dt-raw_tenths-power-exact": _scenario("dt", RAW_TENTHS, AFFINE, "exact",
                                           weighting=POWER_W),
    "dt-banded-power-both": _scenario("dt", BANDED, AFFINE, "both",
                                      weighting=_anchor(POWER_W, p0=0.5, psi=0.3)),
    "rdu-exponential-pure_quadratic-inverse_s-both": _scenario(
        "rdu", EXPONENTIAL, PURE_QUADRATIC, "both", weighting=INVERSE_S),
    "rdu-exponential-pure_quadratic-identity-exact": _scenario(
        "rdu", EXPONENTIAL, PURE_QUADRATIC, "exact", weighting=IDENTITY),
    "rdu-uniform-pure_quadratic-power-exact": _scenario(
        "rdu", UNIFORM, PURE_QUADRATIC, "exact", weighting=POWER_W),
    "rdu-lognormal-power-inverse_s-both": _scenario(
        "rdu", LOGNORMAL, POWER, "both", weighting=INVERSE_S),
    "rdu-gamma-prudence-inverse_s-second_order": _scenario(
        "rdu", GAMMA, PRUDENCE, "second_order", weighting=INVERSE_S),
    "rdu-shifted-power-identity-exact": _scenario(
        "rdu", SHIFTED, POWER, "exact", weighting=IDENTITY),
    "rdu-degenerate-pure_quadratic-inverse_s-both": _scenario(
        "rdu", DEGENERATE, PURE_QUADRATIC, "both", weighting=INVERSE_S),
    "rdu-raw-pure_quadratic-power-both": _scenario(
        "rdu", RAW, PURE_QUADRATIC, "both", weighting=POWER_W),
    "rdu-raw_tenths-power-inverse_s-exact": _scenario(
        "rdu", RAW_TENTHS, POWER, "exact", weighting=INVERSE_S),
    "rdu-banded-pure_quadratic-inverse_s-both": _scenario(
        "rdu", BANDED, PURE_QUADRATIC, "both",
        weighting=_anchor(INVERSE_S, p0=0.5, psi=0.3, tau_h=1.2)),
}

SWEEPS = {
    "sweep-eu-exponential-rate-phi": {
        **_scenario("eu", EXPONENTIAL, PURE_QUADRATIC, "both"),
        "sweep": {"axes": {"distribution.params.rate": [0.5, 1.0, 2.0],
                           "economics.phi": [1.0, 2.5]}},
    },
    "sweep-eu-distribution-blocks-phi": {
        **_scenario("eu", EXPONENTIAL, QUADRATIC, "both"),
        "sweep": {"axes": {"distribution": [EXPONENTIAL, UNIFORM, DEGENERATE, RAW, BANDED],
                           "economics.phi": [1.0, 2.5]}},
    },
    "sweep-dt-uniform-gamma-phi": {
        **_scenario("dt", UNIFORM, AFFINE, "both", weighting=POWER_W),
        "sweep": {"axes": {"weighting.params.gamma": [1.5, 2.0, 3.0],
                           "economics.phi": [1.0, 2.5]}},
    },
    "sweep-rdu-exponential-gamma-phi": {
        **_scenario("rdu", EXPONENTIAL, PURE_QUADRATIC, "both", weighting=INVERSE_S),
        "sweep": {"axes": {"weighting.params.gamma": [0.6, 0.8, 1.5],
                           "economics.phi": [1.0, 2.5]}},
    },
}

DUAL_MOMENTS = {
    "dualmoments-lognormal": _scenario("eu", LOGNORMAL, PURE_QUADRATIC, "exact"),
    "dualmoments-raw": _scenario("eu", RAW, PURE_QUADRATIC, "exact"),
}


# every scenario subcommand in both formats, and two config errors (exit 2)
CLI_RUNS = {
    f"cli-{command}-{fmt}": {"command": command, "format": fmt, "scenario": raw}
    for command, raw in (
        ("value", SCENARIOS["rdu-banded-pure_quadratic-inverse_s-both"]),
        ("sweep", SWEEPS["sweep-eu-exponential-rate-phi"]),
        ("classify", SCENARIOS["eu-gamma-prudence-both"]),
        ("dualmoments", DUAL_MOMENTS["dualmoments-raw"]),
    )
    for fmt in ("json", "csv")
}
CLI_RUNS["cli-value-unknown_key"] = {
    "command": "value", "format": "json",
    "scenario": {**SCENARIOS["eu-uniform-power-exact"], "bogus": 1}}
# a non-finite result field is a computation error (exit 1), in a sweep
# with the point's axis values
CLI_RUNS.update({
    f"cli-{command}-nonfinite_result": {
        "command": command, "format": fmt,
        "scenario": {**SCENARIOS["eu-uniform_tiny-quadratic-both"],
                     "sweep": {"axes": {"economics.phi": [1.0, 2.5]}}}}
    for command, fmt in (("value", "json"), ("sweep", "csv"))})
CLI_RUNS["cli-sweep-grid_too_large"] = {
    "command": "sweep", "format": "csv",
    "scenario": {**SWEEPS["sweep-eu-exponential-rate-phi"], "sweep": {"axes": {
        "distribution.params.rate": [0.5 + i / 100 for i in range(101)],
        "economics.phi": [1.0 + i / 100 for i in range(101)],
        "seed": list(range(101))}}}}


def run_cli(case: dict) -> str:
    """Exit code, then the output file or the first stderr line."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        config.write_text(json.dumps(case["scenario"]), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([case["command"], "--config", str(config),
                         "--format", case["format"], "--out", str(out)])
        text = (out.read_bytes().decode("utf-8") if out.exists()
                else stderr.getvalue().splitlines()[0])
    return f"exit {code}\n{text}"


def render(kind: str, raw: dict) -> str:
    """The text the package renders for one case, or its error."""
    if kind == "cli":
        return run_cli(raw)
    try:
        # the ledger reproducers hit singular weightings on purpose
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            config = parse_config(raw)
            if kind == "sweep":
                return render_csv(*sweep_rows(config))
            if kind == "dualmoments":
                return render_envelope(dualmoments_payload(config))
            return render_envelope(run_scenario(config))
    except CotvError as exc:
        return f"{type(exc).__name__}: {exc}"


def _build_corpus() -> list[dict]:
    cases = [("value", name, raw) for name, raw in SCENARIOS.items()]
    cases += [("sweep", name, raw) for name, raw in SWEEPS.items()]
    cases += [("dualmoments", name, raw) for name, raw in DUAL_MOMENTS.items()]
    regions = json.loads(LEDGER.read_text(encoding="utf-8"))["regions"]
    cases += [("value", f"ledger-{region['id']}", region["config"])
              for region in regions if region["fast"]]
    cases += [("cli", name, run) for name, run in CLI_RUNS.items()]
    return [{"id": name, "kind": kind, "config": raw, "expected": render(kind, raw)}
            for kind, name, raw in cases]


def _load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))["cases"]


# a missing corpus fails the coverage test below, not collection
@pytest.mark.parametrize("case", _load() if CORPUS.exists() else [],
                         ids=lambda case: case["id"])
def test_golden_output_is_byte_identical(case):
    assert render(case["kind"], case["config"]) == case["expected"]


def test_golden_corpus_covers_the_scenarios():
    ids = {case["id"] for case in _load()}
    assert set(SCENARIOS) | set(SWEEPS) | set(DUAL_MOMENTS) | set(CLI_RUNS) <= ids
    regions = json.loads(LEDGER.read_text(encoding="utf-8"))["regions"]
    assert {f"ledger-{region['id']}" for region in regions if region["fast"]} <= ids
    assert any(case["expected"].startswith("NonFiniteError") for case in _load())


def _fields(text: str) -> dict[str, list[float]]:
    """The numbers of a rendered text by field name: the keys of a JSON
    document (a list's items take its key), the columns of a CSV.  An
    error line has none."""
    if text.startswith("exit "):
        text = text.partition("\n")[2]
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


def _changes(old: str, new: str) -> list[str]:
    """``field: largest relative change`` for each numeric field that moved."""
    before, after = _fields(old), _fields(new)
    lines = []
    for name in sorted(before.keys() | after.keys()):
        a, b = before.get(name, []), after.get(name, [])
        if len(a) != len(b):
            lines.append(f"{name}: {len(a)} -> {len(b)} values")
        elif a != b:
            worst = max(abs(y - x) / abs(x) if x else abs(y) for x, y in zip(a, b))
            lines.append(f"{name}: {worst:.3g}")
    return lines or ["no numeric field moved"]


if __name__ == "__main__":
    old = {case["id"]: case["expected"] for case in _load()} if CORPUS.exists() else {}
    cases = _build_corpus()
    new = {case["id"]: case["expected"] for case in cases}
    for label, ids in (("added", new.keys() - old.keys()),
                       ("removed", old.keys() - new.keys()),
                       ("changed", {i for i in new.keys() & old.keys() if new[i] != old[i]})):
        for case_id in sorted(ids):
            print(f"{label}: {case_id}")
            if label == "changed":
                for line in _changes(old[case_id], new[case_id]):
                    print(f"    {line}")
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")
