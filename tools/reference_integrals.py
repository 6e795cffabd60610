"""Reference values of the distorted expectations that cotv's reports read,
computed with mpmath over the full support.

    python tools/reference_integrals.py [--out tests/reference_integrals.json]

Every integral is E_w[t^k] = int t^k d(w(F(t))) of a model and a
weighting; a report's E_w[t], E_w[t^2], E_w[u] and E_w[u'] of a power
utility u = -t^e are such integrals, with k = 1, 2, e and e - 1.  Each
value is the decumulative (Choquet) form

    E_w[g] = g(lo) + int_lo^hi g'(t) wbar(F(t), S(t)) dt,
    wbar = 1 - w(F) = w(1) - w(1 - S),

with g = t^k, lo and hi the ends of the support (hi may be inf), the
family's exact F and S (exp and expm1, the uniform's lines, erfc, the
lower and upper incomplete gamma), and wbar written so that nothing
cancels in either tail: for power weighting -expm1(gamma log F), and for
inverse-S -expm1((gamma - 1) log F - log1p(r) / gamma) with
r = (S / F)^gamma.  The range is split at points that close in
geometrically on the start of the support (down to 1e-200 of the model's
scale, where g' or the density may be singular), on the end of a bounded
one, and along a heavy tail, and each piece is summed by mpmath's
tanh-sinh rule.  Neither the quantile nor the density is used, so the
references share no formula with cotv's probability-plane route.

The cases are the integrals that ledger regions a, a-slow, c, d, e, g and
h (``bench/ledger.json``) read; the 21 integrals of report-mix seeds 1-3
(``bench/inputs.py``) that were more than ``tol.scale`` from these values
under the adaptive Gauss kernel on a truncated window; and E_w[t] and
E_w[t^2] of gamma(1.96875, 0.300781) under power weighting 1.41406, where
that kernel's error estimate missed its budget by 3.2 times.  mpmath is
no dependency of cotv; the JSON records its version and the digits used,
and tier-1 reads only the JSON.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parents[1]
DIGITS = 40

# (seed, scenario, term) of the report-mix integrals outside their budget
# at the adaptive kernel: a DT report's term 0 is E_w[t], an RDU report's
# term 1 is E_w[u] and term 2 is its VOT, E_w[-u'].
OVER_BUDGET = (
    (1, 12, 0), (1, 22, 1), (1, 36, 0), (1, 73, 1), (1, 73, 2), (1, 126, 0),
    (1, 130, 1), (1, 211, 0), (1, 224, 0), (2, 67, 1), (2, 110, 1), (2, 196, 0),
    (2, 253, 1), (2, 256, 0), (3, 69, 1), (3, 94, 0), (3, 153, 1), (3, 218, 1),
    (3, 220, 0), (3, 245, 0), (3, 283, 0),
)
LEDGER_REGIONS = ("a", "a-slow", "c-exact", "d", "e", "g", "h")
GAMMA_BUDGET_MISS = ({"family": "gamma", "params": {"shape": 1.96875, "rate": 0.300781}},
                     {"family": "power", "params": {"gamma": 1.41406}})


def _load(name: str, relative: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _powers(raw: dict) -> list[float]:
    """The k of each E_w[t^k] an exact report of ``raw`` reads: E_w[t] for
    a DT or affine report, E_w[t] and E_w[t^2] for a quadratic one, and
    for a power utility u = -t^e also E_w[t^e] and E_w[t^(e - 1)]."""
    preference = raw.get("preference", {})
    if raw["framework"] == "dt" or preference["family"] == "affine":
        return [1.0]
    if preference["family"] in ("quadratic", "pure_quadratic"):
        return [1.0, 2.0]
    exponent = float(preference["params"]["exponent"])
    return [1.0, exponent, exponent - 1.0]


def _pieces(model: dict):
    """(lo, the pieces of the support) of a model block, in mpmath.  A
    piece is the ends of its splits in a variable v >= 0 and the map of v
    to (t, F(t), S(t)).  A bounded support is read from each end, v = t - lo
    and v = hi - t, so that a split at 1e-200 of the width is not rounded
    away; an unbounded one starts at 0, and v = t."""
    family, params = model["family"], model["params"]
    near = [mp.mpf(10) ** -j
            for j in (200, 150, 100, 70, 50, 35, 25, 18, 13, 9, 6, 4, 3, 2)]
    middle = [mp.mpf(x) for x in ("0.03", "0.1", "0.2", "0.35", "0.5")]
    if family == "uniform":
        lo, hi = mp.mpf(params["lo"]), mp.mpf(params["hi"])
        width = hi - lo
        ends = [0] + [width * x for x in near + middle]
        return lo, [(ends, lambda v: (lo + v, v / width, (width - v) / width)),
                    (ends, lambda v: (hi - v, (width - v) / width, v / width))]
    if family == "exponential":
        rate = mp.mpf(params["rate"])
        scale = 1 / rate

        def law(t):
            return t, -mp.expm1(-rate * t), mp.exp(-rate * t)
    elif family == "lognormal":
        m, s = mp.mpf(params["log_mean"]), mp.mpf(params["log_sd"])
        scale = mp.exp(m)

        def law(t):
            z = (mp.log(t) - m) / (s * mp.sqrt(2))
            return t, mp.erfc(-z) / 2, mp.erfc(z) / 2
    elif family == "gamma":
        a, rate = mp.mpf(params["shape"]), mp.mpf(params["rate"])
        scale = a / rate

        def law(t):
            return (t, mp.gammainc(a, 0, rate * t, regularized=True),
                    mp.gammainc(a, rate * t, mp.inf, regularized=True))
    else:
        raise ValueError(f"no reference law for {family}")
    tail = [mp.mpf(x) for x in (0.75, 1, 1.5, 2, 3, 4.5, 7, 10, 15, 25, 40, 70, 120,
                                250, 500, 1e3, 3e3, 1e4, 1e5, 1e6, 1e8)]
    return 0, [([0] + [scale * x for x in near + middle + tail] + [mp.inf], law)]


def _wbar(weighting: dict | None):
    """1 - w(F) of (F, S), without cancelling in either tail."""
    if weighting is None or weighting["family"] == "identity":
        return lambda f, s: s
    gamma = mp.mpf(weighting["params"]["gamma"])
    if weighting["family"] == "power":
        return lambda f, s: -mp.expm1(gamma * mp.log(f))
    if weighting["family"] == "inverse_s":
        return lambda f, s: -mp.expm1((gamma - 1) * mp.log(f)
                                      - mp.log1p((s / f) ** gamma) / gamma)
    raise ValueError(f"no reference weighting for {weighting['family']}")


def reference(model: dict, weighting: dict | None, k: float) -> mp.mpf:
    """E_w[t^k] of a model block under a weighting block, to DIGITS."""
    lo, pieces = _pieces(model)
    wbar = _wbar(weighting)
    k = mp.mpf(k)
    total = [lo ** k]
    for ends, law in pieces:
        def integrand(v, law=law):
            t, f, s = law(v)
            return k * t ** (k - 1) * wbar(f, s)
        total += [mp.quad(integrand, [a, b]) for a, b in zip(ends, ends[1:])]
    return mp.fsum(total)


def cases() -> list[tuple[str, dict, dict | None, float]]:
    """(id, model block, weighting block, k) of every reference."""
    out = []
    ledger = json.loads((ROOT / "bench" / "ledger.json").read_text(encoding="utf-8"))
    regions = {region["id"]: region["config"] for region in ledger["regions"]}
    for region in LEDGER_REGIONS:
        raw = regions[region]
        for k in _powers(raw):
            out.append((f"ledger-{region}/t^{k:g}", raw["distribution"],
                        raw.get("weighting"), k))
    corpus = _load("bench_inputs", "bench/inputs.py").report_corpus
    for seed, index, term in OVER_BUDGET:
        raw = corpus(seed)[index]["config"]
        k = _powers(raw)[term] if raw["framework"] == "rdu" else 1.0
        out.append((f"report-mix/{seed}/{index}/term{term}/t^{k:g}",
                    raw["distribution"], raw.get("weighting"), k))
    model, weighting = GAMMA_BUDGET_MISS
    out += [(f"gamma-budget-miss/t^{k:g}", model, weighting, k) for k in (1.0, 2.0)]
    return out


def _weighting_block(weighting: dict | None) -> dict | None:
    """The family and params of a weighting block, without its anchor."""
    if weighting is None:
        return None
    return {"family": weighting["family"], "params": weighting["params"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "tests" / "reference_integrals.json"))
    args = parser.parse_args(argv)
    mp.mp.dps = DIGITS
    integrals = []
    for case_id, model, weighting, k in cases():
        value = reference(model, weighting, k)
        integrals.append({"id": case_id, "model": model,
                          "weighting": _weighting_block(weighting), "power": k,
                          "value": mp.nstr(value, DIGITS), "float": float(value)})
    document = {"mpmath": mp.__version__, "digits": DIGITS,
                "form": "g(lo) + int g'(t) (1 - w(F(t))) dt over the full support, "
                        "g = t^power",
                "integrals": integrals}
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"{len(integrals)} references written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
