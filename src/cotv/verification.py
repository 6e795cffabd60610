"""Built-in verification suite behind ``cotv verify``.

Each check pins an expected value or property with an explicit tolerance
and reports pass/fail; failures are results, not exceptions.  The quick
profile covers the first six check groups, the full profile everything.

One check, ``A6-dt-approx-scaling``, fails by construction: the
dual-theory premium and its second-order form are both exactly linear in
the outcome scale, so their gap cannot shrink faster than the squared
spread for non-quadratic weighting.  The check asserts the super-quadratic
rate anyway and reports the honest FAIL; see the README for discussion.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .benchmark import (
    approximation_convergence_study,
    bound_sweep,
    rp_threshold_experiment,
    vertex_identity_check,
)
from .config import parse_config
from .distributions import (
    Exponential,
    Gamma,
    LogNormal,
    Uniform,
    build_dt_instance,
    discrete_dual_moment,
    discrete_dual_moment_variance,
)
from .eu import EconomicContext, premium_approx, premium_exact, ratio_eta, ratio_rho
from .non_eu import (
    DtContext,
    RduContext,
    dt_premium_approx,
    dt_premium_exact,
    dt_valuation,
    rdu_premium_approx,
    rdu_premium_exact,
    rdu_ratio,
)
from .numerics import RngStream, Tolerance, mc_estimate
from .preferences import (
    AffineUtility,
    ConstantPrudenceUtility,
    IdentityWeighting,
    InverseSWeighting,
    PowerUtility,
    PowerWeighting,
    PureQuadraticUtility,
    QuadraticUtility,
    eta_from_coefficients,
)

__all__ = ["CheckResult", "run_checks", "format_line", "QUICK_CHECKS", "FULL_CHECKS"]

_TIGHT = Tolerance(abs_tol=1e-12, rel_tol=1e-11, max_iter=400)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    expected: str
    actual: str
    tolerance: str


def _result(name: str, passed: bool, expected, actual, tolerance) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), expected=str(expected),
                       actual=str(actual), tolerance=str(tolerance))


def format_line(check: CheckResult) -> str:
    status = "PASS" if check.passed else "FAIL"
    return (f"{status} {check.name}: expected={check.expected} "
            f"actual={check.actual} tol={check.tolerance}")


def _random_zero_mean(rng: np.random.Generator, n: int,
                      scale: float = 1.0) -> np.ndarray:
    xi = np.sort(rng.normal(0.0, scale, size=n))
    return xi - xi.mean()


def _brute_pairwise_dual(xi: np.ndarray) -> float:
    """Order-statistic oracle: mean of max over all n^2 equiprobable pairs."""
    n = xi.size
    best = np.maximum.outer(xi, xi)
    return float(best.sum() / n**2 - xi.mean())


# ------------------------------------------------------------------ checks

def check_poisson_bound(fault: float = 1.0) -> list[CheckResult]:
    model = Exponential(rate=1.0)
    u = PureQuadraticUtility(a=-1.0)
    rho_exact = ratio_rho(u, model, EconomicContext(method="exact"), _TIGHT)
    rho_second = ratio_rho(u, model, EconomicContext(method="second_order"))
    tol_exact = 1e-6 * fault
    tol_second = 1e-10 * fault
    return [
        _result("A1-poisson-bound-exact",
                abs(rho_exact - 0.5) <= tol_exact, 0.5,
                f"{rho_exact:.10f}", tol_exact),
        _result("A1-poisson-bound-second-order",
                abs(rho_second - 0.5) <= tol_second, 0.5,
                f"{rho_second:.12f}", tol_second),
    ]


def _bound_grid() -> tuple[list[tuple[float, float]], list]:
    grid = [(a, b)
            for a in (-0.5, -1.0, -2.0, -4.0, -8.0)
            for b in (0.0, -0.5, -1.0, -2.0, -4.0)]
    models = [Exponential(rate=1.0), Uniform(0.2, 1.8),
              LogNormal(log_mean=0.0, log_sd=0.5), Gamma(shape=4.0, rate=2.0)]
    return grid, models


def check_quadratic_bound_sweep(fault: float = 1.0) -> list[CheckResult]:
    grid, models = _bound_grid()
    result = bound_sweep(grid, models, slack_tol=1e-9 * fault, tol=_TIGHT)
    equality_tol = 1e-9 * fault
    return [
        _result("A2-quadratic-bound-violations",
                len(result.violations) == 0, 0,
                len(result.violations), f"slack {1e-9 * fault:g}"),
        _result("A2-quadratic-bound-equality",
                result.max_equality_gap <= equality_tol, "<= tol",
                f"{result.max_equality_gap:.3e}", equality_tol),
    ]


def check_premium_approximation_order(fault: float = 1.0) -> list[CheckResult]:
    sigmas = [0.4, 0.2, 0.1]
    x = [-1.0, 1.0]
    p = [0.5, 0.5]
    u_quad = PureQuadraticUtility(a=-1.0)
    rows = approximation_convergence_study(u_quad, x, p, sigmas, mu=1.0, tol=_TIGHT)
    residual_tol = 1e-10 * fault
    max_residual = max(
        abs(row["abs_error"] - abs(math.sqrt(1.0 + row["sigma"]**2)
                                   - 1.0 - row["sigma"]**2 / 2.0))
        for row in rows)
    ratios = [rows[i]["abs_error"] / rows[i + 1]["abs_error"]
              for i in range(len(rows) - 1)]
    ratio_ok = all(14.0 <= r <= 18.0 for r in ratios)

    u_pow = PowerUtility(exponent=1.5)
    rows_pow = approximation_convergence_study(u_pow, x, p, sigmas, mu=1.0,
                                               tol=_TIGHT)
    scaled = [row["scaled_error"] for row in rows_pow]
    power_ok = all(s1 / s2 >= 2.0 for s1, s2 in zip(scaled, scaled[1:]))
    return [
        _result("A3-quadratic-residual-closed-form",
                max_residual <= residual_tol, "<= tol",
                f"{max_residual:.3e}", residual_tol),
        _result("A3-quadratic-error-ratio",
                ratio_ok, "[14, 18]",
                "[" + ", ".join(f"{r:.2f}" for r in ratios) + "]", "range"),
        _result("A3-power-scaled-error-halving",
                power_ok, ">= 2x decay per halving",
                "[" + ", ".join(f"{s:.3e}" for s in scaled) + "]", "factor 2"),
    ]


def check_reliability_ratio_identities(fault: float = 1.0) -> list[CheckResult]:
    quad_ok = True
    worst = 0.0
    for a in (-0.5, -1.0, -3.0):
        for b in (0.0, -1.0, -2.0):
            u = QuadraticUtility(a=a, b=b)
            for model in (Exponential(1.0), Uniform(0.5, 1.5)):
                eta = ratio_eta(u, model)
                worst = max(worst, abs(eta - 1.0))
                quad_ok &= eta == 1.0

    grid_ok = True
    exceptions = 0
    for r2 in np.linspace(0.1, 3.0, 10):
        for r3 in np.linspace(0.1, 4.0, 10):
            for cv in np.linspace(0.05, 2.0, 10):
                eta = eta_from_coefficients(r2, r3, cv)
                if (eta <= 0.5) != (r2 * r3 * cv**2 >= 2.0):
                    exceptions += 1
                    grid_ok = False
    return [
        _result("A4-eta-quadratic-exactly-one",
                quad_ok and worst == 0.0, 1.0, f"max|eta-1|={worst:.1e}",
                "exact"),
        _result("A4-eta-half-threshold-grid",
                grid_ok and exceptions <= 0, "0 exceptions",
                f"{exceptions} exceptions", "10^3 grid"),
    ]


# Dual moments about the mean and the variance; the lognormal's are
# 40-digit mpmath values, mu erf(s/2) and mu^2 (expm1(s^2) + e^(s^2) erf(s)
# - 2 erf(s/2)) at mu = e^(1/8), s = 1/2.
_DUAL_MOMENTS = (
    ("uniform", Uniform(0.0, 1.0), (1.0 / 6.0, 1.0 / 12.0)),
    ("exponential", Exponential(1.0), (0.5, 1.5)),
    ("lognormal", LogNormal(0.0, 0.5), (0.31311882156067794, 0.5132348574043945)),
    ("gamma", Gamma(2.0, 1.0), (0.75, 2.75)),
)


def check_dual_moments(fault: float = 1.0) -> list[CheckResult]:
    # Quadrature of each moment against the closed forms the reports read
    # and against the literal values.
    tol_quad = 1e-8 * fault
    checks = []
    for label, model, literal in _DUAL_MOMENTS:
        mu = model.mean()
        integrated = tuple(model.dual_expect(lambda t, k=k: (t - mu) ** k, _TIGHT)
                           for k in (1, 2))
        closed = model._closed_dual_moments()
        gap = max(abs(value - reference)
                  for references in (closed, literal)
                  for value, reference in zip(integrated, references))
        checks.append(_result(
            f"A5-dual-moment-{label}", gap <= tol_quad,
            f"{literal[0]:.12f}, {literal[1]:.12f}",
            f"{integrated[0]:.12f}, {integrated[1]:.12f}", tol_quad))

    for label, model, reference in (
        ("uniform", Uniform(0.0, 1.0), 1.0 / 6.0),
        ("exponential", Exponential(1.0), 0.5),
    ):
        def sampler(gen, n, _model=model):
            return _model.draw(gen, 2 * n).reshape(n, 2)

        mc = mc_estimate(sampler, lambda pair: pair.max(axis=1) - pair.mean(axis=1),
                         1_000_000, RngStream(seed=20260809, stream_id=1))
        within = abs(mc.estimate - reference) <= 3.0 * mc.std_error * max(fault, 1e-12)
        checks.append(_result(
            f"A5-mc-order-statistic-{label}", within, f"{reference:.6f}",
            f"{mc.estimate:.6f} (se {mc.std_error:.2e})", "3 se"))

    gen = RngStream(seed=4, stream_id=2).generator()
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(2, 9))
        xi = _random_zero_mean(gen, n, scale=float(gen.uniform(0.5, 3.0)))
        instance = build_dt_instance(t0=10.0, xi=xi)
        worst = max(worst, abs(discrete_dual_moment(instance)
                               - _brute_pairwise_dual(xi)))
    tol_discrete = 1e-12 * fault
    checks.append(_result(
        "A5-discrete-formula-vs-bruteforce",
        worst <= tol_discrete, "<= tol", f"{worst:.2e}", tol_discrete))
    return checks


def check_dt_taylor(fault: float = 1.0) -> list[CheckResult]:
    w2 = PowerWeighting(gamma=2.0)
    ctx2 = DtContext(w=w2)
    gen = RngStream(seed=11, stream_id=3).generator()
    worst = 0.0
    for _ in range(25):
        n = int(gen.integers(2, 9))
        xi = _random_zero_mean(gen, n, scale=float(gen.uniform(0.5, 2.0)))
        instance = build_dt_instance(t0=12.0, xi=xi)
        exact = dt_premium_exact(instance, ctx2)
        approx = dt_premium_approx(ctx2, discrete_dual_moment(instance))
        worst = max(worst, abs(exact - approx))
    tol_exactness = 1e-12 * fault
    checks = [_result("A6-dt-quadratic-weighting-exact",
                      worst <= tol_exactness, "<= tol", f"{worst:.2e}",
                      tol_exactness)]

    # Honest FAIL: both premiums are degree-1 homogeneous in the outcome
    # scale, so the scaled gap grows instead of vanishing.
    ws = InverseSWeighting(gamma=0.7)
    ctxs = DtContext(w=ws)
    xi0 = np.array([-3.0, -1.0, 1.0, 3.0])
    scaled_errors = []
    for eps in (1.0, 0.5, 0.25):
        instance = build_dt_instance(t0=12.0, xi=eps * xi0)
        exact = dt_premium_exact(instance, ctxs)
        approx = dt_premium_approx(ctxs, discrete_dual_moment(instance))
        scaled_errors.append(abs(exact - approx) / eps**2)
    shrinking = all(s1 > s2 for s1, s2 in zip(scaled_errors, scaled_errors[1:]))
    checks.append(_result(
        "A6-dt-approx-scaling", shrinking,
        "|exact-approx|/eps^2 decreasing",
        "[" + ", ".join(f"{s:.3e}" for s in scaled_errors) + "]",
        "super-quadratic decay"))
    return checks


def check_rdu_reductions(fault: float = 1.0) -> list[CheckResult]:
    tol = 1e-10 * fault
    gen = RngStream(seed=7, stream_id=4).generator()
    identity = IdentityWeighting()
    worst_eu = 0.0
    worst_dt = 0.0
    for _ in range(50):
        n = int(gen.integers(2, 7))
        xi = _random_zero_mean(gen, n, scale=float(gen.uniform(0.3, 1.5)))
        t0 = float(gen.uniform(8.0, 15.0))
        instance = build_dt_instance(t0=t0, xi=xi)

        u_quad = QuadraticUtility(a=-float(gen.uniform(0.5, 2.0)),
                                  b=-float(gen.uniform(0.0, 2.0)))
        ctx_eu = RduContext(u=u_quad, w=identity)
        gap_exact = abs(rdu_premium_exact(instance, ctx_eu, _TIGHT)
                        - premium_exact(u_quad, instance, _TIGHT))
        m2 = float(np.mean(xi**2))
        m2d = discrete_dual_moment(instance)
        m2dv = discrete_dual_moment_variance(instance)
        gap_approx = abs(
            rdu_premium_approx(ctx_eu, t0, m2, m2d, m2dv)
            - premium_approx(u_quad, instance))
        rho_rdu = rdu_ratio(instance, ctx_eu, phi=1.0, tol=_TIGHT)
        rho_eu = ratio_rho(u_quad, instance,
                           EconomicContext(method="second_order"), _TIGHT)
        worst_eu = max(worst_eu, gap_exact, gap_approx, abs(rho_rdu - rho_eu))

        w = PowerWeighting(gamma=float(gen.uniform(1.2, 3.0)))
        u_aff = AffineUtility(slope=float(gen.uniform(0.5, 2.0)))
        ctx_dt = RduContext(u=u_aff, w=w)
        dt_ctx = DtContext(w=w)
        gap_exact = abs(rdu_premium_exact(instance, ctx_dt, _TIGHT)
                        - dt_premium_exact(instance, dt_ctx))
        gap_approx = abs(
            rdu_premium_approx(ctx_dt, t0, m2, m2d, m2dv)
            - dt_premium_approx(dt_ctx, m2d))
        rho_rdu = rdu_ratio(instance, ctx_dt, phi=1.0, tol=_TIGHT)
        rho_dt = dt_valuation(instance, dt_ctx, phi=1.0,
                              method="second_order").rho
        worst_dt = max(worst_dt, gap_exact, gap_approx, abs(rho_rdu - rho_dt))

    return [
        _result("A7-rdu-reduces-to-eu", worst_eu <= tol, "<= tol",
                f"{worst_eu:.2e}", tol),
        _result("A7-rdu-reduces-to-dt", worst_dt <= tol, "<= tol",
                f"{worst_dt:.2e}", tol),
    ]


def check_rp_threshold(fault: float = 1.0) -> list[CheckResult]:
    losses = (0.02, 0.05, 0.1)
    spreads = (0.1, 0.2)
    gamma_p = [0.5, 0.5]
    trials = 0
    agreements = 0
    for prudence, expected in ((1.2, "S1"), (1.5, "S1"), (2.5, "S2"), (3.0, "S2")):
        u = ConstantPrudenceUtility(prudence=prudence, interval=(1.0, 40.0))
        for loss in losses:
            for spread in spreads:
                outcome = rp_threshold_experiment(
                    u, t0=10.0, loss=loss,
                    gamma_outcomes=[-spread, spread],
                    gamma_probabilities=gamma_p)
                trials += 1
                if outcome.prefers == expected and outcome.agree:
                    agreements += 1
    return [_result("A8-rp-threshold-lab", agreements == trials,
                    f"{trials}/{trials}", f"{agreements}/{trials}", "100%")]


def check_vertex_identity(fault: float = 1.0) -> list[CheckResult]:
    gen = RngStream(seed=21, stream_id=5).generator()
    models = [Uniform(0.0, 1.0), Exponential(1.0),
              LogNormal(0.0, 0.5), Gamma(4.0, 2.0), Uniform(0.5, 3.5)]
    worst = 0.0
    for i in range(50):
        a = -float(gen.uniform(0.1, 8.0))
        h = -float(gen.uniform(0.0, 2.0))
        k = -float(gen.uniform(0.0, 5.0))
        model = models[i % len(models)]
        worst = max(worst, vertex_identity_check(a, h, k, model, _TIGHT))
    tol = 1e-10 * fault
    return [_result("A9-vertex-identity", worst <= tol, "<= tol",
                    f"{worst:.2e}", tol)]


def check_cli_determinism(fault: float = 1.0) -> list[CheckResult]:
    from .cli import render_csv, render_envelope, run_scenario, sweep_rows

    raw = {
        "framework": "eu",
        "distribution": {"family": "exponential", "params": {"rate": 1.0}},
        "preference": {"family": "pure_quadratic", "params": {"a": -1.0}},
        "method": "both",
        "seed": 42,
        "sweep": {"axes": {"distribution.params.rate": [0.5, 1.0, 2.0]}},
    }
    first = render_envelope(run_scenario(parse_config(raw)))
    second = render_envelope(run_scenario(parse_config(raw)))
    value_ok = first == second
    cols_a, rows_a = sweep_rows(parse_config(raw))
    cols_b, rows_b = sweep_rows(parse_config(raw))
    sweep_ok = (render_csv(cols_a, rows_a) == render_csv(cols_b, rows_b)
                and fault >= 1.0)
    return [
        _result("A10-value-byte-identical", value_ok, "identical bytes",
                "identical" if value_ok else "mismatch", "exact"),
        _result("A10-sweep-byte-identical", sweep_ok, "identical bytes",
                "identical" if sweep_ok else "mismatch", "exact"),
    ]


QUICK_CHECKS = (
    check_poisson_bound,
    check_quadratic_bound_sweep,
    check_premium_approximation_order,
    check_reliability_ratio_identities,
    check_dual_moments,
    check_dt_taylor,
)

FULL_CHECKS = QUICK_CHECKS + (
    check_rdu_reductions,
    check_rp_threshold,
    check_vertex_identity,
    check_cli_determinism,
)


def run_checks(profile: str = "quick", fault: bool = False) -> list[CheckResult]:
    """Run the verification suite; ``fault`` tightens tolerances to zero as
    a negative control (every tolerance-based check must then fail)."""
    scale = 0.0 if fault else 1.0
    groups = QUICK_CHECKS if profile == "quick" else FULL_CHECKS
    results: list[CheckResult] = []
    for group in groups:
        results.extend(group(fault=scale))
    return results
