"""Valuation of service-time variability in mobility services.

The package quantifies how costly random service times are for users:
variability premiums, the cost of time (COT), the cost of time
variability (COTV), and the ratios COTV/COT and VOTV/VOT, under expected
utility, dual theory, and rank-dependent utility.  Closed second-order
forms are paired everywhere with an exact numerical path (the tanh-sinh
rule in the probability plane, closed forms and Brent's root finder) so
every approximation can be checked against an independent oracle.
"""

import time as _time

# Taken before any other import, so the CLI's stderr wall-time covers
# importing the package.
_STARTED = _time.perf_counter()

__version__ = "0.1.0"

from .distributions import (
    Degenerate,
    DiscreteModel,
    DtMetadata,
    Exponential,
    Gamma,
    LogNormal,
    MomentSet,
    ServiceTimeModel,
    ShiftedScaled,
    Uniform,
    build_dt_instance,
    discrete_dual_moment,
    discrete_dual_moment_variance,
    dual_moment_mean,
    dual_moment_variance,
    moments,
)
from .eu import (
    EconomicContext,
    cot,
    cotv,
    premium_approx,
    premium_exact,
    ratio_eta,
    ratio_rho,
    ratio_rho_coefficient_form,
    rho_upper_bound,
    vot_at,
    vot_mean,
)
from .eu import evaluate as evaluate_eu
from .non_eu import (
    DtContext,
    RduContext,
    dt_expected_utility,
    dt_premium_approx,
    dt_premium_exact,
    dt_valuation,
    rdu_expected_utility,
    rdu_premium_approx,
    rdu_premium_exact,
    rdu_ratio,
    rdu_valuation,
)
from .numerics import (
    DEFAULT_TOLERANCE,
    McEstimate,
    RngStream,
    Tolerance,
    expand_bracket,
    find_root,
    integrate,
    mc_estimate,
)
from .preferences import (
    AffineUtility,
    ConstantPrudenceUtility,
    IdentityWeighting,
    InverseSWeighting,
    MomentPreference,
    PowerUtility,
    PowerWeighting,
    PureQuadraticUtility,
    QuadraticUtility,
    RiskAttitude,
    RiskProfile,
    RP_BENCHMARK,
    RRA_BENCHMARK,
    UtilityFunction,
    WeightingFunction,
    classify_moment_preference,
    classify_risk_attitude,
    eta_from_coefficients,
    risk_coefficients,
    weighting_derivative_ratio,
)
from .reports import ValuationReport
