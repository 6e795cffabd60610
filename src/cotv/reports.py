"""Valuation report container shared by all decision frameworks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import NonFiniteError

__all__ = ["ValuationReport"]


@dataclass(frozen=True)
class ValuationReport:
    """One framework/method evaluation of a service scenario.

    Monetary fields use abstract money units per the marginal utility of
    wealth ``phi``; ``premium`` is in time units.  ``eta`` compares the
    marginal value of variability reduction to the marginal value of mean
    reduction; ``rho`` compares total variability cost to total time cost.
    ``rho_upper_bound`` is populated for quadratic utilities only, where
    half the squared coefficient of variation is a hard ceiling for rho.

    ``cot`` = vot * mu and ``congestion_multiplier`` = 1 + rho (None for a
    negative rho) are derived; construction rejects non-finite fields.
    """

    framework: str
    method: str
    phi: float
    mu: float
    sigma: float
    cv: float | None
    premium: float
    vot_at_mu: float
    vot: float
    cotv: float
    rho: float
    eta: float | None
    rho_upper_bound: float | None
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    _NUMERIC_FIELDS = (
        "phi", "mu", "sigma", "cv", "premium", "vot_at_mu", "vot",
        "cot", "cotv", "rho", "eta", "rho_upper_bound",
        "congestion_multiplier",
    )

    def __post_init__(self) -> None:
        self.require_finite()

    @property
    def cot(self) -> float:
        return self.vot * self.mu

    @property
    def congestion_multiplier(self) -> float | None:
        return self.rho + 1.0 if self.rho >= 0 else None

    def require_finite(self) -> None:
        """Reject NaN/inf anywhere in the numeric surface."""
        for name in self._NUMERIC_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise NonFiniteError(f"report field {name!r} is not finite: {value!r}")
