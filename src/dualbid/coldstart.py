"""Closed-form initialization of the budget multiplier.

For second price auctions with lognormal competing bids (mu, sigma) and
lognormal opportunity values (mu', sigma'), the expected spend per
opportunity when bidding value/lam has the closed form

    S(lam) = exp(mu + sigma^2/2) * Phi((mu' - mu - ln lam - sigma^2)
                                        / sqrt(sigma'^2 + sigma^2))

which is strictly decreasing in lam, so the pacing multiplier that spends
budget B over T opportunities solves S(lam) = B/T and inverts analytically.
Multi-placement setups aggregate per-placement spend curves and solve the
shared multiplier by bisection.  Phi comes from math.erfc and its inverse
from mechanisms.ndtri, so a cold start does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .bidding import LAMBDA_FLOOR
from .mechanisms import ndtri


class ColdStartError(ValueError):
    pass


@dataclass(frozen=True)
class PlacementPriors:
    """Lognormal priors for one placement: competing bids (bid_mu, bid_sigma),
    opportunity values (value_mu, value_sigma), and a traffic forecast."""

    bid_mu: float
    bid_sigma: float
    value_mu: float
    value_sigma: float
    forecast_count: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ColdStartError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("bid_sigma", "value_sigma", "forecast_count"):
            if not getattr(self, name) > 0:
                raise ColdStartError(f"{name} must be > 0, got {getattr(self, name)}")

    def mean_competing_bid(self) -> float:
        return math.exp(self.bid_mu + 0.5 * self.bid_sigma**2)


def _phi(x: float) -> float:
    """Standard normal CDF; within 4e-15 relative of scipy.special.ndtr on
    [-8, 8] (tests/test_coldstart.py)."""
    return 0.5 * math.erfc(-x * math.sqrt(0.5))


@dataclass(frozen=True)
class ColdStartResult:
    lam: float
    unconstrained: bool
    spend_rate: float  # modeled spend per opportunity at lam


def expected_phi_affine(a: float, b: float) -> float:
    """E[Phi(a*X + b)] for standard normal X, which equals
    Phi(b / sqrt(1 + a^2))."""
    return _phi(b / math.sqrt(1.0 + a * a))


def expected_spend_per_opportunity(priors: PlacementPriors, lam: float) -> float:
    """Modeled second-price spend per opportunity when bidding value/lam."""
    if not lam > 0:
        raise ColdStartError(f"lam must be > 0, got {lam}")
    scale = priors.mean_competing_bid()
    arg = (
        priors.value_mu - priors.bid_mu - math.log(lam) - priors.bid_sigma**2
    ) / math.hypot(priors.value_sigma, priors.bid_sigma)
    return scale * _phi(arg)


def _check_budget(budget: float) -> None:
    if not 0 < budget < math.inf:
        raise ColdStartError(f"budget must be finite and > 0, got {budget}")


def solve_lambda0(priors: PlacementPriors, budget: float, count: float | None = None) -> ColdStartResult:
    """Analytic inverse of the spend curve at a per-opportunity rate B/T.

    When the rate meets or exceeds the mean competing bid the budget cannot
    bind and the floor multiplier is returned with the unconstrained flag.
    """
    total = priors.forecast_count if count is None else count
    _check_budget(budget)
    if not 0 < total < math.inf:
        raise ColdStartError(f"opportunity count must be finite and > 0, got {total}")
    rate = budget / total
    mean_bid = priors.mean_competing_bid()
    if rate >= mean_bid:
        return ColdStartResult(lam=LAMBDA_FLOOR, unconstrained=True, spend_rate=mean_bid)
    log_lam = (
        priors.value_mu
        - priors.bid_mu
        - priors.bid_sigma**2
        - math.hypot(priors.value_sigma, priors.bid_sigma) * ndtri(rate / mean_bid)
    )
    lam = math.exp(log_lam)
    return ColdStartResult(
        lam=lam, unconstrained=False, spend_rate=expected_spend_per_opportunity(priors, lam)
    )


def solve_lambda0_multi(placements: list[PlacementPriors], budget: float) -> ColdStartResult:
    """Shared multiplier across placements: bisection on the aggregate spend
    curve sum_k T_k * S_k(lam) = B over [1e-12, 1e12]."""
    if not placements:
        raise ColdStartError("at least one placement required")
    _check_budget(budget)
    if len(placements) == 1:
        return solve_lambda0(placements[0], budget)

    def aggregate(lam: float) -> float:
        return sum(p.forecast_count * expected_spend_per_opportunity(p, lam) for p in placements)

    max_spend = sum(p.forecast_count * p.mean_competing_bid() for p in placements)
    total = sum(p.forecast_count for p in placements)
    if budget >= max_spend:
        return ColdStartResult(lam=LAMBDA_FLOOR, unconstrained=True, spend_rate=max_spend / total)

    lo, hi = 1e-12, 1e12
    for _ in range(400):
        mid = math.sqrt(lo * hi)
        if aggregate(mid) > budget:
            lo = mid
        else:
            hi = mid
        if hi / lo - 1.0 <= 1e-9:
            break
    lam = math.sqrt(lo * hi)
    return ColdStartResult(lam=lam, unconstrained=False, spend_rate=aggregate(lam) / total)


def fit_lognormal(samples) -> tuple[float, float]:
    """Log-moment fit: mean and unbiased standard deviation of the log
    samples, with the deviation floored at 1e-6 to keep the model proper."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size < 2:
        raise ColdStartError("need at least 2 samples to fit a lognormal")
    if np.any(arr <= 0):
        raise ColdStartError("lognormal fit requires strictly positive samples")
    logs = np.log(arr)
    return float(logs.mean()), max(float(logs.std(ddof=1)), 1e-6)
