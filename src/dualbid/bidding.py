"""Optimal bid computation under a vector of constraint multipliers.

The bid for an opportunity of value v is driven by the adjusted value

    (1 + mu*C + mu_k) / (lam + mu + lam_k) * v

where lam paces the overall budget, mu enforces a cost-per-result target C,
and lam_k / mu_k act only inside their delivery or guarantee windows.  In a
second price auction the optimal bid equals the adjusted value; in a first
price auction it is shaded down through the inverse of b + G(b)/g(b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import (
    EMPIRICAL,
    LOGNORMAL,
    OTHER,
    UNIFORM,
    MechanismError,
    MechanismSpec,
    MechanismTable,
    _normal_ufuncs,
    cost_derivative,
    expected_cost,
    win_density,
    win_prob,
)

LAMBDA_FLOOR = 1e-9
DEFAULT_BID_CAP = 1e4

_INVERT_REL_TOL = 1e-9
_NEWTON_STEPS = 64
_NEWTON_STEP_TOL = 1e-10
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class MultiplierVector:
    """Constraint multipliers in effect for one opportunity.

    lam_k and mu_k are the window multipliers of whichever delivery /
    guarantee window (if any) is active; 0 means inactive.
    """

    lam: float
    mu: float = 0.0
    cost_target: float | None = None
    lam_k: float = 0.0
    mu_k: float = 0.0

    def __post_init__(self):
        for name in ("lam", "mu", "lam_k", "mu_k"):
            if getattr(self, name) < 0:
                raise ValueError(f"multiplier {name} must be >= 0")
        if self.mu > 0 and self.cost_target is None:
            raise ValueError("mu > 0 requires a cost_target")

    @property
    def numerator(self) -> float:
        boost = self.mu * self.cost_target if self.cost_target is not None else 0.0
        return 1.0 + boost + self.mu_k

    @property
    def denominator(self) -> float:
        return self.lam + self.mu + self.lam_k

    @property
    def factor(self) -> float:
        return bid_factor(self.lam, self.mu, self.cost_target, self.lam_k, self.mu_k)


def bid_factor(
    lam: float, mu: float, cost_target: float | None, lam_k: float, mu_k: float
) -> float:
    """The adjusted value per unit of value, (1 + mu C + mu_k) / (lam + mu +
    lam_k), with the denominator floored at LAMBDA_FLOOR to keep bids finite."""
    boost = mu * cost_target if cost_target is not None else 0.0
    return (1.0 + boost + mu_k) / max(lam + mu + lam_k, LAMBDA_FLOOR)


@dataclass(frozen=True)
class BidDecision:
    bid: float
    adjusted_value: float
    surplus_at_bid: float
    flags: tuple[str, ...] = ()


def adjusted_value(value: float, m: MultiplierVector) -> float:
    """Value scaled by the active multipliers; reduces to value/lam when only
    the budget constraint is active (see MultiplierVector.factor)."""
    if value < 0:
        raise ValueError("value must be >= 0")
    return m.factor * value


def surplus(mech: MechanismSpec, adjusted: float, b) -> float:
    """adjusted * G(b) - H(b): the objective each bid maximizes."""
    return adjusted * win_prob(mech, b) - expected_cost(mech, b)


def _step_bids(table: MechanismTable, xs: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """First-price bids for empirical rows, exactly.

    Their win curve is a step function, flat except at the reserve and the
    sample atoms, so on [0, hi] the surplus (x - b) * G(b) peaks at 0, at the
    reserve or at an atom.  A root of the markup inside a flat step is never
    the optimum: the step's left end wins as often and pays less.
    """
    bids = np.empty_like(xs)
    for k in np.unique(table.model):
        rows = np.flatnonzero(table.model == k)
        atoms = np.unique(table.models[k].samples)
        candidates = np.concatenate(
            [np.zeros((rows.size, 1)), table.reserve[rows, None], np.tile(atoms, (rows.size, 1))],
            axis=1,
        )
        values = table.take(rows).surplus(xs[rows, None], candidates)
        values = np.where(candidates <= hi[rows, None], values, -np.inf)
        bids[rows] = candidates[np.arange(rows.size), np.argmax(values, axis=1)]
    return bids


def _solves_markup(markup: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Residual gate every shaded bid b passes, given markup = b + G(b)/g(b):
    |markup - x| <= 1e-9 max(1, x)."""
    return np.abs(markup - xs) <= _INVERT_REL_TOL * np.maximum(1.0, xs)


def _lognormal_newton(mu: np.ndarray, sigma: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Markup roots of lognormal rows, reserve aside, by Newton in z.

    In the standardized log bid z = (ln b - mu) / sigma the markup is
    b (1 + sigma R(z)) with R = Phi / phi, so b + G/g = x reads

        F(z) = sigma z + log1p(sigma R(z)) - (ln x - mu) = 0,
        F'(z) = sigma + sigma (1 + z R) / (1 + sigma R),

    which depends on sigma alone.  F is increasing and convex, and
    F(z0) >= 0 at z0 = (ln x - mu) / sigma, so Newton from z0 descends to
    the root without overshooting.  ln R is formed from log_ndtr, so R never
    overflows.  Each row stops once its own step is below 1e-10 max(1, |z|)
    (the next step would move it by rounding only), independently of the
    others.  log_ndtr is scipy's, loaded alone by mechanisms._normal_ufuncs
    at a process's first curve or shade (about 2 ms and 1 MB).
    """
    _, log_ndtr = _normal_ufuncs()

    t = np.log(xs) - mu
    z = t / sigma
    ln_sigma = np.log(sigma)
    active = np.arange(xs.size)
    for _ in range(_NEWTON_STEPS):
        za, sa = z[active], sigma[active]
        ln_r = log_ndtr(za) + 0.5 * za * za + _LN_SQRT_2PI
        inv_r = np.exp(-ln_r)
        f = sa * za + np.logaddexp(0.0, ln_sigma[active] + ln_r) - t[active]
        step = f / (sa + sa * (inv_r + za) / (inv_r + sa))
        z[active] = za - step
        active = active[np.abs(step) > _NEWTON_STEP_TOL * np.maximum(1.0, np.abs(za))]
        if not active.size:
            break
    return np.exp(mu + sigma * z)


def shade_bids(table: MechanismTable, adjusted, bid_cap: float = DEFAULT_BID_CAP):
    """First-price shading of every table row: the bid in
    [0, min(adjusted, bid_cap)] that maximizes the surplus
    (adjusted - b) G(b), the root of b + G(b)/g(b) = adjusted where it is
    in reach.  Returns (bids, False); the flag is kept for callers that
    unpack a pair, and is never set.

    Empirical rows take their best atom (see _step_bids).  Every other row
    takes one root of the markup with no reserve: uniform rows in closed
    form, (x + lo) / 2 held at the support top (the map is 2b - lo on the
    support), lognormal rows by Newton in the standardized log bid (see
    _lognormal_newton).  A reserve r zeroes G below r and leaves the markup
    unchanged above it, so the reserve is a clamp on that root: with
    hi = min(adjusted, bid_cap) each row bids min(max(root, r), hi).  That
    is hi where hi < r (the row cannot win); r where the root lies below r
    (the markup, increasing as G is log-concave, jumps over the adjusted
    value at r); and hi where the root lies above hi (the surplus rises all
    the way to the cap).  Each lognormal and uniform row's bid is exact:
    the surplus has no higher point in reach.

    Every lognormal bid strictly between r and bid_cap passes the residual
    gate |markup(b) - adjusted| <= 1e-9 max(1, adjusted).  One that fails
    it bids hi where the table's markup at hi passes the gate (rows whose
    curves underflow, where the markup reads b itself); any other failure,
    or a row whose competing bids are of no built-in family, raises
    MechanismError naming the row.
    """
    xs = np.atleast_1d(np.asarray(adjusted, dtype=float))
    hi = np.minimum(xs, bid_cap)
    family = table.family
    other = np.flatnonzero(family == OTHER)
    if other.size:
        raise MechanismError(
            f"first-price shading has no rule for row {int(other[0])}'s competing bids "
            f"{table.models[table.model[other[0]]]!r}"
        )
    roots = xs.copy()  # rows with no root (x <= 0, or x = inf) are held to hi
    lognormal = family == LOGNORMAL
    uniform = family == UNIFORM
    if uniform.any():
        lo, top, x = table.p1[uniform], table.p2[uniform], xs[uniform]
        roots[uniform] = np.where(x >= 2.0 * top - lo, top, 0.5 * (x + lo))
    newton = lognormal & (xs > 0) & (xs < np.inf)
    if newton.any():
        roots[newton] = _lognormal_newton(table.p1[newton], table.p2[newton], xs[newton])
    bids = np.minimum(np.maximum(roots, table.reserve), hi)
    steps = family == EMPIRICAL
    if steps.any():
        bids[steps] = _step_bids(table.take(steps), xs[steps], hi[steps])
    if lognormal.any():
        # a NaN from Newton is neither clamped nor at the cap, so it is gated
        inside = lognormal & ~((bids <= table.reserve) | (bids >= bid_cap))
        if lognormal.all():
            missed = inside & ~_solves_markup(table.markup(bids), xs)
        else:
            missed = inside.copy()
            missed[inside] = ~_solves_markup(table.take(inside).markup(bids[inside]), xs[inside])
        if missed.any():
            rows = np.flatnonzero(missed)
            held = _solves_markup(table.take(rows).markup(hi[rows]), xs[rows])
            if not held.all():
                j = rows[np.argmin(held)]
                raise MechanismError(
                    f"first-price shading found no bid for adjusted value {float(xs[j])!r} on "
                    f"row {int(j)}, with competing bids ({float(table.p1[j])!r}, "
                    f"{float(table.p2[j])!r}) and reserve {float(table.reserve[j])!r}"
                )
            bids[rows] = hi[rows]
    return bids, False


def optimal_bid(
    mech: MechanismSpec, adjusted: float, bid_cap: float = DEFAULT_BID_CAP
) -> BidDecision:
    """Surplus-maximizing bid for an adjusted value.

    Second price bids the adjusted value itself; first price shades it
    (shade_bids on the mechanism's one-row table).  A bid held at a bid cap
    below the adjusted value is flagged bid_capped.
    """
    if adjusted < 0:
        raise ValueError("adjusted value must be >= 0")
    if adjusted == 0.0:
        return BidDecision(bid=0.0, adjusted_value=0.0, surplus_at_bid=0.0)
    if mech.is_first_price:
        bid = float(shade_bids(mech.table, adjusted, bid_cap)[0][0])
    else:
        bid = min(adjusted, bid_cap)
    flags = ("bid_capped",) if bid == bid_cap < adjusted else ()
    return BidDecision(
        bid=bid,
        adjusted_value=adjusted,
        surplus_at_bid=surplus(mech, adjusted, bid),
        flags=flags,
    )


def optimal_bids(table: MechanismTable, adjusted, bid_cap: float = DEFAULT_BID_CAP):
    """Bids for every table row at its adjusted value: second price bids the
    value (capped), first price shades it."""
    xs = np.asarray(adjusted, dtype=float)
    bids = np.minimum(xs, bid_cap)
    if table.first_price.any():
        rows, first_price = table.first_price_rows
        bids[rows], _ = shade_bids(first_price, xs[rows], bid_cap)
    return bids


def make_bid(
    mech: MechanismSpec,
    value: float,
    m: MultiplierVector,
    bid_cap: float = DEFAULT_BID_CAP,
) -> BidDecision:
    """Full bid pipeline for one opportunity: adjust the value, then solve
    for the optimal bid.  A clamped denominator is surfaced in the flags."""
    adjusted = adjusted_value(value, m)
    decision = optimal_bid(mech, adjusted, bid_cap)
    if m.denominator < LAMBDA_FLOOR:
        decision = BidDecision(
            bid=decision.bid,
            adjusted_value=decision.adjusted_value,
            surplus_at_bid=decision.surplus_at_bid,
            flags=decision.flags + ("denominator_clamped",),
        )
    return decision


def stationarity_residual(mech: MechanismSpec, value: float, lam: float, bid: float) -> float:
    """|v*g(b) - lam*h(b)|, the first-order optimality residual at a bid."""
    return abs(value * win_density(mech, bid) - lam * cost_derivative(mech, bid))
