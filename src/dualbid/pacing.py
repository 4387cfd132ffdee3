"""Online control of the pacing multipliers.

The budget multiplier follows dual mirror descent: at each batch boundary
the controller compares observed spend against the budget pace and nudges
the multiplier additively (lam <- lam - eps * grad) or multiplicatively
(lam <- lam * exp(-eps * grad)).  Updates run on the normalized multiplier
lambda_tilde = lam / lambda_prime so a single dimensionless step scale works
across advertisers of very different budget sizes.

Cost-target and window multipliers are driven the same way, each against
its own constraint's pace; they stay at zero while their constraint has
slack and only window multipliers of the currently active window enter the
bid formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

# FTL shades first-price rows through oracle.RealizedSpend; shade_bids stays
# bound here because bench/spans.py traces it in every namespace that binds it
from .bidding import DEFAULT_BID_CAP, LAMBDA_FLOOR, MultiplierVector, shade_bids  # noqa: F401
from .oracle import LAMBDA_LIMIT, RealizedSpend, search_multiplier, win_limits

if TYPE_CHECKING:
    from .simulate import OpportunityStream

LAMBDA_TILDE_MIN = 1e-9
LAMBDA_TILDE_MAX = 1e9
# a batch with fewer wins than this paces on the smoothed spend and value,
# an exponentially weighted average with this half-life in batches
SMOOTHING_MIN_WINS = 10
SMOOTHING_HALF_LIFE = 5.0

MODES = ("additive", "multiplicative", "ftl")
FORECAST_MODES = ("total", "relative")


class PacingError(ValueError):
    pass


@dataclass(frozen=True)
class DeliveryWindow:
    """Spend cap over the interval range [start, end)."""

    id: str
    start: int
    end: int
    cap: float

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise PacingError(f"window {self.id!r}: need 0 <= start < end")
        if not self.cap > 0:
            raise PacingError(f"window {self.id!r}: cap must be > 0")

    def contains(self, interval: int) -> bool:
        return self.start <= interval < self.end

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class GuaranteeWindow:
    """Result floor over the interval range [start, end)."""

    id: str
    start: int
    end: int
    floor: float

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise PacingError(f"window {self.id!r}: need 0 <= start < end")
        if not self.floor > 0:
            raise PacingError(f"window {self.id!r}: floor must be > 0")

    def contains(self, interval: int) -> bool:
        return self.start <= interval < self.end

    @property
    def length(self) -> int:
        return self.end - self.start


def _check_disjoint(windows, kind: str) -> None:
    ordered = sorted(windows, key=lambda w: w.start)
    for a, b in zip(ordered, ordered[1:]):
        if b.start < a.end:
            raise PacingError(f"{kind} windows {a.id!r} and {b.id!r} overlap")


@dataclass(frozen=True)
class ConstraintSet:
    budget: float
    cost_target: float | None = None
    delivery_windows: tuple[DeliveryWindow, ...] = ()
    guarantee_windows: tuple[GuaranteeWindow, ...] = ()

    def __post_init__(self):
        if not self.budget > 0:
            raise PacingError(f"budget must be > 0, got {self.budget}")
        if self.cost_target is not None and not self.cost_target > 0:
            raise PacingError(f"cost_target must be > 0, got {self.cost_target}")
        _check_disjoint(self.delivery_windows, "delivery")
        _check_disjoint(self.guarantee_windows, "guarantee")
        ids = [w.id for w in self.delivery_windows] + [w.id for w in self.guarantee_windows]
        if len(ids) != len(set(ids)):
            raise PacingError("window ids must be unique across all windows")

    @property
    def budget_only(self) -> bool:
        """No cost target and no delivery or guarantee window."""
        return (
            self.cost_target is None and not self.delivery_windows and not self.guarantee_windows
        )

    def active_delivery(self, interval: int) -> DeliveryWindow | None:
        for w in self.delivery_windows:
            if w.contains(interval):
                return w
        return None

    def active_guarantee(self, interval: int) -> GuaranteeWindow | None:
        for w in self.guarantee_windows:
            if w.contains(interval):
                return w
        return None

    def window_ids_at(self, interval: int) -> tuple[str, ...]:
        ids = []
        w = self.active_delivery(interval)
        if w is not None:
            ids.append(w.id)
        g = self.active_guarantee(interval)
        if g is not None:
            ids.append(g.id)
        return tuple(ids)


@dataclass(frozen=True)
class ForecastModel:
    """Either an expected opportunity total for the horizon or per-interval
    traffic shares summing to one."""

    total: float | None = None
    shares: tuple[float, ...] | None = None

    def __post_init__(self):
        if (self.total is None) == (self.shares is None):
            raise PacingError("set exactly one of total / shares")
        if self.total is not None and not self.total > 0:
            raise PacingError(f"forecast total must be > 0, got {self.total}")
        if self.shares is not None:
            arr = np.asarray(self.shares, dtype=float)
            if np.any(arr < 0):
                raise PacingError("forecast shares must be >= 0")
            if abs(arr.sum() - 1.0) > 1e-9:
                raise PacingError(f"forecast shares must sum to 1, got {arr.sum()!r}")

    def share(self, interval: int) -> float:
        if self.shares is None:
            raise PacingError("no per-interval shares in this forecast")
        if not 0 <= interval < len(self.shares):
            raise PacingError(f"no forecast for interval {interval}")
        return self.shares[interval]


@dataclass(frozen=True)
class PacingConfig:
    mode: str = "additive"
    epsilon: float | None = None
    xi: float | None = None
    batch_size: int | None = None  # None: update at each interval boundary
    forecast_mode: str = "total"
    mpc: bool = False
    ftl_window: int | None = None
    constraint_xi: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise PacingError(f"unknown pacing mode {self.mode!r}")
        if self.forecast_mode not in FORECAST_MODES:
            raise PacingError(f"unknown forecast mode {self.forecast_mode!r}")
        if self.mode != "ftl":
            if (self.epsilon is None) == (self.xi is None):
                raise PacingError("set exactly one of epsilon / xi")
            for name in ("epsilon", "xi"):
                v = getattr(self, name)
                if v is not None and not v > 0:
                    raise PacingError(f"{name} must be > 0, got {v}")
        if self.batch_size is not None and not self.batch_size > 0:
            raise PacingError(f"batch_size must be > 0, got {self.batch_size}")
        if self.ftl_window is not None and not self.ftl_window > 0:
            raise PacingError(f"ftl_window must be > 0, got {self.ftl_window}")
        if self.mpc and self.forecast_mode != "total":
            raise PacingError("mpc pacing requires the total forecast mode")
        if self.forecast_mode == "relative" and self.batch_size is not None:
            raise PacingError("relative forecast mode requires interval-boundary batches")


@dataclass
class PacingState:
    """Single-writer mutable controller state.

    lambda_tilde is the normalized multiplier; the bid path reads a
    MultiplierVector snapshot taken at batch boundaries.
    """

    budget: float
    expected_total: float
    intervals_total: int
    lambda_prime: float = 1.0
    lambda_tilde: float = 1.0
    mu: float = 0.0
    window_lambda: dict[str, float] = field(default_factory=dict)
    window_mu: dict[str, float] = field(default_factory=dict)
    spent_total: float = 0.0
    value_total: float = 0.0
    results_realized: float = 0.0
    opportunities_seen: int = 0
    wins_total: int = 0
    interval_spend: float = 0.0
    interval_count: int = 0
    interval_value: float = 0.0
    interval_wins: int = 0
    window_interval_spend: dict[str, float] = field(default_factory=dict)
    window_interval_value: dict[str, float] = field(default_factory=dict)
    window_spend: dict[str, float] = field(default_factory=dict)
    window_value: dict[str, float] = field(default_factory=dict)
    smoothed_spend: float | None = None
    smoothed_value: float | None = None
    flags: list[str] = field(default_factory=list)

    @property
    def lam(self) -> float:
        return self.lambda_tilde * self.lambda_prime

    def multipliers_at(self, constraints: ConstraintSet, interval: int) -> MultiplierVector:
        w = constraints.active_delivery(interval)
        g = constraints.active_guarantee(interval)
        return MultiplierVector(
            lam=self.lam,
            mu=self.mu,
            cost_target=constraints.cost_target,
            lam_k=self.window_lambda.get(w.id, 0.0) if w else 0.0,
            mu_k=self.window_mu.get(g.id, 0.0) if g else 0.0,
        )

    def record_outcomes(self, windows: tuple[str, ...], values, won, costs, results):
        """Account auctions resolved in order at one snapshot of the
        multipliers, all in the given windows.

        Bidding stops at the first auction that finds spend at or above the
        budget: it and every later one count as seen, not bid.  Totals add
        up left to right from their current values (np.cumsum, never a
        pairwise sum), so they equal adding the auctions one at a time.
        Returns the number of auctions bid and the total spend and value
        after each auction.
        """
        costs = np.where(won, costs, 0.0)
        spent = np.flatnonzero(_running(self.spent_total, costs)[:-1] >= self.budget)
        bid = int(spent[0]) if spent.size else len(costs)
        won = np.asarray(won, dtype=bool) & (np.arange(len(costs)) < bid)
        costs[bid:] = 0.0
        spend = _running(self.spent_total, costs)
        gained = np.where(won, values, 0.0)
        value = _running(self.value_total, gained)
        self.opportunities_seen += len(costs)
        self.interval_count += len(costs)
        wins = int(np.count_nonzero(won))
        if wins:
            self.wins_total += wins
            self.interval_wins += wins
            self.spent_total = float(spend[-1])
            self.interval_spend = float(_running(self.interval_spend, costs)[-1])
            self.value_total = float(value[-1])
            self.interval_value = float(_running(self.interval_value, gained)[-1])
            self.results_realized = float(
                _running(self.results_realized, np.where(won, results, 0.0))[-1]
            )
            for w in windows:
                for totals, add in (
                    (self.window_interval_spend, costs),
                    (self.window_interval_value, gained),
                    (self.window_spend, costs),
                    (self.window_value, gained),
                ):
                    totals[w] = float(_running(totals.get(w, 0.0), add)[-1])
        return bid, spend[1:], value[1:]

    def reset_interval(self) -> None:
        self.interval_spend = 0.0
        self.interval_count = 0
        self.interval_value = 0.0
        self.interval_wins = 0
        self.window_interval_spend.clear()
        self.window_interval_value.clear()


def _running(start: float, added: np.ndarray) -> np.ndarray:
    """start, then start plus each prefix of added, summed left to right."""
    return np.cumsum(np.concatenate(([start], added)))


def normalize(state: PacingState, lambda0: float) -> PacingState:
    """Re-express the multiplier on the scale lambda0 (usually the cold-start
    value): lambda_prime <- lambda0, lambda_tilde <- lam / lambda_prime."""
    if not lambda0 > 0:
        raise PacingError(f"normalization factor must be > 0, got {lambda0}")
    lam = state.lam
    state.lambda_prime = lambda0
    state.lambda_tilde = lam / lambda0
    return state


def update_additive(lam: float, epsilon: float, grad: float, floor: float = LAMBDA_FLOOR) -> float:
    """lam - epsilon * grad, projected onto [floor, inf)."""
    out = lam - epsilon * grad
    return out if out > floor else floor


def update_multiplicative(
    lam: float,
    epsilon: float,
    grad: float,
    floor: float = LAMBDA_TILDE_MIN,
    ceil: float = LAMBDA_TILDE_MAX,
) -> float:
    """lam * exp(-epsilon * grad), clamped to [floor, ceil]."""
    out = lam * math.exp(-epsilon * grad)
    if out < floor:
        return floor
    if out > ceil:
        return ceil
    return out


def _effective_interval_spend(state: PacingState, cfg: PacingConfig) -> float:
    """Observed interval spend, replaced by its exponentially weighted
    average when charge events were sparse."""
    if state.interval_wins < SMOOTHING_MIN_WINS and state.smoothed_spend is not None:
        return state.smoothed_spend
    return state.interval_spend


def dual_gradient(
    state: PacingState,
    cfg: PacingConfig,
    forecast: ForecastModel,
    interval: int,
) -> float:
    """Budget-pace gradient for the finished batch: expected spend allowance
    minus observed spend."""
    spend = _effective_interval_spend(state, cfg)
    if cfg.forecast_mode == "relative":
        return state.budget * forecast.share(interval) - spend
    if forecast.total is None:
        raise PacingError("total forecast mode needs a forecast total")
    return state.budget / forecast.total * state.interval_count - spend


def pace_ratio(
    state: PacingState,
    cfg: PacingConfig,
    forecast: ForecastModel,
    interval: int,
) -> float | None:
    """Observed spend over target spend for the finished batch; None when
    the batch had no traffic to compare against."""
    spend = _effective_interval_spend(state, cfg)
    if cfg.forecast_mode == "relative":
        share = forecast.share(interval)
        if share <= 0:
            return None
        return spend / (state.budget * share)
    if state.interval_count == 0:
        return None
    if forecast.total is None:
        raise PacingError("total forecast mode needs a forecast total")
    if cfg.mpc:
        remaining_budget = max(state.budget - state.spent_total, 0.0)
        remaining_opps = max(forecast.total - state.opportunities_seen, 1.0)
        base = remaining_budget / remaining_opps
        if base <= 0:
            return 1e12
    else:
        base = state.budget / forecast.total
    return (spend / state.interval_count) / base


def step_size(
    state: PacingState,
    cfg: PacingConfig,
    forecast: ForecastModel,
    interval: int,
) -> float:
    """Dimensionless step for this batch: xi * N_dt / T, or xi * share in
    relative mode."""
    xi = cfg.xi if cfg.xi is not None else cfg.epsilon * state.budget / state.lambda_prime
    if cfg.forecast_mode == "relative":
        return xi * forecast.share(interval)
    if forecast.total is None:
        raise PacingError("total forecast mode needs a forecast total")
    return xi * state.interval_count / forecast.total


def _clamp_tilde(value: float) -> float:
    return min(max(value, LAMBDA_TILDE_MIN), LAMBDA_TILDE_MAX)


_MULTIPLIER_CAP = 1e12
_MAX_LOG_STEP = 0.5  # per-batch cap on the relative bid-factor move


def update_constraint_multipliers(
    state: PacingState,
    cfg: PacingConfig,
    constraints: ConstraintSet,
    interval: int,
    eta: float,
) -> None:
    """Per-constraint mirror descent on each constraint's own pace slack.

    Each update retargets the effective bid factor (numerator/denominator
    of the adjusted value) by a multiplicative step driven by the
    constraint's slack ratio, then solves exactly for the one multiplier
    being updated.  Working in the bid factor's log space keeps the steps
    well conditioned however large the multiplier has grown.  Inactive
    windows are left untouched (their multipliers stay frozen and out of
    the bid formula); all multipliers are projected onto [0, cap].
    """
    xi_c = cfg.constraint_xi
    lam = state.lam
    C = constraints.cost_target
    w = constraints.active_delivery(interval)
    g = constraints.active_guarantee(interval)
    lam_k = state.window_lambda.get(w.id, 0.0) if w else 0.0
    mu_k = state.window_mu.get(g.id, 0.0) if g else 0.0

    def numerator() -> float:
        return 1.0 + (state.mu * C if C is not None else 0.0) + mu_k

    def log_step(raw: float) -> float:
        return min(max(raw, -_MAX_LOG_STEP), _MAX_LOG_STEP)

    if C is not None:
        sparse = state.interval_wins < SMOOTHING_MIN_WINS
        spend_sig = (
            state.smoothed_spend
            if sparse and state.smoothed_spend is not None
            else state.interval_spend
        )
        value_sig = (
            state.smoothed_value
            if sparse and state.smoothed_value is not None
            else state.interval_value
        )
        # no spend and no results is no evidence either way; leave mu alone
        if spend_sig > 0 or value_sig > 0:
            ratio = min(spend_sig / (C * value_sig), 10.0) if value_sig > 0 else 10.0
            base = lam + lam_k
            factor = numerator() / max(base + state.mu, LAMBDA_FLOOR)
            target = factor * math.exp(-log_step(xi_c * eta * (ratio - 1.0)))
            ceiling = (1.0 + mu_k) / max(base, LAMBDA_FLOOR)  # factor at mu = 0
            if target >= ceiling:
                state.mu = 0.0
            elif target <= C:
                state.mu = _MULTIPLIER_CAP
            else:
                state.mu = min((1.0 + mu_k - target * base) / (target - C), _MULTIPLIER_CAP)

    per_interval_opps = state.expected_total / max(state.intervals_total, 1)

    if w is not None:
        eta_w = xi_c * state.interval_count / max(w.length * per_interval_opps, 1e-12)
        interval_spend = state.window_interval_spend.get(w.id, 0.0)
        spend_before = state.window_spend.get(w.id, 0.0) - interval_spend
        # pace against the remaining allowance so early overshoot is clawed back
        allowance = (w.cap - spend_before) / max(w.end - interval, 1)
        ratio = min(interval_spend / allowance, 10.0) if allowance > 0 else 10.0
        base = lam + state.mu
        factor = numerator() / max(base + lam_k, LAMBDA_FLOOR)
        target = factor * math.exp(-log_step(eta_w * (ratio - 1.0)))
        lam_k = min(max(numerator() / max(target, LAMBDA_FLOOR) - base, 0.0), _MULTIPLIER_CAP)
        state.window_lambda[w.id] = lam_k

    if g is not None:
        eta_g = xi_c * state.interval_count / max(g.length * per_interval_opps, 1e-12)
        interval_value = state.window_interval_value.get(g.id, 0.0)
        value_before = state.window_value.get(g.id, 0.0) - interval_value
        needed = (g.floor - value_before) / max(g.end - interval, 1)
        ratio = min(interval_value / needed, 10.0) if needed > 0 else 10.0
        den = lam + lam_k + state.mu
        factor = numerator() / max(den, LAMBDA_FLOOR)
        target = factor * math.exp(log_step(eta_g * (1.0 - ratio)))
        base_num = 1.0 + (state.mu * C if C is not None else 0.0)
        state.window_mu[g.id] = min(max(target * den - base_num, 0.0), _MULTIPLIER_CAP)


def apply_batch_update(
    state: PacingState,
    cfg: PacingConfig,
    forecast: ForecastModel,
    constraints: ConstraintSet,
    interval: int,
    history: OpportunityStream | None = None,
) -> None:
    """Close the current batch: refresh the smoothing estimator, update all
    multipliers, and reset the interval accumulators.  FTL mode replays
    history, the opportunities seen so far (see ftl_update)."""
    decay = 0.5 ** (1.0 / SMOOTHING_HALF_LIFE)
    raw = state.interval_spend
    state.smoothed_spend = (
        raw if state.smoothed_spend is None else decay * state.smoothed_spend + (1 - decay) * raw
    )
    raw_value = state.interval_value
    state.smoothed_value = (
        raw_value
        if state.smoothed_value is None
        else decay * state.smoothed_value + (1 - decay) * raw_value
    )

    ratio = pace_ratio(state, cfg, forecast, interval)
    if ratio is None:
        state.flags.append(f"interval {interval}: no traffic, update skipped")
    elif cfg.mode == "ftl":
        result = ftl_update(
            history,
            budget=state.budget,
            expected_total=forecast.total if forecast.total is not None else state.expected_total,
            window=cfg.ftl_window,
        )
        state.lambda_tilde = _clamp_tilde(result.lam / state.lambda_prime)
        if result.unconstrained:
            state.flags.append(f"interval {interval}: ftl unconstrained")
    else:
        eta = step_size(state, cfg, forecast, interval)
        grad = 1.0 - ratio
        if cfg.mode == "additive":
            state.lambda_tilde = _clamp_tilde(
                update_additive(state.lambda_tilde, eta, grad, floor=LAMBDA_TILDE_MIN)
            )
        else:
            state.lambda_tilde = update_multiplicative(state.lambda_tilde, eta, grad)
        update_constraint_multipliers(state, cfg, constraints, interval, eta)

    state.reset_interval()


@dataclass(frozen=True)
class FtlResult:
    lam: float
    unconstrained: bool


def _ftl_adjusted(lam, values):
    """FTL's adjusted value: value / lam, rounded once."""
    return values / lam


def ftl_win_limits(entries: OpportunityStream) -> np.ndarray:
    """Each auction's win limit under FTL's bid, min(value / lam,
    DEFAULT_BID_CAP) (see oracle.win_limits; NaN on first-price rows).  It
    depends on the auction alone, so an episode computes it once per row."""
    return win_limits(
        entries.value, entries.clearing_bid, entries.table, DEFAULT_BID_CAP, _ftl_adjusted
    )


def ftl_update(
    entries: OpportunityStream,
    budget: float,
    expected_total: float,
    window: int | None = None,
) -> FtlResult:
    """Best multiplier in hindsight over the lookback window: the smallest
    lam whose replayed spend stays within the budget pace.

    entries are the auctions seen so far, in order (a prefix of the
    episode's stream); their value, clearing_bid and table columns are read,
    and their ftl_limit column when the episode has set it (see
    ftl_win_limits).  Found by the oracle's search_multiplier on an
    oracle.RealizedSpend: second-price auctions are one sorted step
    function of lam, first-price ones are shaded at each step, and the
    signs the search reads are those of a full replay.  Replayed spend is a
    step function of lam, so the search returns the conservative high side
    of its final bracket.
    """
    if not entries:
        raise PacingError("ftl update needs at least one logged auction")
    scope = entries[-window:] if window is not None else entries
    target = budget / expected_total * len(scope)
    spend = RealizedSpend(
        scope.value, scope.clearing_bid, scope.table, DEFAULT_BID_CAP, _ftl_adjusted,
        scope.ftl_limit,
    )  # fmt: skip
    found = search_multiplier(lambda lam: spend.excess(lam, target), LAMBDA_FLOOR, LAMBDA_LIMIT)
    if found is None:
        raise PacingError("could not bracket the hindsight multiplier")
    lam, bracket = found
    return FtlResult(lam=lam, unconstrained=bracket is None)
