"""Online control of the pacing multipliers.

The budget multiplier follows dual mirror descent: at each batch boundary
the controller compares observed spend against the budget pace and nudges
the multiplier additively (lam <- lam - eps * grad) or multiplicatively
(lam <- lam * exp(-eps * grad)).  Updates run on the normalized multiplier
lambda_tilde = lam / lambda_prime so a single dimensionless step scale works
across advertisers of very different budget sizes.

Cost-target and window multipliers follow one rule, each moving the bid
factor against its own constraint's pace; they stay at zero while their
constraint has slack and only window multipliers of the currently active
window enter the bid formula.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import NamedTuple

import numpy as np

# FTL shades first-price rows through oracle.RealizedSpend; shade_bids stays
# bound here because bench/spans.py traces it in every namespace that binds it
from .bidding import LAMBDA_FLOOR, MultiplierVector, shade_bids  # noqa: F401
from .oracle import RealizedSpend, budget_search

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
class _Window:
    """An interval range [start, end) with an id."""

    id: str
    start: int
    end: int

    def _validate(self, name: str, target: float) -> None:
        """Raise unless 0 <= start < end and target, the field called name,
        is finite and > 0."""
        if not (0 <= self.start < self.end):
            raise PacingError(f"window {self.id!r}: need 0 <= start < end")
        if not target > 0:
            raise PacingError(f"window {self.id!r}: {name} must be > 0")
        if not math.isfinite(target):
            raise PacingError(f"window {self.id!r}: {name} must be finite")

    def contains(self, interval: int) -> bool:
        return self.start <= interval < self.end

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class DeliveryWindow(_Window):
    """Spend cap over the interval range [start, end)."""

    cap: float

    def __post_init__(self):
        self._validate("cap", self.cap)


@dataclass(frozen=True)
class GuaranteeWindow(_Window):
    """Result floor over the interval range [start, end)."""

    floor: float

    def __post_init__(self):
        self._validate("floor", self.floor)


class ActiveWindows(NamedTuple):
    """The delivery and guarantee windows of an interval (or None) and their ids."""

    delivery: DeliveryWindow | None
    guarantee: GuaranteeWindow | None
    ids: tuple[str, ...]


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
        if not (self.budget > 0 and math.isfinite(self.budget)):
            raise PacingError(f"budget must be finite and > 0, got {self.budget}")
        if self.cost_target is not None and not (
            self.cost_target > 0 and math.isfinite(self.cost_target)
        ):
            raise PacingError(f"cost_target must be finite and > 0, got {self.cost_target}")
        _check_disjoint(self.delivery_windows, "delivery")
        _check_disjoint(self.guarantee_windows, "guarantee")
        windows = self.delivery_windows + self.guarantee_windows
        if len({w.id for w in windows}) != len(windows):
            raise PacingError("window ids must be unique across all windows")
        # the active windows are constant between window edges: interval i
        # has those of piece bisect_right(_edges, i)
        edges = sorted({x for w in windows for x in (w.start, w.end)})
        pieces = []
        for start in [-1, *edges]:
            d = next((w for w in self.delivery_windows if w.contains(start)), None)
            g = next((w for w in self.guarantee_windows if w.contains(start)), None)
            pieces.append(ActiveWindows(d, g, tuple(w.id for w in (d, g) if w is not None)))
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_pieces", pieces)

    @property
    def budget_only(self) -> bool:
        """No cost target and no delivery or guarantee window."""
        return (
            self.cost_target is None and not self.delivery_windows and not self.guarantee_windows
        )

    def active_windows(self, interval: int) -> ActiveWindows:
        return self._pieces[bisect_right(self._edges, interval)]

    def window_table(self, intervals: int) -> list[ActiveWindows]:
        """The active windows of each interval in [0, intervals)."""
        at = np.searchsorted(self._edges, np.arange(intervals), side="right")
        return [self._pieces[i] for i in at.tolist()]


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
                if v is not None and not (v > 0 and math.isfinite(v)):
                    raise PacingError(f"{name} must be finite and > 0, got {v}")
        if not math.isfinite(self.constraint_xi):
            raise PacingError(f"constraint_xi must be finite, got {self.constraint_xi}")
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

    lambda_tilde is the normalized multiplier; the bid path reads the
    multipliers, which move only at batch boundaries, once per segment.
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

    def window_multipliers(self, active: ActiveWindows) -> tuple[float, float]:
        """lam_k and mu_k of the active windows (0 where there is none)."""
        w, g, _ = active
        return (
            self.window_lambda.get(w.id, 0.0) if w else 0.0,
            self.window_mu.get(g.id, 0.0) if g else 0.0,
        )

    def record_outcomes(self, windows: tuple[str, ...], n: int, winners, costs, values, results):
        """Account n auctions resolved in order at one snapshot of the
        multipliers, all in the given windows, from their winners alone: the
        positions of the auctions won, in order, and their costs, values and
        results.  Bidding stops at the first auction that finds spend at or
        above the budget: it and every later one count as seen, not bid.
        Each total adds the winners' floats one at a time (reduce(add, ...));
        a loser would add +0.0, which changes no total, so every total is that
        of adding the auctions one at a time.  Returns the number of auctions
        bid.
        """
        spent, kept, bid = self.spent_total, 0, n
        if spent >= self.budget:
            bid, winners = 0, ()
        for at, cost in zip(winners, costs):
            spent += cost
            kept += 1
            if spent >= self.budget:
                bid = at + 1
                break
        self.opportunities_seen += n
        self.interval_count += n
        if kept:
            costs, values = costs[:kept], values[:kept]
            self.spent_total = spent
            self.wins_total += kept
            self.interval_wins += kept
            self.interval_spend = reduce(add, costs, self.interval_spend)
            self.value_total = reduce(add, values, self.value_total)
            self.interval_value = reduce(add, values, self.interval_value)
            self.results_realized = reduce(add, results[:kept], self.results_realized)
            for w in windows:
                for totals, added in (
                    (self.window_interval_spend, costs),
                    (self.window_interval_value, values),
                    (self.window_spend, costs),
                    (self.window_value, values),
                ):
                    totals[w] = reduce(add, added, totals.get(w, 0.0))
        return bid

    def reset_interval(self) -> None:
        self.interval_spend = 0.0
        self.interval_count = 0
        self.interval_value = 0.0
        self.interval_wins = 0
        self.window_interval_spend.clear()
        self.window_interval_value.clear()


def normalize(state: PacingState, lambda0: float) -> PacingState:
    """Re-express the multiplier on the scale lambda0 (usually the cold-start
    value): lambda_prime <- lambda0, lambda_tilde <- lam / lambda_prime."""
    if not lambda0 > 0:
        raise PacingError(f"normalization factor must be > 0, got {lambda0}")
    lam = state.lam
    state.lambda_prime = lambda0
    state.lambda_tilde = lam / lambda0
    return state


def update_additive(lam: float, epsilon: float, grad: float) -> float:
    """lam - epsilon * grad, projected onto [LAMBDA_FLOOR, inf)."""
    out = lam - epsilon * grad
    return out if out > LAMBDA_FLOOR else LAMBDA_FLOOR


def update_multiplicative(lam: float, epsilon: float, grad: float) -> float:
    """lam * exp(-epsilon * grad), clamped to [LAMBDA_TILDE_MIN, LAMBDA_TILDE_MAX]."""
    return _clamp_tilde(lam * math.exp(-epsilon * grad))


def _batch_signals(state: PacingState) -> tuple[float, float]:
    """The batch's spend and value, or their smoothed averages when it had
    fewer than SMOOTHING_MIN_WINS wins (charge events were sparse)."""
    if state.interval_wins < SMOOTHING_MIN_WINS and state.smoothed_spend is not None:
        return state.smoothed_spend, state.smoothed_value
    return state.interval_spend, state.interval_value


def _smooth(average: float | None, raw: float) -> float:
    """raw folded into an exponentially weighted average, if there is one."""
    decay = 0.5 ** (1.0 / SMOOTHING_HALF_LIFE)
    return raw if average is None else decay * average + (1 - decay) * raw


def dual_gradient(
    state: PacingState,
    cfg: PacingConfig,
    forecast: ForecastModel,
    interval: int,
) -> float:
    """Budget-pace gradient for the finished batch: expected spend allowance
    minus observed spend."""
    spend, _ = _batch_signals(state)
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
    spend, _ = _batch_signals(state)
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
    w, g, _ = active = constraints.active_windows(interval)
    lam_k, mu_k = state.window_multipliers(active)
    per_interval_opps = state.expected_total / max(state.intervals_total, 1)

    def retarget(step: float, ratio: float) -> tuple[MultiplierVector, float]:
        """The multipliers as updated so far, and their bid factor moved by
        exp(-step (ratio - 1)), the log move clamped to +-_MAX_LOG_STEP:
        down while the constraint runs ahead of its pace (ratio > 1)."""
        m = MultiplierVector(lam, state.mu, C, lam_k, mu_k)
        move = min(max(step * (ratio - 1.0), -_MAX_LOG_STEP), _MAX_LOG_STEP)
        return m, m.factor * math.exp(-move)

    def window_pace(window: _Window, target: float, totals, batch_totals) -> tuple[float, float]:
        """The window's step, xi_c times the batch's share of the window's
        expected traffic, and its ratio: the batch's quantity over an even
        share of what is left to reach target (so early overshoot is
        clawed back), capped at 10."""
        step = xi_c * state.interval_count / max(window.length * per_interval_opps, 1e-12)
        in_batch = batch_totals.get(window.id, 0.0)
        pace = (target - (totals.get(window.id, 0.0) - in_batch)) / max(window.end - interval, 1)
        return step, min(in_batch / pace, 10.0) if pace > 0 else 10.0

    if C is not None:
        spend, value = _batch_signals(state)
        # no spend and no results is no evidence either way; leave mu alone
        if spend > 0 or value > 0:
            ratio = min(spend / (C * value), 10.0) if value > 0 else 10.0
            _, target = retarget(xi_c * eta, ratio)
            base = lam + lam_k
            ceiling = (1.0 + mu_k) / max(base, LAMBDA_FLOOR)  # factor at mu = 0
            if target >= ceiling:
                state.mu = 0.0
            elif target <= C:
                state.mu = _MULTIPLIER_CAP
            else:
                state.mu = min((1.0 + mu_k - target * base) / (target - C), _MULTIPLIER_CAP)

    if w is not None:
        step, ratio = window_pace(w, w.cap, state.window_spend, state.window_interval_spend)
        m, target = retarget(step, ratio)
        lam_k = m.numerator / max(target, LAMBDA_FLOOR) - (lam + state.mu)
        lam_k = min(max(lam_k, 0.0), _MULTIPLIER_CAP)
        state.window_lambda[w.id] = lam_k

    if g is not None:
        step, ratio = window_pace(g, g.floor, state.window_value, state.window_interval_value)
        m, target = retarget(step, ratio)
        boost = state.mu * C if C is not None else 0.0
        mu_k = target * m.denominator - (1.0 + boost)
        state.window_mu[g.id] = min(max(mu_k, 0.0), _MULTIPLIER_CAP)


def apply_batch_update(
    state: PacingState,
    cfg: PacingConfig,
    forecast: ForecastModel,
    constraints: ConstraintSet,
    interval: int,
    history: RealizedSpend | None = None,
) -> None:
    """Close the current batch: refresh the smoothing estimator, update all
    multipliers, and reset the interval accumulators.  FTL mode replays
    history, the auctions seen so far (see ftl_update)."""
    state.smoothed_spend = _smooth(state.smoothed_spend, state.interval_spend)
    state.smoothed_value = _smooth(state.smoothed_value, state.interval_value)

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
            state.lambda_tilde = _clamp_tilde(update_additive(state.lambda_tilde, eta, grad))
        else:
            state.lambda_tilde = update_multiplicative(state.lambda_tilde, eta, grad)
        update_constraint_multipliers(state, cfg, constraints, interval, eta)

    state.reset_interval()


@dataclass(frozen=True)
class FtlResult:
    lam: float
    unconstrained: bool


def ftl_update(
    entries: RealizedSpend,
    budget: float,
    expected_total: float,
    window: int | None = None,
) -> FtlResult:
    """Best multiplier in hindsight over the lookback window: the smallest
    lam whose replayed spend stays within the budget pace.

    entries are the auctions seen so far, in order, as the oracle replays
    them at the agent's bid cap: an episode builds one oracle.RealizedSpend
    over its stream and passes the prefix seen, so each update reads a slice
    of one sorted history, at the factor budget_factor(lam) the episode bids
    at lam.  Found by oracle.budget_search, the lambda* search: with
    second-price auctions only, the crossing of the budget pace gives the
    sign of every step at once; first-price auctions, with or without a
    win limit, narrow a bracket on the factor in a handful of reads, each
    shading only the auctions that may win, and the steps inside it read
    spend.  Either way the signs the
    search reads are those of a full replay.  Replayed spend is a step
    function of lam, so the search returns the conservative high side of
    its final bracket.  An episode paces on whatever its history spends:
    unlike the oracle's lambda*, the search does not check that spend
    falls as lam rises (guarded=False).
    """
    if not entries:
        raise PacingError("ftl update needs at least one logged auction")
    spend = entries.rows(slice(-window, None)) if window is not None else entries
    found = budget_search(spend, budget / expected_total * len(spend), guarded=False)
    if found is None:
        raise PacingError("could not bracket the hindsight multiplier")
    lam, bracket = found
    return FtlResult(lam=lam, unconstrained=bracket is None)
