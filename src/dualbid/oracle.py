"""Hindsight-optimal multipliers from a complete opportunity log.

Given every opportunity's value and auction model (distributional mode) or
resolved competing bid (realized mode), replay answers "what would we have
spent and won at multipliers m".  Each constraint's excess (spend - budget,
window spend - cap, cost-target gap, result shortfall) does not increase in
its own multiplier, so every multiplier, the budget one, each KKT one and
follow-the-leader's, is the smallest value at which that excess is <= 0,
found by the one search_multiplier (complementary slackness: a constraint
that already fits at 0 keeps a zero multiplier).  Everything here is the
ground truth the online controllers are judged against.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .bidding import DEFAULT_BID_CAP, LAMBDA_FLOOR, MultiplierVector, shade_bids
from .mechanisms import MechanismSpec, MechanismTable, resolve


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class LogRecord:
    """One logged opportunity.  clearing_bid set means realized mode: the
    auction resolves by indicator instead of the smooth G/H model."""

    time: float
    placement: str
    value: float
    mechanism: MechanismSpec
    clearing_bid: float | None = None
    windows: tuple[str, ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.time):
            raise OracleError(f"time must be finite, got {self.time}")
        if not 0 <= self.value < math.inf:
            raise OracleError(f"value must be finite and >= 0, got {self.value}")
        if self.clearing_bid is not None and not 0 <= self.clearing_bid < math.inf:
            raise OracleError(f"clearing bid must be finite and >= 0, got {self.clearing_bid}")


class OpportunityLog:
    """Ordered opportunity records, held as columns for replay."""

    def __init__(self, records: list[LogRecord]):
        if not records:
            raise OracleError("opportunity log must not be empty")
        times = [r.time for r in records]
        if any(b < a for a, b in zip(times, times[1:])):
            raise OracleError("record times must be nondecreasing")
        self.records = list(records)
        self.arrays = LogColumns.from_records(self.records)

    @classmethod
    def from_columns(cls, columns: LogColumns) -> OpportunityLog:
        """A log over columns built in time order, such as a simulated
        stream's; its records are built when first read."""
        if len(columns) == 0:
            raise OracleError("opportunity log must not be empty")
        log = object.__new__(cls)
        log.arrays = columns
        return log

    @cached_property
    def records(self) -> list[LogRecord]:
        return self.arrays.records()

    def __len__(self) -> int:
        return len(self.arrays)

    @cached_property
    def _realized_spends(self) -> dict[float, RealizedSpend]:
        return {}

    def realized_spend(self, bid_cap: float) -> RealizedSpend:
        """The log's rows as a RealizedSpend at bid_cap, built once per bid
        cap, so that the lambda* search and the oracle curve share one sort."""
        built = self._realized_spends
        if bid_cap not in built:
            cols = self.arrays
            built[bid_cap] = RealizedSpend(cols.values, cols.clearing, cols.table, bid_cap)
        return built[bid_cap]

    @property
    def mode(self) -> str:
        realized = int(np.count_nonzero(self.arrays.realized))
        if realized == 0:
            return "distributional"
        if realized == len(self):
            return "realized"
        return "mixed"


def _by_first_appearance(codes: np.ndarray, names) -> tuple[np.ndarray, list]:
    """codes renumbered, and names kept, in order of first appearance."""
    used, first = np.unique(codes, return_index=True)
    order = used[np.argsort(first)]
    renumber = np.zeros(len(names), dtype=np.intp)
    renumber[order] = np.arange(len(order))
    return renumber[codes], [names[c] for c in order]


class LogColumns:
    """Per-record columns of a log: times, values, clearing bids (NaN in
    distributional records), the mechanism of each record (a code into
    mechanisms) and their table, and codes for the placement and the window
    combination of each record.  Placements and window combinations are
    numbered in order of first appearance, and only those that appear are
    kept."""

    def __init__(
        self, time, values, clearing, mechanisms, mechanism_codes, placement_names,
        placement_codes, window_combos, combo_codes,
    ):  # fmt: skip
        self.time = np.asarray(time, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.clearing = np.asarray(clearing, dtype=float)
        self.realized = ~np.isnan(self.clearing)
        self.mechanisms = tuple(mechanisms)
        self.mechanism_codes = np.asarray(mechanism_codes, dtype=np.intp)
        self.table = MechanismTable.from_specs(self.mechanisms).take(self.mechanism_codes)
        self.placement_codes, self.placement_names = _by_first_appearance(
            np.asarray(placement_codes, dtype=np.intp), placement_names
        )
        self.combo_codes, self.window_combos = _by_first_appearance(
            np.asarray(combo_codes, dtype=np.intp), window_combos
        )
        windows = dict.fromkeys(w for ws in self.window_combos for w in ws)
        self.window_masks = {
            w: np.isin(self.combo_codes, [c for c, ws in enumerate(self.window_combos) if w in ws])
            for w in windows
        }

    @classmethod
    def from_records(cls, records: list[LogRecord]) -> LogColumns:
        mechanisms: dict[MechanismSpec, int] = {}
        placements: dict[str, int] = {}
        combos: dict[tuple[str, ...], int] = {}
        return cls(
            time=[r.time for r in records],
            values=[r.value for r in records],
            clearing=[np.nan if r.clearing_bid is None else r.clearing_bid for r in records],
            mechanism_codes=[mechanisms.setdefault(r.mechanism, len(mechanisms)) for r in records],
            mechanisms=mechanisms,
            placement_codes=[placements.setdefault(r.placement, len(placements)) for r in records],
            placement_names=list(placements),
            combo_codes=[combos.setdefault(r.windows, len(combos)) for r in records],
            window_combos=list(combos),
        )

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def price(self) -> np.ndarray:
        """The least bid that wins each realized record's auction (ties
        win): max(clearing, reserve); NaN in distributional records."""
        return np.maximum(self.clearing, self.table.reserve)

    def records(self) -> list[LogRecord]:
        clearing = [None if np.isnan(c) else c for c in self.clearing.tolist()]
        return [
            LogRecord(
                time=t,
                placement=self.placement_names[p],
                value=v,
                mechanism=self.mechanisms[m],
                clearing_bid=c,
                windows=self.window_combos[k],
            )
            for t, p, v, m, c, k in zip(
                self.time.tolist(),
                self.placement_codes.tolist(),
                self.values.tolist(),
                self.mechanism_codes.tolist(),
                clearing,
                self.combo_codes.tolist(),
            )
        ]


@dataclass(frozen=True)
class MultiplierProfile:
    """Global multipliers plus per-window ones, applied to the windows each
    record belongs to."""

    lam: float
    mu: float = 0.0
    cost_target: float | None = None
    window_lambda: Mapping[str, float] = field(default_factory=dict)
    window_mu: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "window_lambda", MappingProxyType(dict(self.window_lambda)))
        object.__setattr__(self, "window_mu", MappingProxyType(dict(self.window_mu)))

    def vector_for(self, windows: tuple[str, ...]) -> MultiplierVector:
        lam_k = sum(self.window_lambda.get(w, 0.0) for w in windows)
        mu_k = sum(self.window_mu.get(w, 0.0) for w in windows)
        return MultiplierVector(self.lam, self.mu, self.cost_target, lam_k, mu_k)

    def with_lam(self, lam: float) -> MultiplierProfile:
        return MultiplierProfile(lam, self.mu, self.cost_target, self.window_lambda, self.window_mu)


@dataclass(frozen=True)
class ReplayResult:
    spend: float
    value: float
    per_placement: dict[str, tuple[float, float]]
    per_window: dict[str, tuple[float, float]]


def _replay_bids(
    table: MechanismTable, adjusted: np.ndarray, price: np.ndarray, bid_cap: float
) -> np.ndarray:
    """optimal_bids, except that a first-price row that loses at any shade
    keeps its unshaded bid min(adjusted, bid_cap).

    Shading only lowers a bid below that, and ties win, so a row whose price
    (max(clearing, reserve)) is above it loses whatever it is shaded to, and
    resolves to cost 0 and value 0 unshaded too.  A NaN price (a
    distributional row) is always shaded."""
    bids = np.minimum(adjusted, bid_cap)
    rows, first_price = table.first_price_rows
    live = ~(bids[rows] < price[rows])
    if not live.all():
        rows, first_price = rows[live], first_price.take(live)
    if rows.size:
        bids[rows], _ = shade_bids(first_price, adjusted[rows], bid_cap)
    return bids


def _spend_value(
    log: OpportunityLog, profile: MultiplierProfile, bid_cap: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-record spend and value at the given multipliers."""
    cols = log.arrays
    vectors = [profile.vector_for(c) for c in cols.window_combos]
    factors = np.array([v.factor for v in vectors])
    adjusted = factors[cols.combo_codes] * cols.values
    bids = _replay_bids(cols.table, adjusted, cols.price, bid_cap)
    model = ~cols.realized
    if model.all():
        spend, win = cols.table.cost_and_win(bids)
        return spend, cols.values * win
    won, spend = resolve(cols.table, bids, cols.clearing)
    value = np.where(won, cols.values, 0.0)
    if model.any():
        cost, win = cols.table.cost_and_win(bids)
        spend[model] = cost[model]
        value[model] = (cols.values * win)[model]
    return spend, value


def replay(
    log: OpportunityLog, profile: MultiplierProfile, bid_cap: float = DEFAULT_BID_CAP
) -> ReplayResult:
    """Total and per-placement/per-window spend and value at the given
    multipliers; exact in distributional mode, deterministic in realized.

    Every first-price row is shaded except a realized one whose unshaded
    bid min(adjusted, bid_cap) is below its price max(clearing, reserve):
    that row loses at any shade, so it keeps cost 0 and value 0 unshaded
    (see _replay_bids), and every sum is what shading it would give."""
    cols = log.arrays
    spend, value = _spend_value(log, profile, bid_cap)
    n = len(cols.placement_names)
    p_spend = np.bincount(cols.placement_codes, weights=spend, minlength=n)
    p_value = np.bincount(cols.placement_codes, weights=value, minlength=n)
    return ReplayResult(
        spend=float(spend.sum()),
        value=float(value.sum()),
        per_placement={
            name: (float(s), float(v)) for name, s, v in zip(cols.placement_names, p_spend, p_value)
        },
        per_window={
            w: (float(spend[mask].sum()), float(value[mask].sum()))
            for w, mask in cols.window_masks.items()
        },
    )


LAMBDA_LIMIT = 1e120  # the budget and FTL searches give up above this multiplier
# A spend summed in sorted order that lands this close to its target,
# relative to the target, is summed again by a full replay in row order, so
# that its comparison with the target is the replay's.
_RESUM_REL = 1e-9
_LIMIT_STEPS = 64  # floats a win limit may move from value / price


def budget_adjusted(lam, values):
    """The adjusted value under the budget multiplier alone, rounded as
    replay and an episode round it: fl(1 / max(lam, LAMBDA_FLOOR)) * value,
    that is MultiplierVector(lam=lam).factor * value."""
    return 1.0 / np.maximum(lam, LAMBDA_FLOOR) * values


def win_limits(values, clearing, table: MechanismTable, bid_cap: float) -> np.ndarray:
    """Each realized second-price row's win limit: the largest float lam in
    [LAMBDA_FLOOR, LAMBDA_LIMIT] at which its bid min(budget_adjusted(lam,
    value), bid_cap) is >= its price max(clearing, reserve).

    The adjusted value does not increase in lam, so a row wins exactly while
    lam <= its limit.  Each limit starts at value / price and moves one
    float at a time until the row wins there and loses at the next float up.
    A row that still wins at LAMBDA_LIMIT gets +inf, one that loses at
    LAMBDA_FLOOR (a price above the bid cap, a zero value) gets -inf, and a
    first-price row NaN.
    """
    price = np.maximum(clearing, table.reserve)
    limits = np.full(len(price), np.nan)
    second = np.flatnonzero(~table.first_price)
    v, p = np.asarray(values, dtype=float)[second], price[second]

    def wins(rows: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return np.minimum(budget_adjusted(lam, v[rows]), bid_cap) >= p[rows]

    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.clip(np.where(p > 0, v / p, LAMBDA_LIMIT), LAMBDA_FLOOR, LAMBDA_LIMIT)
    won = np.zeros(len(p), dtype=bool)
    live = np.flatnonzero(p <= bid_cap)
    won[live] = wins(live, lam[live])
    # a row that loses at its start steps down until it wins or reaches the floor
    rows = live[~won[live]]
    for step in range(_LIMIT_STEPS + 1):
        rows = rows[lam[rows] > LAMBDA_FLOOR]
        if not rows.size:
            break
        if step == _LIMIT_STEPS:
            raise OracleError("win limits did not settle")
        lam[rows] = np.nextafter(lam[rows], -np.inf)
        won[rows] = wins(rows, lam[rows])
        rows = rows[~won[rows]]
    # a row that wins steps up while the next float still wins
    rows = np.flatnonzero(won & (lam < LAMBDA_LIMIT))
    for step in range(_LIMIT_STEPS + 1):
        if not rows.size:
            break
        if step == _LIMIT_STEPS:
            raise OracleError("win limits did not settle")
        up = np.nextafter(lam[rows], np.inf)
        more = wins(rows, up)
        rows, up = rows[more], up[more]
        lam[rows] = up
        rows = rows[up < LAMBDA_LIMIT]
    limits[second] = np.where(won, np.where(lam < LAMBDA_LIMIT, lam, np.inf), -np.inf)
    return limits


class RealizedSpend:
    """Realized spend and value of a log's rows under the budget multiplier
    lam alone, as functions of lam, without replaying every row at every lam.

    Each row bids as replay and an episode bid at lam: budget_adjusted(lam,
    value), shaded on first-price rows, capped at bid_cap.  A second-price
    row wins exactly while lam <= its win limit (see win_limits), so the
    second-price rows, sorted by limit with cumulative price and value, give
    their spend and value at any lam by one searchsorted.  A first-price row
    pays its shaded bid, which moves with lam, so those rows alone are
    resolved at each lam, and of them only the ones whose unshaded bid
    min(adjusted, bid_cap) reaches their price are shaded: the others lose
    at any shade (see _replay_bids).

    For lam in (0, LAMBDA_LIMIT], at(lam) wins exactly the rows a replay
    wins and pays each the same price or shaded bid.  Only the sums differ:
    cumulative in limit order, where replay sums in row order, so spend and
    value, sums of n terms >= 0, agree with replay's to n * eps relative.
    A log builds its own once per bid cap (OpportunityLog.realized_spend),
    which the lambda* search and the oracle curve both read.

    rs[a:b] is rows a to b - 1 as a RealizedSpend of their own: they keep
    their limits and their order, re-based to the slice, so that a history
    read in growing prefixes (an FTL episode) is sorted once.
    """

    def __init__(self, values, clearing, table: MechanismTable, bid_cap: float):
        self.values = np.asarray(values, dtype=float)
        self.clearing = np.asarray(clearing, dtype=float)
        self.table = table
        self.bid_cap = bid_cap
        self._price = np.maximum(self.clearing, table.reserve)
        self._limits = win_limits(self.values, self.clearing, table, bid_cap)
        # the second-price rows by limit, largest first; rows of equal limit
        # win and lose together, so their order is free
        second = np.flatnonzero(~table.first_price)
        self._order = second[np.argsort(-self._limits[second])]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, key) -> RealizedSpend:
        """The rows of a slice with step 1 (a negative start counts from the
        end)."""
        if not isinstance(key, slice):
            raise TypeError(f"RealizedSpend takes a slice, got {type(key).__name__}")
        start, stop, step = key.indices(len(self))
        if step != 1:
            raise ValueError(f"RealizedSpend slices are contiguous, got step {step}")
        rows = slice(start, stop)
        kept = self._order < stop
        if start:
            kept &= self._order >= start
        part = object.__new__(RealizedSpend)
        part.values, part.clearing = self.values[rows], self.clearing[rows]
        part.table, part.bid_cap = self.table.take(rows), self.bid_cap
        part._price, part._limits = self._price[rows], self._limits[rows]
        # compress: a boolean index over a shuffled mask is slower
        part._order = np.compress(kept, self._order) - start
        return part

    @cached_property
    def _neg_limits(self) -> np.ndarray:
        return -self._limits[self._order]

    @cached_property
    def _spend(self) -> np.ndarray:
        """Cumulative price in limit order."""
        return np.concatenate(([0.0], np.cumsum(self._price[self._order])))

    @cached_property
    def _value(self) -> np.ndarray:
        """Cumulative value in limit order; only at reads it, FTL never does."""
        return np.concatenate(([0.0], np.cumsum(self.values[self._order])))

    @cached_property
    def _first(self) -> tuple[MechanismTable, np.ndarray, np.ndarray, np.ndarray]:
        """The first-price rows' table, values, clearing bids and prices."""
        rows, table = self.table.first_price_rows
        return table, self.values[rows], self.clearing[rows], self._price[rows]

    def crossing(self, target: float) -> float | None:
        """The limit L at which the spend crosses target >= 0: excess(lam,
        target) <= 0 exactly when lam > L (-inf when every row fits).

        L is the win limit of the first sorted row whose cumulative price
        exceeds target.  None when the rows include first-price ones, whose
        spend moves between limits, or when a cumulative spend lies within
        _RESUM_REL of target, where excess takes its sign from a replay."""
        if self.table.first_price.any():
            return None
        # the largest count of rows, in limit order, whose spend fits
        k = int(self._spend.searchsorted(target, side="right")) - 1
        if (np.abs(self._spend[k : k + 2] - target) <= _RESUM_REL * target).any():
            return None
        return float(-self._neg_limits[k]) if k < len(self._neg_limits) else -math.inf

    def at(self, lam: float) -> tuple[float, float]:
        """Spend and value at lam <= LAMBDA_LIMIT (above it, a row whose
        limit reads +inf may lose): the second-price rows summed in limit
        order, plus the first-price rows."""
        k = self._neg_limits.searchsorted(-lam, side="right")
        spend, value = self._spend[k], self._value[k]
        table, values, clearing, price = self._first
        if values.size:
            bids = _replay_bids(table, budget_adjusted(lam, values), price, self.bid_cap)
            won, cost = resolve(table, bids, clearing)
            spend += cost.sum()
            value += values[won].sum()
        return float(spend), float(value)

    def replay_spend(self, lam: float) -> float:
        """Spend at lam from every row's bid, summed in row order, as replay
        sums it."""
        adjusted = budget_adjusted(lam, self.values)
        bids = _replay_bids(self.table, adjusted, self._price, self.bid_cap)
        return float(resolve(self.table, bids, self.clearing)[1].sum())

    def excess(self, lam: float, target: float) -> float:
        """spend(lam) - target.  The two sums round differently, so where
        the sorted one lands within _RESUM_REL of target the replayed spend
        is used: the sign, which is all a realized search reads, is always
        the replay's."""
        spend = self.at(lam)[0]
        if abs(spend - target) <= _RESUM_REL * target:
            spend = self.replay_spend(lam)
        return spend - target


def budget_steps(
    log: OpportunityLog, profile: MultiplierProfile, bid_cap: float
) -> RealizedSpend | None:
    """The log's spend and value as functions of the budget multiplier, its
    RealizedSpend at bid_cap, when the log is realized and the budget
    multiplier is the only one in profile; None otherwise, where only a
    replay gives them."""
    if log.mode != "realized" or profile.mu or profile.cost_target is not None:
        return None
    if profile.window_lambda or profile.window_mu:
        return None
    return log.realized_spend(bid_cap)


class _SpendCurve:
    """Memoized spend as a function of the budget multiplier, with a
    monotonicity guard, over every spend it reads, that names the offending
    record on violation."""

    def __init__(self, log: OpportunityLog, profile: MultiplierProfile, bid_cap: float):
        self.log = log
        self.profile = profile
        self.bid_cap = bid_cap
        self._lams: list[float] = []  # multipliers with a known spend, sorted
        self._spends: dict[float, float] = {}
        self._replays: dict[float, ReplayResult] = {}

    @cached_property
    def steps(self) -> RealizedSpend | None:
        return budget_steps(self.log, self.profile, self.bid_cap)

    def excess(self, lam: float, target: float) -> float:
        """Spend at lam minus target, from the step function when there is one."""
        if self.steps is None:
            return self.at(lam).spend - target
        excess = self.steps.excess(lam, target)
        self._guard(lam, excess + target)
        return excess

    def at(self, lam: float) -> ReplayResult:
        if lam in self._replays:
            return self._replays[lam]
        result = replay(self.log, self.profile.with_lam(lam), self.bid_cap)
        self._guard(lam, result.spend)
        self._replays[lam] = result
        return result

    def _guard(self, lam: float, spend: float) -> None:
        """Keep spend at lam, raising if it exceeds the spend at a smaller
        multiplier or falls short of the spend at a larger one."""
        if lam in self._spends:
            return
        pos = bisect.bisect_left(self._lams, lam)
        slack = 1e-9 * (1.0 + abs(spend))
        if pos > 0:
            left = self._lams[pos - 1]
            if spend > self._spends[left] + slack:
                self._raise_non_monotone(left, lam)
        if pos < len(self._lams):
            right = self._lams[pos]
            if spend + slack < self._spends[right]:
                self._raise_non_monotone(lam, right)
        self._lams.insert(pos, lam)
        self._spends[lam] = spend

    def _raise_non_monotone(self, lo: float, hi: float) -> None:
        s_lo, _ = _spend_value(self.log, self.profile.with_lam(lo), self.bid_cap)
        s_hi, _ = _spend_value(self.log, self.profile.with_lam(hi), self.bid_cap)
        worst = int(np.argmax(s_hi - s_lo))
        raise OracleError(
            f"replayed spend increases with the multiplier between {lo:g} and {hi:g}; "
            f"record {worst} spends {s_lo[worst]:g} -> {s_hi[worst]:g}"
        )


@dataclass(frozen=True)
class LambdaSolution:
    lam: float
    unconstrained: bool
    bracket: tuple[float, float] | None
    spend: float
    value: float


def search_multiplier(
    excess: Callable[[float], float],
    floor: float,
    limit: float,
    tol: float | None = None,
    width_rel: float = 1e-12,
) -> tuple[float, tuple[float, float, float, float] | None] | None:
    """Smallest multiplier x >= floor at which the non-increasing excess(x)
    (spend - budget, window spend - cap, shortfall, ...) is <= 0.

    Returns (floor, None) when the floor fits.  Otherwise steps up from 1 by
    factors of 4 to a bracket (lo, hi) with excess(lo) > 0 >= excess(hi)
    and narrows it until |excess| <= tol, returning that point, or until
    its width is <= width_rel * max(1, hi), returning hi, the side that
    fits.  The second value is the final bracket (lo, hi, excess(lo),
    excess(hi)).  Returns None when the excess is still positive at limit.

    tol marks a smooth curve (pass it only for one): each point is then
    the Illinois regula falsi step (Dowell & Jarratt 1971) in u = ln x,
    the secant through the bracket's ends with the excess of an end that
    stays put twice in a row halved, or the midpoint when lo is 0, an end's
    excess is not finite, or the secant falls outside (lo, hi).  A step
    function (tol None) is bisected, so every point it reads is a midpoint.
    """
    r_lo = excess(floor)
    if r_lo <= 0:
        return floor, None
    lo, hi = floor, min(1.0, limit)
    r_hi = excess(hi)
    while r_hi > 0:
        if hi >= limit:
            return None
        lo, r_lo = hi, r_hi
        hi = min(4.0 * hi, limit)
        r_hi = excess(hi)
    if tol is None:
        while hi - lo > width_rel * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            r = excess(mid)
            if r <= 0:
                hi, r_hi = mid, r
            else:
                lo, r_lo = mid, r
        return hi, (lo, hi, r_lo, r_hi)
    # the ends' excesses as the secant weighs them, and the side that moved last
    w_lo, w_hi, moved = r_lo, r_hi, 0
    while hi - lo > width_rel * max(1.0, hi):
        x = 0.5 * (lo + hi)
        if lo > 0 and math.isfinite(w_lo) and math.isfinite(w_hi):
            u_lo, u_hi = math.log(lo), math.log(hi)
            secant = math.exp(u_hi - w_hi * (u_hi - u_lo) / (w_hi - w_lo))
            if lo < secant < hi:
                x = secant
        r = excess(x)
        if abs(r) <= tol:
            return x, (lo, hi, r_lo, r_hi)
        if r <= 0:
            hi, r_hi, w_hi = x, r, r
            if moved < 0:
                w_lo *= 0.5
            moved = -1
        else:
            lo, r_lo, w_lo = x, r, r
            if moved > 0:
                w_hi *= 0.5
            moved = 1
    return hi, (lo, hi, r_lo, r_hi)


LAMBDA_REL_TOL = 1e-6  # lambda* matches spend to the budget to this on smooth logs


def _solve_budget_multiplier(
    curve: _SpendCurve,
    budget: float,
    rel_tol: float = LAMBDA_REL_TOL,
    width_rel: float = 1e-12,
) -> tuple[LambdaSolution, tuple[float, float, float, float] | None]:
    """The budget multiplier on one spend curve, and its search bracket.

    A smooth (distributional) curve is searched on ln(spend / budget), to
    log1p(rel_tol): the band |spend - budget| <= rel_tol * budget, read on
    a scale where spend is close to linear in ln(lam).  Zero spend reads as
    -inf, a step the search takes at the midpoint."""
    if curve.log.mode == "distributional":

        def excess(lam: float) -> float:
            spend = curve.at(lam).spend
            return math.log(spend / budget) if spend > 0 else -math.inf

        tol = math.log1p(rel_tol)
    else:
        excess, tol = (lambda lam: curve.excess(lam, budget)), None
    found = search_multiplier(excess, LAMBDA_FLOOR, LAMBDA_LIMIT, tol=tol, width_rel=width_rel)
    if found is None:
        raise OracleError("could not bracket the budget multiplier")
    lam, bracket = found
    r = curve.at(lam)
    sol = LambdaSolution(
        lam=lam,
        unconstrained=bracket is None,
        bracket=bracket and bracket[:2],
        spend=r.spend,
        value=r.value,
    )
    return sol, bracket


def solve_lambda_star(
    log: OpportunityLog, budget: float, bid_cap: float = DEFAULT_BID_CAP
) -> LambdaSolution:
    """Budget-only hindsight multiplier.

    Unconstrained branch: if replayed spend at the floor multiplier fits the
    budget, the floor is returned flagged.  Otherwise, on a distributional
    log (a smooth spend curve), Illinois regula falsi on ln(spend / budget)
    against ln(lam) matches spend to budget within LAMBDA_REL_TOL, in about
    8 replays.  On a realized or mixed log (a step function) bisection
    returns the conservative high side of the step bracket, never
    overspending; on a realized log it reads spend from a RealizedSpend,
    whose signs are those of a replay, so it visits the points and returns
    the multiplier that replaying at every step would.  Spend and value are
    replayed at the result, and bracket is the final bracket of whichever
    search ran.
    """
    if not budget > 0:
        raise OracleError(f"budget must be > 0, got {budget}")
    curve = _SpendCurve(log, MultiplierProfile(lam=1.0), bid_cap)
    return _solve_budget_multiplier(curve, budget)[0]


def dual_value(log: OpportunityLog, budget: float, lam: float, bid_cap: float = DEFAULT_BID_CAP) -> float:
    """Lagrangian dual objective V(lam) - lam*S(lam) + lam*B."""
    r = replay(log, MultiplierProfile(lam=lam), bid_cap)
    return r.value - lam * r.spend + lam * budget


@dataclass(frozen=True)
class KktSolution:
    profile: MultiplierProfile
    replay: ReplayResult
    residuals: dict[str, float]
    feasible: bool
    notes: tuple[str, ...]
    unconstrained: bool  # the budget fits at the floor multiplier


KKT_REL_TOL = 1e-4  # a binding KKT constraint holds with equality to this

# Per kind of KKT constraint: the sign of its excess (+1 caps its quantity
# at the target, -1 floors it), then its multiplier, quantity and target as
# notes name them (a window's multiplier and quantity add the window id).
_KKT_KINDS = {
    "budget": (1.0, "lam", "spend", "budget"),
    "cost_target": (1.0, "mu", "spend - cost_target * value", "target"),
    "delivery": (1.0, "lam", "spend", "cap"),
    "guarantee": (-1.0, "mu", "value", "floor"),
}


@dataclass(frozen=True)
class KktConstraint:
    """One constraint of the KKT solve: its kind (a key of _KKT_KINDS), the
    window it holds (None for the budget and the cost target), its target
    (the budget, cost target, cap or floor), the limit of its multiplier's
    search and the scale of that search's tolerance."""

    kind: str
    window: str | None
    target: float
    limit: float
    scale: float

    def level(self, rep: ReplayResult) -> tuple[float, float]:
        """The constrained quantity at rep, and the bound it is held to."""
        if self.kind == "cost_target":
            return rep.spend - self.target * rep.value, 0.0
        if self.window is None:
            return rep.spend, self.target
        spend, value = rep.per_window.get(self.window, (0.0, 0.0))
        return (value if self.kind == "guarantee" else spend), self.target

    def excess(self, rep: ReplayResult) -> float:
        """How far rep misses the constraint; <= 0 where it holds."""
        level, bound = self.level(rep)
        return _KKT_KINDS[self.kind][0] * (level - bound)

    def residual(self, rep: ReplayResult) -> float:
        level, bound = self.level(rep)
        scale = self.target * max(rep.value, 1e-300) if self.kind == "cost_target" else bound
        return abs(level - bound) / scale

    def give_up_note(self, rep: ReplayResult) -> str:
        """The quantity at the multiplier's limit, the nearest it comes."""
        sign, _, what, target = _KKT_KINDS[self.kind]
        level, bound = self.level(rep)
        best, side = ("max", "<") if sign < 0 else ("min", ">")
        name = self.kind if self.window is None else f"{self.kind} {self.window!r}"
        return f"{name} infeasible: {best} achievable {what} {level:g} {side} {target} {bound:g}"

    def step_note(self, rep: ReplayResult, bracket: tuple[float, float, float, float]) -> str:
        """Why a realized residual exceeds KKT_REL_TOL: the constrained
        quantity jumps across the final bracket (lo, hi, excess at lo,
        excess at hi) of its multiplier's search."""
        sign, multiplier, quantity, _ = _KKT_KINDS[self.kind]
        if self.window is not None:
            multiplier, quantity = f"{multiplier}_{self.window}", f"{quantity} in {self.window!r}"
        lo, hi, r_lo, r_hi = bracket
        bound = self.level(rep)[1]
        return (
            f"{self.kind} residual {self.residual(rep):.3g} exceeds rel_tol {KKT_REL_TOL:g}: "
            f"realized {quantity} steps from {bound + sign * r_lo:.12g} at {multiplier}={lo:.17g} "
            f"to {bound + sign * r_hi:.12g} at {multiplier}={hi:.17g}, "
            "the final bracket of its search"
        )


def _kkt_constraints(constraints) -> list[KktConstraint]:
    """The constraints of a ConstraintSet in the order the KKT solve nests
    their searches: the guarantee window outermost, then the delivery
    window and the cost target, and the budget innermost."""
    guarantees, deliveries = constraints.guarantee_windows, constraints.delivery_windows
    if len(deliveries) > 1 or len(guarantees) > 1:
        raise OracleError("kkt oracle supports at most one window of each kind")
    bounds = [KktConstraint("guarantee", w.id, w.floor, 1e4, w.floor) for w in guarantees]
    bounds += [KktConstraint("delivery", w.id, w.cap, 1e8, w.cap) for w in deliveries]
    budget = constraints.budget
    if constraints.cost_target is not None:
        target = constraints.cost_target
        bounds.append(KktConstraint("cost_target", None, target, 1e6 / target, budget))
    return bounds + [KktConstraint("budget", None, budget, LAMBDA_LIMIT, budget)]


def solve_kkt_grid(
    log: OpportunityLog, constraints, bid_cap: float = DEFAULT_BID_CAP
) -> KktSolution:
    """Hindsight multipliers for budget + cost target + one delivery window
    + one guarantee window, satisfying each KKT branch: a multiplier is
    either 0 (slack constraint) or its constraint holds with equality
    within KKT_REL_TOL.

    Built for small test instances: one search_multiplier search per
    constraint of _kkt_constraints, each nested in the one before, and the
    budget multiplier solved innermost from scratch, so every search sees a
    function of its own multiplier alone.  A constraint that still fails at
    its search limit keeps its multiplier there, gets a note and no
    residual, and makes the solution infeasible.

    Realized spend and value are step functions of the multipliers; on a
    log with realized records, a residual above KKT_REL_TOL gets a note
    naming the final bracket of its search and the step across it.
    """
    bounds = _kkt_constraints(constraints)
    smooth = log.mode == "distributional"
    # per constraint, the last search of its multiplier, the one behind the
    # result: (multiplier, final bracket), or None where it gave up
    searches: list = [None] * len(bounds)

    def solve(xs: tuple[float, ...]) -> tuple[MultiplierProfile, ReplayResult]:
        """The solution with the leading multipliers at xs, every later one
        searched in turn."""
        if len(xs) < len(bounds) - 1:
            c = bounds[len(xs)]
            found = search_multiplier(
                lambda x: c.excess(solve(xs + (x,))[1]),
                0.0,
                c.limit,
                tol=KKT_REL_TOL * c.scale if smooth else None,
                width_rel=1e-7,
            )
            searches[len(xs)] = found
            return solve(xs + (c.limit if found is None else found[0],))
        pairs = list(zip(bounds, xs))
        profile = MultiplierProfile(
            lam=1.0,
            mu=next((x for c, x in pairs if c.kind == "cost_target"), 0.0),
            cost_target=constraints.cost_target,
            window_lambda={c.window: x for c, x in pairs if c.kind == "delivery"},
            window_mu={c.window: x for c, x in pairs if c.kind == "guarantee"},
        )
        curve = _SpendCurve(log, profile, bid_cap)
        sol, bracket = _solve_budget_multiplier(
            curve, constraints.budget, rel_tol=1e-7, width_rel=1e-7
        )
        searches[-1] = sol.lam, bracket
        return profile.with_lam(sol.lam), curve.at(sol.lam)

    profile, rep = solve(())
    unconstrained = searches[-1][1] is None
    notes = [c.give_up_note(rep) for c, found in zip(bounds, searches) if found is None]
    if unconstrained:
        notes.append("budget unconstrained")
    residuals = {"budget": 0.0}
    # innermost first; a multiplier at its floor or its limit has no residual
    for c, found in reversed(list(zip(bounds, searches))):
        if found is not None and found[0] > LAMBDA_FLOOR:
            residuals[c.kind] = c.residual(rep)
            if not smooth and residuals[c.kind] > KKT_REL_TOL and found[1]:
                notes.append(c.step_note(rep, found[1]))
    return KktSolution(
        profile=profile,
        replay=rep,
        residuals=residuals,
        feasible=None not in searches,
        notes=tuple(notes),
        unconstrained=unconstrained,
    )


@dataclass(frozen=True)
class MarginalRoi:
    roi: dict[str, float]
    inactive: tuple[str, ...]
    lam: float


def marginal_roi(
    log: OpportunityLog, budget: float, bid_cap: float = DEFAULT_BID_CAP
) -> MarginalRoi:
    """Value gained per extra unit of spend on each placement at the joint
    optimum, dV_p / dS_p, from the two replays of the whole log around
    lambda* (see _replays_around).  Proposition 1, V'(lam) = lam * S'(lam),
    holds record by record on a distributional log, so every active ROI is
    lambda* up to the O(1e-8) error of the central difference.  A placement
    whose spend does not move between the two replays is inactive; when the
    budget does not bind, every ROI is 0.  Needs a distributional log
    (smooth curves)."""
    if log.mode != "distributional":
        raise OracleError("marginal ROI needs a distributional log")
    sol = solve_lambda_star(log, budget, bid_cap)
    if sol.unconstrained:
        return MarginalRoi(
            roi=dict.fromkeys(log.arrays.placement_names, 0.0), inactive=(), lam=sol.lam
        )
    _, hi, lo = _replays_around(log, sol.lam, bid_cap)
    roi: dict[str, float] = {}
    inactive: list[str] = []
    for placement, (spend_hi, value_hi) in hi.per_placement.items():
        spend_lo, value_lo = lo.per_placement[placement]
        if spend_hi == spend_lo:
            inactive.append(placement)
        else:
            roi[placement] = (value_hi - value_lo) / (spend_hi - spend_lo)
    return MarginalRoi(roi=roi, inactive=tuple(inactive), lam=sol.lam)


@dataclass(frozen=True)
class FixedBidBaseline:
    bid: float
    spend: float
    value: float


def fixed_bid_baseline(
    log: OpportunityLog, budget: float, bid_cap: float = DEFAULT_BID_CAP
) -> FixedBidBaseline:
    """Naive reference policy: one constant bid for every opportunity, set in
    hindsight to the largest level whose realized spend fits the budget.

    Found by bisection on the bid.  A constant bid b wins exactly the
    auctions priced at or below it, so spend at b is the sum of the sorted
    second-price prices up to b plus b times the first-price auctions up to
    b, one searchsorted each; where that sum lands within _RESUM_REL of the
    budget, the auctions are resolved, so every comparison is a replay's."""
    if log.mode != "realized":
        raise OracleError("the fixed-bid baseline needs a realized log")
    cols = log.arrays
    first = np.sort(cols.price[cols.table.first_price])
    second = np.sort(cols.price[~cols.table.first_price])
    second_spend = np.concatenate(([0.0], np.cumsum(second)))

    def outcome(bid: float) -> tuple[float, float]:
        won, spend = resolve(cols.table, np.full(len(log), bid), cols.clearing)
        return float(spend.sum()), float(np.where(won, cols.values, 0.0).sum())

    def fits(bid: float) -> bool:
        spend = second_spend[np.searchsorted(second, bid, side="right")]
        spend += bid * np.searchsorted(first, bid, side="right")
        if abs(spend - budget) <= _RESUM_REL * budget:
            spend = outcome(bid)[0]
        return spend <= budget

    lo, hi = 0.0, bid_cap
    if fits(hi):
        spend, value = outcome(hi)
        return FixedBidBaseline(bid=hi, spend=spend, value=value)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    spend, value = outcome(lo)
    return FixedBidBaseline(bid=lo, spend=spend, value=value)


@dataclass(frozen=True)
class Prop1Check:
    v_prime: float
    s_prime: float
    residual: float


def _replays_around(
    log: OpportunityLog, lam: float, bid_cap: float
) -> tuple[float, ReplayResult, ReplayResult]:
    """Half-width delta = 1e-4 * lam and the replays at lam + delta and
    lam - delta, whose differences are the central differences of value and
    spend in the budget multiplier."""
    delta = 1e-4 * lam
    hi = replay(log, MultiplierProfile(lam=lam + delta), bid_cap)
    lo = replay(log, MultiplierProfile(lam=lam - delta), bid_cap)
    return delta, hi, lo


def prop1_residual(
    log: OpportunityLog, lam: float, bid_cap: float = DEFAULT_BID_CAP
) -> Prop1Check:
    """Central-difference check, from the replays of _replays_around, that
    value and spend derivatives stay linearly related: V'(lam) = lam * S'(lam)."""
    if not lam > 0:
        raise OracleError(f"lam must be > 0, got {lam}")
    delta, hi, lo = _replays_around(log, lam, bid_cap)
    v_prime = (hi.value - lo.value) / (2.0 * delta)
    s_prime = (hi.spend - lo.spend) / (2.0 * delta)
    return Prop1Check(
        v_prime=v_prime, s_prime=s_prime, residual=abs(v_prime - lam * s_prime)
    )
