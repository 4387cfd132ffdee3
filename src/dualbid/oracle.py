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
from dataclasses import dataclass, field, replace
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
        rows = zip(self.time.tolist(), self.placement_codes.tolist(), self.values.tolist(),
                   self.mechanism_codes.tolist(), clearing, self.combo_codes.tolist())  # fmt: skip
        return [
            LogRecord(t, self.placement_names[p], v, self.mechanisms[m], c, self.window_combos[k])
            for t, p, v, m, c, k in rows
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
    keeps its unshaded bid min(adjusted, bid_cap): shading only lowers a bid,
    and ties win, so a row priced above it (max(clearing, reserve)) loses
    at any shade, and unshaded too.  A NaN price (distributional) is shaded."""
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
    A realized first-price row that loses at any shade is not shaded (see
    _replay_bids): it keeps cost 0 and value 0, as shading it would give."""
    cols = log.arrays
    spend, value = _spend_value(log, profile, bid_cap)
    n = len(cols.placement_names)
    p_spend = np.bincount(cols.placement_codes, weights=spend, minlength=n)
    p_value = np.bincount(cols.placement_codes, weights=value, minlength=n)
    placements = zip(cols.placement_names, p_spend.tolist(), p_value.tolist())
    return ReplayResult(
        float(spend.sum()),
        float(value.sum()),
        {name: (s, v) for name, s, v in placements},
        {w: (float(spend[m].sum()), float(value[m].sum())) for w, m in cols.window_masks.items()},
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
    value), bid_cap) is >= its price max(clearing, reserve), so that it wins
    exactly while lam <= its limit.  Each limit starts at value / price and
    moves a float at a time until the row wins there and loses a float up.
    A row still winning at LAMBDA_LIMIT gets +inf, one losing at
    LAMBDA_FLOOR (priced above the bid cap, or worth 0) -inf, and a
    first-price row NaN."""
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
    their spend and value at any lam by one searchsorted.  The first-price
    rows pay shaded bids that move with lam, so they are resolved at each
    lam (shading only those that can win, see _replay_bids).

    For lam in (0, LAMBDA_LIMIT], at(lam) wins exactly the rows a replay
    wins and pays each the same.  Only the sums differ: cumulative in limit
    order, not row order, so they agree with replay's to n * eps relative.
    A log builds its own once per bid cap (OpportunityLog.realized_spend).

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


def _steps_apply(log: OpportunityLog, profile: MultiplierProfile) -> bool:
    """Whether log's rows bid under profile as a RealizedSpend bids them at
    each row's lam + lam_k: a realized log, and no cost-target or guarantee
    multiplier above 0 to change 1 / max(lam + lam_k, LAMBDA_FLOOR) * value."""
    return log.mode == "realized" and not profile.mu and not any(profile.window_mu.values())


def budget_steps(
    log: OpportunityLog, profile: MultiplierProfile, bid_cap: float
) -> RealizedSpend | None:
    """The log's spend and value as functions of the budget multiplier, its
    RealizedSpend at bid_cap, where _steps_apply holds and profile sets no
    window multiplier; None otherwise, where only a replay gives them."""
    if profile.window_lambda or not _steps_apply(log, profile):
        return None
    return log.realized_spend(bid_cap)


def _window_lambda(lam: float, floor: float) -> float:
    """The least lam_k >= max(floor - lam, 0) with fl(lam + lam_k) >= floor."""
    lam_k = max(floor - lam, 0.0)
    while lam + lam_k < floor:
        lam_k = math.nextafter(lam_k, math.inf)
    return lam_k


class _SpendCurve:
    """Memoized spend as a function of the budget multiplier lam, with a
    monotonicity guard, over every spend it reads, that names the offending
    record on violation.

    floors maps delivery windows to their c_k (see solve_kkt_grid): at lam
    each gets lam_k = _window_lambda(lam, c_k).  pieces, where given, are
    RealizedSpends of each window's rows and of the rest (window None)."""

    def __init__(self, log, profile: MultiplierProfile, bid_cap: float, floors=None, pieces=None):
        self.log, self.profile, self.bid_cap = log, profile, bid_cap
        self.floors, self.pieces = floors or {}, pieces
        self._lams: list[float] = []  # multipliers with a known spend, sorted
        self._spends: dict[float, float] = {}
        self._replays: dict[float, ReplayResult] = {}

    def profile_at(self, lam: float) -> MultiplierProfile:
        lams = {w: _window_lambda(lam, c) for w, c in self.floors.items()}
        return replace(self.profile, lam=lam, window_lambda=lams)

    @cached_property
    def steps(self) -> RealizedSpend | None:
        return None if self.floors else budget_steps(self.log, self.profile, self.bid_cap)

    def excess(self, lam: float, target: float) -> float:
        """Spend at lam minus target, from the step functions where there
        are some; a sum of pieces within _RESUM_REL of target is replayed,
        as in RealizedSpend.excess, so that its sign is a replay's."""
        if self.steps is not None:
            excess = self.steps.excess(lam, target)
        elif self.pieces:
            lams = self.profile_at(lam).window_lambda
            spend = sum(rs.at(lam + lams.get(w, 0.0))[0] for w, rs in self.pieces.items())
            if abs(spend - target) <= _RESUM_REL * target:
                spend = self.at(lam).spend
            excess = spend - target
        else:
            return self.at(lam).spend - target
        self._guard(lam, excess + target)
        return excess

    def at(self, lam: float) -> ReplayResult:
        if lam in self._replays:
            return self._replays[lam]
        result = replay(self.log, self.profile_at(lam), self.bid_cap)
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
        s_lo, _ = _spend_value(self.log, self.profile_at(lo), self.bid_cap)
        s_hi, _ = _spend_value(self.log, self.profile_at(hi), self.bid_cap)
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
    fits, with the final bracket (lo, hi, excess(lo), excess(hi)).  None
    when the excess is still positive at limit.

    tol marks a smooth curve: each point is then the Illinois regula falsi
    step (Dowell & Jarratt 1971) in ln x, the secant through the bracket's
    ends with the excess of an end that stays put twice in a row halved, or
    the midpoint when lo is 0, an excess is not finite, or the secant falls
    outside (lo, hi).  A step function (tol None) is bisected.
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
    curve: _SpendCurve, budget: float
) -> tuple[LambdaSolution, tuple[float, float, float, float] | None]:
    """The budget multiplier on one spend curve, and its search bracket.

    A smooth (distributional) curve is searched on ln(spend / budget), to
    log1p(LAMBDA_REL_TOL): the band |spend - budget| <= LAMBDA_REL_TOL *
    budget, read on a scale where spend is close to linear in ln(lam).  Zero
    spend reads as -inf, a step the search takes at the midpoint."""
    if curve.log.mode == "distributional":

        def excess(lam: float) -> float:
            spend = curve.at(lam).spend
            return math.log(spend / budget) if spend > 0 else -math.inf

        tol = math.log1p(LAMBDA_REL_TOL)
    else:
        excess, tol = (lambda lam: curve.excess(lam, budget)), None
    found = search_multiplier(excess, LAMBDA_FLOOR, LAMBDA_LIMIT, tol=tol)
    if found is None:
        raise OracleError("could not bracket the budget multiplier")
    lam, bracket = found
    r = curve.at(lam)
    return LambdaSolution(lam, bracket is None, bracket and bracket[:2], r.spend, r.value), bracket


def solve_lambda_star(
    log: OpportunityLog, budget: float, bid_cap: float = DEFAULT_BID_CAP
) -> LambdaSolution:
    """Budget-only hindsight multiplier.

    If replayed spend at the floor multiplier fits the budget, the floor is
    returned flagged unconstrained.  On a distributional log (a smooth
    curve), Illinois regula falsi on ln(spend / budget) matches spend to
    budget within LAMBDA_REL_TOL in about 8 replays.  On a realized or mixed
    log (a step function) bisection returns the high, never overspending
    side of the step; a realized log's spend comes from its RealizedSpend,
    whose signs are a replay's.  Spend and value are replayed at the
    result, and bracket is the final bracket of the search.
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

# Per kind of KKT constraint: its excess's sign (+1 caps the quantity, -1 floors it),
# then its searched multiplier, quantity and target as notes name them (+ window id).
_KKT_KINDS = {
    "budget": (1.0, "lam", "spend", "budget"),
    "cost_target": (1.0, "mu", "spend / value", "target"),
    "delivery": (1.0, "lam+lam", "spend", "cap"),
    "guarantee": (-1.0, "mu", "value", "floor"),
}


@dataclass(frozen=True)
class KktConstraint:
    """One constraint of the KKT solve: its kind (a key of _KKT_KINDS), the
    window it holds (None for the budget and the cost target), its target
    (the budget, cost per result, cap or floor) and the limit of its
    multiplier's search."""

    kind: str
    window: str | None
    target: float
    limit: float

    @property
    def name(self) -> str:  # its key in KktSolution.residuals
        return self.kind if self.window is None else f"{self.kind}_{self.window}"

    def level(self, rep: ReplayResult) -> float:
        """The constrained quantity at rep."""
        if self.kind == "cost_target":
            return rep.spend / max(rep.value, 1e-300)
        if self.window is None:
            return rep.spend
        spend, value = rep.per_window.get(self.window, (0.0, 0.0))
        return value if self.kind == "guarantee" else spend

    def excess(self, rep: ReplayResult) -> float:
        """How far rep misses the constraint, relative to the target, <= 0
        where it holds; its size is the residual."""
        return _KKT_KINDS[self.kind][0] * (self.level(rep) / self.target - 1.0)

    def give_up_note(self, rep: ReplayResult) -> str:
        """The quantity at the multiplier's limit, the nearest it comes."""
        sign, _, what, target = _KKT_KINDS[self.kind]
        best, side = ("max", "<") if sign < 0 else ("min", ">")
        name = self.kind if self.window is None else f"{self.kind} {self.window!r}"
        bound = f"{side} {target} {self.target:g}"
        return f"{name} infeasible: {best} achievable {what} {self.level(rep):g} {bound}"

    def step_note(self, rep: ReplayResult, bracket: tuple[float, float, float, float]) -> str:
        """Why a realized residual exceeds KKT_REL_TOL: the constrained
        quantity jumps across the final bracket (lo, hi, excess at lo,
        excess at hi) of its multiplier's search."""
        sign, multiplier, quantity, _ = _KKT_KINDS[self.kind]
        if self.window is not None:
            multiplier, quantity = f"{multiplier}_{self.window}", f"{quantity} in {self.window!r}"
        lo, hi, r_lo, r_hi = bracket
        at_lo, at_hi = (self.target * (1.0 + sign * r) for r in (r_lo, r_hi))
        return (
            f"{self.name} residual {abs(self.excess(rep)):.3g} exceeds rel_tol {KKT_REL_TOL:g}: "
            f"realized {quantity} steps from {at_lo:.12g} at {multiplier}={lo:.17g} "
            f"to {at_hi:.12g} at {multiplier}={hi:.17g}, the final bracket of its search"
        )


def check_kkt_constraints(constraints, log: OpportunityLog | None = None) -> None:
    """Raise OracleError naming the windows where solve_kkt_grid cannot take
    constraints: two guarantee windows, or two delivery windows on a record."""
    deliveries = {w.id for w in constraints.delivery_windows}
    clashes = [[w.id for w in constraints.guarantee_windows]]
    clashes += [[w for w in c if w in deliveries] for c in log.arrays.window_combos] if log else []
    ids = next((ids for ids in clashes if len(ids) > 1), None)
    if ids:
        raise OracleError(f"the KKT oracle takes one guarantee window and delivery windows "
                          f"that share no record, got {', '.join(map(repr, ids))}")  # fmt: skip


def solve_kkt_grid(
    log: OpportunityLog, constraints, bid_cap: float = DEFAULT_BID_CAP
) -> KktSolution:
    """Hindsight multipliers for a budget, a cost target, any number of
    delivery windows and one guarantee window, satisfying each KKT branch: a
    multiplier is either 0 (slack constraint) or its constraint holds with
    equality within KKT_REL_TOL.

    The guarantee and then the cost-target multiplier are nested outer
    searches.  Inside them the windows and the budget decompose, as window
    k's rows bid at one effective multiplier lam + lam_k (+ mu): c_k, the
    least lam + lam_k at which its spend fits its cap, is one search; lam is
    the budget multiplier of the spend with each window at max(lam, c_k),
    searched as solve_lambda_star searches (which this is, for a budget
    alone); lam_k = max(c_k - lam, 0), raised until lam + lam_k >= c_k as
    replay rounds it.  Where _steps_apply holds, the searches read
    RealizedSpends of each window's rows and of the rest, else replays.

    A constraint still failing at its search limit keeps its multiplier
    there, gets a note and no residual, and makes the solution infeasible,
    as does a cap the replayed solution exceeds (beyond KKT_REL_TOL on a
    smooth log).  Realized spend and value are step functions, so there a
    residual above KKT_REL_TOL gets a note naming the final bracket of its
    search and the step across it.  Residuals are keyed by constraint name.
    """
    check_kkt_constraints(constraints, log)
    outer = [KktConstraint("guarantee", w.id, w.floor, 1e4) for w in constraints.guarantee_windows]
    cost_target = constraints.cost_target
    if cost_target is not None:
        outer.append(KktConstraint("cost_target", None, cost_target, 1e6 / cost_target))
    windows = [KktConstraint("delivery", w.id, w.cap, 1e8) for w in constraints.delivery_windows]
    budget = KktConstraint("budget", None, constraints.budget, LAMBDA_LIMIT)
    tol = KKT_REL_TOL if log.mode == "distributional" else None
    pieces = None
    if windows and log.mode == "realized":
        cols = log.arrays  # all realized, so ~cols.realized masks no row
        masks = {c.window: cols.window_masks.get(c.window, ~cols.realized) for c in windows}
        masks[None] = ~np.logical_or.reduce(list(masks.values()))
        pieces = {w: RealizedSpend(cols.values[m], cols.clearing[m], cols.table.take(m), bid_cap)
                  for w, m in masks.items()}  # fmt: skip

    def decomposed(profile: MultiplierProfile) -> tuple:
        """The delivery and budget multipliers at profile's outer ones."""
        steps = pieces if _steps_apply(log, profile) else None
        floors, results = {}, []
        for c in windows:
            if steps:
                excess = lambda x, rs=steps[c.window]: rs.excess(x, c.target) / c.target
            else:
                excess = lambda x: c.excess(replay(log, profile.with_lam(x), bid_cap))
            found = search_multiplier(excess, LAMBDA_FLOOR, c.limit, tol=tol)
            floors[c.window] = c.limit if found is None else found[0]
            results.append(found)
        curve = _SpendCurve(log, profile, bid_cap, floors, steps)
        sol, bracket = _solve_budget_multiplier(curve, budget.target)
        profile = curve.profile_at(sol.lam)
        # a window's search as (lam_k, its bracket), the budget's relative to the budget
        results = [f and (profile.window_lambda[c.window], f[1]) for c, f in zip(windows, results)]
        if bracket is not None:
            bracket = (*bracket[:2], bracket[2] / budget.target, bracket[3] / budget.target)
        return profile, curve.at(sol.lam), (*results, (sol.lam, bracket))

    solved: dict[tuple[float, ...], tuple] = {}

    def solve(xs: tuple[float, ...]) -> tuple:
        """The solution with the leading outer multipliers at xs and every
        later one searched in turn: its profile, its replay, and per later
        constraint its (multiplier, final bracket), None if it gave up."""
        if xs not in solved and len(xs) < len(outer):
            c = outer[len(xs)]
            found = search_multiplier(
                lambda x: c.excess(solve((*xs, x))[1]), 0.0, c.limit, tol=tol, width_rel=1e-7
            )
            profile, rep, later = solve((*xs, c.limit if found is None else found[0]))
            solved[xs] = profile, rep, (found, *later)
        elif xs not in solved:
            mu = next((x for c, x in zip(outer, xs) if c.kind == "cost_target"), 0.0)
            window_mu = {c.window: x for c, x in zip(outer, xs) if c.kind == "guarantee"}
            solved[xs] = decomposed(MultiplierProfile(1.0, mu, cost_target, {}, window_mu))
        return solved[xs]

    profile, rep, searches = solve(())
    bounds = [*outer, *windows, budget]
    unconstrained = searches[-1][1] is None
    notes = [c.give_up_note(rep) for c, found in zip(bounds, searches) if found is None]
    notes += ["budget unconstrained"] if unconstrained else []
    residuals = {"budget": 0.0}
    # innermost first; a multiplier at its floor or its limit has no residual
    for c, found in reversed(list(zip(bounds, searches))):
        if found is not None and found[0] > LAMBDA_FLOOR:
            residuals[c.name] = abs(c.excess(rep))
            if tol is None and residuals[c.name] > KKT_REL_TOL and found[1]:
                notes.append(c.step_note(rep, found[1]))
    over = [c for c, f in zip(windows, searches[len(outer) :]) if f and c.excess(rep) > (tol or 0)]
    notes += [f"delivery {c.window!r} spends {c.level(rep):g}, above its cap" for c in over]
    feasible = None not in searches and not over
    return KktSolution(profile, rep, residuals, feasible, tuple(notes), unconstrained)


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
        return MarginalRoi(dict.fromkeys(log.arrays.placement_names, 0.0), (), sol.lam)
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

    A constant bid b wins exactly the auctions priced at or below it, so
    between neighbouring prices spend is S2 + b * n1: the second-price
    prices won plus b per first-price auction won.  From the last price at
    which spend fits, the answer is (budget - S2) / n1, below the next
    price, moved a float at a time to the largest bid that fits.  A spend
    within _RESUM_REL of the budget is resolved auction by auction, so every
    comparison is a replay's."""
    if log.mode != "realized":
        raise OracleError("the fixed-bid baseline needs a realized log")
    cols = log.arrays
    order = np.argsort(cols.price)
    prices, first = cols.price[order], cols.table.first_price[order]
    # per count of cheapest auctions won: their second-price spend and first-price count
    s2 = np.concatenate(([0.0], np.cumsum(np.where(first, 0.0, prices))))
    n1 = np.concatenate(([0], np.cumsum(first)))

    def outcome(bid: float) -> tuple[float, float]:
        won, spend = resolve(cols.table, np.full(len(log), bid), cols.clearing)
        return float(spend.sum()), float(np.where(won, cols.values, 0.0).sum())

    def fits(bid: float) -> bool:
        k = np.searchsorted(prices, bid, side="right")
        spend = s2[k] + bid * n1[k]
        if abs(spend - budget) <= _RESUM_REL * budget:
            spend = outcome(bid)[0]
        return spend <= budget

    bid = bid_cap
    if not fits(bid):
        # spend fits at the k cheapest prices (a price 0 always does), not at the next
        k = bisect.bisect_left(prices, True, key=lambda p: not fits(float(p)))
        top = min(bid, math.nextafter(float(prices[k]), -math.inf)) if k < len(prices) else bid
        bid = min(top, float((budget - s2[k]) / n1[k])) if n1[k] else top
        while not fits(bid):
            bid = math.nextafter(bid, -math.inf)
        while bid < top and fits(up := math.nextafter(bid, math.inf)):
            bid = up
    spend, value = outcome(bid)
    return FixedBidBaseline(bid=bid, spend=spend, value=value)


@dataclass(frozen=True)
class Prop1Check:
    v_prime: float
    s_prime: float
    residual: float


def _replays_around(
    log: OpportunityLog, lam: float, bid_cap: float
) -> tuple[float, ReplayResult, ReplayResult]:
    """Half-width delta = 1e-4 * lam and the replays at lam +- delta, whose
    differences are central differences of value and spend in lam."""
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
    return Prop1Check(v_prime, s_prime, abs(v_prime - lam * s_prime))
