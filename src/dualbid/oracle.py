"""Hindsight-optimal multipliers from a complete opportunity log.

Given every opportunity's value and auction model (distributional mode) or
resolved competing bid (realized mode), replay answers "what would we have
spent and won at multipliers m".  Multipliers move a bid only through the
factor of its row (MultiplierVector.factor), one per segment of rows that
share their windows, so each constraint is a threshold on a factor: a
delivery window caps its rows' factor, a guarantee window floors it, the
cost target caps the global one, and the budget multiplier is searched last,
as for lambda*.  A realized second-price row wins exactly while its factor
reaches its win limit, so there a threshold is one scan of sorted limits;
elsewhere search_multiplier finds it.  Everything here is the ground truth
the online controllers are judged against.
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
        if not windows:  # the budget-only searches build one per step
            return MultiplierVector(self.lam, self.mu, self.cost_target)
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
_LIMIT_STEPS = 64  # floats a win limit may lie from price / value


def budget_factor(lam):
    """The factor of the budget multiplier alone as replay and an episode
    round it, MultiplierVector(lam=lam).factor: fl(1 / max(lam, LAMBDA_FLOOR)),
    for a float or an array of them."""
    if isinstance(lam, np.ndarray):
        return 1.0 / np.maximum(lam, LAMBDA_FLOOR)
    return 1.0 / max(lam, LAMBDA_FLOOR)


def budget_lambda(f: float) -> float:
    """The least multiplier lam >= LAMBDA_FLOOR at which budget_factor(lam)
    is below f > 0 (+inf where none is), so that a spend that fits exactly
    while the factor is below f fits exactly from lam on."""
    lam = max(1.0 / f, LAMBDA_FLOOR)
    while lam > LAMBDA_FLOOR and budget_factor(down := math.nextafter(lam, 0.0)) < f:
        lam = down
    while not budget_factor(lam) < f:
        lam = math.nextafter(lam, math.inf)
    return lam


def win_limits(values, clearing, table: MechanismTable, bid_cap: float) -> np.ndarray:
    """Each realized second-price row's win limit: the least factor f >= 0
    at which its bid min(fl(f * value), bid_cap) is >= its price
    max(clearing, reserve), so that it wins exactly while f >= its limit.
    A row priced 0 gets 0, one that wins at no factor (priced above the bid
    cap, or worth 0 at a price above 0) +inf, and a first-price row NaN."""
    price = np.maximum(clearing, table.reserve)
    limits = np.full(len(price), np.nan)
    second = np.flatnonzero(~table.first_price)
    v, p = np.asarray(values, dtype=float)[second], price[second]
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(p > bid_cap, np.inf, np.where(p > 0, p / v, 0.0))
    rows = np.flatnonzero((f > 0) & (f < np.inf))
    # the cap allows these prices, so fl(f * v) >= p, rising with f, decides;
    # from p / v, a row that wins steps down while the float below still
    # wins, and one that loses steps up until it wins
    won = f[rows] * v[rows] >= p[rows]
    down, up = rows[won], rows[~won]
    for _ in range(_LIMIT_STEPS):
        below = np.nextafter(f[down], -np.inf)
        more = below * v[down] >= p[down]
        down = down[more]
        f[down] = below[more]
        f[up] = np.nextafter(f[up], np.inf)
        up = up[~(f[up] * v[up] >= p[up])]
        if not (down.size or up.size):
            break
    else:
        raise OracleError("win limits did not settle")
    limits[second] = f
    return limits


class RealizedSpend:
    """Realized spend and value of a log's rows bidding at one factor f, as
    functions of f, without replaying every row at every f.

    Each row bids as replay and an episode bid under multipliers that give
    it the factor f (MultiplierVector.factor; the budget multiplier lam
    alone gives budget_factor(lam)): fl(f * value), shaded on first-price
    rows, capped at bid_cap.  A second-price row wins exactly while f >= its
    win limit (see win_limits), so the second-price rows, sorted by limit
    with cumulative price and value, give their spend and value at any f by
    one searchsorted.  The first-price rows pay shaded bids that move with
    f, so they are resolved at each f (shading only those that can win, see
    _replay_bids).

    At any f, at(f) wins exactly the rows a replay wins and pays each the
    same.  Only the sums differ: cumulative in limit order, not row order,
    so they agree with replay's to n * eps relative.  A log builds its own
    once per bid cap (OpportunityLog.realized_spend).

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
        # the second-price rows by limit, smallest first; rows of equal limit
        # win and lose together, so their order is free
        second = np.flatnonzero(~table.first_price)
        self._order = second[np.argsort(self._limits[second])]

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
    def _sorted_limits(self) -> np.ndarray:
        return self._limits[self._order]

    @cached_property
    def _spend(self) -> np.ndarray:
        """Cumulative price in limit order."""
        return np.concatenate(([0.0], np.cumsum(self._price[self._order])))

    @cached_property
    def _value(self) -> np.ndarray:
        """Cumulative value in limit order; FTL never reads it."""
        return np.concatenate(([0.0], np.cumsum(self.values[self._order])))

    @cached_property
    def _first(self) -> tuple[MechanismTable, np.ndarray, np.ndarray, np.ndarray]:
        """The first-price rows' table, values, clearing bids and prices."""
        rows, table = self.table.first_price_rows
        return table, self.values[rows], self.clearing[rows], self._price[rows]

    def crossing(self, target: float, of_value: bool = False) -> float | None:
        """The win limit L of the first sorted row whose cumulative price
        exceeds target >= 0, so that excess(f, target) <= 0 exactly while
        f < L (+inf when every row fits), or of_value, whose cumulative value
        reaches target, so that the value does exactly while f >= L.  None
        with first-price rows, whose spend moves between limits, or a
        cumulative sum within _RESUM_REL of target, where only a replay's
        sum in row order tells on which side of target it lies."""
        if self.table.first_price.any():
            return None
        # the largest count of rows, in limit order, whose spend fits, or
        # whose value falls short
        sums = self._value if of_value else self._spend
        k = int(sums.searchsorted(target, side="left" if of_value else "right")) - 1
        if (np.abs(sums[max(k, 0) : k + 2] - target) <= _RESUM_REL * target).any():
            return None
        limits = self._sorted_limits
        return float(limits[k]) if 0 <= k < len(limits) else math.inf if k >= 0 else 0.0

    def at(self, f: float) -> tuple[float, float]:
        """Spend and value at factor f: the second-price rows summed in limit
        order, plus the first-price rows."""
        k = self._sorted_limits.searchsorted(f, side="right")
        spend, value = self._spend[k], self._value[k]
        table, values, clearing, price = self._first
        if values.size:
            bids = _replay_bids(table, f * values, price, self.bid_cap)
            won, cost = resolve(table, bids, clearing)
            spend += cost.sum()
            value += values[won].sum()
        return float(spend), float(value)

    def replay_spend(self, f: float) -> float:
        """Spend at f from every row's bid, summed in row order, as replay
        sums it."""
        bids = _replay_bids(self.table, f * self.values, self._price, self.bid_cap)
        return float(resolve(self.table, bids, self.clearing)[1].sum())

    def excess(self, f: float, target: float) -> float:
        """spend(f) - target.  The two sums round differently, so where the
        sorted one lands within _RESUM_REL of target the replayed spend is
        used: the sign, which is all a realized search reads, is always the
        replay's."""
        spend = self.at(f)[0]
        if abs(spend - target) <= _RESUM_REL * target:
            spend = self.replay_spend(f)
        return spend - target


class SegmentSpend:
    """A realized log as one RealizedSpend per segment, the rows that share
    the windows named (the log's own where all do), each read by at(profile)
    at the factor profile gives it: a replay's winners, and its sums."""

    def __init__(self, log: OpportunityLog, windows, bid_cap: float):
        cols = log.arrays
        self.windows = tuple(windows)
        keys = [tuple(w for w in combo if w in self.windows) for combo in cols.window_combos]
        if len(set(keys)) == 1:  # one segment, the log's own RealizedSpend
            self.parts = {keys[0]: log.realized_spend(bid_cap)}
            return
        self.parts = {}
        for key in dict.fromkeys(keys):
            rows = np.isin(cols.combo_codes, [c for c, k in enumerate(keys) if k == key])
            table = cols.table.take(rows)
            self.parts[key] = RealizedSpend(cols.values[rows], cols.clearing[rows], table, bid_cap)

    def at(self, profile: MultiplierProfile) -> ReplayResult:
        """Spend, value and per-window sums at profile (none per placement)."""
        spend, value = 0.0, 0.0
        per_window = dict.fromkeys(self.windows, (0.0, 0.0))
        for key, rs in self.parts.items():
            s, v = rs.at(profile.vector_for(key).factor)
            spend, value = spend + s, value + v
            for w in key:
                per_window[w] = (per_window[w][0] + s, per_window[w][1] + v)
        return ReplayResult(spend, value, {}, per_window)


LAMBDA_REL_TOL = 1e-6  # lambda* matches spend to the budget to this on smooth logs


class _SpendCurve:
    """Spend at the budget multiplier lam and profile_of(lam), read from
    segments (a SegmentSpend) or memoized replays, with a monotonicity guard
    that names the offending record on violation."""

    def __init__(self, log, bid_cap: float, profile_of, segments: SegmentSpend | None = None):
        self.log, self.bid_cap, self.profile_of, self.segments = log, bid_cap, profile_of, segments
        self._lams: list[float] = []  # multipliers with a known spend, sorted
        self._spends: dict[float, float] = {}
        self._replays: dict[float, ReplayResult] = {}

    def excess(self, lam: float, target: float) -> float:
        """Spend at lam minus target, its sign a replay's (a sum of segments
        within _RESUM_REL of target is replayed, as RealizedSpend.excess does)."""
        if self.segments is None:
            return self.at(lam).spend - target
        profile, parts = self.profile_of(lam), self.segments.parts
        if len(parts) == 1:  # all rows, in order: its replay_spend sums as a replay does
            ((key, rs),) = parts.items()
            excess = rs.excess(profile.vector_for(key).factor, target)
        else:
            spend = self.segments.at(profile).spend
            if abs(spend - target) <= _RESUM_REL * target:
                return self.at(lam).spend - target
            excess = spend - target
        self._guard(lam, excess + target)
        return excess

    def solve(self, budget: float) -> tuple[float, tuple[float, float, float, float] | None]:
        """The budget multiplier on this curve, and its search bracket.

        A smooth (distributional) curve is searched on ln(spend / budget), to
        log1p(LAMBDA_REL_TOL): the band |spend - budget| <= LAMBDA_REL_TOL *
        budget, read on a scale where spend is close to linear in ln(lam).
        Zero spend reads as -inf, a step the search takes at the midpoint."""
        smooth = self.log.mode == "distributional"

        def excess(lam: float) -> float:
            if not smooth:
                return self.excess(lam, budget)
            spend = self.at(lam).spend
            return math.log(spend / budget) if spend > 0 else -math.inf

        tol = math.log1p(LAMBDA_REL_TOL) if smooth else None
        found = search_multiplier(excess, LAMBDA_FLOOR, LAMBDA_LIMIT, tol)
        if found is None:
            raise OracleError("could not bracket the budget multiplier")
        return found

    def at(self, lam: float) -> ReplayResult:
        if lam in self._replays:
            return self._replays[lam]
        result = replay(self.log, self.profile_of(lam), self.bid_cap)
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
        s_lo, _ = _spend_value(self.log, self.profile_of(lo), self.bid_cap)
        s_hi, _ = _spend_value(self.log, self.profile_of(hi), self.bid_cap)
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
    segments = SegmentSpend(log, (), bid_cap) if log.mode == "realized" else None
    curve = _SpendCurve(log, bid_cap, MultiplierProfile, segments)
    lam, bracket = curve.solve(budget)
    r = curve.at(lam)
    return LambdaSolution(lam, bracket is None, bracket and bracket[:2], r.spend, r.value)


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

# Per kind of KKT constraint: its excess's sign (+1 caps the quantity, -1 floors
# it), the multiplier of its step notes (lam, or its rows' factor f), quantity, target.
_KKT_KINDS = {
    "budget": (1.0, "lam", "spend", "budget"),
    "cost_target": (1.0, "f", "spend / value", "target"),
    "delivery": (1.0, "f", "spend", "cap"),
    "guarantee": (-1.0, "f", "value", "floor"),
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

    def broken_note(self, rep: ReplayResult) -> str:
        """The replayed quantity, where it breaks the constraint."""
        name = self.kind if self.window is None else f"{self.kind} {self.window!r}"
        level = self.level(rep)
        if self.kind == "guarantee":
            return f"{name} wins value {level:g}, below its floor"
        per_result = " per result" if self.kind == "cost_target" else ""
        return f"{name} spends {level:g}{per_result}, above its {_KKT_KINDS[self.kind][3]}"

    def step_note(self, rep: ReplayResult, far: tuple[float, float], near: float, multiplier=None):
        """Why a realized residual exceeds KKT_REL_TOL: the quantity steps
        from far = (multiplier, quantity) to rep's at the multiplier near."""
        _, default, quantity, _ = _KKT_KINDS[self.kind]
        multiplier = multiplier or default
        if self.window is not None:
            multiplier, quantity = f"{multiplier}_{self.window}", f"{quantity} in {self.window!r}"
        return (
            f"{self.name} residual {abs(self.excess(rep)):.3g} exceeds rel_tol {KKT_REL_TOL:g}: "
            f"realized {quantity} steps from {far[1]:.12g} at {multiplier}={far[0]:.17g} "
            f"to {self.level(rep):.12g} at {multiplier}={near:.17g}, either side of its step"
        )


def check_kkt_constraints(constraints, log: OpportunityLog | None = None) -> str | None:
    """The guarantee window sharing records (with no log, intervals) with
    delivery windows, if any; OracleError, naming the windows, where two do,
    or a record is in two windows of one kind."""
    deliveries = constraints.delivery_windows
    combos = log.arrays.window_combos if log else ()

    def on_deliveries(g) -> bool:
        if log is None:
            return any(g.start < d.end and d.start < g.end for d in deliveries)
        ids = {d.id for d in deliveries}
        return any(g.id in k and ids.intersection(k) for k in combos)

    clashes = [[g.id for g in constraints.guarantee_windows if on_deliveries(g)]]
    for kind in (deliveries, constraints.guarantee_windows):
        clashes += [[w.id for w in kind if w.id in k] for k in combos]
    bad = next((c for c in clashes if len(c) > 1), None)
    if bad:
        raise OracleError(
            "the KKT oracle takes no record in two windows of one kind and one "
            f"guarantee window on delivery records, got {', '.join(map(repr, bad))}"
        )
    return clashes[0][0] if clashes[0] else None


def _least(holds: Callable[[float], bool], guess: float, limit: float) -> float:
    """The least float x in [0, limit] at which holds(x), false below some
    point and true from it on, is true (limit where it never is), bisected
    over the floats in bit order from a few floats round guess."""
    if not holds(limit):
        return limit
    bits = lambda x: int(np.float64(x).view(np.int64))
    at = lambda b: holds(float(np.int64(b).view(np.float64)))
    g = bits(limit if math.isnan(guess) else min(max(guess, 0.0), limit))
    lo, hi = -1, bits(limit)  # holds at hi, not at lo; -1 stands for a float below 0
    for x in (g + 4, g - 4):  # a few floats round guess, where they bracket it
        if lo < x < hi:
            lo, hi = (lo, x) if at(x) else (x, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if at(mid) else (mid, hi)
    return float(np.int64(hi).view(np.float64))


def _kkt_profile(lam: float, cost_target, thresholds, boosts=None) -> MultiplierProfile:
    """The least multipliers at lam, each at most its limit, that hold the
    factors (as MultiplierVector rounds them) to thresholds, by constraint:
    mu the global factor to the cost target's cap, then lam_k a window's to
    its cap and mu_k to its floor.  A window in boosts gets mu_k = boost *
    (1 + mu * cost_target), multiplying its rows' factors by 1 + boost."""
    C, mu = cost_target, 0.0
    for c, t in thresholds.items():
        if c.kind == "cost_target" and budget_factor(lam) > t:
            guess = (1.0 - lam * t) / (t - C) if t > C else c.limit
            mu = _least(lambda x: MultiplierVector(lam, x, C).factor <= t, guess, c.limit)
    n, d = MultiplierVector(lam, mu, C).numerator, max(lam + mu, LAMBDA_FLOOR)
    lams, mus = {}, {}
    for c, t in thresholds.items():
        if c.kind == "delivery":
            holds = lambda x: MultiplierVector(lam, mu, C, lam_k=x).factor <= t
            lams[c.window] = _least(holds, n / t - d if t > 0 else c.limit, c.limit)
        elif c.kind == "guarantee":
            holds = lambda x: MultiplierVector(lam, mu, C, mu_k=x).factor >= t
            mus[c.window] = _least(holds, t * d - n, c.limit)
    for w, boost in (boosts or {}).items():
        mus[w] = boost * n
    return MultiplierProfile(lam, mu, C, lams, mus)


def _cost_scan(segments: SegmentSpend, thresholds, cost_target: float):
    """The largest global factor at which realized spend is at most
    cost_target times value, each window's rows at it clamped to their
    thresholds, and (factor, spend / value) across its step, from one sort
    of the rows by the factor at which each enters: +inf where every row
    fits, 0 where none does.  None with first-price rows, or where a count
    from the last that fits on lies within _RESUM_REL of the target, as only
    a replay's sums in row order tell on which side it lies.  Rows a
    guarantee floor wins at any factor may cost more per result than the
    target, so the factors that fit can be a band, and a lower factor than
    this one need not fit (solve_kkt_grid checks its replay)."""
    entries, price, values = [], [], []
    for key, rs in segments.parts.items():
        if rs.table.first_price.any():
            return None
        bounds = {c.kind: t for c, t in thresholds.items() if c.window in key}
        floor, cap = bounds.get("guarantee", 0.0), bounds.get("delivery", math.inf)
        limits = np.where(rs._limits <= cap, rs._limits, np.inf)
        entries.append(np.where(rs._limits <= floor, 0.0, limits))
        price.append(rs._price)
        values.append(rs.values)
    entry = np.concatenate(entries)
    order = np.argsort(entry)[: np.count_nonzero(entry < np.inf)]
    spend, value = (np.append(0.0, np.cumsum(np.concatenate(a)[order])) for a in (price, values))
    entry = entry[order]
    # the counts k of rows a factor wins alone, those in [entry[k - 1], entry[k])
    counts = np.flatnonzero(np.append(entry > np.append(0.0, entry[:-1]), True))
    # each count's excess as KktConstraint.excess reads it
    excess = spend[counts] / np.maximum(value[counts], 1e-300) / cost_target - 1.0
    fits = np.flatnonzero(excess <= 0)
    last = int(fits[-1]) if fits.size else -1
    if (np.abs(excess[max(last, 0) :]) <= _RESUM_REL).any():
        return None
    if last in (-1, len(counts) - 1):
        return (0.0 if last < 0 else math.inf), None
    step, beyond = float(entry[counts[last]]), counts[last + 1]
    return math.nextafter(step, -math.inf), (step, spend[beyond] / max(value[beyond], 1e-300))


def solve_kkt_grid(
    log: OpportunityLog, constraints, bid_cap: float = DEFAULT_BID_CAP
) -> KktSolution:
    """Hindsight multipliers for a budget, a cost target and any number of
    delivery and guarantee windows: each multiplier is 0 (slack constraint)
    or its constraint holds within KKT_REL_TOL.

    Each constraint is a threshold on a factor: a delivery window caps its
    rows' at the largest at which their spend fits, a guarantee window
    floors it at the least at which their value reaches the floor, the cost
    target caps the global one at the largest at which spend is at most the
    target times value (windows clamped).  Last, lam is searched as for
    lambda* (which this is, for a budget alone), at the multipliers
    _kkt_profile maps the thresholds to.  Realized second-price thresholds
    are scans of sorted win limits; first-price rows, or a sum within
    _RESUM_REL of a target, are bisected on SegmentSpend (a delivery
    window's on its own segment), other logs searched by Illinois steps on
    replays.  A guarantee window on records of
    delivery windows lifts rows under their caps: its multiplier (relative
    to 1 + mu * C) is one outer search.  A multiplier at its limit, or a
    constraint the replay breaks (a budget held below the cost target's band
    by a guarantee floor, say), gets a note (and no residual) and makes the
    solution infeasible; a realized residual above KKT_REL_TOL, a note on
    its step.
    """
    shared = check_kkt_constraints(constraints, log)
    C, combos = constraints.cost_target, log.arrays.window_combos
    budget = KktConstraint("budget", None, constraints.budget, LAMBDA_LIMIT)
    costs = [KktConstraint("cost_target", None, C, 1e6 / C)] if C is not None else []
    caps = [KktConstraint("delivery", w.id, w.cap, 1e8) for w in constraints.delivery_windows]
    floors = [KktConstraint("guarantee", w.id, w.floor, 1e4) for w in constraints.guarantee_windows]
    outer = next((c for c in floors if c.window == shared), None)
    lifted = [c for c in caps if outer and any({c.window, outer.window} <= set(k) for k in combos)]
    realized = log.mode == "realized"
    segments = SegmentSpend(log, [c.window for c in caps + floors], bid_cap) if realized else None
    tol = KKT_REL_TOL if log.mode == "distributional" else None

    def excess(c: KktConstraint, profile: MultiplierProfile) -> float:
        """c's excess at profile, its sign always a replay's."""
        if segments is None:
            return c.excess(replay(log, profile, bid_cap))
        e = c.excess(segments.at(profile))
        return c.excess(replay(log, profile, bid_cap)) if abs(e) <= _RESUM_REL else e

    def searched(c: KktConstraint, excess_at, floor: float, limit: float, factor) -> tuple:
        """factor(x) at the least x >= floor at which c's excess_at(x) is <= 0
        (where none to limit is, a factor none reaches), and the bracket's far end."""
        found = search_multiplier(excess_at, floor, limit, tol)
        is_floor = c.kind == "guarantee"
        if found is None:
            return (math.inf if is_floor else 0.0), None
        x, bracket = found
        if bracket is None:
            return (factor(x) if is_floor else math.inf), None
        quantity = c.target * (1.0 + _KKT_KINDS[c.kind][0] * bracket[2])
        return factor(x), (factor(bracket[0]), quantity)

    def threshold(c: KktConstraint, boosts) -> tuple:
        """c's threshold on its rows' factor, and (factor, quantity) across its step."""
        is_floor = c.kind == "guarantee"
        rs = segments.parts.get((c.window,)) if segments and c not in lifted else None
        step = rs.crossing(c.target, is_floor) if rs else None
        if step is not None:  # a floor's step is its threshold, a cap's lies just above it
            below = math.nextafter(step, -math.inf)
            near, far = (step, below) if is_floor else (below, step)
            return near, (far, rs.at(far)[is_floor]) if 0 < step < math.inf else None
        if is_floor:  # on the factor y, as the budget multiplier 1 / y bids it
            factor = lambda y: budget_factor(1.0 / y) if y else 0.0
            probe = lambda y: MultiplierProfile(1.0 / y if y else math.inf)
            return searched(c, lambda y: excess(c, probe(y)), 0.0, 1.0 / LAMBDA_FLOOR, factor)
        # on x, the window's rows at budget_factor(x): first-price rows of its own
        # segment alone, else replays, those it shares with outer lifted
        if rs is not None:
            excess_at = lambda x: rs.excess(budget_factor(x), c.target) / c.target
        else:
            excess_at = lambda x: excess(c, MultiplierProfile(x, window_mu=boosts))
        return searched(c, excess_at, LAMBDA_FLOOR, c.limit, budget_factor)

    fixed = {c: threshold(c, {}) for c in caps + floors if c not in lifted and c is not outer}

    def solve(boost: float | None) -> tuple:
        """Thresholds and steps, profile and budget curve at outer's boost."""
        boosts = {outer.window: boost} if outer else {}
        steps = fixed | {c: threshold(c, boosts) for c in lifted}
        for cost in costs:
            held = {c: t for c, (t, _) in steps.items()}
            excess_at = lambda x: excess(cost, _kkt_profile(x, C, held, boosts))
            scan = _cost_scan(segments, held, C) if segments and not boosts else None
            if scan is None:
                scan = searched(cost, excess_at, LAMBDA_FLOOR, LAMBDA_LIMIT, budget_factor)
            steps[cost] = scan
        held = {c: t for c, (t, _) in steps.items()}
        curve = _SpendCurve(log, bid_cap, lambda lam: _kkt_profile(lam, C, held, boosts), segments)
        lam, bracket = curve.solve(budget.target)
        steps[budget] = lam, bracket and (bracket[0], budget.target + bracket[2])
        return steps, curve.profile_of(lam), curve

    boost, found = None, None
    if outer:
        shortfall = lambda x: excess(outer, solve(x)[1])
        found = search_multiplier(shortfall, 0.0, outer.limit, tol=tol, width_rel=1e-7)
        boost = found[0] if found else outer.limit
    steps, profile, curve = solve(boost)
    rep = curve.at(profile.lam)
    multipliers = {budget: profile.lam, **{c: profile.mu for c in costs}}
    multipliers |= {c: profile.window_lambda[c.window] for c in caps}
    multipliers |= {c: boost if c is outer else profile.window_mu[c.window] for c in floors}
    if found and found[1]:  # outer's step in mu_k = boost * (1 + mu * C)
        lo, _, r_lo, _ = found[1]
        scale = profile.window_mu[outer.window] / boost
        steps[outer] = boost, (lo * scale, outer.target * (1.0 - r_lo))
    gave_up = [c for c, m in multipliers.items() if m >= c.limit]
    unconstrained = steps[budget][1] is None
    notes = [c.give_up_note(rep) for c in gave_up] + ["budget unconstrained"] * unconstrained
    residuals = {"budget": 0.0}
    for c, m in multipliers.items():
        if c in gave_up or not m > (LAMBDA_FLOOR if c is budget else 0.0):
            continue
        residuals[c.name] = abs(c.excess(rep))
        far = steps.get(c, (0.0, None))[1]
        if tol is None and residuals[c.name] > KKT_REL_TOL and far:
            if c is outer:
                near = profile.window_mu[c.window]
            elif c is budget:
                near = profile.lam
            else:
                near = profile.vector_for((c.window,) if c.window else ()).factor
            notes.append(c.step_note(rep, far, near, "mu" if c is outer else None))
    broken = [c for c in costs + caps + floors if c not in gave_up and c.excess(rep) > (tol or 0)]
    notes += [c.broken_note(rep) for c in broken]
    feasible = not gave_up and not broken
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
