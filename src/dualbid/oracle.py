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
elsewhere search_multiplier finds it.  A realized first-price row has a
win limit too, from the markup at its price: a read of spend shades only
the rows that may win, and the budget multiplier's search reads spend only
inside a bracket narrowed in a handful of reads.  Everything here is the
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
from .mechanisms import LOGNORMAL, UNIFORM, MechanismSpec, MechanismTable, resolve


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
    at any shade, and unshaded too.  A NaN price (distributional) is shaded.
    Replay passes every row; RealizedSpend passes only the first-price rows
    that may win at its factor (see first_price_limits)."""
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
_BRACKET_READS = 16  # reads of a first-price spend that RealizedSpend.bracket makes at most
_SHADE_ROWS = 1 << 16  # rows RealizedSpend.at shades in one call across factors


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


# A first-price row whose adjusted value lies within this of markup(price),
# relative to max(1, markup(price)), is shaded to decide whether it wins: far
# wider than the gate every shaded bid passes (1e-9 max(1, adjusted)).
_BAND_REL = 1e-6


def first_price_limits(values, clearing, table: MechanismTable, bid_cap: float):
    """Each realized first-price row's win limit L and the least factor F at
    which it may win, as arrays over the first-price rows in row order.

    A lognormal or uniform row's bid rises with its adjusted value x (see
    bidding._bisect), so it wins exactly while x = fl(f * value) >= t: its
    reserve r where it is priced at r (it bids r from x = r on), and
    markup(price) above r (its bid reaches the price there), read from one
    table.markup call; L = t / value.  It loses for certain below
    F = (t - band) / value, band = _BAND_REL * max(1, t); between F and
    about L + band / value it is shaded to decide.  An empirical row (or any
    other bid model), or one whose t is not finite, has no limit, L = NaN,
    and F = 0: it is shaded wherever it can win, as replay shades it.  A
    row priced 0 gets 0 for both, one that wins at no factor (priced above
    the bid cap, or worth 0 at a price above 0) +inf."""
    rows, fp = table.first_price_rows
    v = np.asarray(values, dtype=float)[rows]
    c = np.asarray(clearing, dtype=float)[rows]
    p = np.maximum(c, fp.reserve)
    t = np.where(c <= fp.reserve, fp.reserve, fp.markup(p))
    sure = np.isin(fp.family, (LOGNORMAL, UNIFORM)) & np.isfinite(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.where(sure, t / v, np.nan)
        F = np.where(sure, np.maximum(t - _BAND_REL * np.maximum(1.0, t), 0.0) / v, 0.0)
    never = (p > bid_cap) | ((v == 0) & (p > 0))
    return tuple(np.where(never, np.inf, np.where(p > 0, x, 0.0)) for x in (L, F))


class _Monotone:
    """The monotonicity guard of one search: spends read at points x, each
    checked against the nearest reads either side, to 1e-9 * (1 + |spend|).
    Spend must not fall as x rises where rising (x a factor), nor rise
    where not (x a multiplier).  On a violation it raises an OracleError
    naming the record whose cost rises most with the multiplier: costs(x)
    is every record's cost at x, lam(x) the multiplier x stands for."""

    def __init__(
        self, costs: Callable[[float], np.ndarray], lam: Callable[[float], float], rising: bool
    ):
        self.costs, self.lam, self.sign = costs, lam, 1.0 if rising else -1.0
        self._xs: list[float] = []  # points with a known spend, sorted
        self._spends: dict[float, float] = {}

    def check(self, x: float, spend: float) -> None:
        if x in self._spends:
            return
        pos = bisect.bisect_left(self._xs, x)
        slack = 1e-9 * (1.0 + abs(spend))
        if pos > 0 and self.sign * (self._spends[self._xs[pos - 1]] - spend) > slack:
            self._raise(self._xs[pos - 1], x)
        if pos < len(self._xs) and self.sign * (spend - self._spends[self._xs[pos]]) > slack:
            self._raise(x, self._xs[pos])
        self._xs.insert(pos, x)
        self._spends[x] = spend

    def _raise(self, x: float, y: float) -> None:
        lo, hi = (y, x) if self.sign > 0 else (x, y)  # lo at the smaller multiplier
        c_lo, c_hi = self.costs(lo), self.costs(hi)
        worst = int(np.argmax(c_hi - c_lo))
        raise OracleError(
            f"replayed spend increases with the multiplier between {self.lam(lo):g} and "
            f"{self.lam(hi):g}; record {worst} spends {c_lo[worst]:g} -> {c_hi[worst]:g}"
        )


class RealizedSpend:
    """Realized spend and value of a log's rows bidding at one factor f, as
    functions of f, without replaying every row at every f.

    Each row bids as replay and an episode bid under multipliers that give
    it the factor f (MultiplierVector.factor; the budget multiplier lam
    alone gives budget_factor(lam)): fl(f * value), shaded on first-price
    rows, capped at bid_cap.  A second-price row wins exactly while f >= its
    win limit (see win_limits), so the second-price rows, sorted by limit
    with cumulative price and value, give their spend and value at any f by
    one searchsorted.  A first-price row pays a shaded bid that moves with
    f, but it loses for certain below the least factor at which it may win
    (see first_price_limits).  Sorted by that factor, the rows that may win
    at f are a prefix, and only they are shaded (and of those, only the ones
    whose unshaded bid reaches their price, see _replay_bids).  That factor
    is least_factors, per row (NaN on second-price rows).

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
        # every row's win limit, and the least factor at which a first-price
        # row may win (NaN on second-price rows; a read-only view of one NaN
        # where there are only those)
        self._limits = win_limits(self.values, self.clearing, table, bid_cap)
        self.least_factors = np.broadcast_to(np.nan, len(self.values))
        first = np.flatnonzero(table.first_price)
        if first.size:
            self.least_factors = np.full(len(self.values), np.nan)
            self._limits[first], self.least_factors[first] = first_price_limits(
                self.values, self.clearing, table, bid_cap
            )
        # the second-price rows by limit, smallest first; rows of equal limit
        # win and lose together, so their order is free
        second = np.flatnonzero(~table.first_price)
        self._order = second[np.argsort(self._limits[second])]
        # the first-price rows by the least factor at which they may win
        self._first_order = first[np.argsort(self.least_factors[first], kind="stable")]

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
        part = object.__new__(RealizedSpend)
        part.values, part.clearing = self.values[rows], self.clearing[rows]
        part.table, part.bid_cap = self.table.take(rows), self.bid_cap
        part._price, part._limits = self._price[rows], self._limits[rows]
        part.least_factors = self.least_factors[rows]
        for name in ("_order", "_first_order"):
            order = getattr(self, name)
            if order.size:  # one of them is empty where every row shares a kind
                kept = order < stop
                if start:
                    kept &= order >= start
                # compress: a boolean index over a shuffled mask is slower
                order = np.compress(kept, order) - start
            setattr(part, name, order)
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
    def _first(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sorted least factors at which the first-price rows may win,
        each row's place among the first-price rows in row order, and the
        first-price rows' values in row order."""
        rows = np.flatnonzero(self.table.first_price)
        order = self._first_order
        return self.least_factors[order], np.searchsorted(rows, order), self.values[rows]

    def crossing(self, target: float, of_value: bool = False) -> float | None:
        """The win limit L of the first sorted row whose cumulative price
        exceeds target >= 0, so that excess(f, target) <= 0 exactly while
        f < L (+inf when every row fits), or of_value, whose cumulative value
        reaches target, so that the value does exactly while f >= L.  None
        with first-price rows, whose spend moves between limits (see
        bracket), or a cumulative sum within _RESUM_REL of target, where only
        a replay's sum in row order tells on which side of target it lies."""
        if self._first_order.size:
            return None
        # the largest count of rows, in limit order, whose spend fits, or
        # whose value falls short
        sums = self._value if of_value else self._spend
        k = int(sums.searchsorted(target, side="left" if of_value else "right")) - 1
        if (np.abs(sums[max(k, 0) : k + 2] - target) <= _RESUM_REL * target).any():
            return None
        limits = self._sorted_limits
        return float(limits[k]) if 0 <= k < len(limits) else math.inf if k >= 0 else 0.0

    @cached_property
    def _steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row's distinct win limits up to budget_factor(LAMBDA_FLOOR),
        sorted, with the cumulative price of the rows at or below each, and
        whether a first-price row has each."""
        keep = np.flatnonzero(self._limits <= budget_factor(LAMBDA_FLOOR))
        keep = keep[np.argsort(self._limits[keep], kind="stable")]
        limits, price = self._limits[keep], np.cumsum(self._price[keep])
        first = np.cumsum(self.table.first_price[keep])
        last = np.flatnonzero(np.append(limits[1:] > limits[:-1], True))
        return limits[last], price[last], np.diff(first[last], prepend=0) > 0

    def bracket(self, target: float, guard: _Monotone | None = None) -> tuple[float, float] | None:
        """Factors lo < hi such that excess(f, target) is <= 0 at every
        f <= lo and > 0 at every f >= hi, for target >= 0 (hi +inf, or lo 0,
        where no read told).  hi is +inf where spend fits at
        budget_factor(LAMBDA_FLOOR), the largest factor a budget search
        reads.  With second-price rows only, hi is the crossing and lo the
        float below it (None where crossing is).  None with a first-price
        row that has no win limit (see first_price_limits).

        Otherwise lo and hi are factors at which excess was read, so every
        sign is a replay's.  Spend is P(f), the cumulative price of the rows
        whose win limit f has reached (a first-price row bids its price at
        its limit), plus D(f), what first-price winners bid above their
        prices, which rises smoothly with f.  Each read gives D at one
        factor, and the next read is where P plus D, on the line through
        the last two reads in ln f, crosses target: inside a gap of the
        merged sorted limits, kept off the bracket's ends, or just below the
        limit whose step jumps over it.  A handful of reads narrow the
        bracket to 2**-45 relative (a second-price step to adjacent floats);
        after _BRACKET_READS it is returned as it is.  Each read passes guard
        (see excess)."""
        if not self._first_order.size:
            step = self.crossing(target)
            return None if step is None else (math.nextafter(step, -math.inf), step)
        if np.isnan(self._limits).any():  # rows with no limit: read at every step
            return None
        limits, price, first = self._steps
        top = budget_factor(LAMBDA_FLOOR)

        def cumulative(f: float) -> tuple[int, float]:
            """How many limits are <= f, and the price of their rows."""
            i = int(limits.searchsorted(f, side="right"))
            return i, float(price[i - 1]) if i else 0.0

        lo, hi = 0.0, math.inf  # factors read either side
        reads = [(0.0, 0.0)]  # (factor, D), D(0) = 0
        for _ in range(_BRACKET_READS):
            a, b = lo, hi
            i, p_a = cumulative(a)
            j = int(limits.searchsorted(b, side="left"))  # the limits in (a, b): i..j-1
            # D on the line through the last two reads, in ln f (in f from 0),
            # flat through the first
            (x0, d0), (x1, d1) = reads[-2:] if len(reads) > 1 else reads * 2
            g = (lambda x: x) if x0 == 0.0 else np.log
            run = g(x1) - g(x0)
            slope = (d1 - d0) / run if run else 0.0
            line = lambda x: d1 + slope * (g(x) - g(x1))
            # the first limit at which P plus the line passes target
            over = np.flatnonzero(price[i:j] + line(limits[i:j]) > target)
            k = i + int(over[0]) if over.size else j
            edge, left = (float(limits[k]) if k < j else b), (float(limits[k - 1]) if k > i else a)
            p_left = float(price[k - 1]) if k > i else p_a
            if edge == math.inf:  # past every limit: read the last one, then the top
                x = left if left > a else top
            elif p_left + line(edge) > target:  # the line crosses inside the gap
                x = math.nan
                if slope > 0:
                    x = g(x1) + (target - p_left - d1) / slope
                    x = x if x0 == 0.0 else math.exp(min(x, 700.0))
                if not left < x < edge:  # at or below the gap's start, else no usable line
                    x = left if x <= left else math.sqrt(left * edge) if left else 0.5 * edge
                margin = 2.0**-46 * x  # off the ends, so that passing a side closes the bracket
                x = min(max(x, a + margin), b - margin)
            elif edge < b:  # the step at edge jumps over target: is edge over it?
                x = edge
            else:  # the step at b does: read just below it
                on_first = k < len(limits) and limits[k] == b and first[k]
                x = b * (1.0 - 2.0**-45) if on_first else math.nextafter(b, -math.inf)
            x = min(x, top)
            if not a < x < b:
                break
            over = self.excess(x, target, guard)
            if over <= 0 and x == top:
                return top, math.inf
            reads.append((x, over + target - cumulative(x)[1]))
            lo, hi = (x, hi) if over <= 0 else (lo, x)
            if hi - lo <= 2.0**-45 * hi < math.inf:
                break
        return lo, hi

    def at(self, f):
        """Spend and value at factor f, or arrays of them at each factor of
        an array f: the second-price rows summed in limit order, plus the
        first-price rows (see _first_price), summed in row order as a replay
        of every first-price row sums them."""
        fs = np.atleast_1d(np.asarray(f, dtype=float))
        k = self._sorted_limits.searchsorted(fs, side="right")
        spend, value = self._spend[k], self._value[k]
        if self._first_order.size:
            values = self._first[2]
            sums = np.array([(c.sum(), values[w].sum()) for c, w in self._first_price(fs)])
            spend, value = spend + sums[:, 0], value + sums[:, 1]
        if np.ndim(f) == 0:
            return float(spend[0]), float(value[0])
        return spend, value

    def _first_price(self, fs: np.ndarray):
        """Each first-price row's cost and win at each factor of fs in turn,
        as arrays over the first-price rows in row order.  Only the rows
        that may win at a factor are shaded, the rest cost 0 and lose; the
        factors share a shading call while their rows add up to at most
        _SHADE_ROWS (one factor's rows may be more)."""
        starts, place, _ = self._first
        counts = starts.searchsorted(fs, side="right")
        bounds, rows_in = [0], 0
        for j, count in enumerate(counts.tolist()):
            if rows_in and rows_in + count > _SHADE_ROWS:
                bounds.append(j)
                rows_in = 0
            rows_in += count
        bounds.append(len(fs))
        for a, b in zip(bounds, bounds[1:]):
            pick = np.concatenate([np.arange(c) for c in counts[a:b]])
            rows = self._first_order[pick]
            table = self.table.take(rows)
            adjusted = np.repeat(fs[a:b], counts[a:b]) * self.values[rows]
            bids = _replay_bids(table, adjusted, self._price[rows], self.bid_cap)
            won, cost = resolve(table, bids, self.clearing[rows])
            end = 0
            for count in counts[a:b].tolist():
                part, end = slice(end, end + count), end + count
                costs, wins = np.zeros(len(place)), np.zeros(len(place), dtype=bool)
                costs[place[pick[part]]], wins[place[pick[part]]] = cost[part], won[part]
                yield costs, wins

    def _costs(self, f: float) -> np.ndarray:
        """Every row's cost at f, from its bid, as replay resolves it."""
        bids = _replay_bids(self.table, f * self.values, self._price, self.bid_cap)
        return resolve(self.table, bids, self.clearing)[1]

    def replay_spend(self, f: float) -> float:
        """Spend at f from every row's bid, summed in row order, as replay
        sums it."""
        return float(self._costs(f).sum())

    def guard(self) -> _Monotone:
        """A monotonicity guard for one search over the factor: spend must
        not fall as the factor rises."""
        return _Monotone(self._costs, budget_factor, rising=True)

    def excess(self, f: float, target: float, guard: _Monotone | None = None) -> float:
        """spend(f) - target.  The two sums round differently, so where the
        sorted one lands within _RESUM_REL of target the replayed spend is
        used: the sign, which is all a realized search reads, is always the
        replay's.  The spend passes guard, where one is given."""
        spend = self.at(f)[0]
        if abs(spend - target) <= _RESUM_REL * target:
            spend = self.replay_spend(f)
        if guard is not None:
            guard.check(f, spend)
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

    def curve(self, profile: MultiplierProfile, lams) -> tuple[list[float], list[float]]:
        """Spend and value at profile.with_lam(lam) for each lam, as at reads
        them, with one RealizedSpend.at call per segment.  With the budget
        multiplier alone a row's factor is budget_factor(lam), read with no
        profile built."""
        lams = np.asarray(lams, dtype=float)
        spend = value = 0.0
        for key, rs in self.parts.items():
            if profile.mu or profile.window_lambda or profile.window_mu:
                fs = [profile.with_lam(lam).vector_for(key).factor for lam in lams.tolist()]
            else:
                fs = budget_factor(lams)
            s, v = rs.at(np.asarray(fs, dtype=float))
            spend, value = spend + s, value + v
        return spend.tolist(), value.tolist()


LAMBDA_REL_TOL = 1e-6  # lambda* matches spend to the budget to this on smooth logs


class _SpendCurve:
    """Spend at the budget multiplier lam and profile_of(lam), read from
    segments (a SegmentSpend) or memoized replays, with a monotonicity guard
    that names the offending record on violation."""

    def __init__(self, log, bid_cap: float, profile_of, segments: SegmentSpend | None = None):
        self.log, self.bid_cap, self.profile_of, self.segments = log, bid_cap, profile_of, segments
        self._replays: dict[float, ReplayResult] = {}
        costs = lambda lam: _spend_value(log, profile_of(lam), bid_cap)[0]
        self._guard = _Monotone(costs, lambda lam: lam, rising=False).check

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


def budget_search(
    spend: RealizedSpend, target: float, guarded: bool = True
) -> tuple[float, tuple[float, float, float, float] | None] | None:
    """search_multiplier for the least budget multiplier lam at which spend
    at budget_factor(lam) fits target, every sign a replay's.

    spend.bracket(target) gives the sign of every lam whose factor lies
    outside the bracket, turned once into bounds on lam (budget_lambda), so
    only the steps inside it read spend (on second-price rows, none; with
    no bracket, every step).  The search takes the same steps as one
    reading spend at every step, so it returns the same lam and bracket
    ends, though the bracket's excesses are only signs where spend was not
    read.  Where guarded, every spend read, the bracket's and the steps',
    passes one monotonicity guard (RealizedSpend.guard)."""
    guard = spend.guard() if guarded else None
    lo, hi = spend.bracket(target, guard) or (0.0, math.inf)  # no bracket: read every step
    above = math.nextafter(lo, math.inf)
    fits = budget_lambda(above)
    over = fits if hi == above else budget_lambda(hi)  # a second-price step: one float wide

    def excess(lam: float) -> float:
        if lam >= fits:
            return -1.0
        return 1.0 if lam < over else spend.excess(budget_factor(lam), target, guard)

    return search_multiplier(excess, LAMBDA_FLOOR, LAMBDA_LIMIT)


def solve_lambda_star(
    log: OpportunityLog, budget: float, bid_cap: float = DEFAULT_BID_CAP
) -> LambdaSolution:
    """Budget-only hindsight multiplier.

    If replayed spend at the floor multiplier fits the budget, the floor is
    returned flagged unconstrained.  On a distributional log (a smooth
    curve), Illinois regula falsi on ln(spend / budget) matches spend to
    budget within LAMBDA_REL_TOL in about 8 replays.  On a realized or mixed
    log (a step function) bisection returns the high, never overspending
    side of the step.  A realized log's bisection is budget_search on its
    RealizedSpend: a second-price log's signs all come from its sorted
    limits, and a first-price log reads spend about a dozen times (shading
    only the rows that may win), where reading it at every step took about
    45, for the same lam.  Every spend read passes a monotonicity guard,
    which raises an OracleError naming the record where spend rises with
    the multiplier.  Spend and value are replayed at the result, and
    bracket is the final bracket of the search.
    """
    if not budget > 0:
        raise OracleError(f"budget must be > 0, got {budget}")
    if log.mode == "realized":
        found = budget_search(log.realized_spend(bid_cap), budget)
        if found is None:
            raise OracleError("could not bracket the budget multiplier")
        lam, bracket = found
        r = replay(log, MultiplierProfile(lam), bid_cap)
    else:
        curve = _SpendCurve(log, bid_cap, MultiplierProfile)
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
        if rs._first_order.size:
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
