"""Hindsight-optimal multipliers from a complete opportunity log.

Given every opportunity's value and auction model (distributional mode) or
resolved competing bid (realized mode), replay answers "what would we have
spent and won at multipliers m".  Multipliers move a bid only through the
factor of its row (MultiplierVector.factor), one per combination of
windows, so each constraint is a threshold on a factor: a
delivery window caps its rows' factor, a guarantee window floors it, the
cost target caps the global one, and the budget multiplier is searched last,
as for lambda*.  A realized second-price row wins exactly while its factor
reaches its win limit, so there a threshold is one scan of sorted limits;
elsewhere search_multiplier finds it.  A realized first-price row has a
win limit too, from the markup at its price: a read of spend shades only
the rows that may win, and the budget multiplier's search reads spend only
inside a bracket narrowed in a handful of reads.  Every search of a
realized KKT solve reads the log clamped to its thresholds
(RealizedSpend.clamped).  Everything here is the ground truth the online
controllers are judged against.
"""

from __future__ import annotations

import bisect
import copy
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .bidding import DEFAULT_BID_CAP, LAMBDA_FLOOR, MultiplierVector, optimal_bids
from .mechanisms import LOGNORMAL, UNIFORM, MechanismSpec, MechanismTable, resolve

# the oracle shades through optimal_bids; shade_bids stays bound here because
# bench/spans.py traces it in every namespace that binds it
from .bidding import shade_bids  # noqa: F401


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
    """Ordered opportunity records, held as columns for replay: times,
    values, clearing bids (NaN in distributional records), the mechanism of
    each record (a code into mechanisms) and their table, and codes for the
    placement and the window combination of each record.  Placements and
    window combinations are numbered in order of first appearance, and only
    those that appear are kept.  A log is built from hand-made records or
    straight from columns (from_columns); either way its records are built
    from the columns when first read."""

    def __init__(self, records: list[LogRecord]):
        times = [r.time for r in records]
        if any(b < a for a, b in zip(times, times[1:])):
            raise OracleError("record times must be nondecreasing")
        mechanisms: dict[MechanismSpec, int] = {}
        placements: dict[str, int] = {}
        combos: dict[tuple[str, ...], int] = {}
        self._set_columns(
            time=times,
            values=[r.value for r in records],
            clearing=[np.nan if r.clearing_bid is None else r.clearing_bid for r in records],
            mechanism_codes=[mechanisms.setdefault(r.mechanism, len(mechanisms)) for r in records],
            mechanisms=mechanisms,
            placement_codes=[placements.setdefault(r.placement, len(placements)) for r in records],
            placement_names=list(placements),
            combo_codes=[combos.setdefault(r.windows, len(combos)) for r in records],
            window_combos=list(combos),
        )

    @classmethod
    def from_columns(cls, **columns) -> OpportunityLog:
        """A log over columns built in time order, such as a simulated
        stream's (and its mechanism table), by the names _set_columns takes."""
        log = object.__new__(cls)
        log._set_columns(**columns)
        return log

    def _set_columns(
        self, time, values, clearing, mechanisms, mechanism_codes, placement_names,
        placement_codes, window_combos, combo_codes, table=None,
    ):  # fmt: skip
        if len(values) == 0:
            raise OracleError("opportunity log must not be empty")
        self.time = np.asarray(time, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.clearing = np.asarray(clearing, dtype=float)
        self.realized = ~np.isnan(self.clearing)
        self.mechanisms = tuple(mechanisms)
        self.mechanism_codes = np.asarray(mechanism_codes, dtype=np.intp)
        if table is None:
            table = MechanismTable.from_specs(self.mechanisms).take(self.mechanism_codes)
        self.table = table
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

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def records(self) -> list[LogRecord]:
        clearing = [None if np.isnan(c) else c for c in self.clearing.tolist()]
        rows = zip(self.time.tolist(), self.placement_codes.tolist(), self.values.tolist(),
                   self.mechanism_codes.tolist(), clearing, self.combo_codes.tolist())  # fmt: skip
        return [
            LogRecord(t, self.placement_names[p], v, self.mechanisms[m], c, self.window_combos[k])
            for t, p, v, m, c, k in rows
        ]

    @cached_property
    def price(self) -> np.ndarray:
        """The least bid that wins each realized record's auction (ties
        win): max(clearing, reserve); NaN in distributional records."""
        return np.maximum(self.clearing, self.table.reserve)

    def distributional(self) -> OpportunityLog:
        """The same records with every clearing bid NaN, their auctions kept
        as smooth G/H models; every other column is shared, not copied, and
        no cache (price, records, realized spends) is carried over."""
        twin = copy.copy(self)
        for cache in ("price", "records", "_realized_spends"):
            twin.__dict__.pop(cache, None)
        twin.clearing = np.full(len(self), np.nan)
        twin.realized = np.zeros(len(self), dtype=bool)
        return twin

    @cached_property
    def _realized_spends(self) -> dict[float, RealizedSpend]:
        return {}

    def realized_spend(self, bid_cap: float) -> RealizedSpend:
        """The log's rows as a RealizedSpend at bid_cap, built once per bid
        cap, so that the lambda* search and the oracle curve share one sort."""
        built = self._realized_spends
        if bid_cap not in built:
            built[bid_cap] = RealizedSpend(self.values, self.clearing, self.table, bid_cap)
        return built[bid_cap]

    @property
    def mode(self) -> str:
        realized = int(np.count_nonzero(self.realized))
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


def _row_bids(log: OpportunityLog, profile: MultiplierProfile, bid_cap: float) -> np.ndarray:
    """Every record's bid at the given multipliers, from optimal_bids at its
    price: a first-price record that loses at any shade is not shaded.  Each
    read of a whole log, a replay or its spend alone, calls it once."""
    factors = np.array([profile.vector_for(c).factor for c in log.window_combos])
    return optimal_bids(log.table, factors[log.combo_codes] * log.values, bid_cap, log.price)


def _spend_value(
    log: OpportunityLog, profile: MultiplierProfile, bid_cap: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-record spend and value at the given multipliers."""
    bids = _row_bids(log, profile, bid_cap)
    model = ~log.realized
    if model.all():
        spend, win = log.table.cost_and_win(bids)
        return spend, log.values * win
    won, spend = resolve(log.table, bids, log.clearing)
    value = np.where(won, log.values, 0.0)
    if model.any():
        cost, win = log.table.cost_and_win(bids)
        spend[model] = cost[model]
        value[model] = (log.values * win)[model]
    return spend, value


def replay(
    log: OpportunityLog, profile: MultiplierProfile, bid_cap: float = DEFAULT_BID_CAP
) -> ReplayResult:
    """Total and per-placement/per-window spend and value at the given
    multipliers; exact in distributional mode, deterministic in realized.
    A realized first-price row that loses at any shade is not shaded (see
    _row_bids): it keeps cost 0 and value 0, as shading it would give."""
    spend, value = _spend_value(log, profile, bid_cap)
    n = len(log.placement_names)
    p_spend = np.bincount(log.placement_codes, weights=spend, minlength=n)
    p_value = np.bincount(log.placement_codes, weights=value, minlength=n)
    placements = zip(log.placement_names, p_spend.tolist(), p_value.tolist())
    return ReplayResult(
        float(spend.sum()),
        float(value.sum()),
        {name: (s, v) for name, s, v in placements},
        {w: (float(spend[m].sum()), float(value[m].sum())) for w, m in log.window_masks.items()},
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
    is below f (+inf where none is, as for f <= 0), so that a spend that
    fits exactly while the factor is below f fits exactly from lam on."""
    if not f > 0:
        return math.inf
    # every float below fl(1 / f) lies below 1 / f, so its factor is >= f:
    # the least multiplier is at or above the start
    lam = max(1.0 / f, LAMBDA_FLOOR)
    while not budget_factor(lam) < f:
        lam = math.nextafter(lam, math.inf)
    return lam


# A first-price row whose adjusted value lies within this of markup(price),
# relative to max(1, markup(price)), is shaded to decide whether it wins: far
# wider than the gate every shaded bid passes (1e-9 max(1, adjusted)).
_BAND_REL = 1e-6


def win_limits(values, clearing, table: MechanismTable, bid_cap: float):
    """Each realized row's win limit L and, on first-price rows, the least
    factor F at which it may win (NaN on second-price rows), as arrays over
    the rows.  A row priced 0 gets 0 for both, one that wins at no factor
    (priced above the bid cap, or worth 0 at a price above 0) +inf.

    A second-price row wins exactly while f >= L: L is the least factor at
    which its bid min(fl(f * value), bid_cap) is >= its price
    max(clearing, reserve).

    A lognormal or uniform first-price row's bid rises with its adjusted
    value x (the reserve clamps its markup root, see bidding.shade_bids), so
    it wins exactly while x = fl(f * value) >= t: its reserve r where it is
    priced at r (it bids r from x = r on), and markup(price) above r (its
    bid reaches the price there), read only on those rows; L = t / value.
    It loses for certain below F = (t - band) / value, band = _BAND_REL *
    max(1, t); between F and about L + band / value it is shaded to decide.
    An empirical row, or one whose t is not finite, has no limit, L = NaN,
    and F = 0: it is shaded wherever it can win, as replay shades it."""
    v = np.asarray(values, dtype=float)
    c = np.asarray(clearing, dtype=float)
    price = np.maximum(c, table.reserve)
    # the shared cases: priced 0 gets 0; above the bid cap, or worth 0 at a
    # price above 0 (p / 0), +inf; any other row p / v, until set below
    with np.errstate(divide="ignore", invalid="ignore"):
        limits = np.where(price > bid_cap, np.inf, np.where(price > 0, price / v, 0.0))
    least = np.where(table.first_price, limits, np.nan)
    rows = np.flatnonzero(~table.first_price & (limits > 0) & (limits < np.inf))
    # the cap allows these prices, so fl(f * v) >= p, rising with f, decides;
    # from p / v, a row that wins steps down while the float below still
    # wins, and one that loses steps up until it wins
    won = limits[rows] * v[rows] >= price[rows]
    down, up = rows[won], rows[~won]
    for _ in range(_LIMIT_STEPS):
        below = np.nextafter(limits[down], -np.inf)
        more = below * v[down] >= price[down]
        down = down[more]
        limits[down] = below[more]
        limits[up] = np.nextafter(limits[up], np.inf)
        up = up[~(limits[up] * v[up] >= price[up])]
        if not (down.size or up.size):
            break
    else:
        raise OracleError("win limits did not settle")
    first = np.flatnonzero(table.first_price)
    if not first.size:
        return limits, least
    # the first-price rows priced above 0 that can win
    first = first[(price[first] > 0) & (price[first] <= bid_cap) & (v[first] != 0)]
    limits[first], least[first] = np.nan, 0.0
    family = table.family[first]
    sure = first[(family == LOGNORMAL) | (family == UNIFORM)]
    t = table.reserve[sure]
    above = np.flatnonzero(c[sure] > t)
    if above.size:
        t[above] = table.take(sure[above]).markup(price[sure[above]])
    sure, t = sure[np.isfinite(t)], t[np.isfinite(t)]
    limits[sure] = t / v[sure]
    least[sure] = np.maximum(t - _BAND_REL * np.maximum(1.0, t), 0.0) / v[sure]
    return limits, least


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
    (see win_limits).  Sorted by that factor, the rows that may win
    at f are a prefix, and only they are shaded (and of those, only the ones
    whose unshaded bid reaches their price: bidding.optimal_bids is given
    their prices).  That factor is least_factors, per row (NaN on
    second-price rows).

    At any f, at(f) wins exactly the rows a replay wins and pays each the
    same.  Only the sums differ: cumulative in limit order, not row order,
    so they agree with replay's to n * eps relative.  A log builds its own
    once per bid cap (OpportunityLog.realized_spend).

    rows(key) is a subset of the rows, and clamped(lo, hi, scale) the rows
    bidding at factors held between per-row bounds, as a delivery cap, a
    guarantee floor and a cost target hold them, and scaled after the cap,
    as a guarantee window's boost on delivery records scales them, each a
    RealizedSpend of its own that shares these rows' limits (see
    solve_kkt_grid).
    """

    _bounds = None  # per-row factor bounds and scale (lo, hi, scale), see clamped

    def __init__(self, values, clearing, table: MechanismTable, bid_cap: float):
        self.values = np.asarray(values, dtype=float)
        self.clearing = np.asarray(clearing, dtype=float)
        self.table = table
        self.bid_cap = bid_cap
        self._price = np.maximum(self.clearing, table.reserve)
        self._limits, self.least_factors = win_limits(self.values, self.clearing, table, bid_cap)
        self._sort()

    def _sort(self) -> None:
        # the second-price rows by limit, smallest first; rows of equal limit
        # win and lose together, so their order is free
        second = np.flatnonzero(~self.table.first_price)
        self._order = second[np.argsort(self._limits[second])]
        # the first-price rows by the least factor at which they may win
        first = np.flatnonzero(self.table.first_price)
        self._first_order = first[np.argsort(self.least_factors[first], kind="stable")]

    def __len__(self) -> int:
        return len(self.values)

    def rows(self, key) -> RealizedSpend:
        """The rows of key, a slice with step 1 (a negative start counts from
        the end) or a boolean mask, as a RealizedSpend that keeps their
        limits, bounds and order, re-based: a history read in growing
        prefixes (an FTL episode) or a log read by window is sorted once."""
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                raise ValueError(f"RealizedSpend slices are contiguous, got step {step}")
            index = slice(start, stop)

            def renumber(order):
                kept = order < stop
                if start:
                    kept &= order >= start
                # compress: a boolean index over a shuffled mask is slower
                return np.compress(kept, order) - start

        else:
            index = np.asarray(key)
            if index.dtype != bool or index.shape != (len(self),):
                raise TypeError("RealizedSpend rows are a slice or a boolean mask over its rows")
            place = np.cumsum(index) - 1
            renumber = lambda order: place[np.compress(index[order], order)]
        part = object.__new__(RealizedSpend)
        part.values, part.clearing = self.values[index], self.clearing[index]
        part.table, part.bid_cap = self.table.take(index), self.bid_cap
        part._price, part._limits = self._price[index], self._limits[index]
        part.least_factors = self.least_factors[index]
        if self._bounds is not None:
            part._bounds = tuple(b[index] for b in self._bounds)
        for name in ("_order", "_first_order"):
            order = getattr(self, name)  # one of them is empty where every row shares a kind
            setattr(part, name, renumber(order) if order.size else order)
        return part

    def clamped(self, lo, hi, scale=1.0) -> RealizedSpend:
        """The rows bidding at factor max(lo, scale * min(f, hi)) at f (lo, hi
        and scale per row, or one for all), self where none binds or scales.
        A win limit L becomes 0 where L <= lo, +inf where L / scale > hi, and
        L / scale otherwise; a first-price row's least factor is mapped
        alike, and the row is shaded at its clamped factor.  A clamped
        RealizedSpend is not clamped again."""
        if self._bounds is not None:
            raise ValueError("a clamped RealizedSpend is not clamped again")
        lo, hi, scale = (
            np.broadcast_to(np.asarray(b, dtype=float), len(self)) for b in (lo, hi, scale)
        )
        if not ((lo > 0).any() or (hi < math.inf).any() or (scale != 1.0).any()):
            return self
        part = self.rows(slice(None))
        part._bounds = lo, hi, scale
        # NaN (a first-price row with no limit, or a second-price row's least
        # factor) stays NaN, and +inf (a row that wins at no factor) +inf
        part._limits, part.least_factors = (
            np.where((x <= lo) & (x < math.inf), 0.0, np.where(x / scale > hi, math.inf, x / scale))
            for x in (self._limits, self.least_factors)
        )
        part._sort()
        return part

    def _factors(self, f, rows=slice(None)):
        """f, or the rows' factors at f where clamped."""
        if self._bounds is None:
            return f
        lo, hi, scale = self._bounds
        return np.maximum(lo[rows], scale[rows] * np.minimum(f, hi[rows]))

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

    def cost_crossing(self, target: float) -> float | None:
        """As crossing, the win limit L past the last count of rows, in limit
        order, whose spend per value is at most target: rows won at every
        factor may cost more per result than target, so the counts that fit
        can be a band, and a factor below L need not fit.  None also where a
        count from that one on lies within _RESUM_REL of target."""
        if self._first_order.size:
            return None
        limits = self._sorted_limits
        limits = limits[: int(limits.searchsorted(math.inf))]
        # the counts of rows a factor wins, those with limits below it
        counts = np.flatnonzero(np.append(limits > np.append(0.0, limits[:-1]), True))
        excess = self._spend[counts] / np.maximum(self._value[counts], 1e-300) / target - 1.0
        fits = np.flatnonzero(excess <= 0)
        last = int(fits[-1]) if fits.size else -1
        if (np.abs(excess[max(last, 0) :]) <= _RESUM_REL).any():
            return None
        if last in (-1, len(counts) - 1):
            return 0.0 if last < 0 else math.inf
        return float(limits[counts[last]])

    @cached_property
    def _steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row's distinct win limits up to budget_factor(LAMBDA_FLOOR),
        sorted, with the cumulative price of the rows at or below each, and
        whether a first-price row has each."""
        keep = np.flatnonzero(self._limits <= budget_factor(LAMBDA_FLOOR))
        keep = keep[np.argsort(self._limits[keep], kind="stable")]
        limits, price = self._limits[keep], np.cumsum(self._price[keep])
        first = np.cumsum(self.table.first_price[keep])
        last = np.flatnonzero(np.append(limits[1:] > limits[:-1], limits.size > 0))
        return limits[last], price[last], np.diff(first[last], prepend=0) > 0

    def bracket(self, target: float, guard: _Monotone | None = None) -> tuple[float, float] | None:
        """Factors lo < hi such that excess(f, target) is <= 0 at every
        f <= lo and > 0 at every f >= hi, for target >= 0 (hi +inf, or lo 0,
        where no read told).  hi is +inf where spend fits at
        budget_factor(LAMBDA_FLOOR), the largest factor a budget search
        reads.  With second-price rows only, hi is the crossing and lo the
        float below it (None where crossing is).

        With first-price rows, lo and hi are factors at which excess was
        read, so every sign is a replay's.  Spend is P(f), the cumulative
        price of the rows whose win limit f has reached (a first-price row
        bids its price at its limit), plus D(f), the rest: what first-price
        winners bid above their prices, and the whole spend of the rows with
        no limit (see win_limits), 0 at f = 0 and rising with f.  Each read
        gives D at one factor, and the next read is where P plus D, on the
        line through the last two reads in ln f, crosses target: inside a
        gap of the merged sorted limits, kept off the bracket's ends, or
        just below the limit whose step jumps over it.  A handful of reads
        narrow the bracket to 2**-45 relative (a second-price step to
        adjacent floats); after _BRACKET_READS it is returned as it is, as
        where target falls on a jump of D (a row with no limit starting to
        win), which no line finds.  Each read passes guard (see excess)."""
        if not self._first_order.size:
            step = self.crossing(target)
            return None if step is None else (math.nextafter(step, -math.inf), step)
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
            adjusted = self._factors(np.repeat(fs[a:b], counts[a:b]), rows) * self.values[rows]
            bids = optimal_bids(table, adjusted, self.bid_cap, self._price[rows])
            won, cost = resolve(table, bids, self.clearing[rows])
            end = 0
            for count in counts[a:b].tolist():
                part, end = slice(end, end + count), end + count
                costs, wins = np.zeros(len(place)), np.zeros(len(place), dtype=bool)
                costs[place[pick[part]]], wins[place[pick[part]]] = cost[part], won[part]
                yield costs, wins

    def _costs(self, f: float) -> np.ndarray:
        """Every row's cost at f, from its bid, as replay resolves it."""
        bids = optimal_bids(self.table, self._factors(f) * self.values, self.bid_cap, self._price)
        return resolve(self.table, bids, self.clearing)[1]

    def replay_spend(self, f: float) -> float:
        """Spend at f from every row's bid, summed in row order, as replay
        sums it."""
        return float(self._costs(f).sum())

    def guard(self) -> _Monotone:
        """A monotonicity guard for one search over the factor: spend must
        not fall as the factor rises."""
        return _Monotone(self._costs, budget_factor, rising=True)

    def excess(self, f: float, target: float, guard: _Monotone | None = None, resum=None) -> float:
        """spend(f) - target.  The two sums round differently, so where the
        sorted one lands within _RESUM_REL of target the replayed spend is
        used, resum() where given, else replay_spend(f): the sign, which is
        all a realized search reads, is always the replay's.  The spend
        passes guard, where one is given."""
        spend = self.at(f)[0]
        if abs(spend - target) <= _RESUM_REL * target:
            spend = resum() if resum else self.replay_spend(f)
        if guard is not None:
            guard.check(f, spend)
        return spend - target


LAMBDA_REL_TOL = 1e-6  # lambda* matches spend to the budget to this on smooth logs
# search_multiplier's first step from a start, as a factor: on the benchmark
# panels the realized lambda* lies within two such steps of the
# distributional one, so the bracket is one step wide, narrow enough for two
# Illinois steps to reach LAMBDA_REL_TOL
START_STEP = 1.045


def _doubling(factor: float):
    """factor, factor, factor**2, factor**4, ...: the factors of steps each
    ending twice as far, in ln x, from where the first began."""
    yield factor
    while True:
        yield factor
        factor *= factor


class _SpendCurve:
    """Spend at the budget multiplier lam and profile_of(lam): on a
    distributional log from the bids' expected cost alone (spend), on any
    other from memoized replays (at, which also serves callers that need
    value or sums).  Every read passes one monotonicity guard, which names
    the offending record on violation."""

    def __init__(self, log, bid_cap: float, profile_of):
        self.log, self.bid_cap, self.profile_of = log, bid_cap, profile_of
        self.smooth = log.mode == "distributional"
        self._replays: dict[float, ReplayResult] = {}
        costs = lambda lam: _spend_value(log, profile_of(lam), bid_cap)[0]
        self._guard = _Monotone(costs, lambda lam: lam, rising=False).check

    def spend(self, lam: float) -> float:
        """at(lam).spend on a distributional log, bit for bit, from the
        expected cost of the bids alone (MechanismTable.expected_cost)."""
        bids = _row_bids(self.log, self.profile_of(lam), self.bid_cap)
        spend = float(self.log.table.expected_cost(bids).sum())
        self._guard(lam, spend)
        return spend

    def solve(
        self, budget: float, start: float | None = None
    ) -> tuple[float, tuple[float, float, float, float] | None]:
        """The budget multiplier on this curve, and its search bracket, the
        search started at start where given (see search_multiplier).

        A step function (a realized or mixed log) is bisected on replayed
        spend minus budget.  A smooth (distributional) curve is searched on
        ln(spend / budget), to log1p(LAMBDA_REL_TOL): the band |spend -
        budget| <= LAMBDA_REL_TOL * budget, read on a scale where spend is
        close to linear in ln(lam).  Zero spend reads as -inf, a step the
        search takes at the midpoint.  Each of its reads is of spend alone
        (see spend)."""

        def excess(lam: float) -> float:
            if self.smooth:
                spend = self.spend(lam)
                return math.log(spend / budget) if spend > 0 else -math.inf
            return self.at(lam).spend - budget

        tol = math.log1p(LAMBDA_REL_TOL) if self.smooth else None
        found = search_multiplier(excess, LAMBDA_FLOOR, LAMBDA_LIMIT, tol, start=start)
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
    start: float | None = None,
) -> tuple[float, tuple[float, float, float, float] | None] | None:
    """Smallest multiplier x >= floor at which the non-increasing excess(x)
    (spend - budget, window spend - cap, shortfall, ...) is <= 0.

    With no start, the excess is read first at min(1, limit).  Where it
    fits there, the floor is read: (floor, None) is returned where the
    floor fits too, and otherwise the bracket is (floor, min(1, limit)).
    Where it does not fit, neither does the floor, which is not read: the
    search steps up from 1 by factors of 4 to a bracket.  Against reading
    the floor first, this reads once fewer wherever the answer lies above
    1, and once more where the floor fits, for the same point and bracket.

    A start, a guess at the answer, is read first instead, and the search
    steps away from it, down where it fits and up where it does not, each
    step ending twice as far from the start as the last (factors
    START_STEP, START_STEP, START_STEP**2, START_STEP**4, ...), until the
    excess changes sign; it stops at the floor ((floor, None) where the
    floor fits) or at limit.

    With a bracket (lo, hi), excess(lo) > 0 >= excess(hi), the search
    narrows it until |excess| <= tol, returning that point, or until its
    width is <= width_rel * max(1, hi), returning hi, the side that fits,
    with the final bracket (lo, hi, excess(lo), excess(hi)).  None when the
    excess is still positive at limit.

    tol marks a smooth curve: each point is then the Illinois regula falsi
    step (Dowell & Jarratt 1971) in ln x, the secant through the bracket's
    ends with the excess of an end that stays put twice in a row halved, or
    the midpoint when lo is 0, an excess is not finite, or the secant falls
    outside (lo, hi).  A step function (tol None) is bisected.
    """
    x = min(1.0, limit) if start is None else min(max(start, floor), limit)
    r = excess(x)
    down = r <= 0  # x fits: the answer lies at or below it
    if start is not None:
        factors = _doubling(START_STEP)
    else:
        factors = itertools.repeat(math.inf if down else 4.0)  # down: straight to the floor
    for factor in factors:
        near, r_near = x, r
        x = max(floor, x / factor) if down else min(limit, x * factor)
        if x == near:
            return (floor, None) if down else None
        r = excess(x)
        if (r <= 0) != down:
            break
    lo, hi, r_lo, r_hi = (x, near, r, r_near) if down else (near, x, r_near, r)
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
    spend: RealizedSpend,
    target: float,
    guarded: bool = True,
    limit: float = LAMBDA_LIMIT,
    resum=None,
) -> tuple[float, tuple[float, float, float, float] | None] | None:
    """search_multiplier, to limit, for the least budget multiplier lam at
    which spend at budget_factor(lam) fits target, every sign a replay's.

    spend.bracket(target) gives the sign of every lam whose factor lies
    outside the bracket, turned once into bounds on lam (budget_lambda), so
    only the steps inside it read spend (on second-price rows, none; where
    crossing is None, every step).  The search takes the same steps as one
    reading spend at every step, so it returns the same lam and bracket
    ends, though the bracket's excesses are only signs where spend was not
    read.  A step's spend within _RESUM_REL of target is resum(lam) where
    given (a replay at the multipliers lam stands for), else
    spend.replay_spend.  Where guarded, every spend read, the bracket's and
    the steps', passes one monotonicity guard (RealizedSpend.guard)."""
    guard = spend.guard() if guarded else None
    lo, hi = spend.bracket(target, guard) or (0.0, math.inf)  # no crossing: read every step
    above = math.nextafter(lo, math.inf)
    fits = budget_lambda(above)
    over = fits if hi == above else budget_lambda(hi)  # a second-price step: one float wide

    def excess(lam: float) -> float:
        if lam >= fits:
            return -1.0
        if lam < over:
            return 1.0
        return spend.excess(budget_factor(lam), target, guard, resum and (lambda: resum(lam)))

    return search_multiplier(excess, LAMBDA_FLOOR, limit)


def solve_lambda_star(
    log: OpportunityLog, budget: float, bid_cap: float = DEFAULT_BID_CAP
) -> LambdaSolution:
    """Budget-only hindsight multiplier.

    If replayed spend at the floor multiplier fits the budget, the floor is
    returned flagged unconstrained.  On a distributional log (a smooth
    curve), Illinois regula falsi on ln(spend / budget) matches spend to
    budget within LAMBDA_REL_TOL in about 7 reads of spend alone from 1
    (see _SpendCurve.spend); marginal_roi searches the same curve from a
    start near the answer in about 4.  On a realized or mixed log (a step function)
    bisection returns the high, never overspending side of the step.  A
    realized log's bisection is budget_search on its RealizedSpend: a
    second-price log's signs all come from its sorted limits, and a
    first-price log reads spend a handful of times (shading only the rows
    that may win), where reading it at every step takes about 45, for the
    same lam.  Rows with no win limit (empirical) read about as often as
    every step where the budget falls on a jump of their spend, which only
    bisection finds (see RealizedSpend.bracket).  Every spend read passes a monotonicity guard,
    which raises an OracleError naming the record where spend rises with
    the multiplier.  Spend and value are replayed at the result, and
    bracket is the final bracket of the search.
    """
    if not 0 < budget < math.inf:
        raise OracleError(f"budget must be finite and > 0, got {budget}")
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
        """The quantity at the multiplier's limit, the nearest it comes,
        where it misses the target; else the multiplier held and the level."""
        sign, _, what, target = _KKT_KINDS[self.kind]
        name = self.kind if self.window is None else f"{self.kind} {self.window!r}"
        if self.excess(rep) <= 0:
            multiplier = "mu" if self.kind in ("cost_target", "guarantee") else "lam"
            multiplier += "" if self.window is None else f"_{self.window}"
            return (
                f"{name}: {multiplier} held at its limit {self.limit:g}, "
                f"{what} {self.level(rep):g} against its {target} {self.target:g}"
            )
        best, side = ("max", "<") if sign < 0 else ("min", ">")
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
    combos = log.window_combos if log else ()

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
    _kkt_profile maps the thresholds to.

    On a realized log every search reads one clamped RealizedSpend, each
    row bidding max(floor, s * min(f, cap)) at f, and every sign it reads
    is a replay's (a sum within _RESUM_REL of its target is replayed at
    the profile; _kkt_profile holds a factor to a float at or a few from
    its threshold).  A window's threshold is read on its rows: a scan of
    sorted win limits (crossing), else a bracketed budget_search for a
    cap, a search on the factor for a floor.  The cost target's cap is a
    scan of the log clamped to the windows' thresholds (cost_crossing),
    else a search on it, and lam is budget_search on the log clamped to
    every threshold.  Where the profile at the lam found, or at its
    bracket's far end, holds a multiplier at its limit, the clamp is not
    the profile there, and lam is searched on replays at the profile.
    Other logs are searched by Illinois steps on replays.  A guarantee
    window on records of delivery windows scales its rows by s = 1 + its
    boost, after their caps: the boost (its multiplier relative to 1 + mu *
    C) is one outer search, each step reading the window's rows of that
    step's clamp.  A multiplier at its limit, or a constraint the replay
    breaks (a budget held below the cost target's band by a guarantee
    floor, say), gets a note (and no residual) and makes the solution
    infeasible; a realized residual above KKT_REL_TOL, a note on its step.
    """
    shared = check_kkt_constraints(constraints, log)
    C = constraints.cost_target
    budget = KktConstraint("budget", None, constraints.budget, LAMBDA_LIMIT)
    costs = [KktConstraint("cost_target", None, C, 1e6 / C)] if C is not None else []
    caps = [KktConstraint("delivery", w.id, w.cap, 1e8) for w in constraints.delivery_windows]
    floors = [KktConstraint("guarantee", w.id, w.floor, 1e4) for w in constraints.guarantee_windows]
    outer = next((c for c in floors if c.window == shared), None)
    combos = log.window_combos
    lifted = [c for c in caps if outer and any({c.window, outer.window} <= set(k) for k in combos)]
    tol = KKT_REL_TOL if log.mode == "distributional" else None
    rs = log.realized_spend(bid_cap) if log.mode == "realized" else None
    mask = lambda window: log.window_masks.get(window, np.zeros(len(log), dtype=bool))

    def result(c: KktConstraint, spend: float, value: float) -> ReplayResult:
        return ReplayResult(spend, value, {}, {c.window: (spend, value)})

    def excess(c: KktConstraint, profile: MultiplierProfile, spend=None, f=None) -> float:
        """c's excess at profile, its sign always a replay's: read from the
        RealizedSpend spend at factor f where given, else (or where that
        lands within _RESUM_REL of the target) from a replay."""
        if spend is not None:
            e = c.excess(result(c, *spend.at(f)))
            if abs(e) > _RESUM_REL:
                return e
        return c.excess(replay(log, profile, bid_cap))

    def searched(c: KktConstraint, found, factor, far_excess=None) -> tuple:
        """factor(x) at the x found (where none is, a factor none reaches),
        and the bracket's far end with c's quantity there, from c's excess
        far_excess(end) where given, else from the bracket's."""
        is_floor = c.kind == "guarantee"
        if found is None:
            return (math.inf if is_floor else 0.0), None
        x, bracket = found
        if bracket is None:
            return (factor(x) if is_floor else math.inf), None
        r = bracket[2] if far_excess is None else far_excess(bracket[0])
        return factor(x), (factor(bracket[0]), c.target * (1.0 + _KKT_KINDS[c.kind][0] * r))

    def crossed(c: KktConstraint, spend: RealizedSpend, step: float) -> tuple:
        """c's threshold from the step at which spend crosses its target (a
        floor's step is its threshold, a cap's lies just below it), and
        (factor, quantity) across the step."""
        if not 0 < step < math.inf:
            return step, None
        below = math.nextafter(step, -math.inf)
        near, far = (step, below) if c.kind == "guarantee" else (below, step)
        return near, (far, c.level(result(c, *spend.at(far))))

    def clamp(held, boosts) -> RealizedSpend | None:
        """The realized log's rows bidding at the thresholds held and outer's
        boost (None on any other log): at f, a row bids the factor max(lo,
        s * min(f, hi)), lo its floor (one given up at the largest factor a
        search reads), hi the least of its cap and the cost target's, and s
        1 + boost on outer's rows, 1 on the rest."""
        if rs is None:
            return None
        lo, hi, scale = np.zeros(len(log)), np.full(len(log), math.inf), np.ones(len(log))
        for c, t in held.items():
            rows = slice(None) if c.window is None else mask(c.window)
            if c.kind == "guarantee":
                lo[rows] = min(t, budget_factor(LAMBDA_FLOOR))
            else:
                hi[rows] = np.minimum(hi[rows], t)
        for window, boost in boosts.items():
            scale[mask(window)] = 1.0 + boost
        return rs.clamped(lo, hi, scale)

    def threshold(c: KktConstraint, boosts) -> tuple:
        """c's threshold on its rows' factor, and (factor, quantity) across its step."""
        is_floor = c.kind == "guarantee"
        win = None if rs is None else clamp({}, boosts).rows(mask(c.window))
        step = None if win is None else win.crossing(c.target, is_floor)
        if step is not None:
            return crossed(c, win, step)
        if is_floor:  # on the factor y, as the budget multiplier 1 / y bids it
            factor = lambda y: budget_factor(1.0 / y) if y else 0.0
            at = lambda y: excess(c, MultiplierProfile(1.0 / y if y else math.inf), win, factor(y))
            return searched(c, search_multiplier(at, 0.0, 1.0 / LAMBDA_FLOOR, tol), factor)
        if win is None:  # on replays
            at = lambda x: excess(c, MultiplierProfile(x, window_mu=boosts))
            return searched(c, search_multiplier(at, LAMBDA_FLOOR, c.limit, tol), budget_factor)
        # on x, the window's rows at budget_factor(x)
        far = lambda x: win.excess(budget_factor(x), c.target) / c.target
        return searched(c, budget_search(win, c.target, limit=c.limit), budget_factor, far)

    fixed = {c: threshold(c, {}) for c in caps + floors if c not in lifted and c is not outer}

    def multipliers_of(profile: MultiplierProfile, boost=None) -> dict:
        """Each constraint's multiplier in profile (outer's, its boost)."""
        multipliers = {budget: profile.lam, **{c: profile.mu for c in costs}}
        multipliers |= {c: profile.window_lambda[c.window] for c in caps}
        multipliers |= {c: boost if c is outer else profile.window_mu[c.window] for c in floors}
        return multipliers

    def limited(profile: MultiplierProfile) -> bool:  # outer's boost scales as the clamp does
        return any(m >= c.limit for c, m in multipliers_of(profile, 0.0).items())

    def solve(boost: float | None) -> tuple:
        """Thresholds and steps, profile, budget curve, and the log clamped
        to the profile (None where lam was searched on replays), at outer's
        boost."""
        boosts = {outer.window: boost} if outer else {}
        steps = fixed | {c: threshold(c, boosts) for c in lifted}
        for cost in costs:
            held = {c: t for c, (t, _) in steps.items()}
            windowed = clamp(held, boosts)
            step = None if windowed is None else windowed.cost_crossing(C)
            if step is not None:
                steps[cost] = crossed(cost, windowed, step)
            else:
                at = lambda x: excess(
                    cost, _kkt_profile(x, C, held, boosts), windowed, budget_factor(x)
                )
                found = search_multiplier(at, LAMBDA_FLOOR, LAMBDA_LIMIT, tol)
                steps[cost] = searched(cost, found, budget_factor)
        held = {c: t for c, (t, _) in steps.items()}
        curve = _SpendCurve(log, bid_cap, lambda lam: _kkt_profile(lam, C, held, boosts))
        spend, found = clamp(held, boosts), None
        if spend is not None:  # as lambda*, on the log clamped to the thresholds
            resum = None if spend is rs else lambda lam: curve.at(lam).spend
            found = budget_search(spend, budget.target, resum=resum)
            # the clamp is the profile only where the profile holds no
            # multiplier at its limit, on either side of lam's step
            ends = () if found is None else (found[0], *(found[1] or ())[:1])
            if found is None or any(limited(curve.profile_of(x)) for x in ends):
                spend, found = None, None
        if found is None:  # on replays at the profile
            lam, bracket = curve.solve(budget.target)
            far = lambda lam: bracket[2]
        else:
            lam, bracket = found
            far = lambda lam: spend.excess(
                budget_factor(lam), budget.target, None, resum and (lambda: resum(lam))
            )
        steps[budget] = lam, bracket and (bracket[0], budget.target + far(bracket[0]))
        return steps, curve.profile_of(lam), curve, spend

    boost, found = None, None
    if outer:

        def shortfall(x: float) -> float:  # outer's excess, read from its rows of the clamp
            _, profile, _, spend = solve(x)
            rows = None if spend is None else spend.rows(mask(outer.window))
            return excess(outer, profile, rows, budget_factor(profile.lam))

        found = search_multiplier(shortfall, 0.0, outer.limit, tol=tol, width_rel=1e-7)
        boost = found[0] if found else outer.limit
    steps, profile, curve, _ = solve(boost)
    rep = curve.at(profile.lam)
    multipliers = multipliers_of(profile, boost)
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
    log: OpportunityLog,
    budget: float,
    bid_cap: float = DEFAULT_BID_CAP,
    start: float | None = None,
) -> MarginalRoi:
    """Value gained per extra unit of spend on each placement at the joint
    optimum, dV_p / dS_p, from the two replays of the whole log around
    lambda* (see _replays_around).  lambda* is searched as
    solve_lambda_star searches it, by reads of spend alone with no replay
    at it, but from start where given (see search_multiplier): compare and
    run --roi start at the budget-only lambda* of the log's realized twin,
    which lies within a few percent of the answer on the shipped
    scenarios, so the search reads spend about 4 times instead of the 7 it
    takes from 1, and lands in the same LAMBDA_REL_TOL band.  Proposition 1,
    V'(lam) = lam * S'(lam), holds record by record on a distributional
    log, so every active ROI is lambda* up to the O(1e-8) error of the
    central difference.  A placement whose spend does not move between the
    two replays is inactive; when the budget does not bind, every ROI is 0.
    Needs a distributional log (smooth curves)."""
    if not 0 < budget < math.inf:
        raise OracleError(f"budget must be finite and > 0, got {budget}")
    if log.mode != "distributional":
        raise OracleError("marginal ROI needs a distributional log")
    lam, bracket = _SpendCurve(log, bid_cap, MultiplierProfile).solve(budget, start)
    if bracket is None:
        return MarginalRoi(dict.fromkeys(log.placement_names, 0.0), (), lam)
    _, hi, lo = _replays_around(log, lam, bid_cap)
    roi: dict[str, float] = {}
    inactive: list[str] = []
    for placement, (spend_hi, value_hi) in hi.per_placement.items():
        spend_lo, value_lo = lo.per_placement[placement]
        if spend_hi == spend_lo:
            inactive.append(placement)
        else:
            roi[placement] = (value_hi - value_lo) / (spend_hi - spend_lo)
    return MarginalRoi(roi=roi, inactive=tuple(inactive), lam=lam)


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
    order = np.argsort(log.price)
    prices, first = log.price[order], log.table.first_price[order]
    # per count of cheapest auctions won: their second-price spend and first-price count
    s2 = np.concatenate(([0.0], np.cumsum(np.where(first, 0.0, prices))))
    n1 = np.concatenate(([0], np.cumsum(first)))

    def outcome(bid: float) -> tuple[float, float]:
        won, spend = resolve(log.table, np.full(len(log), bid), log.clearing)
        return float(spend.sum()), float(np.where(won, log.values, 0.0).sum())

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
