"""Deterministic marketplace simulation.

The stream generator draws, for every (placement, interval) cell, a Poisson
opportunity count and the per-opportunity values, competing clearing bids,
interleaving jitter, and result draws from a counter-based random stream
keyed by (seed, placement, interval), one Philox state re-keyed per cell --
so adding a placement or extending the horizon never perturbs other cells'
draws, and a fixed seed yields a byte-identical trace.  The stream is held
as columns (``OpportunityStream``), one mechanism per cell, in (interval,
jitter, placement id) order: cells are drawn interval by interval,
placements in id order, and each interval's rows are stably argsorted by
jitter.  A run saves its stream's row columns (save_stream), and compare
reads them back (load_stream) to judge the auctions the run took part in.

An episode pairs the stream with a pacing agent in two passes.  The
controller pass runs in segments: the opportunities from one multiplier
update (interval start, or the end of a count batch) to the next one or the
end of the interval, whichever comes first.  A segment is bid in one call at
the multipliers' bid factor, its rows win where the bid reaches
max(clearing, reserve), and PacingState.record_outcomes accounts it from its
winners alone, so every total is that of handling the opportunities one at
a time.  Bidding halts once spend reaches the budget: a segment that starts
with the budget spent bids no row, and only counts them as seen.  The trace
pass then writes each column once: the rows bid are a prefix of the stream,
the multipliers repeat each segment's, and cum_spend and cum_value are
running sums of the cost and won value columns, the controller's additions.

A first-price row whose factor lies below the least factor at which it may
win (oracle.win_limits) loses for certain: its segment resolves it
as a loss without shading it, and every such row that was bid is shaded in
one call after the last segment.  Shading is per row, so its bid is the one
its segment would have given.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bidding import LAMBDA_FLOOR, bid_factor, optimal_bids
from .coldstart import ColdStartResult, PlacementPriors, solve_lambda0_multi
from .mechanisms import LognormalBids, MechanismSpec, MechanismTable
from .oracle import OpportunityLog, RealizedSpend, budget_search, marginal_roi, win_limits
from .pacing import ForecastModel, PacingState, apply_batch_update, normalize
from .scenario import PlacementConfig, ScenarioConfig


class SimulationError(RuntimeError):
    pass


class Opportunity(NamedTuple):
    """One row of an OpportunityStream."""

    interval: int
    jitter: float
    placement: str
    value: float
    clearing_bid: float
    mechanism: MechanismSpec
    result_draw: float


class OpportunityStream:
    """Opportunities as parallel columns, in stream order.

    Columns: ``interval``, ``jitter``, ``placement`` (a code into
    ``placement_ids``), ``value``, ``clearing_bid``, ``result_draw``, and
    ``cell``, the index into ``cells`` of the mechanism each opportunity was
    drawn under; ``table`` holds that mechanism per row.  An int index
    yields an ``Opportunity`` row view; a slice, mask or index array yields
    the sub-stream.
    """

    def __init__(
        self, placement_ids, cells, interval, jitter, placement, value, clearing_bid,
        result_draw, cell, table,
    ):  # fmt: skip
        self.placement_ids = tuple(placement_ids)
        self.cells = tuple(cells)
        self.interval = interval
        self.jitter = jitter
        self.placement = placement
        self.value = value
        self.clearing_bid = clearing_bid
        self.result_draw = result_draw
        self.cell = cell
        self.table = table

    def __len__(self) -> int:
        return len(self.value)

    def take(self, rows) -> OpportunityStream:
        return OpportunityStream(
            self.placement_ids, self.cells, self.interval[rows], self.jitter[rows],
            self.placement[rows], self.value[rows], self.clearing_bid[rows],
            self.result_draw[rows], self.cell[rows], self.table.take(rows),
        )  # fmt: skip

    def __getitem__(self, key):
        if not isinstance(key, (int, np.integer)):
            return self.take(key)
        return Opportunity(
            interval=int(self.interval[key]),
            jitter=float(self.jitter[key]),
            placement=self.placement_ids[self.placement[key]],
            value=float(self.value[key]),
            clearing_bid=float(self.clearing_bid[key]),
            mechanism=self.cells[self.cell[key]],
            result_draw=float(self.result_draw[key]),
        )

    def __iter__(self):
        columns = (
            self.interval.tolist(),
            self.jitter.tolist(),
            [self.placement_ids[p] for p in self.placement.tolist()],
            self.value.tolist(),
            self.clearing_bid.tolist(),
            [self.cells[c] for c in self.cell.tolist()],
            self.result_draw.tolist(),
        )
        return map(Opportunity._make, zip(*columns))


def drifted_mechanism(placement: PlacementConfig, interval: int) -> MechanismSpec:
    """Placement mechanism with the interval's competing-bid drift applied."""
    if placement.bid_mu_drift is None:
        return placement.mechanism
    mech, comp = placement.mechanism, placement.mechanism.competitor
    mu = comp.mu + placement.bid_mu_drift.offset_at(interval)
    return MechanismSpec(mech.auction_type, mech.reserve, LognormalBids(mu, comp.sigma))


def drifted_value_mu(placement: PlacementConfig, interval: int) -> float:
    if placement.value_mu_drift is None:
        return placement.value_mu
    return placement.value_mu + placement.value_mu_drift.offset_at(interval)


def _cell_rngs(seed: int):
    """A function of (placement index, interval) giving that cell's random
    generator, keyed by (seed, placement, interval).

    One Philox serves every cell: a fresh Philox's state (a zero counter, an
    empty buffer) is re-keyed in place and set per cell, so each cell draws
    what a fresh Philox(key=...) would, without seeding a SeedSequence from
    OS entropy per cell.  The generator returned is valid until the next
    call.  The seed is the key's first word as it is, so a seed outside
    [0, 2**64) raises OverflowError instead of sharing another seed's stream.
    """
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    state = bits.state  # a copy, which no draw changes
    key = state["state"]["key"]
    key[0] = seed

    def cell_rng(placement_index: int, interval: int) -> np.random.Generator:
        key[1] = (placement_index << 32) | interval
        bits.state = state
        return rng

    return cell_rng


def _stream_order(interval: np.ndarray, jitter: np.ndarray) -> np.ndarray:
    """The stream order of rows drawn interval by interval, the placements of
    an interval in id order: (interval, jitter, placement id), ties in draw
    order, from one stable argsort of each interval's jitter."""
    edges = [0, *(np.flatnonzero(np.diff(interval)) + 1).tolist(), len(jitter)]
    runs = zip(edges, edges[1:])
    return np.concatenate([a + jitter[a:b].argsort(kind="stable") for a, b in runs])


def _cells(scenario: ScenarioConfig, keys, cell: np.ndarray):
    """The mechanism of each cell key in keys, placement index * intervals
    + interval, one spec shared per drift offset of a placement; and the
    mechanism table of the rows, cell being each row's index into keys."""
    drifted: dict[tuple[int, float], MechanismSpec] = {}
    cells = []
    for key in keys:
        p_idx, interval = divmod(key, scenario.intervals)
        placement = scenario.placements[p_idx]
        mech = placement.mechanism
        if placement.bid_mu_drift is not None:
            drift = (p_idx, placement.bid_mu_drift.offset_at(interval))
            mech = drifted.get(drift) or drifted_mechanism(placement, interval)
            drifted[drift] = mech
        cells.append(mech)
    return cells, MechanismTable.from_specs(cells).take(cell)


def generate_stream(scenario: ScenarioConfig) -> OpportunityStream:
    """All opportunities for the scenario, interleaved across placements by
    a within-interval jitter and fully reproducible from the seed.

    Cells are numbered by placement, then interval.  Each draws its jitter,
    values, then clearing-bid and result uniforms in one call; the
    clearing-bid uniforms become clearing bids in one quantile call."""
    by_id = sorted(enumerate(scenario.placements), key=lambda item: item[1].id)
    cell_rng = _cell_rngs(scenario.seed)
    keys: list[int] = []  # placement index * intervals + interval, per cell
    draws: list[tuple[np.ndarray, ...]] = []
    for interval in range(scenario.intervals):
        for p_idx, placement in by_id:
            intensity = placement.intensity_at(interval)
            if intensity <= 0:
                continue
            rng = cell_rng(p_idx, interval)
            n = int(rng.poisson(intensity))
            if n == 0:
                continue
            jitter = rng.random(n)
            values = rng.lognormal(
                mean=drifted_value_mu(placement, interval), sigma=placement.value_sigma, size=n
            )
            uniforms = rng.random(2 * n)
            draws.append((jitter, values, uniforms[:n], uniforms[n:]))
            keys.append(p_idx * scenario.intervals + interval)
    ids = [p.id for p in scenario.placements]
    cell_keys = np.array(keys, dtype=np.int64)
    numbered = cell_keys.argsort()
    sizes = [len(d[0]) for d in draws]
    placement, interval = np.divmod(np.repeat(cell_keys, sizes), scenario.intervals)
    columns = zip(*draws) if draws else [[np.empty(0)]] * 4
    jitter, values, clearing_draws, result_draws = (np.concatenate(c) for c in columns)
    order = _stream_order(interval, jitter)
    cell = np.repeat(numbered.argsort(), sizes)[order]
    cells, table = _cells(scenario, cell_keys[numbered].tolist(), cell)
    clearing = table.quantile(clearing_draws[order])
    return OpportunityStream(
        ids, cells, interval[order], jitter[order], placement[order], values[order],
        clearing, result_draws[order], cell, table,
    )  # fmt: skip


# the columns of an OpportunityStream that save_stream writes, with their dtypes
STREAM_COLUMNS = {
    "interval": np.dtype(np.int64),
    "jitter": np.dtype(np.float64),
    "placement": np.dtype(np.int64),
    "value": np.dtype(np.float64),
    "clearing_bid": np.dtype(np.float64),
    "result_draw": np.dtype(np.float64),
}


class StreamError(ValueError):
    """A stream file that load_stream cannot take for its scenario."""


def save_stream(path, stream: OpportunityStream) -> None:
    """The stream's STREAM_COLUMNS as consecutive .npy records in one file,
    in that order: 48 bytes a row, which load_stream reads back bit for bit."""
    with open(path, "wb") as fh:
        for name in STREAM_COLUMNS:
            np.save(fh, getattr(stream, name), allow_pickle=False)


def _load_column(fh, name: str, size: int) -> np.ndarray:
    """The next .npy record of fh as column name of a file of size bytes.

    The header is read and checked before the data: a record that is not a
    1-D array of the column's dtype, or whose data would run past the end of
    the file, is refused before any array is allocated.  The data is then
    read as raw values of that dtype, so no pickle is ever loaded.  (np.load
    would allocate whatever shape the header states and parse the header a
    second time.)"""
    try:
        version = np.lib.format.read_magic(fh)
        if version != (1, 0):  # the version np.save writes for these columns
            raise ValueError(f"unsupported .npy format version {version}")
        shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
    except ValueError as exc:  # a record numpy cannot read
        raise StreamError(f"{name}: {exc}") from None
    if len(shape) != 1 or dtype != STREAM_COLUMNS[name]:
        raise StreamError(
            f"{name}: expected a 1-D {STREAM_COLUMNS[name]} record, got {dtype} of shape {shape}"
        )
    if shape[0] * dtype.itemsize > size - fh.tell():
        raise StreamError(f"{name}: {shape[0]} rows, more than the file holds")
    return np.fromfile(fh, dtype, count=shape[0])


def load_stream(path, scenario: ScenarioConfig) -> OpportunityStream:
    """The stream save_stream wrote, its cells and mechanism table rebuilt
    from each row's cell key as generate_stream builds them (_cells).

    Raises StreamError unless the file is six 1-D records of STREAM_COLUMNS'
    dtypes and one length with nothing after them, and its rows could have
    been drawn for scenario: intervals in [0, intervals) and not decreasing,
    placement codes in range, jitter and result draws in [0, 1), values
    and clearing bids finite and >= 0.  An unreadable file raises OSError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        columns = {name: _load_column(fh, name, size) for name in STREAM_COLUMNS}
        if fh.read(1):
            raise StreamError(f"{size - fh.tell() + 1} bytes after the last record")
    lengths = {len(c) for c in columns.values()}
    if len(lengths) > 1:
        raise StreamError(f"records of different lengths: {sorted(lengths)}")
    interval, jitter, placement, value, clearing, result = columns.values()
    fall = np.flatnonzero(interval[1:] < interval[:-1])
    if fall.size:
        row = int(fall[0]) + 1
        raise StreamError(f"interval: row {row}: {interval[row]} after {interval[row - 1]}")
    intervals, n_placements = scenario.intervals, len(scenario.placements)
    bounds = {
        "interval": (interval, 0, intervals),
        "placement": (placement, 0, n_placements),
        "jitter": (jitter, 0.0, 1.0),
        "result_draw": (result, 0.0, 1.0),
        "value": (value, 0.0, np.inf),
        "clearing_bid": (clearing, 0.0, np.inf),
    }
    for name, (column, lo, hi) in bounds.items():
        bad = np.flatnonzero(~((column >= lo) & (column < hi)))  # NaN is bad
        if bad.size:
            row = int(bad[0])
            raise StreamError(f"{name}: row {row}: {column[row].item()!r} outside [{lo}, {hi})")
    keys, cell = np.unique(placement * intervals + interval, return_inverse=True)
    cells, table = _cells(scenario, keys.tolist(), cell)
    ids = [p.id for p in scenario.placements]
    return OpportunityStream(ids, cells, *columns.values(), cell, table)


def realized_log(scenario: ScenarioConfig, stream: OpportunityStream) -> OpportunityLog:
    """Stream reinterpreted as a realized opportunity log for the oracle."""
    combos: dict[tuple[str, ...], int] = {}
    per_interval = [
        combos.setdefault(active.ids, len(combos))
        for active in scenario.constraints.window_table(scenario.intervals)
    ]
    return OpportunityLog.from_columns(
        time=stream.interval + stream.jitter,
        values=stream.value,
        clearing=stream.clearing_bid,
        mechanisms=stream.cells,
        mechanism_codes=stream.cell,
        table=stream.table,
        placement_names=stream.placement_ids,
        placement_codes=stream.placement,
        window_combos=list(combos),
        combo_codes=np.array(per_interval, dtype=np.intp)[stream.interval],
    )


def distributional_log(
    scenario: ScenarioConfig, stream: OpportunityStream, realized: OpportunityLog | None = None
) -> OpportunityLog:
    """Stream with auctions kept as smooth G/H models instead of resolved
    clearing bids; used for derivative-based diagnostics.  It is the twin of
    realized, the stream's realized log (built here where none is given),
    with every clearing bid NaN (OpportunityLog.distributional): the two
    logs share their columns and mechanism table, not their caches."""
    return (realized or realized_log(scenario, stream)).distributional()


def realized_lambda_star(realized: OpportunityLog, budget: float, bid_cap: float) -> float | None:
    """The budget-only lambda* of a realized log (solve_lambda_star's,
    without its replay at the answer), where the ROI search of its
    distributional twin starts (marginal_roi); None where no multiplier
    up to LAMBDA_LIMIT fits the budget."""
    found = budget_search(realized.realized_spend(bid_cap), budget)
    return None if found is None else found[0]


def build_forecast(scenario: ScenarioConfig) -> ForecastModel:
    if scenario.agent.pacing.forecast_mode == "relative":
        per_interval = np.array(
            [
                sum(p.intensity_at(i) for p in scenario.placements)
                for i in range(scenario.intervals)
            ]
        )
        total = per_interval.sum()
        if total <= 0:
            raise SimulationError("relative forecast needs positive total intensity")
        return ForecastModel(shares=tuple(per_interval / total))
    return ForecastModel(total=scenario.expected_total())


def coldstart_priors(scenario: ScenarioConfig) -> list[PlacementPriors]:
    priors = []
    for p in scenario.placements:
        comp = p.mechanism.competitor
        if not isinstance(comp, LognormalBids):
            raise SimulationError(
                f"placement {p.id!r}: cold start needs a lognormal competing-bid model; "
                "set an explicit lambda0 instead"
            )
        priors.append(
            PlacementPriors(
                bid_mu=comp.mu,
                bid_sigma=comp.sigma,
                value_mu=p.value_mu,
                value_sigma=p.value_sigma,
                forecast_count=p.expected_total(scenario.intervals),
            )
        )
    return priors


def initial_multiplier(scenario: ScenarioConfig) -> tuple[float, ColdStartResult | None]:
    if scenario.agent.lambda0 is not None:
        return scenario.agent.lambda0, None
    result = solve_lambda0_multi(coldstart_priors(scenario), scenario.constraints.budget)
    return max(result.lam, LAMBDA_FLOOR), result


class TraceRow(NamedTuple):
    """One row of a Trace: one line of trace.csv."""

    interval: int
    opportunity_index: int
    placement_id: str
    value: float
    adjusted_value: float
    bid: float
    won: bool
    cost: float
    lambda_tilde: float
    mu: float
    lambda_k: float
    mu_k: float
    cum_spend: float
    cum_value: float


TRACE_COLUMNS = TraceRow._fields


@dataclass(eq=False)
class Trace:
    """The episode's decisions as columns named after TRACE_COLUMNS, one row
    per opportunity in stream order; ``placement_id`` holds codes into
    ``placement_ids``.  Indexing with an int or iterating yields TraceRow
    views."""

    placement_ids: tuple[str, ...]
    interval: np.ndarray
    opportunity_index: np.ndarray
    placement_id: np.ndarray
    value: np.ndarray
    adjusted_value: np.ndarray
    bid: np.ndarray
    won: np.ndarray
    cost: np.ndarray
    lambda_tilde: np.ndarray
    mu: np.ndarray
    lambda_k: np.ndarray
    mu_k: np.ndarray
    cum_spend: np.ndarray
    cum_value: np.ndarray

    def __len__(self) -> int:
        return len(self.interval)

    def __getitem__(self, index: int) -> TraceRow:
        row = TraceRow._make(getattr(self, name)[index].item() for name in TRACE_COLUMNS)
        return row._replace(placement_id=self.placement_ids[row.placement_id])

    def __iter__(self):
        columns = {name: getattr(self, name).tolist() for name in TRACE_COLUMNS}
        columns["placement_id"] = [self.placement_ids[p] for p in columns["placement_id"]]
        return map(TraceRow._make, zip(*columns.values()))


@dataclass
class EpisodeMetrics:
    budget: float
    total_spend: float
    total_value: float
    results_realized: float
    n_opportunities: int
    n_wins: int
    budget_utilization: float
    cost_per_result: float
    cost_per_result_realized: float
    lambda0: float
    lambda_prime: float
    final_lambda_tilde: float
    final_lambda: float
    max_single_cost: float
    lambda_trajectory: tuple[float, ...]
    window_spend: dict[str, float]
    window_value: dict[str, float]
    placement_spend: dict[str, float]
    placement_value: dict[str, float]
    placement_roi: dict[str, float] | None = None

    def as_rows(self) -> list[tuple[str, float]]:
        rows = [
            ("budget", self.budget),
            ("total_spend", self.total_spend),
            ("total_value", self.total_value),
            ("results_realized", self.results_realized),
            ("n_opportunities", self.n_opportunities),
            ("n_wins", self.n_wins),
            ("budget_utilization", self.budget_utilization),
            ("cost_per_result", self.cost_per_result),
            ("cost_per_result_realized", self.cost_per_result_realized),
            ("lambda0", self.lambda0),
            ("lambda_prime", self.lambda_prime),
            ("final_lambda_tilde", self.final_lambda_tilde),
            ("final_lambda", self.final_lambda),
            ("max_single_cost", self.max_single_cost),
        ]
        for wid in sorted(self.window_spend):
            rows.append((f"window_{wid}_spend", self.window_spend[wid]))
            rows.append((f"window_{wid}_value", self.window_value[wid]))
        for pid in sorted(self.placement_spend):
            rows.append((f"placement_{pid}_spend", self.placement_spend[pid]))
            rows.append((f"placement_{pid}_value", self.placement_value[pid]))
        if self.placement_roi is not None:
            for pid in sorted(self.placement_roi):
                rows.append((f"placement_{pid}_roi", self.placement_roi[pid]))
        return rows


def _least_factors(stream: OpportunityStream, history, bid_cap: float) -> np.ndarray | None:
    """The least factor at which each first-price row of the stream may win
    (NaN on second-price rows), the FTL history's where there is one; None
    without first-price rows."""
    first, table = stream.table.first_price_rows
    if not first.size:
        return None
    if history is not None:
        return history.least_factors
    least = np.full(len(stream), np.nan)
    least[first] = win_limits(stream.value[first], stream.clearing_bid[first], table, bid_cap)[1]
    return least


@dataclass
class EpisodeResult:
    scenario: ScenarioConfig
    stream: OpportunityStream
    trace: Trace
    metrics: EpisodeMetrics
    state: PacingState


def run_episode(scenario: ScenarioConfig, compute_roi: bool = False) -> EpisodeResult:
    """Run the pacing agent through the scenario's opportunity stream."""
    constraints = scenario.constraints
    cfg = scenario.agent.pacing
    batch = cfg.batch_size
    bid_cap = scenario.agent.bid_cap
    forecast = build_forecast(scenario)
    lambda0, _ = initial_multiplier(scenario)

    state = PacingState(
        budget=constraints.budget,
        expected_total=scenario.expected_total(),
        intervals_total=scenario.intervals,
        lambda_prime=1.0,
        lambda_tilde=lambda0,
    )
    normalize(state, scenario.agent.lambda_prime or lambda0)

    stream = generate_stream(scenario)
    n, values, clearing, table = len(stream), stream.value, stream.clearing_bid, stream.table
    first_price, price = table.first_price, np.maximum(clearing, table.reserve)
    success = stream.result_draw < np.minimum(values, 1.0)  # a win's result, if it wins
    # FTL replays the auctions seen so far, each update a prefix of one
    # history sorted once for the episode
    history = RealizedSpend(values, clearing, table, bid_cap) if cfg.mode == "ftl" else None
    least = _least_factors(stream, history, bid_cap)
    # the stream is ordered by interval: interval i is rows starts[i]:starts[i + 1]
    starts = np.searchsorted(stream.interval, np.arange(scenario.intervals + 1)).tolist()
    windows = constraints.window_table(scenario.intervals)
    rows = np.arange(n)
    bids = np.zeros(n)
    wins: list[np.ndarray] = []  # each segment's winners
    cut = n  # the first row not bid: spend had reached the budget
    segments: list[tuple[float, ...]] = []  # factor and multipliers, one per segment
    sizes: list[int] = []
    trajectory: list[float] = []

    def close_batch(interval: int, seen: int) -> None:
        seen_so_far = None if history is None else history.rows(slice(seen))
        apply_batch_update(state, cfg, forecast, constraints, interval, seen_so_far)

    for interval in range(scenario.intervals):
        try:
            active = windows[interval]
            index, end = starts[interval], starts[interval + 1]
            while index < end:
                # the multipliers only move at batch boundaries, so the rest
                # of the interval, or of the count batch, is bid in one go
                size = end - index if batch is None else min(end - index, batch - state.interval_count)
                lam_k, mu_k = state.window_multipliers(active)
                factor = bid_factor(state.lam, state.mu, constraints.cost_target, lam_k, mu_k)
                segments.append((factor, state.lambda_tilde, state.mu, lam_k, mu_k))
                sizes.append(size)
                winners = rows[:0]
                if state.spent_total < state.budget:  # else no row of the segment is bid
                    seg = slice(index, index + size)
                    out = None if least is None else least[seg] > factor
                    if out is not None and out.any():  # certain losers are bid after the loop
                        seg = rows[seg][~out]
                    bids[seg] = optimal_bids(table.take(seg), factor * values[seg], bid_cap)
                    winners = rows[seg][bids[seg] >= price[seg]]
                    wins.append(winners)
                bid = state.record_outcomes(
                    active.ids, size, (winners - index).tolist(),
                    np.where(first_price[winners], bids[winners], price[winners]).tolist(),
                    values[winners].tolist(), success[winners].tolist(),
                )  # fmt: skip
                if bid < size:
                    cut = min(cut, index + bid)
                index += size
                if batch is not None and state.interval_count >= batch:
                    close_batch(interval, index)
            if batch is None:
                close_batch(interval, end)
        except Exception as exc:
            raise SimulationError(f"interval {interval}: {exc}") from exc
        trajectory.append(state.lambda_tilde)

    # the trace, each column written once; rows from the cut on keep a zero
    # adjusted value, bid and cost
    factors, *multipliers = np.repeat(np.array(segments).reshape(-1, 5).T, sizes, axis=1)
    adjusted = factors * values
    adjusted[cut:] = bids[cut:] = 0.0
    if least is not None:
        late = np.flatnonzero(least[:cut] > factors[:cut])
        bids[late] = optimal_bids(table.take(late), adjusted[late], bid_cap)
    won = np.zeros(n, dtype=bool)
    won[np.concatenate(wins) if wins else rows[:0]] = True
    won[cut:] = False
    cost = np.where(won, np.where(first_price, bids, price), 0.0)
    won_value = np.where(won, values, 0.0)
    # each running sum adds row by row, as the controller added each segment
    # from the total before it
    trace = Trace(
        stream.placement_ids, stream.interval, rows, stream.placement, values, adjusted, bids,
        won, cost, *multipliers, np.add.accumulate(cost), np.add.accumulate(won_value),
    )  # fmt: skip

    placement_spend: dict[str, float] = {p.id: 0.0 for p in scenario.placements}
    placement_value: dict[str, float] = {p.id: 0.0 for p in scenario.placements}
    for code, pid in enumerate(stream.placement_ids):
        mine = stream.placement == code
        if mine.any():
            # cumsum adds in stream order, as spending one win at a time does
            placement_spend[pid] = float(np.cumsum(trace.cost[mine])[-1])
            placement_value[pid] = float(np.cumsum(won_value[mine])[-1])
    max_single_cost = float(trace.cost.max(initial=0.0))

    total_value = state.value_total
    metrics = EpisodeMetrics(
        budget=constraints.budget,
        total_spend=state.spent_total,
        total_value=total_value,
        results_realized=state.results_realized,
        n_opportunities=state.opportunities_seen,
        n_wins=state.wins_total,
        budget_utilization=state.spent_total / constraints.budget,
        cost_per_result=state.spent_total / total_value if total_value > 0 else float("inf"),
        cost_per_result_realized=state.spent_total / state.results_realized
        if state.results_realized > 0
        else float("inf"),
        lambda0=lambda0,
        lambda_prime=state.lambda_prime,
        final_lambda_tilde=state.lambda_tilde,
        final_lambda=state.lam,
        max_single_cost=max_single_cost,
        lambda_trajectory=tuple(trajectory),
        window_spend=dict(state.window_spend),
        window_value=dict(state.window_value),
        placement_spend=placement_spend,
        placement_value=placement_value,
    )
    if compute_roi and stream:
        realized = realized_log(scenario, stream)
        roi = marginal_roi(
            distributional_log(scenario, stream, realized),
            constraints.budget,
            bid_cap=bid_cap,
            start=realized_lambda_star(realized, constraints.budget, bid_cap),
        )
        metrics.placement_roi = dict(roi.roi)
    return EpisodeResult(
        scenario=scenario, stream=stream, trace=trace, metrics=metrics, state=state
    )
