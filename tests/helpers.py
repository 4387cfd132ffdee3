"""Shared builders and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own solution paths:
win-set search is exhaustive enumeration, the realized multiplier jump is
found by density sorting, expected values come from quadrature, and replay
is recomputed record by record from scalar bids.  The *_by_replay
references are the exception: they run the library's search with a full
replay at every step, which is what the step-function solves must match
bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from dualbid import oracle
from dualbid.bidding import DEFAULT_BID_CAP, LAMBDA_FLOOR, adjusted_value, optimal_bid, optimal_bids
from dualbid.mechanisms import MechanismSpec, MechanismTable, expected_cost, resolve, win_prob
from dualbid.oracle import (
    LAMBDA_LIMIT,
    LogRecord,
    MultiplierProfile,
    OpportunityLog,
    RealizedSpend,
    ReplayResult,
    replay,
    search_multiplier,
)


def enumerate_best_winset(outcomes: list[tuple[float, float]], budget: float):
    """Exhaustive primal search over all win subsets.

    outcomes: (value, cost_if_won) per opportunity.  Returns
    (best_value, best_mask).
    """
    best_value = 0.0
    best_mask = (0,) * len(outcomes)
    for mask in itertools.product((0, 1), repeat=len(outcomes)):
        cost = sum(c for (_, c), m in zip(outcomes, mask) if m)
        if cost <= budget + 1e-12:
            value = sum(v for (v, _), m in zip(outcomes, mask) if m)
            if value > best_value:
                best_value = value
                best_mask = mask
    return best_value, best_mask


def threshold_lambda(outcomes: list[tuple[float, float]], budget: float):
    """Independent jump-point oracle for realized second-price logs.

    Bidding value/lam wins an opportunity iff lam <= value/cost, so replayed
    spend steps down at the sorted value-per-cost thresholds; the optimum is
    the first threshold where cumulative cost exceeds the budget.  Returns
    None when even winning everything fits the budget.
    """
    thresholds = sorted(((v / c, c) for v, c in outcomes), reverse=True)
    cumulative = 0.0
    for theta, cost in thresholds:
        cumulative += cost
        if cumulative > budget + 1e-12:
            return theta
    return None


def replay_by_record(
    log: OpportunityLog, profile: MultiplierProfile, bid_cap: float = DEFAULT_BID_CAP
):
    """Scalar replay reference: each record bids optimal_bid at its adjusted
    value, then wins by the realized indicator (ties win; second price pays
    max(clearing, reserve), first price the bid) or, without a clearing bid,
    spends H(b) and earns value * G(b).  Returns (spend, value,
    per_placement, per_window) with [spend, value] pairs."""
    spend_total = value_total = 0.0
    per_placement: dict[str, list[float]] = {}
    per_window: dict[str, list[float]] = {}
    for r in log.records:
        mech = r.mechanism
        bid = optimal_bid(mech, adjusted_value(r.value, profile.vector_for(r.windows)), bid_cap).bid
        if r.clearing_bid is None:
            spend = expected_cost(mech, bid)
            value = r.value * win_prob(mech, bid)
        else:
            price = max(r.clearing_bid, mech.reserve)
            won = bid >= price
            spend = (bid if mech.is_first_price else price) if won else 0.0
            value = r.value if won else 0.0
        spend_total += spend
        value_total += value
        for acc in [per_placement.setdefault(r.placement, [0.0, 0.0])] + [
            per_window.setdefault(w, [0.0, 0.0]) for w in r.windows
        ]:
            acc[0] += spend
            acc[1] += value
    return spend_total, value_total, per_placement, per_window


def replay_shading_every_row(
    log: OpportunityLog, profile: MultiplierProfile, bid_cap: float = DEFAULT_BID_CAP
):
    """Reference for replay on a realized log: every first-price row is
    shaded by optimal_bids, also the ones that lose at any shade, and every
    sum is taken as replay takes it.  Returns (ReplayResult, won, adjusted),
    won and adjusted per record."""
    cols = log.arrays
    adjusted = np.array(
        [adjusted_value(r.value, profile.vector_for(r.windows)) for r in log.records]
    )
    bids = optimal_bids(cols.table, adjusted, bid_cap)
    won, spend = resolve(cols.table, bids, cols.clearing)
    value = np.where(won, cols.values, 0.0)
    n = len(cols.placement_names)
    p_spend = np.bincount(cols.placement_codes, weights=spend, minlength=n)
    p_value = np.bincount(cols.placement_codes, weights=value, minlength=n)
    result = ReplayResult(
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
    return result, won, adjusted


def realized_spend_shading_every_row(rs: RealizedSpend, f: float) -> tuple[float, float]:
    """RealizedSpend.at as it read spend and value before the first-price
    win limits: the second-price rows from their sorted limits, plus every
    first-price row, shaded by optimal_bids whether or not it can win,
    resolved and summed in row order."""
    k = rs._sorted_limits.searchsorted(f, side="right")
    spend, value = rs._spend[k], rs._value[k]
    rows, table = rs.table.first_price_rows
    if rows.size:
        bids = optimal_bids(table, f * rs.values[rows], rs.bid_cap)
        won, cost = resolve(table, bids, rs.clearing[rows])
        spend += cost.sum()
        value += rs.values[rows][won].sum()
    return float(spend), float(value)


def lambda_star_by_replay(log: OpportunityLog, budget: float, bid_cap: float = DEFAULT_BID_CAP):
    """λ* as search_multiplier finds it when every step replays the whole
    log.  Returns (lam, bracket) as search_multiplier does."""
    return search_multiplier(
        lambda lam: replay(log, MultiplierProfile(lam=lam), bid_cap).spend - budget,
        LAMBDA_FLOOR,
        LAMBDA_LIMIT,
    )


def search_floor_first(excess, floor, limit, tol=None, width_rel=1e-12):
    """search_multiplier as it was when it read the floor first, and stepped
    up from 1 only where the floor did not fit: the same point and bracket
    are expected of it from one read fewer wherever the answer lies above 1."""
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


def count_reads(monkeypatch) -> tuple[list, list]:
    """Two lists that grow by one from here on at every read of a whole log
    (oracle._row_bids, which a replay and a read of spend alone each call
    once) and at every replay (oracle.replay)."""
    reads, replays = [], []
    row_bids, full = oracle._row_bids, oracle.replay
    monkeypatch.setattr(oracle, "_row_bids", lambda *a: reads.append(1) or row_bids(*a))
    monkeypatch.setattr(oracle, "replay", lambda *a: replays.append(1) or full(*a))
    return reads, replays


def lambda_band_by_bisection(
    log: OpportunityLog, budget: float, rel_tol: float, bid_cap: float = DEFAULT_BID_CAP
) -> tuple[float, float]:
    """Multipliers (lo, hi) around every lam whose replayed spend lies within
    rel_tol * budget of budget: lo spends more than budget * (1 + rel_tol)
    and hi at most budget * (1 - rel_tol).  Each end is found by plain
    bisection on lam, apart from search_multiplier, until the spends across
    its bracket differ by at most 1e-12 of its target, or the bracket's ends
    are adjacent floats.  The spend must not fit the budget at the floor."""

    def spend(lam: float) -> float:
        return replay(log, MultiplierProfile(lam=lam), bid_cap).spend

    def bracket(target: float) -> tuple[float, float]:
        lo, hi = LAMBDA_FLOOR, 1.0
        s_lo, s_hi = spend(lo), spend(hi)
        assert s_lo > target
        while s_hi > target:
            lo, s_lo, hi = hi, s_hi, 2.0 * hi
            s_hi = spend(hi)
        while s_lo - s_hi > 1e-12 * target:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            s = spend(mid)
            if s > target:
                lo, s_lo = mid, s
            else:
                hi, s_hi = mid, s
        return lo, hi

    return bracket(budget * (1.0 + rel_tol))[0], bracket(budget * (1.0 - rel_tol))[1]


def ftl_lambda_by_replay(
    entries, budget: float, expected_total: float, window=None, bid_cap: float = DEFAULT_BID_CAP
):
    """FTL's hindsight multiplier with every search step bidding (1 / lam) *
    value, as an episode bids at lam, on every entry of a stream and
    resolving them all.  Returns (lam, bracket)."""
    scope = entries[-window:] if window is not None else entries
    target = budget / expected_total * len(scope)

    def spend(lam: float) -> float:
        bids = optimal_bids(scope.table, (1.0 / lam) * scope.value, bid_cap)
        return float(resolve(scope.table, bids, scope.clearing_bid)[1].sum())

    return search_multiplier(lambda lam: spend(lam) - target, LAMBDA_FLOOR, LAMBDA_LIMIT)


def baseline_bid_by_replay(log: OpportunityLog, budget: float, bid_cap: float = DEFAULT_BID_CAP):
    """The fixed-bid baseline's bisection on the bid, resolving every
    auction at every step.  Returns the bid."""
    cols = log.arrays

    def spend(bid: float) -> float:
        return float(resolve(cols.table, np.full(len(log), bid), cols.clearing)[1].sum())

    lo, hi = 0.0, bid_cap
    if spend(hi) <= budget:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if spend(mid) <= budget:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return lo


@dataclass(frozen=True)
class LpSolution:
    value: float
    x: np.ndarray  # the share of each row won
    budget_dual: float
    window_duals: dict[str, float]  # of each cap and each floor, by window
    cost_dual: float = 0.0
    caps: tuple[str, ...] = ()  # the windows of window_duals that are caps

    def factor(self, windows: tuple[str, ...] = (), cost_target: float | None = None) -> float:
        """The bid factor the duals give rows in windows: a row's term in the
        Lagrangian, v (1 + gamma C + sum of floor duals) - p (beta + gamma +
        sum of cap duals), is >= 0 exactly where v / p reaches it."""
        lam_k = sum(self.window_duals[w] for w in windows if w in self.caps)
        mu_k = sum(self.window_duals[w] for w in windows if w not in self.caps)
        boost = self.cost_dual * cost_target if cost_target is not None else 0.0
        return (1.0 + boost + mu_k) / (self.budget_dual + self.cost_dual + lam_k)


def kkt_lp(
    log: OpportunityLog,
    budget: float,
    caps: dict[str, float],
    floors: dict[str, float] | None = None,
    cost_target: float | None = None,
) -> LpSolution:
    """The fractional relaxation of the hindsight problem on a realized
    second-price log, by scipy's HiGHS, apart from the library's solves:
    maximize sum v_i x_i over x_i in [0, 1] subject to sum p_i x_i <= budget;
    for each delivery window k the sum over its rows <= caps[k]; for each
    guarantee window k sum v_i x_i over its rows >= floors[k]; and, given a
    cost target C, sum (p_i - C v_i) x_i <= 0; p_i being the row's price
    max(clearing, reserve).  The duals are those of the budget, of each cap
    and floor, and of the cost target, >= 0."""
    from scipy.optimize import linprog

    cols = log.arrays
    assert log.mode == "realized" and not cols.table.first_price.any()
    price, values = cols.price, cols.values
    floors = floors or {}
    rows = [price] + [np.where(cols.window_masks[w], price, 0.0) for w in caps]
    rows += [np.where(cols.window_masks[w], -values, 0.0) for w in floors]
    bounds = [budget, *caps.values(), *(-f for f in floors.values())]
    if cost_target is not None:
        rows.append(price - cost_target * values)
        bounds.append(0.0)
    res = linprog(-values, A_ub=np.array(rows), b_ub=bounds, bounds=(0.0, 1.0), method="highs")
    assert res.status == 0, res.message
    duals = -res.ineqlin.marginals
    windows = dict(zip([*caps, *floors], duals[1 : 1 + len(caps) + len(floors)].tolist()))
    cost_dual = float(duals[-1]) if cost_target is not None else 0.0
    return LpSolution(-res.fun, res.x, float(duals[0]), windows, cost_dual, tuple(caps))


def auction_history(values, clearing, mech: MechanismSpec) -> RealizedSpend:
    """Past auctions under one mechanism, in order, as FTL replays them."""
    table = MechanismTable.from_specs([mech] * len(values))
    return RealizedSpend(values, clearing, table, DEFAULT_BID_CAP)


def stream_by_sort(scenario) -> list[tuple]:
    """Reference stream: every opportunity as a (interval, jitter, placement,
    value, clearing_bid, mechanism, result_draw) tuple, drawn cell by cell
    from a fresh Philox keyed by (seed, placement, interval) per cell and then
    sorted one at a time by (interval, jitter, placement id)."""
    from dualbid.simulate import drifted_mechanism, drifted_value_mu

    rows = []
    for p_idx, placement in enumerate(scenario.placements):
        for interval in range(scenario.intervals):
            intensity = placement.intensity_at(interval)
            if intensity <= 0:
                continue
            key = np.array([scenario.seed & 0xFFFFFFFFFFFFFFFF, (p_idx << 32) | interval], np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            n = int(rng.poisson(intensity))
            if n == 0:
                continue
            mech = drifted_mechanism(placement, interval)
            jitter = rng.random(n)
            values = rng.lognormal(
                mean=drifted_value_mu(placement, interval), sigma=placement.value_sigma, size=n
            )
            clearing = mech.competitor.quantile(rng.random(n))
            draws = rng.random(n)
            for j in range(n):
                rows.append(
                    (interval, float(jitter[j]), placement.id, float(values[j]),
                     float(clearing[j]), mech, float(draws[j]))
                )  # fmt: skip
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def episode_shading_every_row(scenario):
    """Reference for run_episode: the episode with no first-price row
    resolved as a certain loss, so that every first-price row is shaded in
    its own segment's bidding call."""
    from unittest import mock

    import dualbid.simulate as simulate

    with mock.patch.object(simulate, "_least_factors", lambda *args: None):
        return simulate.run_episode(scenario)


def record_one_at_a_time(state, windows, values, won, costs, results) -> list[tuple[float, float]]:
    """Reference for PacingState.record_outcomes: each auction in turn is
    bid only while spend is below the budget, and every total is updated
    by plain float addition.  Returns (spend, value) after each auction."""
    after = []
    for value, w, cost, result in zip(values, won, costs, results):
        w = bool(w) and state.spent_total < state.budget
        state.opportunities_seen += 1
        state.interval_count += 1
        if w:
            cost, value = float(cost), float(value)
            state.wins_total += 1
            state.interval_wins += 1
            state.spent_total += cost
            state.interval_spend += cost
            state.value_total += value
            state.interval_value += value
            state.results_realized += float(result)
            for k in windows:
                state.window_interval_spend[k] = state.window_interval_spend.get(k, 0.0) + cost
                state.window_interval_value[k] = state.window_interval_value.get(k, 0.0) + value
                state.window_spend[k] = state.window_spend.get(k, 0.0) + cost
                state.window_value[k] = state.window_value.get(k, 0.0) + value
        after.append((state.spent_total, state.value_total))
    return after


def quantile_lognormal_log(
    n: int,
    mech: MechanismSpec,
    value_mu: float,
    value_sigma: float,
    placement: str = "p",
) -> OpportunityLog:
    """Distributional log whose values are lognormal quantile midpoints, so
    empirical averages match population integrals to O(1/n^2)."""
    qs = (np.arange(n) + 0.5) / n
    values = np.exp(value_mu + value_sigma * ndtri(qs))
    return OpportunityLog(
        [
            LogRecord(time=float(i), placement=placement, value=float(v), mechanism=mech)
            for i, v in enumerate(values)
        ]
    )


def stationary_scenario(**overrides) -> dict:
    """Single-placement second-price lognormal scenario config dict."""
    cfg = {
        "version": 1,
        "seed": 7,
        "intervals": 220,
        "budget": 110.0,
        "placements": [
            {
                "id": "feed",
                "auction": "second_price",
                "reserve": 0.0,
                "competitor": {"family": "lognormal", "mu": 0.0, "sigma": 1.0},
                "value": {"mu": -1.0, "sigma": 0.5},
                "intensity": 80.0,
            }
        ],
        "agent": {
            "mode": "additive",
            "xi": 2.0,
            "batch": "interval",
            "forecast": "total",
            "initialization": "coldstart",
        },
    }
    agent_overrides = overrides.pop("agent", {})
    cfg.update(overrides)
    cfg["agent"] = {**cfg["agent"], **agent_overrides}
    return cfg


def mixed_scenario(**overrides) -> dict:
    """Two placements, second price + first price, shared budget."""
    cfg = {
        "version": 1,
        "seed": 13,
        "intervals": 220,
        "budget": 120.0,
        "placements": [
            {
                "id": "feed",
                "auction": "second_price",
                "reserve": 0.0,
                "competitor": {"family": "lognormal", "mu": 0.0, "sigma": 1.0},
                "value": {"mu": -1.0, "sigma": 0.5},
                "intensity": 50.0,
            },
            {
                "id": "network",
                "auction": "first_price",
                "reserve": 0.0,
                "competitor": {"family": "lognormal", "mu": -0.3, "sigma": 0.8},
                "value": {"mu": -0.9, "sigma": 0.5},
                "intensity": 50.0,
            },
        ],
        "agent": {
            "mode": "additive",
            "xi": 2.0,
            "batch": "interval",
            "forecast": "total",
            "initialization": "coldstart",
        },
    }
    agent_overrides = overrides.pop("agent", {})
    cfg.update(overrides)
    cfg["agent"] = {**cfg["agent"], **agent_overrides}
    return cfg


def mc_outcomes(mech: MechanismSpec, bid: float, draws: np.ndarray):
    """Vectorized mirror of simulate_outcome for Monte Carlo checks.

    Agreement with the scalar operation is asserted elsewhere on a
    subsample; this exists purely so million-draw tests stay fast.
    """
    clearing = np.atleast_1d(np.asarray(mech.competitor.quantile(draws)))
    price = np.maximum(clearing, mech.reserve)
    won = bid >= price
    pay = bid if mech.is_first_price else price
    cost = np.where(won, pay, 0.0)
    return won, cost
