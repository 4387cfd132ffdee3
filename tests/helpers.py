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

import numpy as np
from scipy.special import ndtri

from dualbid.bidding import DEFAULT_BID_CAP, LAMBDA_FLOOR, adjusted_value, optimal_bid, optimal_bids
from dualbid.mechanisms import MechanismSpec, MechanismTable, expected_cost, resolve, win_prob
from dualbid.oracle import (
    LAMBDA_LIMIT,
    LogRecord,
    MultiplierProfile,
    OpportunityLog,
    replay,
    search_multiplier,
)
from dualbid.simulate import OpportunityStream


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


def lambda_star_by_replay(log: OpportunityLog, budget: float, bid_cap: float = DEFAULT_BID_CAP):
    """λ* as search_multiplier finds it when every step replays the whole
    log.  Returns (lam, bracket) as search_multiplier does."""
    return search_multiplier(
        lambda lam: replay(log, MultiplierProfile(lam=lam), bid_cap).spend - budget,
        LAMBDA_FLOOR,
        LAMBDA_LIMIT,
    )


def ftl_lambda_by_replay(entries, budget: float, expected_total: float, window=None):
    """FTL's hindsight multiplier with every search step bidding value / lam
    on every entry and resolving them all.  Returns (lam, bracket)."""
    scope = entries[-window:] if window is not None else entries
    target = budget / expected_total * len(scope)

    def spend(lam: float) -> float:
        bids = optimal_bids(scope.table, scope.value / lam, DEFAULT_BID_CAP)
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


def auction_history(values, clearing, mech: MechanismSpec) -> OpportunityStream:
    """Past auctions under one mechanism, in order, as FTL replays them."""
    n = len(values)
    return OpportunityStream(
        placement_ids=("p",),
        cells=(mech,),
        interval=np.zeros(n, dtype=np.int64),
        jitter=np.zeros(n),
        placement=np.zeros(n, dtype=np.intp),
        value=np.array(values, dtype=float),
        clearing_bid=np.array(clearing, dtype=float),
        result_draw=np.zeros(n),
        cell=np.zeros(n, dtype=np.intp),
        table=MechanismTable.from_specs([mech] * n),
    )


def stream_by_sort(scenario) -> list[tuple]:
    """Reference stream: every opportunity as a (interval, jitter, placement,
    value, clearing_bid, mechanism, result_draw) tuple, drawn cell by cell
    with the simulator's keyed random streams and then sorted one at a time
    by (interval, jitter, placement id)."""
    from dualbid.simulate import _cell_rng, drifted_mechanism, drifted_value_mu

    rows = []
    for p_idx, placement in enumerate(scenario.placements):
        for interval in range(scenario.intervals):
            intensity = placement.intensity_at(interval)
            if intensity <= 0:
                continue
            rng = _cell_rng(scenario.seed, p_idx, interval)
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
