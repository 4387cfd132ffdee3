"""Realized spend from per-row win limits (oracle.win_limits, RealizedSpend).

A realized second-price row bidding its adjusted value wins exactly while the
multiplier is at most its win limit.  These tests check that claim against
optimal_bids + resolve, certify each limit to the float, and check that the
solves reading the step function (λ*, FTL and the fixed-bid baseline) return
bit for bit what the same search returns with a full replay at every step.
"""

import numpy as np
import pytest

import dualbid.oracle as oracle
from dualbid.bidding import DEFAULT_BID_CAP, LAMBDA_FLOOR, optimal_bids
from dualbid.mechanisms import LognormalBids, MechanismSpec, MechanismTable, UniformBids, resolve
from dualbid.oracle import (
    LAMBDA_LIMIT,
    LogRecord,
    MultiplierProfile,
    OpportunityLog,
    RealizedSpend,
    budget_adjusted,
    fixed_bid_baseline,
    replay,
    solve_lambda_star,
    win_limits,
)
from dualbid.pacing import ftl_update, ftl_win_limits
from dualbid.scenario import parse_scenario
from dualbid.simulate import OpportunityStream, generate_stream
from helpers import (
    baseline_bid_by_replay,
    ftl_lambda_by_replay,
    lambda_star_by_replay,
    mixed_scenario,
    threshold_lambda,
)

CAP = DEFAULT_BID_CAP
SP = MechanismSpec("second_price", 0.0, LognormalBids(0.0, 1.0))
SP_RESERVE = MechanismSpec("second_price", 0.5, UniformBids(0.0, 2.0))
FP = MechanismSpec("first_price", 0.0, LognormalBids(-0.3, 0.8))
FP_UNIFORM = MechanismSpec("first_price", 0.0, UniformBids(0.2, 1.5))


def _ftl_adjusted(lam, values):
    return values / lam


ROUNDINGS = {"oracle": budget_adjusted, "ftl": _ftl_adjusted}


def second_price_rows():
    """(values, clearing, mechanisms): values from 1e-6 to 1e6 against
    prices from 1e-4 to 1e4, with tied rows, rows whose limit is a round
    number, zero prices, prices above the bid cap, zero values and reserves."""
    rng = np.random.default_rng(5)
    n = 400
    values = np.geomspace(1e-6, 1e6, n)
    rng.shuffle(values)
    clearing = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), n))
    values[:20], clearing[:20] = 3.0, 1.5
    values[20:40] = 2.0 ** np.arange(-10, 10)
    clearing[20:40] = values[20:40] / 4.0
    values[40:50] = 0.1 * np.arange(1, 11)
    clearing[40:50] = 0.0
    clearing[50:60] = 2.0 * CAP
    values[60:65] = 0.0
    mechs = [SP_RESERVE if i % 7 == 0 and i >= 65 else SP for i in range(n)]
    return values, clearing, mechs


def log_of(values, clearing, mechs) -> OpportunityLog:
    return OpportunityLog(
        [
            LogRecord(float(i), "p", float(v), m, clearing_bid=float(c))
            for i, (v, c, m) in enumerate(zip(values, clearing, mechs))
        ]
    )


def mixed_log() -> OpportunityLog:
    """Second-price rows mixed with first-price lognormal (Newton) and
    uniform (closed form) rows."""
    rng = np.random.default_rng(11)
    values, clearing, mechs = second_price_rows()
    values, clearing, mechs = values[65:], clearing[65:], mechs[65:]
    values = np.where(values > 1e3, values * 1e-4, values)
    for k, mech in enumerate(mechs):
        if k % 3 == 1:
            mechs[k] = FP
        elif k % 3 == 2:
            mechs[k] = FP_UNIFORM
        if mechs[k].is_first_price:
            values[k] = rng.lognormal(-0.5, 0.7)
            clearing[k] = float(mechs[k].competitor.quantile(rng.random()))
    return log_of(values, clearing, mechs)


def winners(table, values, clearing, lam, adjusted) -> np.ndarray:
    bids = optimal_bids(table, adjusted(lam, values), CAP)
    return resolve(table, bids, clearing)[0]


@pytest.mark.parametrize("rounding", sorted(ROUNDINGS))
def test_winner_sets_equal_limit_sets(rounding):
    adjusted = ROUNDINGS[rounding]
    values, clearing, mechs = second_price_rows()
    table = MechanismTable.from_specs(mechs)
    limits = win_limits(values, clearing, table, CAP, adjusted)
    finite = limits[np.isfinite(limits)]
    lams = np.concatenate(
        [
            np.geomspace(LAMBDA_FLOOR, 1e15, 200),
            [LAMBDA_FLOOR, 1.0, 2.0, 4.0, LAMBDA_LIMIT],
            finite[::8],
            np.nextafter(finite[::8], np.inf),
        ]
    )
    for lam in lams.tolist():
        assert np.array_equal(winners(table, values, clearing, lam, adjusted), lam <= limits), lam


@pytest.mark.parametrize("rounding", sorted(ROUNDINGS))
def test_limits_are_certified_to_the_float(rounding):
    adjusted = ROUNDINGS[rounding]
    values, clearing, mechs = second_price_rows()
    log = log_of(values, clearing, mechs)
    cols = log.arrays
    limits = win_limits(cols.values, cols.clearing, cols.table, CAP, adjusted)
    price = np.maximum(cols.clearing, cols.table.reserve)

    def wins(rows, lam):
        return np.minimum(adjusted(lam, cols.values[rows]), CAP) >= price[rows]

    finite = np.flatnonzero(np.isfinite(limits))
    assert finite.size > 300
    assert wins(finite, limits[finite]).all()
    assert not wins(finite, np.nextafter(limits[finite], np.inf)).any()
    assert (limits[finite] >= LAMBDA_FLOOR).all() and (limits[finite] < LAMBDA_LIMIT).all()
    always = np.flatnonzero(limits == np.inf)
    never = np.flatnonzero(limits == -np.inf)
    assert wins(always, np.full(always.size, LAMBDA_LIMIT)).all()
    assert not wins(never, np.full(never.size, LAMBDA_FLOOR)).any()
    # zero prices always win, prices above the cap and zero values never do
    assert set(range(40, 50)) <= set(always)
    assert set(range(50, 65)) <= set(never)
    # v / p = 4 exactly is its own limit under both roundings
    assert (limits[20:40] == 4.0).all()


def test_first_price_rows_have_no_limit():
    log = mixed_log()
    cols = log.arrays
    limits = win_limits(cols.values, cols.clearing, cols.table, CAP, budget_adjusted)
    assert np.array_equal(np.isnan(limits), cols.table.first_price)


def test_step_spend_matches_replay():
    log = mixed_log()
    cols = log.arrays
    spend = RealizedSpend(cols.values, cols.clearing, cols.table, CAP, budget_adjusted)
    for lam in np.geomspace(1e-3, 1e3, 60).tolist():
        r = replay(log, MultiplierProfile(lam=lam))
        s, v = spend.at(lam)
        assert s == pytest.approx(r.spend, rel=1e-12, abs=1e-300)
        assert v == pytest.approx(r.value, rel=1e-12, abs=1e-300)
        assert spend.replay_spend(lam) == r.spend


def tie_budgets(log: OpportunityLog) -> list[float]:
    """Budgets that some multiplier's replayed spend meets exactly."""
    cols = log.arrays
    limits = win_limits(cols.values, cols.clearing, cols.table, CAP, budget_adjusted)
    finite = np.sort(limits[np.isfinite(limits)])
    picks = finite[[len(finite) // 5, len(finite) // 2, 4 * len(finite) // 5]]
    return [replay(log, MultiplierProfile(lam=float(lam))).spend for lam in picks]


@pytest.mark.parametrize("kind", ["second_price", "mixed"])
def test_lambda_star_is_bit_identical_to_full_replays(kind, monkeypatch):
    if kind == "mixed":
        log = mixed_log()
    else:
        log = log_of(*second_price_rows())
    resums = []
    original = RealizedSpend.replay_spend
    monkeypatch.setattr(
        RealizedSpend, "replay_spend", lambda self, lam: resums.append(lam) or original(self, lam)
    )
    total = replay(log, MultiplierProfile(lam=LAMBDA_FLOOR)).spend
    for budget in [0.01 * total, 0.3 * total, 0.9 * total, *tie_budgets(log)]:
        sol = solve_lambda_star(log, budget)
        lam, bracket = lambda_star_by_replay(log, budget)
        assert sol.lam == lam
        assert sol.bracket == bracket[:2]
        r = replay(log, MultiplierProfile(lam=lam))
        assert (sol.spend, sol.value) == (r.spend, r.value)
    # the tied budgets were met within the re-summing band
    assert resums


def test_lambda_star_meets_the_sorted_threshold():
    # helpers.threshold_lambda sorts value / price on its own
    rng = np.random.default_rng(2)
    values = rng.lognormal(-1.0, 0.5, 3000)
    clearing = rng.lognormal(0.0, 1.0, 3000)
    log = log_of(values, clearing, [SP] * 3000)
    outcomes = list(zip(values.tolist(), clearing.tolist()))
    for budget in (5.0, 40.0, 200.0):
        jump = threshold_lambda(outcomes, budget)
        assert solve_lambda_star(log, budget).lam == pytest.approx(jump, rel=1e-9)


@pytest.mark.parametrize("kind", ["second_price", "mixed"])
def test_baseline_bid_is_bit_identical_to_full_replays(kind):
    log = mixed_log() if kind == "mixed" else log_of(*second_price_rows())
    cols = log.arrays
    price = np.sort(np.maximum(cols.clearing, cols.table.reserve))
    ties = [
        float(resolve(cols.table, np.full(len(log), p), cols.clearing)[1].sum())
        for p in price[[len(price) // 4, len(price) // 2]]
    ]
    for budget in [0.5, 20.0, 300.0, *ties]:
        baseline = fixed_bid_baseline(log, budget)
        bid = baseline_bid_by_replay(log, budget)
        assert baseline.bid == bid
        won, spend = resolve(cols.table, np.full(len(log), bid), cols.clearing)
        assert baseline.spend == float(spend.sum())


def _mixed_stream() -> OpportunityStream:
    return generate_stream(parse_scenario(mixed_scenario(intervals=12)))


@pytest.mark.parametrize("with_limits", [False, True], ids=["computed", "carried"])
def test_ftl_lambda_is_bit_identical_to_full_replays(with_limits):
    stream = _mixed_stream()
    assert stream.table.first_price.any() and not stream.table.first_price.all()
    if with_limits:
        stream.ftl_limit = ftl_win_limits(stream)
    for n in (40, 300, len(stream)):
        entries = stream[:n]
        assert (entries.ftl_limit is not None) == with_limits
        for window in (None, 100):
            for budget in (1.0, 10.0, 60.0):
                expected, bracket = ftl_lambda_by_replay(entries, budget, 1200.0, window)
                result = ftl_update(entries, budget=budget, expected_total=1200.0, window=window)
                assert result.lam == expected
                assert result.unconstrained == (bracket is None)


def test_ftl_limits_are_the_ftl_rounding():
    stream = _mixed_stream()
    expected = win_limits(stream.value, stream.clearing_bid, stream.table, CAP, _ftl_adjusted)
    assert np.array_equal(ftl_win_limits(stream), expected, equal_nan=True)
    assert stream[:50].ftl_limit is None
    stream.ftl_limit = expected
    assert np.array_equal(stream[10:50].ftl_limit, expected[10:50], equal_nan=True)


def test_kkt_profiles_keep_replaying():
    # a profile with any multiplier besides the budget one has no step function
    log = log_of(*second_price_rows())
    for profile in (
        MultiplierProfile(lam=1.0, mu=0.5, cost_target=1.0),
        MultiplierProfile(lam=1.0, window_lambda={"w": 0.0}),
    ):
        assert oracle._SpendCurve(log, profile, CAP).steps is None
    assert oracle._SpendCurve(log, MultiplierProfile(lam=1.0), CAP).steps is not None


def test_step_path_keeps_the_monotonicity_guard(monkeypatch):
    # spend read from the step function passes the same guard as replays
    log = log_of(*second_price_rows())
    monkeypatch.setattr(RealizedSpend, "at", lambda self, lam: (10.0 + lam, 0.0))
    with pytest.raises(oracle.OracleError, match="increases with the multiplier"):
        solve_lambda_star(log, 5.0)
