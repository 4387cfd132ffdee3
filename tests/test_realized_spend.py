"""Realized spend from per-row win limits (oracle.win_limits, RealizedSpend).

A realized second-price row bidding its adjusted value wins exactly while the
bid factor is at least its win limit, whatever multipliers give the factor;
the budget multiplier lam alone gives budget_factor(lam).  These tests check
that claim against optimal_bids + resolve, certify each limit to the float,
and check that the solves reading the step function (λ*, FTL and the
fixed-bid baseline) return bit for bit what the same search returns with a
full replay at every step.  FTL reads slices of one RealizedSpend of its
episode's stream, which keep their rows' limits and order; the KKT solve
reads a window's rows (RealizedSpend.rows) and the log clamped to its
thresholds (RealizedSpend.clamped), which wins what a replay at the
multipliers holding those thresholds wins.  A first-price
row has a win limit from the markup at its price (win_limits):
RealizedSpend shades only the rows that may win, and lambda* narrows a
bracket on the factor in a handful of reads, for the same lam bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import dualbid.bidding as bidding
import dualbid.oracle as oracle
import dualbid.pacing as pacing
from dualbid.bidding import DEFAULT_BID_CAP, LAMBDA_FLOOR, MultiplierVector, optimal_bids
from dualbid.mechanisms import (
    EMPIRICAL,
    EmpiricalBids,
    LognormalBids,
    MechanismSpec,
    MechanismTable,
    UniformBids,
    resolve,
)
from dualbid.oracle import (
    LAMBDA_LIMIT,
    LogRecord,
    MultiplierProfile,
    OpportunityLog,
    KktConstraint,
    RealizedSpend,
    budget_factor,
    fixed_bid_baseline,
    replay,
    solve_lambda_star,
    win_limits,
)
from dualbid.pacing import ftl_update
from dualbid.scenario import parse_scenario
from dualbid.simulate import OpportunityStream, generate_stream, realized_log, run_episode
from helpers import (
    baseline_bid_by_replay,
    ftl_lambda_by_replay,
    lambda_star_by_replay,
    mixed_scenario,
    replay_shading_every_row,
    stationary_scenario,
    threshold_lambda,
)

CAP = DEFAULT_BID_CAP
SP = MechanismSpec("second_price", 0.0, LognormalBids(0.0, 1.0))
SP_RESERVE = MechanismSpec("second_price", 0.5, UniformBids(0.0, 2.0))
FP = MechanismSpec("first_price", 0.0, LognormalBids(-0.3, 0.8))
FP_UNIFORM = MechanismSpec("first_price", 0.0, UniformBids(0.2, 1.5))


def _episode_adjusted(lam, values):
    """The adjusted value an episode bids at each lam: factor * value."""
    factors = [MultiplierVector(lam=x).factor for x in np.atleast_1d(lam).tolist()]
    return np.reshape(factors, np.shape(lam)) * values


# the oracle's rounding, and the episode's computed one multiplier at a time
ROUNDINGS = {"oracle": lambda lam, values: budget_factor(lam) * values, "episode": _episode_adjusted}


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
    limits = win_limits(values, clearing, table, CAP)[0]
    finite = limits[np.isfinite(limits) & (limits > 0)]
    lams = np.concatenate(
        [
            np.geomspace(LAMBDA_FLOOR, 1e15, 200),
            [LAMBDA_FLOOR, 1.0, 2.0, 4.0, LAMBDA_LIMIT],
            1.0 / finite[::8],
            np.nextafter(1.0 / finite[::8], np.inf),
        ]
    )
    for lam in lams.tolist():
        won = winners(table, values, clearing, lam, adjusted)
        assert np.array_equal(won, budget_factor(lam) >= limits), lam
    # at the limits themselves and a float below, bidding the factor directly
    for f in np.concatenate([finite[::8], np.nextafter(finite[::8], -np.inf)]).tolist():
        won = winners(table, values, clearing, f, lambda f, values: f * values)
        assert np.array_equal(won, f >= limits), f


@pytest.mark.parametrize("rounding", sorted(ROUNDINGS))
def test_limits_are_certified_to_the_float(rounding):
    adjusted = ROUNDINGS[rounding]
    values, clearing, mechs = second_price_rows()
    log = log_of(values, clearing, mechs)
    limits = win_limits(log.values, log.clearing, log.table, CAP)[0]
    price = np.maximum(log.clearing, log.table.reserve)

    def wins(rows, f):
        return np.minimum(f * log.values[rows], CAP) >= price[rows]

    def wins_at(rows, lam):
        return np.minimum(adjusted(lam, log.values[rows]), CAP) >= price[rows]

    finite = np.flatnonzero(np.isfinite(limits) & (limits > 0))
    assert finite.size > 300
    assert wins(finite, limits[finite]).all()
    assert not wins(finite, np.nextafter(limits[finite], -np.inf)).any()
    # a multiplier wins a row exactly where its factor reaches the row's limit
    lams = 1.0 / limits[finite]
    assert np.array_equal(wins_at(finite, lams), budget_factor(lams) >= limits[finite])
    always = np.flatnonzero(limits == 0.0)
    never = np.flatnonzero(limits == np.inf)
    assert wins_at(always, np.full(always.size, LAMBDA_LIMIT)).all()
    assert not wins(never, np.full(never.size, 1e300)).any()
    # zero prices always win, prices above the cap and zero values never do
    assert set(range(40, 50)) <= set(always)
    assert set(range(50, 65)) <= set(never)
    # p / v = 1/4 exactly is its own limit
    assert (limits[20:40] == 0.25).all()


def test_budget_adjusted_is_the_episode_bid():
    # bit for bit the adjusted value an episode bids at lam, on a grid with
    # the floor, multipliers below it and every row's win limit (with ties)
    values, clearing, mechs = second_price_rows()
    limits = win_limits(values, clearing, MechanismTable.from_specs(mechs), CAP)[0]
    finite = limits[np.isfinite(limits) & (limits > 0)]
    assert len(np.unique(finite)) < len(finite)
    lams = [0.0, 0.5 * LAMBDA_FLOOR, LAMBDA_FLOOR, *np.geomspace(1e-6, 1e15, 50), *(1.0 / finite)]
    for lam in lams:
        expected = MultiplierVector(lam=float(lam)).factor * values
        assert np.array_equal(budget_factor(float(lam)) * values, expected), lam


def test_step_spend_matches_replay():
    log = mixed_log()
    spend = RealizedSpend(log.values, log.clearing, log.table, CAP)
    for lam in np.geomspace(1e-3, 1e3, 60).tolist():
        r = replay(log, MultiplierProfile(lam=lam))
        s, v = spend.at(budget_factor(lam))
        assert s == pytest.approx(r.spend, rel=1e-12, abs=1e-300)
        assert v == pytest.approx(r.value, rel=1e-12, abs=1e-300)
        assert spend.replay_spend(budget_factor(lam)) == r.spend


def tie_budgets(log: OpportunityLog) -> list[float]:
    """Budgets that some multiplier's replayed spend meets exactly."""
    limits = win_limits(log.values, log.clearing, log.table, CAP)[0][~log.table.first_price]
    finite = np.sort(limits[np.isfinite(limits) & (limits > 0)])
    picks = finite[[len(finite) // 5, len(finite) // 2, 4 * len(finite) // 5]]
    return [replay(log, MultiplierProfile(lam=float(1.0 / f))).spend for f in picks]


@pytest.mark.parametrize("kind", ["second_price", "mixed"])
def test_lambda_star_is_bit_identical_to_full_replays(kind, monkeypatch):
    if kind == "mixed":
        log = mixed_log()
    else:
        log = log_of(*second_price_rows())
    resums = []
    original = RealizedSpend.replay_spend
    monkeypatch.setattr(
        RealizedSpend, "replay_spend", lambda self, f: resums.append(f) or original(self, f)
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
def test_baseline_bid_is_the_largest_fitting_bid(kind):
    # the largest float whose resolved spend fits, so at or above the
    # bisection by full replays and within its final bracket
    log = mixed_log() if kind == "mixed" else log_of(*second_price_rows())
    price = np.sort(np.maximum(log.clearing, log.table.reserve))

    def spend(bid: float) -> float:
        return float(resolve(log.table, np.full(len(log), bid), log.clearing)[1].sum())

    ties = [spend(p) for p in price[[len(price) // 4, len(price) // 2]]]
    for budget in [0.5, 20.0, 300.0, *ties]:
        baseline = fixed_bid_baseline(log, budget)
        bid = baseline_bid_by_replay(log, budget)
        assert bid <= baseline.bid <= bid + 1e-12 * max(1.0, bid)
        assert baseline.spend == spend(baseline.bid) <= budget
        assert spend(math.nextafter(baseline.bid, math.inf)) > budget


def _mixed_stream() -> OpportunityStream:
    return generate_stream(parse_scenario(mixed_scenario(intervals=12)))


def _second_price_stream() -> OpportunityStream:
    return generate_stream(parse_scenario(stationary_scenario(intervals=12)))


def _history(stream: OpportunityStream, bid_cap: float = CAP) -> RealizedSpend:
    return RealizedSpend(stream.value, stream.clearing_bid, stream.table, bid_cap)


def _tie_budgets(scope: OpportunityStream, expected_total: float) -> list[float]:
    """Budgets whose pace target over scope is (up to the rounding of the
    target) the spend replayed at a row's win limit: a cumulative spend
    lands on the target, inside the re-summing band."""
    limits = win_limits(scope.value, scope.clearing_bid, scope.table, CAP)[0]
    limits = limits[~scope.table.first_price]
    finite = np.sort(limits[np.isfinite(limits) & (limits > 0)])
    budgets = []
    for f in finite[[len(finite) // 4, len(finite) // 2]].tolist():
        bids = optimal_bids(scope.table, f * scope.value, CAP)
        spend = float(resolve(scope.table, bids, scope.clearing_bid)[1].sum())
        budgets.append(spend * expected_total / len(scope))
    return budgets


def test_budget_lambda_is_the_least_multiplier_below_a_factor():
    # FTL turns the factor at which spend crosses its pace into the least
    # lam whose factor lies below it, so that lam >= bound reads each sign
    rng = np.random.default_rng(11)
    factors = [*np.exp(rng.uniform(-30.0, 30.0, 200)).tolist(), 1.0, 1.0 / LAMBDA_FLOOR]
    # one float either side of fl(1 / x): the least multiplier lies near x,
    # where rounding alone decides it
    factors += [
        math.nextafter(1.0 / x, to)
        for x in np.exp(rng.uniform(-30.0, 30.0, 200)).tolist()
        for to in (-math.inf, math.inf)
    ]
    for f in factors + [math.nextafter(1.0 / LAMBDA_FLOOR, math.inf), math.inf, 1e-300]:
        lam = oracle.budget_lambda(f)
        assert lam >= LAMBDA_FLOOR and budget_factor(lam) < f, f
        below = math.nextafter(lam, 0.0)
        assert lam == LAMBDA_FLOOR or not budget_factor(below) < f, f


@pytest.mark.parametrize("carry", ["computed", "ordered"])
def test_ftl_lambda_is_bit_identical_to_full_replays(carry, monkeypatch):
    # computed: a fresh RealizedSpend of each prefix finds its own limits
    # and order; ordered: each prefix is a slice of one RealizedSpend of the
    # whole stream, carrying its limits and its order re-based
    resums, crossings = [], []
    original = RealizedSpend.replay_spend
    monkeypatch.setattr(
        RealizedSpend, "replay_spend", lambda self, f: resums.append(f) or original(self, f)
    )
    crossing = RealizedSpend.crossing
    monkeypatch.setattr(
        RealizedSpend,
        "crossing",
        lambda self, target: crossings.append(crossing(self, target)) or crossings[-1],
    )
    total = 1200.0
    mixed, second_price = _mixed_stream(), _second_price_stream()
    assert mixed.table.first_price.any() and not mixed.table.first_price.all()
    assert not second_price.table.first_price.any()
    for stream in (mixed, second_price):
        whole = _history(stream)
        for n in (40, 300, len(stream)):
            prefix = stream[:n]
            entries = _history(prefix) if carry == "computed" else whole.rows(slice(n))
            assert len(entries) == n
            for window in (None, 100):
                scope = prefix[-window:] if window is not None else prefix
                for budget in (1.0, 10.0, 60.0, *_tie_budgets(scope, total)):
                    expected, bracket = ftl_lambda_by_replay(prefix, budget, total, window)
                    result = ftl_update(entries, budget=budget, expected_total=total, window=window)
                    assert result.lam == expected
                    assert result.unconstrained == (bracket is None)
    # the tied budgets were met within the re-summing band, and the
    # second-price scopes away from it read their signs from the crossing
    assert resums
    assert any(c is not None for c in crossings) and None in crossings


def test_sums_near_their_target_are_left_to_a_replay():
    # a cumulative sum within _RESUM_REL of its target may lie on either
    # side of it in row order, so there the crossings of spend and value,
    # and of spend per result, return None and a search reads a replay's sign
    values, prices = np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.4, 0.9])
    table = MechanismTable.from_specs([SP]).take(np.zeros(3, dtype=np.intp))
    rs = RealizedSpend(values, prices, table, CAP)
    limits = np.sort(win_limits(values, prices, table, CAP)[0])  # cumulative spend 0.1, 0.5, 1.4
    assert rs.crossing(0.5) is None and rs.crossing(0.5 * (1 + 1e-12)) is None
    assert rs.crossing(0.5 * (1 + 1e-6)) == limits[2]
    assert rs.crossing(3.0, of_value=True) is None
    assert rs.crossing(3.0 * (1 + 1e-6), of_value=True) == limits[2]
    assert rs.crossing(2.9, of_value=True) == limits[1]
    rows = enumerate(zip(values.tolist(), prices.tolist()))
    log = OpportunityLog([LogRecord(float(i), "p", v, SP, p) for i, (v, p) in rows])
    # spend per result is 0.1, 0.5 / 3 and 1.4 / 6 as rows are won
    assert rs.cost_crossing(0.5 / 3) is None
    assert rs.cost_crossing(0.2) == limits[2]
    spend, value = rs.at(limits[2])
    assert spend / value == 1.4 / 6
    kkt = oracle.solve_kkt_grid(log, pacing.ConstraintSet(budget=100.0, cost_target=0.5 / 3))
    assert kkt.feasible and kkt.replay.spend / kkt.replay.value <= 0.5 / 3
    assert kkt.replay.spend == 0.5


def test_slices_keep_their_limit_order():
    stream = _mixed_stream()
    whole = _history(stream)
    n = len(stream)
    assert len(whole) == n
    factors = np.geomspace(0.05, 20.0, 9).tolist()
    masks = [np.random.default_rng(5).random(n) < 0.3, stream.value > 0.1, np.zeros(n, dtype=bool)]
    for rows in (
        slice(None, 50), slice(10, 50), slice(-30, None), slice(0, 0), slice(50, 10),
        slice(n - 40, n + 10), slice(None), *masks,
    ):  # fmt: skip
        part, fresh = whole.rows(rows), _history(stream[rows])
        assert len(part) == len(fresh) == len(stream[rows])
        # the rows' own limits, and a limit order of the slice's own
        # second-price rows
        assert np.array_equal(part._limits, fresh._limits, equal_nan=True)
        assert np.array_equal(np.sort(part._order), np.sort(fresh._order))
        assert (np.diff(part._limits[part._order]) >= 0).all()
        for f in factors:
            assert part.replay_spend(f) == fresh.replay_spend(f)
            assert part.at(f) == pytest.approx(fresh.at(f), rel=1e-12, abs=1e-300)
    # a subset of a subset is the subset of the whole
    nested = whole.rows(slice(100, 400)).rows(slice(-50, None))
    assert np.array_equal(nested._order, whole.rows(slice(350, 400))._order)
    inner = masks[0] & (np.arange(n) >= 100)
    nested = whole.rows(slice(100, None)).rows(inner[100:])
    assert np.array_equal(nested._order, whole.rows(inner)._order)
    for key in (slice(0, 50, 2), slice(None, None, -1), 3, np.arange(20), stream.value[:-1] > 0.1):
        with pytest.raises((TypeError, ValueError)):
            whole.rows(key)


def _plain_ftl_episode(monkeypatch, cfg):
    """The episode with every FTL update solved on a fresh RealizedSpend of
    the prefix of the stream, which sorts its own rows."""
    plain = generate_stream(parse_scenario(cfg))
    original = pacing.ftl_update

    def on_plain_prefix(entries, budget, expected_total, window=None):
        assert isinstance(entries, RealizedSpend)
        return original(_history(plain[: len(entries)]), budget, expected_total, window)

    with monkeypatch.context() as m:
        m.setattr(pacing, "ftl_update", on_plain_prefix)
        return run_episode(parse_scenario(cfg))


@pytest.mark.parametrize("kind", ["second_price", "mixed"])
@pytest.mark.parametrize("window", [None, 700])
def test_ftl_episode_matches_plain_prefixes(kind, window, monkeypatch):
    make = stationary_scenario if kind == "second_price" else mixed_scenario
    cfg = make(intervals=30, budget=20.0, agent={"mode": "ftl"})
    cfg["agent"].pop("xi")
    if window is not None:
        cfg["agent"]["ftl_window"] = window
    episode = run_episode(parse_scenario(cfg))
    plain = _plain_ftl_episode(monkeypatch, cfg)
    assert episode.metrics.lambda_trajectory == plain.metrics.lambda_trajectory
    assert len(set(episode.metrics.lambda_trajectory)) > 10


def test_ftl_solves_at_the_agents_bid_cap(monkeypatch):
    # a cap of 0.2 is below many prices; FTL replays the history at it
    cap = 0.2
    cfg = stationary_scenario(intervals=40, budget=30.0, agent={"mode": "ftl", "bid_cap": cap})
    cfg["agent"].pop("xi")
    scenario = parse_scenario(cfg)
    stream = generate_stream(scenario)
    calls = []
    original = pacing.ftl_update

    def recording(entries, budget, expected_total, window=None):
        result = original(entries, budget, expected_total, window)
        calls.append((len(entries), budget, expected_total, window, result))
        return result

    monkeypatch.setattr(pacing, "ftl_update", recording)
    run_episode(scenario)
    assert len(calls) == scenario.intervals
    uncapped = 0
    for n, budget, total, window, result in calls:
        lam, bracket = ftl_lambda_by_replay(stream[:n], budget, total, window, bid_cap=cap)
        assert result.lam == lam
        assert result.unconstrained == (bracket is None)
        uncapped += ftl_lambda_by_replay(stream[:n], budget, total, window)[0] != lam
    # the cap binds: replayed without it, the history gives other multipliers
    assert uncapped


def test_a_clamped_realized_spend_is_not_clamped_again():
    rs = mixed_log().realized_spend(CAP)
    assert rs.clamped(0.0, math.inf) is rs  # no bound binds
    clamped = rs.clamped(0.5, 2.0)
    with pytest.raises(ValueError, match="not clamped again"):
        clamped.clamped(0.0, math.inf)


@pytest.mark.parametrize("kind", ["second_price", "first_price"])
def test_clamped_rows_win_what_kkt_profiles_win(kind):
    # at thresholds held, _kkt_profile gives a row the factor max(lo, s *
    # min(f, hi)), to a few floats: lo its guarantee window's floor, hi the
    # least of its delivery window's cap and the cost target's, and s 1 +
    # boost on the rows of a guarantee window boosted on delivery records
    # (w2 on some of w1's in the last case), else 1; the log clamped to
    # those bounds wins what a replay at the profile wins, in all and in
    # each window
    if kind == "first_price":
        base, cap = first_price_log(), SMALL_CAP
    else:
        base, cap = log_of(*second_price_rows()), CAP
    disjoint = [("w1",) * (i % 5 == 0) or ("w2",) * (i % 7 == 0) for i in range(len(base))]
    nested = [("w1",) * (i % 5 < 2) + ("w2",) * (i % 3 == 0) for i in range(len(base))]
    cap_w1 = KktConstraint("delivery", "w1", 1.0, 1e8)
    floor_w2 = KktConstraint("guarantee", "w2", 1.0, 1e4)
    cost = KktConstraint("cost_target", None, 0.4, 1e6 / 0.4)
    for windows, held, boosts in (
        (disjoint, {cap_w1: 0.8, floor_w2: 1.5}, {}),
        (disjoint, {cap_w1: 0.8, floor_w2: 1.5, cost: 1.2}, {}),
        (disjoint, {floor_w2: 0.3, cost: 2.5}, {}),
        (nested, {cap_w1: 0.8, cost: 1.2}, {"w2": 0.7}),
    ):
        log = OpportunityLog([replace(r, windows=w) for r, w in zip(base.records, windows)])
        masks, rs = log.window_masks, log.realized_spend(cap)
        top = held.get(cost, math.inf)
        lo, hi, scale = np.zeros(len(log)), np.full(len(log), top), np.ones(len(log))
        lo[masks["w2"]] = held.get(floor_w2, 0.0)
        hi[masks["w1"]] = min(held.get(cap_w1, math.inf), top)
        scale[masks["w2"]] = 1.0 + boosts.get("w2", 0.0)
        clamped = rs.clamped(lo, hi, scale)
        for lam in np.geomspace(0.1, 20.0, 7).tolist():
            expected = replay(log, oracle._kkt_profile(lam, cost.target, held, boosts), cap)
            f = budget_factor(lam)
            read = clamped.at(f)
            assert read == pytest.approx((expected.spend, expected.value), rel=1e-12, abs=1e-300)
            for w in ("w1", "w2"):
                read = clamped.rows(masks[w]).at(f)
                assert read == pytest.approx(expected.per_window[w], rel=1e-12, abs=1e-300)
            assert clamped.replay_spend(f) == pytest.approx(expected.spend, rel=1e-12, abs=1e-300)


def test_first_price_bracket_keeps_the_monotonicity_guard(monkeypatch):
    # a second-price lambda* reads every sign from its sorted limits; the
    # spend a first-price bracket reads passes the same guard as replays
    log = mixed_log()
    monkeypatch.setattr(RealizedSpend, "at", lambda self, f: (10.0 + 1.0 / f, 0.0))
    with pytest.raises(oracle.OracleError, match="increases with the multiplier"):
        solve_lambda_star(log, 5.0)
    rs = log.realized_spend(CAP)
    with pytest.raises(oracle.OracleError, match="increases with the multiplier"):
        rs.bracket(5.0, rs.guard())


def test_monotonicity_guard_checks_both_neighbours():
    # a read below a larger spend, or above a smaller one, raises naming
    # the multipliers of the two reads and a record; reads within the
    # slack, or read twice, pass
    rs = first_price_log().realized_spend(SMALL_CAP)
    guard = rs.guard()
    for read in ((0.5, 2.0), (0.5, 2.0), (1.0, 2.0 - 1e-10), (0.25, 2.0 + 1e-10)):
        guard.check(*read)
    for first, second in (((0.5, 2.0), (1.0, 1.0)), ((1.0, 1.0), (0.5, 2.0))):
        guard = rs.guard()
        guard.check(*first)
        with pytest.raises(oracle.OracleError, match=r"between 1 and 2; record \d+ spends"):
            guard.check(*second)


def _spend_falling_at_half(self, f):
    """A spend that falls by 0.2 as the factor passes 0.5."""
    return (f - 0.2 * (f >= 0.5), 0.0)


def test_step_path_keeps_the_monotonicity_guard(monkeypatch):
    # empirical rows have no win limit (the only first-price rows without
    # one), so their whole spend is the part of the bracket's model that
    # moves between limits; every spend lambda* reads, the bracket's and the
    # steps', passes the same guard as replays.  FTL paces on the same
    # spend unguarded.
    log = first_price_log()
    rs = log.realized_spend(DEFAULT_BID_CAP)
    monkeypatch.setattr(RealizedSpend, "at", _spend_falling_at_half)
    with pytest.raises(oracle.OracleError, match="increases with the multiplier"):
        solve_lambda_star(log, 0.45)
    assert ftl_update(rs, 0.45, len(rs)).lam == pytest.approx(1.0 / 0.65)


def test_steps_inside_a_bracket_keep_the_monotonicity_guard(monkeypatch):
    # the search reads spend at the steps inside the bracket, and those
    # reads pass the guard the bracket's reads passed
    monkeypatch.setattr(RealizedSpend, "bracket", lambda self, target, guard=None: (1e-3, 1e3))
    monkeypatch.setattr(RealizedSpend, "at", _spend_falling_at_half)
    with pytest.raises(oracle.OracleError, match="increases with the multiplier"):
        solve_lambda_star(mixed_log(), 0.45)


def test_factors_shaded_in_chunks_read_as_in_one_call(monkeypatch):
    # at() shades the rows of many factors in one call up to _SHADE_ROWS
    # rows; read in more calls, the sums are the same bit for bit
    rs = first_price_log().realized_spend(SMALL_CAP)
    factors = np.geomspace(0.05, 20.0, 33)
    seen = _record_shading(monkeypatch)
    whole = rs.at(factors)
    assert len(seen) == 1
    seen.clear()
    monkeypatch.setattr(oracle, "_SHADE_ROWS", 200)
    chunked = rs.at(factors)
    assert 1 < len(seen) < len(factors)
    for read in (chunked, np.array([rs.at(f) for f in factors.tolist()]).T):
        np.testing.assert_array_equal(read[0], whole[0])
        np.testing.assert_array_equal(read[1], whole[1])


FP_RESERVE = MechanismSpec("first_price", 0.3, LognormalBids(-0.3, 0.8))
FP_EMPIRICAL = MechanismSpec("first_price", 0.0, EmpiricalBids((0.2, 0.5, 0.5, 0.9, 1.3)))
SMALL_CAP = 2.0  # below some prices and adjusted values, so it binds


def first_price_log() -> OpportunityLog:
    """Realized first-price rows down every shading path (lognormal by
    Newton, with and without a reserve to clamp to; uniform in closed form;
    empirical by atoms), with zero prices and a price at the bid cap, in
    two placements and two overlapping windows."""
    rng = np.random.default_rng(23)
    mechs = (FP, FP_RESERVE, FP_UNIFORM, FP_EMPIRICAL)
    records = []
    for i in range(120):
        mech = mechs[i % 4]
        clearing = 0.0 if i % 11 == 0 else float(mech.competitor.quantile(rng.random()))
        windows = ("w1",) * (i % 5 == 0) + ("w2",) * (i % 7 == 0)
        placement = "a" if i % 3 else "b"
        value = float(rng.lognormal(-0.5, 1.0))
        if i == 0:  # a zero value at a zero price: a tie that wins nothing
            value = 0.0
        if i == 4:  # a capped bid tied with its price wins
            value, clearing = 50.0, SMALL_CAP
        records.append(LogRecord(float(i), placement, value, mech, clearing, windows))
    return OpportunityLog(records)


@pytest.mark.parametrize("cap", [CAP, SMALL_CAP])
def test_win_limits_of_both_formats(cap):
    # one call gives every row's win limit L and least factor F: a
    # second-price row's L certified to the float, F NaN; a lognormal or
    # uniform first-price row's L its reserve, where it is priced at it, or
    # markup(price), over its value, F the band below; an empirical row
    # (NaN, 0); a row priced 0 (0, 0) and one that wins at no factor
    # (inf, inf) in either format
    records = mixed_log().records + first_price_log().records
    log = OpportunityLog([replace(r, time=float(i)) for i, r in enumerate(records)])
    table, values, price = log.table, log.values, log.price
    limits, least = win_limits(values, log.clearing, table, cap)
    first = table.first_price
    free, never = price == 0, (price > cap) | ((values == 0) & (price > 0))
    live = ~free & ~never
    assert (limits[free] == 0).all() and (limits[never] == np.inf).all()
    assert (least[free & first] == 0).all() and (least[never & first] == np.inf).all()
    assert np.isnan(least[~first]).all()

    second = np.flatnonzero(live & ~first)
    edge = limits[second]
    assert (np.minimum(edge * values[second], cap) >= price[second]).all()
    below = np.nextafter(edge, -np.inf) * values[second]
    assert not (np.minimum(below, cap) >= price[second]).any()

    empirical = live & first & (table.family == EMPIRICAL)
    assert empirical.any() and np.isnan(limits[empirical]).all() and (least[empirical] == 0).all()
    sure = np.flatnonzero(live & first & (table.family != EMPIRICAL))
    at_reserve = log.clearing[sure] <= table.reserve[sure]
    assert at_reserve.any() and (table.reserve[sure[at_reserve]] > 0).all()
    assert (~at_reserve).any()
    t = np.where(at_reserve, table.reserve[sure], table.take(sure).markup(price[sure]))
    np.testing.assert_array_equal(limits[sure], t / values[sure])
    band = np.maximum(t - oracle._BAND_REL * np.maximum(1.0, t), 0.0)
    np.testing.assert_array_equal(least[sure], band / values[sure])


def test_win_limits_read_markup_only_where_a_limit_exists(monkeypatch):
    # markup(price) sets a lognormal or uniform first-price row's limit, so
    # it is read on the rows priced above their reserve that can win, and
    # on no empirical row, whose kernel density it would evaluate in vain
    rows_read = []
    markup = MechanismTable.markup
    monkeypatch.setattr(
        MechanismTable, "markup", lambda self, b: rows_read.append(len(self)) or markup(self, b)
    )
    log = first_price_log()
    empirical = log.table.family == EMPIRICAL
    win_limits(log.values[empirical], log.clearing[empirical], log.table.take(empirical), CAP)
    assert rows_read == []
    win_limits(log.values, log.clearing, log.table, SMALL_CAP)
    price = log.price
    read = ~empirical & (log.clearing > log.table.reserve) & (price <= SMALL_CAP) & (log.values > 0)
    assert rows_read == [np.count_nonzero(read)] and 0 < rows_read[0] < len(log)


def _record_shading(monkeypatch) -> list[np.ndarray]:
    """The adjusted values of every shade_bids call the oracle makes."""
    seen = []
    original = bidding.shade_bids

    def recording(table, adjusted, bid_cap):
        seen.append(np.asarray(adjusted, dtype=float).copy())
        return original(table, adjusted, bid_cap)

    monkeypatch.setattr(bidding, "shade_bids", recording)
    return seen


@pytest.mark.parametrize("kind", ["first_price", "mixed"])
def test_skipping_certain_losers_changes_no_replay(kind, monkeypatch):
    log, cap = (first_price_log(), SMALL_CAP) if kind == "first_price" else (mixed_log(), CAP)
    price = np.maximum(log.clearing, log.table.reserve)
    seen = _record_shading(monkeypatch)
    steps = RealizedSpend(log.values, log.clearing, log.table, cap)
    counts = {"skipped": 0, "live": 0, "capped": 0, "below_their_limit": 0}

    def shaded_only_rows_that_can_win(adjusted):
        can_win = log.table.first_price & (np.minimum(adjusted, cap) >= price)
        shaded = np.concatenate(seen) if seen else np.empty(0)
        np.testing.assert_array_equal(np.sort(shaded), np.sort(adjusted[can_win]))
        counts["skipped"] += int(np.count_nonzero(log.table.first_price & ~can_win))
        counts["live"] += int(np.count_nonzero(can_win))
        counts["capped"] += int(np.count_nonzero(can_win & (adjusted > cap)))
        seen.clear()

    def shaded_only_rows_that_may_win(adjusted, won, f):
        # of the rows that can win, at() shades only those whose factor has
        # reached the least at which they may win (win_limits), and
        # every winner is one of them
        can_win = log.table.first_price & (np.minimum(adjusted, cap) >= price)
        may_win = can_win & (f >= steps.least_factors)
        assert not (won & ~may_win).any()
        shaded = np.concatenate(seen) if seen else np.empty(0)
        np.testing.assert_array_equal(np.sort(shaded), np.sort(adjusted[may_win]))
        counts["below_their_limit"] += int(np.count_nonzero(can_win & ~may_win))
        seen.clear()

    for lam in np.geomspace(0.1, 20.0, 7).tolist():
        profiles = [MultiplierProfile(lam=lam)]
        if kind == "first_price":
            windowed = {"window_lambda": {"w1": 0.5}, "window_mu": {"w2": 0.3}}
            profiles.append(MultiplierProfile(lam=lam, **windowed))
        for profile in profiles:
            expected, won, adjusted = replay_shading_every_row(log, profile, cap)
            seen.clear()
            assert replay(log, profile, cap) == expected
            shaded_only_rows_that_can_win(adjusted)
        expected, won, adjusted = replay_shading_every_row(log, MultiplierProfile(lam=lam), cap)
        seen.clear()
        assert steps.replay_spend(budget_factor(lam)) == expected.spend
        shaded_only_rows_that_can_win(adjusted)
        if kind == "first_price":
            # every row is first price, so at() wins the same rows as replay
            assert steps.at(budget_factor(lam)) == (expected.spend, float(log.values[won].sum()))
            shaded_only_rows_that_may_win(adjusted, won, budget_factor(lam))
    assert counts["skipped"] and counts["live"]
    assert counts["below_their_limit"] or kind == "mixed", "at() shaded every row that can win"
    assert counts["capped"] or kind == "mixed", "the bid cap never bound"


def test_first_price_limits_give_a_replays_winners():
    # the first-price rows at() shades at a factor (those that may win, see
    # win_limits) win and pay exactly what shading every row gives:
    # lognormal rows by Newton and, with a reserve, clamped to it or left
    # above it (limit reserve / value), uniform rows in closed form, and
    # empirical rows, which have no limit, at 200 factors and at factors
    # inside the band round some rows' limits
    kinds = (FP, FP_UNIFORM, FP_EMPIRICAL, FP, FP_RESERVE, FP_UNIFORM, FP_EMPIRICAL, FP_RESERVE)
    records = first_price_log().records[:48]
    records = [replace(r, mechanism=kinds[i % 8]) for i, r in enumerate(records)]
    rng = np.random.default_rng(3)
    for i, r in enumerate(records):
        if i != 4 and i % 11:  # keep the zero prices and the price at the bid cap
            draw = float(r.mechanism.competitor.quantile(rng.random()))
            records[i] = replace(r, clearing_bid=0.1 if i % 16 == 4 else draw)
    log = OpportunityLog(records)
    rows, table = log.table.first_price_rows
    assert rows.size == len(log)
    rs = RealizedSpend(log.values, log.clearing, log.table, SMALL_CAP)
    limits, price = rs._limits, rs._price
    assert np.isnan(limits[(log.table.family == EMPIRICAL) & (price > 0)]).all()
    at_reserve = (price == FP_RESERVE.reserve) & (log.table.reserve > 0)
    above_reserve = np.isfinite(limits) & (price > log.table.reserve) & (log.table.reserve > 0)
    assert at_reserve.any() and above_reserve.any()
    np.testing.assert_array_equal(limits[at_reserve], FP_RESERVE.reserve / log.values[at_reserve])
    sure = np.flatnonzero(np.isfinite(limits) & (limits > 0))
    edge = limits[sure]
    band = (edge - rs.least_factors[sure]) / edge  # each band's relative width below the limit
    factors = np.concatenate(
        [
            np.geomspace(0.02, 50.0, 200),
            edge,
            np.nextafter(edge, -np.inf),
            edge * (1.0 - 0.5 * band),
            edge * (1.0 + 0.5 * band),
        ]
    )
    read = list(rs._first_price(factors))
    assert len(read) == len(factors)
    for f, (costs, wins) in zip(factors.tolist(), read):
        won, cost = resolve(table, optimal_bids(table, f * log.values, SMALL_CAP), log.clearing)
        np.testing.assert_array_equal(wins, won, err_msg=str(f))
        np.testing.assert_array_equal(costs, cost, err_msg=str(f))
    costs, wins = np.array([c for c, _ in read]), np.array([w for _, w in read])
    # some factors lie inside a band, where the row is shaded to decide
    inside = (factors[:, None] >= rs.least_factors[sure]) & (factors[:, None] < edge)
    assert inside.any() and wins.any() and (costs[wins] > 0).any()


def first_price_log_with_limits(n: int = 300) -> OpportunityLog:
    """Realized first-price rows that all have a win limit: lognormal by
    Newton, uniform in closed form, and lognormal priced above its reserve
    (Newton, then the reserve clamp), with zero prices."""
    rng = np.random.default_rng(31)
    mechs = (FP, FP_UNIFORM, FP_RESERVE)
    records = []
    for i in range(n):
        mech = mechs[i % 3]
        clearing = float(mech.competitor.quantile(rng.random()))
        if mech is FP_RESERVE:
            clearing = max(clearing, 0.5)
        clearing = 0.0 if i % 37 == 0 and mech is not FP_RESERVE else clearing
        records.append(LogRecord(float(i), "p", float(rng.lognormal(-0.5, 1.0)), mech, clearing))
    return OpportunityLog(records)


def test_first_price_lambda_star_is_bit_identical_to_full_replays(monkeypatch):
    # the bracket on the factor answers every step outside it, so the
    # search steps as one replaying the whole log at every step, and
    # returns its lam: inside its final 1e-12 bracket, spending at most the
    # budget, in far fewer reads of spend
    log = first_price_log_with_limits()
    rs = log.realized_spend(CAP)
    assert not np.isnan(rs._limits).any()
    reads = []
    original = RealizedSpend.at
    monkeypatch.setattr(RealizedSpend, "at", lambda self, f: reads.append(f) or original(self, f))
    total = replay(log, MultiplierProfile(lam=LAMBDA_FLOOR)).spend
    edge = np.sort(rs._limits[rs._limits > 0])
    ties = [rs.replay_spend(float(f)) for f in edge[[len(edge) // 4, len(edge) // 2]]]
    budgets = [0.01 * total, 0.2 * total, 0.6 * total, 0.95 * total, 2.0 * total, *ties]
    counts = []
    for budget in budgets:
        reads.clear()
        sol = solve_lambda_star(log, budget)
        counts.append(len(reads))
        lam, bracket = lambda_star_by_replay(log, budget)
        assert sol.lam == lam, budget
        assert sol.bracket == (bracket and bracket[:2])
        if bracket:
            assert bracket[0] < sol.lam <= bracket[1]
        assert sol.spend == replay(log, MultiplierProfile(lam=lam)).spend <= budget
    # a search reading spend at every step reads it about 45 times
    assert max(counts) <= oracle._BRACKET_READS and sum(counts) <= 10 * len(budgets)


def _empirical_and_lognormal_scenario():
    """Two first-price placements over 12 intervals: one whose competing bid
    is empirical (200 samples of lognormal(-0.3, 0.8)), one lognormal."""
    cfg = mixed_scenario(intervals=12)
    samples = np.random.default_rng(0).lognormal(-0.3, 0.8, 200).round(6).tolist()
    competitor = {"family": "empirical", "samples": samples}
    cfg["placements"][0].update(auction="first_price", competitor=competitor)
    return parse_scenario(cfg)


def test_lambda_star_brackets_rows_with_no_limit(monkeypatch):
    # the empirical rows' spend joins the part of the bracket's model that
    # moves between limits, so lambda* narrows a bracket on such a log too,
    # for the lam of replaying every step (a search reading every step
    # reads spend 42 to 45 times here).  Where the budget falls on the jump
    # of an empirical row's spend, which no limit marks, only the search's
    # bisection finds it: it reads as often, plus at most _BRACKET_READS.
    # FTL paces on the same history at the lam of resolving every entry at
    # every step.
    scenario = _empirical_and_lognormal_scenario()
    stream = generate_stream(scenario)
    history = RealizedSpend(stream.value, stream.clearing_bid, stream.table, CAP)
    assert np.isnan(history._limits).any() and not np.isnan(history._limits).all()
    log = realized_log(scenario, stream)
    reads = []
    original = RealizedSpend.at
    monkeypatch.setattr(RealizedSpend, "at", lambda self, f: reads.append(f) or original(self, f))
    counts = []
    for budget in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        reads.clear()
        sol = solve_lambda_star(log, budget)
        counts.append(len(reads))
        lam, bracket = lambda_star_by_replay(log, budget)
        assert sol.lam == lam and sol.bracket == bracket[:2], budget
        if budget == 2.0:  # pinned: the lam of reading spend at every step
            assert sol.lam == 3.6902788460602096
    assert sum(count <= 16 for count in counts) >= 4 and max(counts) <= 50, counts
    for budget in (2.0, 8.0):
        lam, _ = ftl_lambda_by_replay(stream, budget, len(stream))
        assert ftl_update(history, budget, len(stream)).lam == lam, budget


def test_lambda_star_over_rows_priced_at_a_reserve():
    # uniform(0.1, 1.5) bids, reserve 0.5, bid cap 2: a row priced at the
    # reserve bids it exactly from adjusted value 0.5 on, so its spend
    # rises with the factor and its limit is 0.5 / value; every row has
    # a limit, lambda* reads a bracket and returns the lam of replaying
    # the whole log at every step
    rng = np.random.default_rng(52)
    mech = MechanismSpec("first_price", 0.5, UniformBids(0.1, 1.5))
    records = [
        LogRecord(float(i), "p", float(rng.lognormal(-0.5, 1.0)), mech, float(clearing))
        for i, clearing in enumerate(mech.competitor.quantile(rng.random(300)))
    ]
    log = OpportunityLog(records)
    rs = log.realized_spend(SMALL_CAP)
    assert not np.isnan(rs._limits).any()
    at_reserve = rs._price == 0.5
    assert at_reserve.sum() > 50
    np.testing.assert_array_equal(rs._limits[at_reserve], 0.5 / rs.values[at_reserve])
    total = replay(log, MultiplierProfile(lam=LAMBDA_FLOOR), SMALL_CAP).spend
    for budget in (0.05 * total, 0.3 * total, 0.7 * total, 0.97 * total):
        assert rs.bracket(budget) is not None
        sol = solve_lambda_star(log, budget, SMALL_CAP)
        lam, bracket = lambda_star_by_replay(log, budget, SMALL_CAP)
        assert sol.lam == lam and sol.bracket == (bracket and bracket[:2]), budget
        assert sol.spend == replay(log, MultiplierProfile(lam=lam), SMALL_CAP).spend <= budget


def test_lambda_star_where_no_first_price_row_can_win():
    # every row is priced above the bid cap, so no win limit lies below the
    # largest factor a search reads: the bracket has no step to read, and
    # the budget fits at the floor multiplier
    log = OpportunityLog([LogRecord(float(i), "p", 1.0, FP_UNIFORM, 2.0 * CAP) for i in range(3)])
    assert log.realized_spend(CAP).bracket(1.0) == (budget_factor(LAMBDA_FLOOR), math.inf)
    sol = solve_lambda_star(log, 1.0)
    assert (sol.lam, sol.unconstrained, sol.spend) == (LAMBDA_FLOOR, True, 0.0)
