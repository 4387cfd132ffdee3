"""Bid engine tests: adjusted values, markup inversion, surplus optimality."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dualbid.bidding import (
    DEFAULT_BID_CAP,
    LAMBDA_FLOOR,
    MultiplierVector,
    adjusted_value,
    make_bid,
    optimal_bid,
    shade_bids,
    stationarity_residual,
    surplus,
)
from dualbid.mechanisms import (
    EmpiricalBids,
    LognormalBids,
    MechanismError,
    MechanismSpec,
    MechanismTable,
    UniformBids,
    resolve,
    win_prob,
)
from helpers import markup_bisection

UNIFORM_FP = MechanismSpec("first_price", 0.0, UniformBids(0.0, 1.0))
UNIFORM_SP = MechanismSpec("second_price", 0.0, UniformBids(0.0, 1.0))
LOGN_FP = MechanismSpec("first_price", 0.0, LognormalBids(0.0, 1.0))
LOGN_SP = MechanismSpec("second_price", 0.0, LognormalBids(0.0, 1.0))


class TestAdjustedValue:
    def test_budget_only(self):
        assert adjusted_value(1.0, MultiplierVector(lam=2.0)) == pytest.approx(0.5)

    def test_cost_control_term(self):
        m = MultiplierVector(lam=1.0, mu=1.0, cost_target=0.2)
        assert adjusted_value(1.0, m) == pytest.approx(0.6)

    def test_window_terms(self):
        m = MultiplierVector(lam=1.0, lam_k=1.0, mu_k=0.5)
        assert adjusted_value(1.0, m) == pytest.approx(0.75)

    def test_reduces_to_v_over_lam(self):
        for lam in (0.25, 1.0, 3.7):
            m = MultiplierVector(lam=lam)
            assert adjusted_value(2.3, m) == 2.3 / lam

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiplierVector(lam=-1.0)
        with pytest.raises(ValueError):
            MultiplierVector(lam=1.0, mu=0.5)  # mu without a cost target
        with pytest.raises(ValueError):
            adjusted_value(-1.0, MultiplierVector(lam=1.0))


class TestInvertMarkup:
    def test_uniform_closed_form(self):
        # on uniform(0,1) the map is 2b, so the inverse is x/2
        assert optimal_bid(UNIFORM_FP, 1.0).bid == pytest.approx(0.5, abs=1e-9)
        assert optimal_bid(UNIFORM_FP, 0.62).bid == pytest.approx(0.31, abs=1e-9)

    def test_clamps_to_support_top(self):
        # surplus (3-b)*G(b) peaks at the support top where G is already 1
        grid = np.linspace(0, 3, 30001)
        best = grid[np.argmax(3.0 * win_prob(UNIFORM_FP, grid) - grid * win_prob(UNIFORM_FP, grid))]
        assert best == pytest.approx(1.0, abs=1e-3)
        assert optimal_bid(UNIFORM_FP, 3.0).bid == pytest.approx(1.0, abs=1e-6)

    def test_zero(self):
        assert optimal_bid(UNIFORM_FP, 0.0).bid == 0.0

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            optimal_bid(UNIFORM_FP, -1.0)


class TestOptimalBid:
    def test_second_price_identity(self):
        assert optimal_bid(UNIFORM_SP, 0.5).bid == 0.5

    def test_second_price_cap(self):
        decision = optimal_bid(UNIFORM_SP, 1e9)
        assert decision.bid == DEFAULT_BID_CAP
        assert "bid_capped" in decision.flags

    def test_first_price_uniform(self):
        assert optimal_bid(UNIFORM_FP, 1.0).bid == pytest.approx(0.5, abs=1e-9)

    def test_zero_value(self):
        assert optimal_bid(UNIFORM_FP, 0.0).bid == 0.0


class TestSurplus:
    def test_second_price_quadrature(self):
        h1, _ = quad(lambda z: z, 0.0, 1.0)
        assert surplus(UNIFORM_SP, 1.0, 1.0) == pytest.approx(1.0 - h1)

    def test_first_price(self):
        assert surplus(UNIFORM_FP, 1.0, 0.5) == pytest.approx(0.25)

    def test_zero(self):
        assert surplus(UNIFORM_SP, 0.0, 0.0) == 0.0


def _random_models(rng, n):
    models = []
    for _ in range(n):
        if rng.random() < 0.5:
            comp = LognormalBids(rng.uniform(-0.5, 0.5), rng.uniform(0.4, 1.4))
        else:
            lo = rng.uniform(0.0, 0.4)
            comp = UniformBids(lo, lo + rng.uniform(0.5, 2.0))
        models.append(MechanismSpec("first_price", 0.0, comp))
    return models


def test_shading_bound_and_grid_optimality():
    rng = np.random.default_rng(123)
    models = _random_models(rng, 200)
    for mech in models:
        x = float(rng.uniform(0.05, 4.0))
        decision = optimal_bid(mech, x)
        assert decision.bid <= x + 1e-12, "first price bid must not exceed the adjusted value"
        grid = np.linspace(0.0, min(x, DEFAULT_BID_CAP), 10_001)
        best = float(np.max(surplus(mech, x, grid)))
        assert decision.surplus_at_bid >= best - 1e-6


def test_stationarity_at_interior_optima():
    rng = np.random.default_rng(5)
    for _ in range(50):
        mech = MechanismSpec(
            "first_price", 0.0, LognormalBids(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 1.2))
        )
        value = float(rng.uniform(0.2, 2.0))
        lam = float(rng.uniform(0.5, 3.0))
        bid = optimal_bid(mech, value / lam).bid
        assert stationarity_residual(mech, value, lam, bid) <= 1e-6


def test_second_price_stationarity():
    # identity bidding satisfies v*g = lam*h because h = b*g at b = v/lam
    assert stationarity_residual(LOGN_SP, 1.2, 2.0, optimal_bid(LOGN_SP, 0.6).bid) <= 1e-12


@pytest.mark.parametrize("mech", [UNIFORM_FP, LOGN_FP, UNIFORM_SP, LOGN_SP])
def test_bid_monotone_in_multiplier(mech):
    value = 1.0
    lams = np.linspace(0.5, 6.0, 40)
    bids = [optimal_bid(mech, value / lam).bid for lam in lams]
    assert np.all(np.diff(bids) <= 1e-9)


def test_shade_bids_vector_matches_scalar():
    rng = np.random.default_rng(17)
    xs = rng.uniform(0.01, 3.0, 64)
    vector, _ = shade_bids(MechanismTable.from_specs([LOGN_FP] * len(xs)), xs)
    for x, b in zip(xs, vector):
        assert optimal_bid(LOGN_FP, float(x)).bid == pytest.approx(float(b), abs=1e-9)


def test_empirical_fallback_produces_valid_bid():
    rng = np.random.default_rng(3)
    mech = MechanismSpec("first_price", 0.0, EmpiricalBids(tuple(rng.lognormal(0.0, 0.8, 60))))
    x = 1.5
    decision = optimal_bid(mech, x)
    assert 0.0 <= decision.bid <= x
    grid = np.linspace(0.0, x, 10_001)
    best = float(np.max(surplus(mech, x, grid)))
    assert decision.surplus_at_bid >= best - 1e-6


def test_make_bid_flags_clamped_denominator():
    decision = make_bid(UNIFORM_SP, 1.0, MultiplierVector(lam=0.0))
    assert "denominator_clamped" in decision.flags
    assert decision.bid == DEFAULT_BID_CAP


def _reserve_rows():
    """(bid_cap, specs, xs) at three bid caps: 1,500 random first-price
    lognormal and uniform rows each, half with a reserve (some above a
    uniform support)."""
    rng = np.random.default_rng(19)
    n = 1500
    for bid_cap in (DEFAULT_BID_CAP, 2.0, 0.5):
        reserves = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, n))
        specs = [
            MechanismSpec(
                "first_price",
                float(r),
                LognormalBids(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.2, 1.5)))
                if i % 2
                else UniformBids(float(a), float(a + rng.uniform(0.1, 2.0))),
            )
            for i, (r, a) in enumerate(zip(reserves, rng.uniform(0.0, 1.0, n)))
        ]
        yield bid_cap, specs, rng.lognormal(0.3, 0.8, n)


def test_reserve_jump_first_price():
    # with a reserve the optimum may sit exactly at the reserve price
    mech = MechanismSpec("first_price", 0.5, UniformBids(0.0, 1.0))
    x = 0.7
    decision = optimal_bid(mech, x)
    grid = np.linspace(0.0, x, 10_001)
    best = float(np.max(surplus(mech, x, grid)))
    assert decision.surplus_at_bid >= best - 1e-6
    assert decision.bid == 0.5
    # at every cap no bid's surplus falls below the best of a grid on
    # [0, min(x, bid_cap)] and of the reserve itself, and the reserve is a
    # clamp on the row's bid at reserve 0, bit for bit
    for bid_cap, specs, xs in _reserve_rows():
        table = MechanismTable.from_specs(specs)
        bids, fell_back = shade_bids(table, xs, bid_cap)
        hi = np.minimum(xs, bid_cap)
        assert not fell_back and np.all((bids >= 0.0) & (bids <= hi))
        candidates = np.concatenate(
            [hi[:, None] * np.linspace(0.0, 1.0, 2001), np.minimum(table.reserve, hi)[:, None]],
            axis=1,
        )
        short = table.surplus(xs[:, None], candidates).max(axis=1) - table.surplus(xs, bids)
        assert short.max() <= 1e-6, f"cap {bid_cap}: row {short.argmax()} short by {short.max()}"
        free = MechanismTable.from_specs(
            [MechanismSpec("first_price", 0.0, spec.competitor) for spec in specs]
        )
        b0, _ = shade_bids(free, xs, bid_cap)
        r = table.reserve
        clamped = np.where(hi < r, hi, np.minimum(np.maximum(b0, r), hi))
        assert (r > 0).sum() > len(xs) // 3 and (hi < r).any() and (b0 < r).any()
        np.testing.assert_array_equal(bids.view(np.int64), clamped.view(np.int64))


def test_reserve_above_a_uniform_support_bids_the_reserve():
    # every competing bid lies below the reserve, so bidding it wins for
    # certain at the reserve price: the markup is +inf there
    mech = MechanismSpec("first_price", 0.8, UniformBids(0.1, 0.6))
    for x in (0.8, 1.0, 5.0):
        bids, fell_back = shade_bids(mech.table, x)
        assert bids[0] == 0.8 and not fell_back
        won, cost = resolve(mech.table, bids, np.array([0.6]))
        assert won[0] and cost[0] == 0.8
    assert shade_bids(mech.table, 0.7)[0][0] < 0.8  # worth less than the reserve


def test_empirical_first_price_reaches_grid_optimum():
    # step win curves: a markup root inside a flat step is never the best
    # bid, so the table kernel must find the surplus peak itself, and the
    # scalar view must return the same bid as a bulk call
    rng = np.random.default_rng(2024)
    for _ in range(40):
        mech = MechanismSpec("first_price", 0.0, EmpiricalBids(tuple(rng.lognormal(0.0, 0.6, 12))))
        xs = rng.uniform(0.05, 4.0, 25)
        bids, _ = shade_bids(MechanismTable.from_specs([mech] * len(xs)), xs)
        for x, bid in zip(xs, bids):
            grid = np.linspace(0.0, min(x, DEFAULT_BID_CAP), 10_001)
            best = float(np.max(surplus(mech, x, grid)))
            assert 0.0 <= bid <= x
            assert surplus(mech, x, float(bid)) >= best - 1e-6
            assert optimal_bid(mech, float(x)).bid == bid


def test_shade_bids_rows_are_independent():
    # a mixed table shades each row as its one-row table would, also when
    # drifted lognormal rows need many Newton steps or none
    rng = np.random.default_rng(8)
    drifted = [
        MechanismSpec("first_price", 0.0, LognormalBids(mu, sigma))
        for mu, sigma in zip(rng.uniform(-2.0, 2.0, 12), rng.choice([0.2, 0.8, 3.0], 12))
    ]
    mechs = _random_models(rng, 30) + [
        MechanismSpec("first_price", 0.6, UniformBids(0.0, 1.0)),
        MechanismSpec("first_price", 0.0, EmpiricalBids(tuple(rng.lognormal(0.0, 0.5, 20)))),
    ] + drifted
    # sigma 0.2 rows far below their median, where the table's curves
    # underflow and its markup reads b itself: Newton's root, 0.2-0.4%
    # below x, fails the gate from x = e^-14 on, and those rows bid x
    tiny = [MechanismSpec("first_price", 0.0, LognormalBids(0.0, 0.2))] * 11
    tiny_xs = np.exp(np.linspace(-20.0, -10.0, 11))
    mechs += tiny
    table = MechanismTable.from_specs(mechs)
    extreme = np.exp(rng.choice([-1.0, 1.0], len(drifted)) * rng.uniform(6.0, 25.0, len(drifted)))
    xs = np.concatenate(
        [rng.uniform(0.0, 3.0, len(mechs) - len(drifted) - len(tiny)), extreme, tiny_xs]
    )
    bids, _ = shade_bids(table, xs)
    for mech, x, bid in zip(mechs, xs, bids):
        assert shade_bids(mech.table, x)[0][0] == bid
    tiny_table, tiny_bids = MechanismTable.from_specs(tiny), bids[-len(tiny):]
    assert tiny_table.cdf(tiny_xs).max() == 0.0
    held = tiny_xs >= math.exp(-14.0)
    assert held.sum() == 5 and np.array_equal(tiny_bids[held], tiny_xs[held])
    assert np.all(tiny_bids[~held] < tiny_xs[~held])
    for b in (tiny_bids, tiny_xs):
        assert np.all(np.abs(tiny_table.markup(b) - tiny_xs) <= 1e-9 * np.maximum(1.0, tiny_xs))


def test_first_price_row_of_no_built_in_family_is_refused():
    class ParetoBids:
        """Pareto(1, 2) competing bids: a model of no built-in family."""

        family = "pareto"
        support_top = math.inf

        def cdf(self, b):
            return 1.0 - 1.0 / np.maximum(np.asarray(b, dtype=float), 1.0) ** 2

    table = MechanismTable.from_specs([LOGN_FP, MechanismSpec("first_price", 0.0, ParetoBids())])
    with pytest.raises(MechanismError, match="row 1"):
        shade_bids(table, np.array([1.0, 2.0]))


def test_table_rows_deduplicate_by_value():
    a = MechanismSpec("first_price", 0.0, LognormalBids(0.1, 0.9))
    b = MechanismSpec("first_price", 0.0, LognormalBids(0.1, 0.9))
    e1 = MechanismSpec("second_price", 0.0, EmpiricalBids((0.5, 1.0, 1.5)))
    e2 = MechanismSpec("second_price", 0.0, EmpiricalBids((0.5, 1.0, 1.5)))
    table = MechanismTable.from_specs([a, e1, b, e2, a])
    assert len(table) == 5
    assert len(table.models) == 1
    np.testing.assert_array_equal(table.model, [-1, 0, -1, 0, -1])
    np.testing.assert_array_equal(table.win_prob(np.full(5, 1.0)), [
        win_prob(a, 1.0), win_prob(e1, 1.0), win_prob(a, 1.0), win_prob(e1, 1.0), win_prob(a, 1.0)
    ])


def _lognormal_grid():
    """First-price lognormal rows with no reserve over sigma x mu, with
    targets from e^(mu-6) up to the adjusted values a replay at the
    multiplier floor shades (v / LAMBDA_FLOOR for v up to 2)."""
    rows = []
    for sigma in (0.2, 0.5, 0.8, 1.5, 3.0):
        for mu in (-2.0, 0.0, 0.3, 2.0):
            for log_x in np.linspace(mu - 6.0, np.log(2.0 / LAMBDA_FLOOR), 40):
                rows.append((mu, sigma, float(np.exp(log_x))))
    mus, sigmas, xs = (np.array(c) for c in zip(*rows))
    specs = [MechanismSpec("first_price", 0.0, LognormalBids(m, s)) for m, s in zip(mus, sigmas)]
    return MechanismTable.from_specs(specs), mus, sigmas, xs


# far above every root on the grid, so no row is capped
NO_CAP = 1e300


def test_lognormal_newton_matches_bisection():
    table, mus, sigmas, xs = _lognormal_grid()
    # the grid reaches standardized log targets where R = Phi/phi overflows
    assert ((np.log(xs) - mus) / sigmas).max() > 38.0
    bids, fell_back = shade_bids(table, xs, NO_CAP)
    assert not fell_back and np.all(np.isfinite(bids)) and np.all(bids > 0)
    assert np.all(np.abs(table.markup(bids) - xs) <= 1e-9 * np.maximum(1.0, xs))
    # 112 halvings of [0, x] resolve the bid to adjacent floats, also where
    # x/b is in the millions
    reference = markup_bisection(table, xs, xs)
    assert np.all(np.abs(table.markup(reference) - xs) <= 1e-9 * np.maximum(1.0, xs))
    np.testing.assert_allclose(bids, reference, rtol=1e-12, atol=0.0)
    # the reserve rows, lognormal and uniform: every bid strictly between
    # the reserve and both hi and the support top passes the gate, and
    # every bid is the bisection's on [r, hi]
    for bid_cap, specs, xs in _reserve_rows():
        table = MechanismTable.from_specs(specs)
        bids, _ = shade_bids(table, xs, bid_cap)
        hi = np.minimum(xs, bid_cap)
        free = (bids > table.reserve) & (bids < np.minimum(hi, table.support_top))
        assert free.sum() > 100
        gap = np.abs(table.take(free).markup(bids[free]) - xs[free])
        assert np.all(gap <= 1e-9 * np.maximum(1.0, xs[free]))
        np.testing.assert_allclose(bids, markup_bisection(table, xs, hi), rtol=1e-12, atol=0.0)


def test_lognormal_shading_is_scale_equivariant():
    # markup_mu(e^mu c) = e^mu markup_0(c), so shading commutes with scaling
    table, mus, sigmas, xs = _lognormal_grid()
    bids, _ = shade_bids(table, xs, NO_CAP)
    base = MechanismTable.from_specs(
        [MechanismSpec("first_price", 0.0, LognormalBids(0.0, s)) for s in sigmas]
    )
    scaled, _ = shade_bids(base, xs * np.exp(-mus), NO_CAP)
    np.testing.assert_allclose(bids, np.exp(mus) * scaled, rtol=1e-12, atol=0.0)


def test_lognormal_bid_cap_returns_the_cap():
    # the markup at the cap is below the target, so the root lies above the
    # cap and the surplus rises all the way to it: the cap is the bid
    mech = MechanismSpec("first_price", 0.0, LognormalBids(0.0, 0.8))
    assert mech.table.markup(np.array([1.0]))[0] < 50.0
    bids, fell_back = shade_bids(mech.table, 50.0, bid_cap=1.0)
    decision = optimal_bid(mech, 50.0, bid_cap=1.0)
    assert bids[0] == 1.0 and not fell_back
    assert decision.bid == 1.0 and decision.flags == ("bid_capped",)
    grid = np.linspace(0.0, 1.0, 1001)
    assert (mech.table.surplus(50.0, grid) <= mech.table.surplus(50.0, 1.0)).all()
    # with its root below the cap the same row is shaded and not flagged
    free = optimal_bid(mech, 1.2, bid_cap=1.0)
    assert free.bid < 1.0 and free.flags == ()
