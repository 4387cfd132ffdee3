"""Mechanism model tests: closed forms, derivative consistency, sampling."""

import copy
import importlib.machinery
import importlib.util
import itertools
import math
import sys
import types

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from dualbid import mechanisms
from dualbid.mechanisms import (
    EmpiricalBids,
    LognormalBids,
    MechanismError,
    MechanismSpec,
    MechanismTable,
    UniformBids,
    UnsupportedPointError,
    competitor_from_dict,
    competitor_to_dict,
    cost_derivative,
    expected_cost,
    ndtri,
    resolve,
    simulate_outcome,
    win_density,
    win_prob,
)
from helpers import mc_outcomes

UNIFORM = MechanismSpec("second_price", 0.0, UniformBids(0.0, 1.0))
UNIFORM_FP = MechanismSpec("first_price", 0.0, UniformBids(0.0, 1.0))
LOGN = MechanismSpec("second_price", 0.0, LognormalBids(0.0, 1.0))


class TestWinProb:
    def test_uniform_midpoint(self):
        assert win_prob(UNIFORM, 0.5) == pytest.approx(0.5)

    def test_lognormal_median(self):
        assert win_prob(LOGN, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_below_reserve_is_zero(self):
        mech = MechanismSpec("second_price", 0.6, UniformBids(0.0, 1.0))
        assert win_prob(mech, 0.5) == 0.0

    def test_negative_bid_rejected(self):
        with pytest.raises(MechanismError):
            win_prob(UNIFORM, -0.1)

    def test_array_input(self):
        out = win_prob(UNIFORM, np.array([0.0, 0.25, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.25, 1.0])


class TestWinDensity:
    def test_uniform_inside(self):
        assert win_density(UNIFORM, 0.3) == pytest.approx(1.0)

    def test_lognormal_at_one(self):
        # standard lognormal pdf at 1 is 1/sqrt(2*pi)
        assert win_density(LOGN, 1.0) == pytest.approx(0.3989422804014327, abs=1e-9)

    def test_outside_support(self):
        assert win_density(UNIFORM, 1.5) == 0.0


class TestExpectedCost:
    def test_second_price_uniform_quadrature(self):
        # independent oracle: integrate z * f(z) over [0, b]
        expected, _ = quad(lambda z: z * 1.0, 0.0, 0.5)
        assert expected_cost(UNIFORM, 0.5) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.125)

    def test_first_price_is_bid_times_win_prob(self):
        assert expected_cost(UNIFORM_FP, 0.5) == pytest.approx(0.25)

    def test_zero_bid_costs_nothing(self):
        for mech in (UNIFORM, UNIFORM_FP, LOGN):
            assert expected_cost(mech, 0.0) == 0.0

    def test_second_price_with_reserve_quadrature(self):
        mech = MechanismSpec("second_price", 0.6, UniformBids(0.0, 1.0))
        # reserve-price mass below 0.6 plus partial expectation above it
        expected = 0.6 * 0.6 + quad(lambda z: z, 0.6, 0.8)[0]
        assert expected_cost(mech, 0.8) == pytest.approx(expected, abs=1e-12)


class TestCostDerivative:
    def test_second_price_uniform(self):
        assert cost_derivative(UNIFORM, 0.5) == pytest.approx(0.5)

    def test_first_price_uniform(self):
        assert cost_derivative(UNIFORM_FP, 0.5) == pytest.approx(1.0)

    def test_matches_finite_difference(self):
        h = 1e-6
        fd = (expected_cost(UNIFORM, 0.2 + h) - expected_cost(UNIFORM, 0.2 - h)) / (2 * h)
        assert cost_derivative(UNIFORM, 0.2) == pytest.approx(fd, abs=1e-6)


class TestSimulateOutcome:
    def test_second_price_uniform(self):
        won, cost, landscape = simulate_outcome(UNIFORM, 2.0, 0.25)
        assert won and cost == pytest.approx(0.25)
        assert landscape.clearing_bid == pytest.approx(0.25)

    def test_first_price_loss(self):
        won, cost, _ = simulate_outcome(UNIFORM_FP, 0.4, 0.81)
        assert not won and cost == 0.0

    def test_reserve_binds_payment(self):
        mech = MechanismSpec("second_price", 0.3, UniformBids(0.0, 1.0))
        won, cost, landscape = simulate_outcome(mech, 1.0, 0.1)
        assert won and cost == pytest.approx(0.3)
        assert landscape.cost_if_won == pytest.approx(0.3)

    def test_first_price_winner_pays_bid(self):
        won, cost, landscape = simulate_outcome(UNIFORM_FP, 0.9, 0.5)
        assert won and cost == pytest.approx(0.9)
        assert landscape.cost_if_won == pytest.approx(0.9)

    def test_draw_domain(self):
        with pytest.raises(MechanismError):
            simulate_outcome(UNIFORM, 1.0, 1.0)

    @pytest.mark.parametrize("auction", ["first_price", "second_price"])
    @pytest.mark.parametrize("reserve", [0.0, 0.3])
    def test_agrees_with_resolve(self, auction, reserve):
        # on uniform(0, 1) the clearing bid is the draw itself, so a bid of
        # max(draw, reserve) is an exact tie at the price, which wins
        mech = MechanismSpec(auction, reserve, UniformBids(0.0, 1.0))
        rng = np.random.default_rng(19)
        draws = np.concatenate([rng.random(40), [0.0, 0.1, 0.3, 0.5]])
        bids = np.concatenate([rng.uniform(0.0, 1.2, 40), [0.3, 0.1, 0.3, 0.5]])
        bids[:10] = np.maximum(draws[:10], reserve)
        bids[10:14] = reserve
        clearing = np.array([mech.competitor.quantile(float(d)) for d in draws])
        np.testing.assert_array_equal(clearing, draws)
        won, cost = resolve(MechanismTable.from_specs([mech] * len(draws)), bids, clearing)
        assert won[:10].all() and not won.all()
        for i, (bid, draw) in enumerate(zip(bids, draws)):
            w, c, landscape = simulate_outcome(mech, float(bid), float(draw))
            ref_won, ref_cost = mc_outcomes(mech, float(bid), np.array([draw]))
            assert w == won[i] == ref_won[0]
            assert c == cost[i] == ref_cost[0]
            if w:
                assert landscape.cost_if_won == c


def _family_mechs():
    rng = np.random.default_rng(42)
    emp = EmpiricalBids(tuple(rng.lognormal(0.1, 0.6, 400)))
    return [
        ("lognormal", MechanismSpec("second_price", 0.0, LognormalBids(0.2, 0.8))),
        ("uniform", MechanismSpec("second_price", 0.1, UniformBids(0.0, 2.0))),
        ("empirical", MechanismSpec("second_price", 0.0, emp)),
        ("lognormal_fp", MechanismSpec("first_price", 0.0, LognormalBids(0.2, 0.8))),
        ("uniform_fp", MechanismSpec("first_price", 0.0, UniformBids(0.0, 2.0))),
    ]


@pytest.mark.parametrize("name,mech", _family_mechs())
def test_win_prob_and_cost_monotone(name, mech):
    grid = np.linspace(0.0, 4.0, 400)
    G = win_prob(mech, grid)
    H = expected_cost(mech, grid)
    assert np.all(np.diff(G) >= -1e-12), f"{name}: win prob not monotone"
    assert np.all(np.diff(H) >= -1e-9), f"{name}: expected cost not monotone"


@pytest.mark.parametrize(
    "mech",
    [
        MechanismSpec("second_price", 0.0, LognormalBids(0.2, 0.8)),
        MechanismSpec("second_price", 0.0, UniformBids(0.1, 1.7)),
        MechanismSpec("first_price", 0.0, LognormalBids(-0.3, 1.2)),
        MechanismSpec("first_price", 0.0, UniformBids(0.0, 1.0)),
    ],
)
def test_derivatives_match_finite_differences(mech):
    rng = np.random.default_rng(7)
    comp = mech.competitor
    lo = comp.lo if isinstance(comp, UniformBids) else 0.05
    hi = comp.hi if isinstance(comp, UniformBids) else 4.0
    points = rng.uniform(lo + 1e-3, hi - 1e-3, 100)
    h = 1e-7
    g_fd = (win_prob(mech, points + h) - win_prob(mech, points - h)) / (2 * h)
    h_fd = (expected_cost(mech, points + h) - expected_cost(mech, points - h)) / (2 * h)
    np.testing.assert_allclose(win_density(mech, points), g_fd, atol=1e-5)
    np.testing.assert_allclose(cost_derivative(mech, points), h_fd, atol=1e-5)


@pytest.mark.parametrize("name,mech", _family_mechs())
def test_monte_carlo_matches_model(name, mech):
    rng = np.random.default_rng(11)
    bid = 1.2
    draws = rng.random(200_000)
    won, cost = mc_outcomes(mech, bid, draws)
    # the vectorized sampler must agree with the scalar operation
    for i in range(200):
        w, c, _ = simulate_outcome(mech, bid, float(draws[i]))
        assert w == won[i] and c == pytest.approx(float(cost[i]))
    G = win_prob(mech, bid)
    H = expected_cost(mech, bid)
    se_w = max(won.std() / math.sqrt(len(draws)), 1e-9)
    se_c = max(cost.std() / math.sqrt(len(draws)), 1e-9)
    assert abs(won.mean() - G) <= 3 * se_w, f"{name}: win rate off by {(won.mean()-G)/se_w:.1f} se"
    assert abs(cost.mean() - H) <= 3 * se_c, f"{name}: mean cost off by {(cost.mean()-H)/se_c:.1f} se"


@pytest.mark.parametrize(
    "mech",
    [
        MechanismSpec("second_price", 0.0, LognormalBids(0.0, 1.0)),
        MechanismSpec("second_price", 0.0, UniformBids(0.0, 1.0)),
        MechanismSpec("first_price", 0.0, LognormalBids(0.0, 1.0)),
        MechanismSpec("first_price", 0.0, UniformBids(0.0, 1.0)),
    ],
)
def test_log_concavity_condition(mech):
    # (log h)' > (log g)' wherever h > 0, the condition behind monotone bids
    comp = mech.competitor
    hi = comp.hi - 1e-3 if isinstance(comp, UniformBids) else 5.0
    grid = np.linspace(0.02, hi, 300)
    step = 1e-6
    h0 = cost_derivative(mech, grid)
    mask = h0 > 0
    log_h_slope = (
        np.log(cost_derivative(mech, grid[mask] + step))
        - np.log(cost_derivative(mech, grid[mask] - step))
    ) / (2 * step)
    log_g_slope = (
        np.log(win_density(mech, grid[mask] + step))
        - np.log(win_density(mech, grid[mask] - step))
    ) / (2 * step)
    assert np.all(log_h_slope > log_g_slope)


class TestEmpiricalModel:
    def test_step_cdf(self):
        emp = EmpiricalBids((1.0, 2.0, 3.0, 4.0))
        assert emp.cdf(2.5) == pytest.approx(0.5)
        assert emp.cdf(0.5) == 0.0
        assert emp.cdf(4.0) == 1.0

    def test_partial_expectation_is_discrete_sum(self):
        emp = EmpiricalBids((1.0, 2.0, 3.0, 4.0))
        assert emp.partial_expectation(2.5) == pytest.approx((1.0 + 2.0) / 4)

    def test_quantile_picks_samples(self):
        emp = EmpiricalBids((1.0, 2.0, 3.0, 4.0))
        assert emp.quantile(0.0) == 1.0
        assert emp.quantile(0.6) == 3.0
        assert emp.quantile(0.999) == 4.0

    def test_degenerate_sample_has_no_density(self):
        emp = EmpiricalBids((2.0, 2.0, 2.0))
        with pytest.raises(UnsupportedPointError):
            emp.pdf(2.0)

    def test_rejects_bad_samples(self):
        with pytest.raises(MechanismError):
            EmpiricalBids(())
        with pytest.raises(MechanismError):
            EmpiricalBids((1.0, -0.5))


class TestNdtri:
    def test_matches_scipy_across_the_range_and_into_both_tails(self):
        p = np.concatenate(
            [
                np.linspace(0.0, 1.0, 200_001)[1:-1],
                np.geomspace(1e-300, 0.5, 20_000),
                1.0 - np.geomspace(1e-16, 0.5, 20_000),
            ]
        )
        assert p.min() == 1e-300 and p.max() == 1.0 - 1e-16
        np.testing.assert_allclose(ndtri(p), special.ndtri(p), rtol=4e-15, atol=0.0)

    def test_endpoints_and_scalars(self):
        np.testing.assert_array_equal(ndtri(np.array([0.0, 0.5, 1.0])), [-np.inf, 0.0, np.inf])
        assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf
        assert type(ndtri(0.975)) is float
        assert ndtri(0.975) == pytest.approx(1.959963984540054, rel=1e-15)
        assert np.isnan(ndtri(np.array([-0.1, 1.1, np.nan]))).all()


class TestNormalUfuncs:
    UFUNCS = "scipy.special._special_ufuncs"

    def test_the_extension_file_gives_scipys_ndtr_and_log_ndtr_bit_for_bit(self, monkeypatch):
        # scipy.special is imported at the top of this file, so drop its
        # extension module from sys.modules to make the loader read the file
        monkeypatch.delitem(sys.modules, self.UFUNCS)
        ndtr, log_ndtr = mechanisms._normal_ufuncs()
        loaded = sys.modules[self.UFUNCS]
        assert loaded.__file__.endswith(tuple(importlib.machinery.EXTENSION_SUFFIXES))
        x = np.concatenate([np.linspace(-40.0, 40.0, 8001), [np.inf, -np.inf, np.nan]])
        assert ndtr(x).tobytes() == special.ndtr(x).tobytes()
        assert log_ndtr(x).tobytes() == special.log_ndtr(x).tobytes()
        assert mechanisms._normal_ufuncs() == (loaded.ndtr, loaded.log_ndtr)

    @pytest.mark.parametrize("failure", ["no_scipy", "not_an_extension", "no_ndtr"])
    def test_a_failed_lookup_falls_back_to_scipy_special(self, monkeypatch, tmp_path, failure):
        if failure == "no_ndtr":  # a module of that name without the two ufuncs
            monkeypatch.setitem(sys.modules, self.UFUNCS, types.ModuleType("stub"))
        else:
            monkeypatch.delitem(sys.modules, self.UFUNCS)
            package = tmp_path / "scipy"
            (package / "special").mkdir(parents=True)
            suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
            (package / "special" / f"_special_ufuncs{suffix}").write_bytes(b"not a library")
            spec = types.SimpleNamespace(origin=str(package / "__init__.py"))
            found = None if failure == "no_scipy" else spec
            monkeypatch.setattr(importlib.util, "find_spec", lambda name: found)
        assert mechanisms._normal_ufuncs() == (special.ndtr, special.log_ndtr)
        if failure != "no_ndtr":
            assert self.UFUNCS not in sys.modules


def test_table_quantile_equals_each_rows_own_quantile():
    # lognormal rows (two of them drift-shifted, as a stream's cells are),
    # uniform and empirical rows, under both auctions, interleaved
    base = LognormalBids(-0.3, 0.8)
    competitors = [
        base,
        LognormalBids(base.mu + 0.07, base.sigma),
        LognormalBids(base.mu - 0.25, base.sigma),
        LognormalBids(0.4, 1.3),
        UniformBids(0.1, 1.5),
        EmpiricalBids((0.2, 0.5, 0.5, 0.9, 1.3)),
    ]
    specs = [
        MechanismSpec(auction, reserve, c)
        for auction in ("first_price", "second_price")
        for reserve in (0.0, 0.4)
        for c in competitors
    ] * 50
    u = np.random.default_rng(5).random(len(specs))
    u[::13] = 0.0
    u[1::29] = -0.2
    u[2::31] = 1e-320
    u[3::37] = 1.0 - 1e-17
    table = MechanismTable.from_specs(specs)
    out = table.quantile(u)
    np.testing.assert_array_equal(out, [s.competitor.quantile(x) for s, x in zip(specs, u)])
    lognormal = np.array([s.competitor.family == "lognormal" for s in specs])
    assert (out[lognormal & (u <= 0.0)] == 0.0).all()
    assert (out[lognormal & (u > 0.0)] > 0.0).all()
    # a one-row table takes draws of any shape
    grid = u[:12].reshape(3, 4)
    np.testing.assert_array_equal(LOGN.table.quantile(grid), LOGN.competitor.quantile(grid))


class TestValidation:
    def test_lognormal_sigma(self):
        with pytest.raises(MechanismError):
            LognormalBids(0.0, 0.0)

    def test_uniform_bounds(self):
        with pytest.raises(MechanismError):
            UniformBids(1.0, 1.0)
        with pytest.raises(MechanismError):
            UniformBids(-0.5, 1.0)

    def test_mechanism_fields(self):
        with pytest.raises(MechanismError):
            MechanismSpec("all_pay", 0.0, UniformBids(0.0, 1.0))
        with pytest.raises(MechanismError):
            MechanismSpec("first_price", -1.0, UniformBids(0.0, 1.0))


def test_competitor_wire_format_round_trip():
    models = [
        LognormalBids(0.3, 1.1),
        UniformBids(0.2, 2.5),
        EmpiricalBids((0.5, 1.0, 1.5)),
    ]
    for model in models:
        assert competitor_from_dict(competitor_to_dict(model)) == model
    with pytest.raises(MechanismError):
        competitor_from_dict({"family": "beta"})


def _curves_one_at_a_time(table: MechanismTable, b):
    """(H, G, markup) with each curve evaluated on its own: the reference
    for the one-pass evaluation of cost_and_win and markup."""
    b = np.asarray(b, dtype=float)

    def col(per_row):
        if len(per_row) == 1:
            return per_row[0]
        return per_row.reshape(per_row.shape + (1,) * (b.ndim - 1))

    reserve = col(table.reserve)
    G = np.where(b >= reserve, table.cdf(b), 0.0)
    g = np.where(b >= reserve, table.pdf(b), 0.0)
    cdf_r, pe_r = col(table.cdf(table.reserve)), col(table.partial_expectation(table.reserve))
    tail = np.maximum(table.partial_expectation(b) - pe_r, 0.0)
    second = np.where(b >= reserve, reserve * cdf_r + tail, 0.0)
    H = np.where(col(table.first_price), b * G, second)
    markup = b + np.where(G <= 0.0, 0.0, np.where(g <= 0.0, np.inf, G / np.maximum(g, 1e-300)))
    return H, G, markup


FUSED_SPECS = [
    MechanismSpec(auction, reserve, competitor)
    for auction in ("first_price", "second_price")
    for reserve in (0.0, 0.4)
    for competitor in (
        LognormalBids(-0.3, 0.8),
        UniformBids(0.1, 1.5),
        EmpiricalBids((0.2, 0.5, 0.5, 0.9, 1.3)),
    )
]


COST_BIDS = (0.0, 0.3, 0.4, 0.7, 1.3, 1.6, 40.0)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def test_one_curve_pass_matches_each_curve_on_its_own():
    # with and without reserves and first-price rows, which a table skips
    # where it has none; and with a 0.0 bid, which masks a lognormal row's
    # curves, and without
    spec_sets = (
        FUSED_SPECS,
        [s for s in FUSED_SPECS if s.reserve == 0.0],
        [s for s in FUSED_SPECS if s.reserve == 0.0 and not s.is_first_price],
    )
    for base, bid_set in itertools.product(spec_sets, (COST_BIDS, COST_BIDS[1:])):
        # each spec meets each bid: below, at and above the reserve, and
        # above the support top
        specs = base * len(bid_set)
        table = MechanismTable.from_specs(specs)
        bids = np.repeat(bid_set, len(base))
        H, G = table.cost_and_win(bids)
        H_ref, G_ref, markup_ref = _curves_one_at_a_time(table, bids)
        np.testing.assert_array_equal(G, G_ref)
        np.testing.assert_array_equal(H, H_ref)
        np.testing.assert_array_equal(table.markup(bids), markup_ref)
        np.testing.assert_array_equal(table.win_prob(bids), G)
        np.testing.assert_array_equal(table.expected_cost(bids), H)
        for i, spec in enumerate(specs):
            assert win_prob(spec, bids[i]) == G[i]
            assert expected_cost(spec, bids[i]) == H[i]


@pytest.mark.parametrize(
    "spec", FUSED_SPECS[::2], ids=lambda s: f"{s.auction_type}-{s.reserve}-{s.competitor.family}"
)
def test_one_curve_pass_on_a_one_row_table_takes_2d_bids(spec):
    bids = np.array([[0.0, 0.3, 0.4], [0.7, 1.6, 40.0]])
    H, G = spec.table.cost_and_win(bids)
    H_ref, G_ref, markup_ref = _curves_one_at_a_time(spec.table, bids)
    assert H.shape == G.shape == bids.shape
    np.testing.assert_array_equal(G, G_ref)
    np.testing.assert_array_equal(H, H_ref)
    np.testing.assert_array_equal(spec.table.markup(bids), markup_ref)
    np.testing.assert_array_equal(win_prob(spec, bids), G)
    np.testing.assert_array_equal(expected_cost(spec, bids), H)
    # bids all > 0 read each curve unmasked; a 0.0 bid appended masks them,
    # and changes no bit of the others
    positive = np.array(COST_BIDS[1:])
    for name in ("cdf", "pdf", "partial_expectation", "win_prob", "win_density",
                 "expected_cost", "cost_derivative", "markup"):  # fmt: skip
        curve = getattr(MechanismTable, name)
        masked = curve(spec.table, np.append(positive, 0.0))[:-1]
        assert np.array_equal(_bits(curve(spec.table, positive)), _bits(masked)), name


@pytest.mark.parametrize(
    "rows", [slice(None), slice(0, 1), slice(1, 2), np.arange(0, 84, 3)], ids=str
)
def test_lazily_planned_table_matches_an_eager_one(rows):
    # a taken table builds its evaluation plan on its first curve call; its
    # curves equal those of a table over the same specs planned at once
    specs = FUSED_SPECS * 7
    parent = MechanismTable.from_specs(specs)
    parent.cdf(np.ones(len(specs)))
    lazy = parent.take(rows)
    assert "_plan" not in vars(lazy)
    eager = MechanismTable.from_specs(np.array(specs, dtype=object)[rows].tolist())
    assert eager._plan
    bids = np.array([0.0, 0.3, 0.4, 0.7, 1.3, 1.6, 40.0])[np.arange(len(lazy)) % 7]
    for name in ("cdf", "pdf", "partial_expectation", "markup", "cost_and_win"):
        np.testing.assert_array_equal(getattr(lazy, name)(bids), getattr(eager, name)(bids))
    assert "_plan" in vars(lazy)


class _ParetoBids:
    """A competing-bid model of no built-in family, Pareto(1, 2), that counts
    the calls of each of its curves."""

    family = "pareto"
    support_top = math.inf

    def __init__(self):
        self.calls = {"cdf": 0, "pdf": 0, "partial_expectation": 0}

    def cdf(self, b):
        self.calls["cdf"] += 1
        b = np.maximum(np.asarray(b, dtype=float), 1.0)
        return 1.0 - 1.0 / (b * b)

    def pdf(self, b):
        self.calls["pdf"] += 1
        b = np.asarray(b, dtype=float)
        return np.where(b > 1.0, 2.0 / np.maximum(b, 1.0) ** 3, 0.0)

    def partial_expectation(self, b):
        self.calls["partial_expectation"] += 1
        return 2.0 - 2.0 / np.maximum(np.asarray(b, dtype=float), 1.0)


AUCTIONS = {
    "second": ("second_price",),
    "first": ("first_price",),
    "mixed": ("first_price", "second_price"),
}


@pytest.mark.parametrize("auctions", AUCTIONS.values(), ids=AUCTIONS)
def test_expected_cost_alone_equals_cost_and_win_bit_for_bit(auctions):
    specs = [
        MechanismSpec(auction, reserve, competitor)
        for auction in auctions
        for reserve in (0.0, 0.4)
        for competitor in (
            LognormalBids(-0.3, 0.8),
            UniformBids(0.1, 1.5),
            EmpiricalBids((0.2, 0.5, 0.5, 0.9, 1.3)),
            _ParetoBids(),
        )
    ]
    table = MechanismTable.from_specs(specs * 7)
    bids = np.array([COST_BIDS[i % 7] for i in range(len(table))])
    for b in (bids, np.stack([bids, bids[::-1]], axis=1)):  # 1-D, and 2-D: two bids a row
        assert np.array_equal(_bits(table.expected_cost(b)), _bits(table.cost_and_win(b)[0]))
    # one-row tables take bids of any shape
    square = np.array([COST_BIDS[:3], COST_BIDS[4:]])
    for spec in specs:
        for b in (np.array(COST_BIDS), square):
            want = spec.table.cost_and_win(b)[0]
            assert np.array_equal(_bits(spec.table.expected_cost(b)), _bits(want))


@pytest.mark.parametrize("auctions", AUCTIONS.values(), ids=AUCTIONS)
def test_expected_cost_evaluates_only_the_curve_its_rows_need(auctions):
    first, second = "first_price" in auctions, "second_price" in auctions
    want = {"cdf": int(first), "pdf": 0, "partial_expectation": int(second)}
    model = _ParetoBids()
    table = MechanismTable.from_specs([MechanismSpec(a, 0.4, model) for a in auctions])
    table.expected_cost(np.full(len(table), 0.3))  # the curves at the reserve, read once
    model.calls = dict.fromkeys(model.calls, 0)
    table.expected_cost(np.full(len(table), 2.0))
    assert model.calls == want
    # a table with no reserve never reads the curves at it, not even at its
    # first read
    model = _ParetoBids()
    table = MechanismTable.from_specs([MechanismSpec(a, 0.0, model) for a in auctions])
    table.expected_cost(np.full(len(table), 2.0))
    assert model.calls == want


UNIFORM_TABLE_SPECS = [
    (auction, reserve, competitor)
    for auction in ("second_price", "first_price")
    for reserve in (0.0, 0.4)
    for competitor in (LognormalBids(-0.3, 0.8), UniformBids(0.1, 1.5))
]


@pytest.mark.parametrize(
    "auction, reserve, competitor",
    UNIFORM_TABLE_SPECS,
    ids=[f"{a}-{r}-{c.family}" for a, r, c in UNIFORM_TABLE_SPECS],
)
def test_a_uniform_table_equals_its_rows_as_one_row_tables(auction, reserve, competitor):
    # equal specs held by distinct objects make one uniform table, whose
    # curves read each parameter as one scalar: every row equals itself
    # evaluated as a one-row table, bit for bit
    from dualbid.bidding import shade_bids

    n = len(COST_BIDS) * 6
    table = MechanismTable.from_specs(
        [MechanismSpec(auction, reserve, copy.copy(competitor)) for _ in range(n)]
    )
    assert table.uniform and table.take(np.arange(1, n, 4)).uniform
    one = MechanismSpec(auction, reserve, competitor).table
    bids = np.array(COST_BIDS * 6) * np.repeat([0.5, 0.8, 1.0, 1.2, 1.5, 2.0], len(COST_BIDS))
    u = np.random.default_rng(3).random(n)
    u[::9] = 0.0

    def each(curve, x):
        return np.concatenate([np.atleast_1d(curve(one, x[i : i + 1])) for i in range(n)])

    for name in ("cdf", "pdf", "partial_expectation", "expected_cost", "markup"):
        curve = getattr(MechanismTable, name)
        assert np.array_equal(_bits(curve(table, bids)), _bits(each(curve, bids))), name
    assert np.array_equal(_bits(table.quantile(u)), _bits(each(MechanismTable.quantile, u)))
    H, G = table.cost_and_win(bids)
    assert np.array_equal(_bits(H), _bits(each(lambda t, b: t.cost_and_win(b)[0], bids)))
    assert np.array_equal(_bits(G), _bits(each(lambda t, b: t.cost_and_win(b)[1], bids)))
    shade = lambda t, x: shade_bids(t, x, 1.2)[0]
    assert np.array_equal(_bits(shade(table, bids)), _bits(each(shade, bids)))
    # an empty take of a uniform table still evaluates
    assert table.take(np.arange(0)).expected_cost(np.empty(0)).shape == (0,)


def test_a_table_of_two_specs_is_not_uniform():
    a = MechanismSpec("second_price", 0.0, LognormalBids(-0.3, 0.8))
    b = MechanismSpec("second_price", 0.0, LognormalBids(-0.2, 0.8))
    table = MechanismTable.from_specs([a, a, b, a])
    assert not table.uniform and not table.take(np.arange(2)).uniform
    assert MechanismTable.from_specs([a, a]).uniform
    bids = np.array([0.3, 0.7, 0.7, 1.3])
    rows = (a.table, a.table, b.table, a.table)
    want = [t.expected_cost(bids[i : i + 1])[0] for i, t in enumerate(rows)]
    assert np.array_equal(_bits(table.expected_cost(bids)), _bits(want))
