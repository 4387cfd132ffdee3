"""Hindsight oracle tests: replay, dual solutions, KKT search, diagnostics."""

import re

import numpy as np
import pytest
from scipy.integrate import quad

from dualbid.bidding import LAMBDA_FLOOR
from dualbid.coldstart import PlacementPriors, expected_spend_per_opportunity, solve_lambda0
from dualbid.mechanisms import LognormalBids, MechanismSpec, UniformBids
from dualbid.oracle import (
    LogRecord,
    MultiplierProfile,
    OpportunityLog,
    OracleError,
    dual_value,
    fixed_bid_baseline,
    marginal_roi,
    prop1_residual,
    replay,
    search_multiplier,
    solve_kkt_grid,
    solve_lambda_star,
)
from dualbid.pacing import ConstraintSet, DeliveryWindow, GuaranteeWindow
from helpers import (
    enumerate_best_winset,
    quantile_lognormal_log,
    replay_by_record,
    threshold_lambda,
)

UNIFORM_SP = MechanismSpec("second_price", 0.0, UniformBids(0.0, 1.0))
UNIFORM_FP = MechanismSpec("first_price", 0.0, UniformBids(0.0, 1.0))
LOGN_SP = MechanismSpec("second_price", 0.0, LognormalBids(0.0, 1.0))


def realized_log(outcomes, mech=UNIFORM_SP):
    return OpportunityLog(
        [
            LogRecord(time=float(i), placement="p", value=v, mechanism=mech, clearing_bid=c)
            for i, (v, c) in enumerate(outcomes)
        ]
    )


THREE = [(1.0, 0.5), (2.0, 0.5), (3.0, 0.5)]


class TestReplay:
    def test_huge_multiplier_wins_nothing(self):
        log = quantile_lognormal_log(50, LOGN_SP, -1.0, 0.5)
        result = replay(log, MultiplierProfile(lam=1e12))
        assert result.spend == pytest.approx(0.0, abs=1e-12)
        assert result.value == pytest.approx(0.0, abs=1e-12)

    def test_single_uniform_record(self):
        log = OpportunityLog(
            [LogRecord(time=0.0, placement="p", value=1.0, mechanism=UNIFORM_SP)]
        )
        result = replay(log, MultiplierProfile(lam=2.0))
        expected_spend, _ = quad(lambda z: z, 0.0, 0.5)
        assert result.spend == pytest.approx(expected_spend, abs=1e-12)
        assert result.value == pytest.approx(0.5)

    def test_realized_three_records(self):
        # at lam = 3 the bids 1/3, 2/3, 1 win against 0.5 for v = 2 and v = 3
        result = replay(realized_log(THREE), MultiplierProfile(lam=3.0))
        assert result.spend == pytest.approx(1.0)
        assert result.value == pytest.approx(5.0)

    def test_per_placement_split(self):
        records = [
            LogRecord(time=0.0, placement="a", value=1.0, mechanism=UNIFORM_SP),
            LogRecord(time=1.0, placement="b", value=2.0, mechanism=UNIFORM_SP),
        ]
        result = replay(OpportunityLog(records), MultiplierProfile(lam=4.0))
        assert set(result.per_placement) == {"a", "b"}
        total = sum(s for s, _ in result.per_placement.values())
        assert total == pytest.approx(result.spend)

    def test_window_multipliers_only_apply_to_members(self):
        records = [
            LogRecord(time=0.0, placement="p", value=1.0, mechanism=UNIFORM_SP, windows=("w",)),
            LogRecord(time=1.0, placement="p", value=1.0, mechanism=UNIFORM_SP),
        ]
        log = OpportunityLog(records)
        base = replay(log, MultiplierProfile(lam=2.0))
        damped = replay(log, MultiplierProfile(lam=2.0, window_lambda={"w": 2.0}))
        # the window record bids 1/4 instead of 1/2, the other is untouched
        assert damped.per_window["w"][0] < base.per_window["w"][0]
        assert damped.spend == pytest.approx(
            base.spend - base.per_window["w"][0] + damped.per_window["w"][0]
        )


class TestSearchMultiplier:
    def test_floor_that_fits_is_returned(self):
        assert search_multiplier(lambda x: -1.0, 0.0, 10.0) == (0.0, None)

    def test_step_returns_fitting_side_of_final_bracket(self):
        seen = []

        def excess(x):
            seen.append(x)
            return 1.0 if x < 5.3 else -1.0

        x, (lo, hi, r_lo, r_hi) = search_multiplier(excess, 1e-9, 1e6)
        assert seen[:4] == [1e-9, 1.0, 4.0, 16.0]
        assert lo < 5.3 <= hi == x
        assert hi - lo <= 1e-12 * hi
        assert (r_lo, r_hi) == (1.0, -1.0)

    def test_tolerance_stops_on_smooth_excess(self):
        x, (lo, hi, _, _) = search_multiplier(lambda x: 2.0 - x, 0.0, 10.0, tol=1e-3)
        assert abs(x - 2.0) <= 1e-3
        assert lo <= x <= hi

    def test_limit_is_tried_then_given_up(self):
        assert search_multiplier(lambda x: 1.0, 0.0, 100.0) is None
        x, _ = search_multiplier(lambda x: 1.0 if x < 99.0 else -1.0, 0.0, 100.0)
        assert 99.0 <= x <= 100.0
        x, _ = search_multiplier(lambda x: 1.0 if x < 0.25 else -1.0, 0.0, 0.5)
        assert 0.25 <= x <= 0.5


class TestSolveLambdaStar:
    def test_matches_cold_start_closed_form(self):
        mech = MechanismSpec("second_price", 0.0, LognormalBids(0.2, 0.9))
        log = quantile_lognormal_log(20_000, mech, -1.0, 0.5)
        priors = PlacementPriors(0.2, 0.9, -1.0, 0.5, len(log))
        lam_target = 1.4
        budget = len(log) * expected_spend_per_opportunity(priors, lam_target)
        sol = solve_lambda_star(log, budget)
        assert abs(sol.lam - lam_target) / lam_target <= 1e-4
        assert abs(sol.spend - budget) <= 1e-6 * budget
        closed = solve_lambda0(priors, budget)
        assert abs(sol.lam - closed.lam) / closed.lam <= 1e-4

    def test_unconstrained_flag(self):
        log = realized_log(THREE)
        sol = solve_lambda_star(log, budget=10.0)
        assert sol.unconstrained
        assert sol.lam == LAMBDA_FLOOR

    def test_realized_bracket_matches_enumeration(self):
        best_value, _ = enumerate_best_winset(THREE, budget=1.0)
        jump = threshold_lambda(THREE, budget=1.0)
        sol = solve_lambda_star(realized_log(THREE), budget=1.0)
        assert sol.bracket is not None
        lo, hi = sol.bracket
        assert lo <= jump <= hi + 1e-9
        assert sol.lam == pytest.approx(jump, rel=1e-6)
        assert sol.spend <= 1.0
        assert sol.value == pytest.approx(best_value)

    def test_non_monotone_spend_is_reported(self):
        class _BadModel:
            # partial expectation that falls as the bid rises, so replayed
            # spend grows with the multiplier over part of the range
            family = "bad"
            support_top = np.inf

            def cdf(self, b):
                arr = np.asarray(b, dtype=float)
                return np.clip(arr / (1.0 + arr), 0.0, 1.0)

            def pdf(self, b):
                arr = np.asarray(b, dtype=float)
                return 1.0 / (1.0 + arr) ** 2

            def partial_expectation(self, b):
                arr = np.asarray(b, dtype=float)
                return np.where(arr > 0, 0.5 + 0.5 / (1.0 + arr) + 1e-3 * arr, 0.0)

            def quantile(self, u):
                return np.asarray(u, dtype=float)

            def mean(self):
                return 0.5

        mech = MechanismSpec("second_price", 0.0, _BadModel())
        log = OpportunityLog(
            [LogRecord(time=0.0, placement="p", value=1.0, mechanism=mech)]
        )
        with pytest.raises(OracleError, match="record 0"):
            solve_lambda_star(log, budget=0.8)


class TestDualProperties:
    def _log(self):
        return quantile_lognormal_log(2000, LOGN_SP, -1.0, 0.5)

    def test_spend_and_value_monotone(self):
        log = self._log()
        grid = np.geomspace(0.05, 50.0, 200)
        spends, values = [], []
        for lam in grid:
            r = replay(log, MultiplierProfile(lam=float(lam)))
            spends.append(r.spend)
            values.append(r.value)
        assert np.all(np.diff(spends) <= 1e-9)
        assert np.all(np.diff(values) <= 1e-9)

    def test_dual_function_convex_and_minimized_at_lam_star(self):
        log = self._log()
        budget = 0.05 * len(log)
        sol = solve_lambda_star(log, budget)
        grid = np.geomspace(sol.lam / 4, sol.lam * 4, 61)
        duals = np.array([dual_value(log, budget, float(l)) for l in grid])
        second_diff = duals[:-2] - 2 * duals[1:-1] + duals[2:]
        assert np.all(second_diff >= -1e-8)
        assert duals.min() == pytest.approx(dual_value(log, budget, sol.lam), rel=1e-3)

    def test_weak_duality_on_small_realized_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(4, 13))
            outcomes = [
                (float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 1.0))) for _ in range(n)
            ]
            budget = float(rng.uniform(0.3, 1.5))
            best_value, _ = enumerate_best_winset(outcomes, budget)
            log = realized_log(outcomes)
            grid = np.geomspace(1e-3, 1e3, 200)
            dual_min = min(dual_value(log, budget, float(l)) for l in grid)
            assert dual_min >= best_value - 1e-9


class TestKktGrid:
    def test_reduces_to_budget_solver(self):
        log = quantile_lognormal_log(2000, LOGN_SP, -1.0, 0.5)
        budget = 0.05 * len(log)
        plain = solve_lambda_star(log, budget)
        kkt = solve_kkt_grid(log, ConstraintSet(budget=budget))
        assert kkt.profile.lam == pytest.approx(plain.lam, rel=1e-6)
        assert kkt.profile.mu == 0.0

    def test_generous_cost_target_slack(self):
        log = quantile_lognormal_log(2000, LOGN_SP, -1.0, 0.5)
        budget = 0.05 * len(log)
        plain = solve_lambda_star(log, budget)
        kkt = solve_kkt_grid(log, ConstraintSet(budget=budget, cost_target=100.0))
        assert kkt.profile.mu <= 1e-9
        assert kkt.profile.lam == pytest.approx(plain.lam, rel=1e-6)

    def test_binding_cost_target(self):
        log = quantile_lognormal_log(2000, LOGN_SP, -1.0, 0.5)
        budget = 0.05 * len(log)
        plain = solve_lambda_star(log, budget)
        natural = plain.spend / plain.value
        target = 0.8 * natural
        kkt = solve_kkt_grid(log, ConstraintSet(budget=budget, cost_target=target))
        check = replay(log, kkt.profile)
        assert kkt.profile.mu > 1e-9
        assert abs(check.spend / check.value - target) <= 1e-3 * target

    def test_binding_delivery_window(self):
        records = []
        for i in range(2000):
            windows = ("w",) if i < 1000 else ()
            records.append(
                LogRecord(
                    time=float(i),
                    placement="p",
                    value=float(np.exp(-1.0)),
                    mechanism=LOGN_SP,
                    windows=windows,
                )
            )
        log = OpportunityLog(records)
        budget = 0.06 * len(log)
        base = solve_kkt_grid(log, ConstraintSet(budget=budget))
        w_spend = base.replay.per_window["w"][0]
        cap = 0.6 * w_spend
        kkt = solve_kkt_grid(
            log,
            ConstraintSet(budget=budget, delivery_windows=(DeliveryWindow("w", 0, 1, cap),)),
        )
        check = replay(log, kkt.profile)
        assert kkt.profile.window_lambda["w"] > 1e-9
        assert abs(check.per_window["w"][0] - cap) <= 1e-3 * cap
        # smooth curves meet their targets, so no step note
        assert not any("exceeds rel_tol" in n for n in kkt.notes)

    def test_infeasible_guarantee_reported(self):
        log = quantile_lognormal_log(500, LOGN_SP, -1.0, 0.5)
        total_value = sum(r.value for r in log.records)
        records = [
            LogRecord(
                time=r.time,
                placement=r.placement,
                value=r.value,
                mechanism=r.mechanism,
                windows=("g",),
            )
            for r in log.records
        ]
        glog = OpportunityLog(records)
        constraints = ConstraintSet(
            budget=0.05 * len(glog),
            guarantee_windows=(GuaranteeWindow("g", 0, 1, 2.0 * total_value),),
        )
        kkt = solve_kkt_grid(glog, constraints)
        assert not kkt.feasible
        assert any("max achievable" in n for n in kkt.notes)

    @staticmethod
    def _realized_window_log():
        """30 realized records, every other one in window "w", with a budget
        and a window cap of half the window spend at the budget optimum."""
        rng = np.random.default_rng(4)
        records = [
            LogRecord(
                time=float(i),
                placement="p",
                value=float(rng.uniform(0.5, 3.0)),
                mechanism=UNIFORM_SP,
                clearing_bid=float(rng.uniform(0.2, 1.0)),
                windows=("w",) if i % 2 else (),
            )
            for i in range(30)
        ]
        log = OpportunityLog(records)
        budget = 5.0
        base = solve_kkt_grid(log, ConstraintSet(budget=budget))
        return log, budget, 0.5 * base.replay.per_window["w"][0]

    def test_realized_residual_note_names_the_step(self):
        # realized spend is a step function of the multipliers: a budget or
        # window cap inside a step leaves a residual above rel_tol, and the
        # note shows the step across the final bracket of the search
        log, budget, cap = self._realized_window_log()
        constraints = ConstraintSet(
            budget=budget, delivery_windows=(DeliveryWindow("w", 0, 1, cap),)
        )
        kkt = solve_kkt_grid(log, constraints)
        multipliers = {"budget": kkt.profile.lam, "delivery": kkt.profile.window_lambda["w"]}
        targets = {"budget": budget, "delivery": cap}
        finals = {"budget": kkt.replay.spend, "delivery": kkt.replay.per_window["w"][0]}
        pattern = r"steps from (\S+) at \S+=(\S+) to (\S+) at \S+=(\S+), the final bracket"
        for name in ("budget", "delivery"):
            residual = kkt.residuals[name]
            assert residual > 1e-4
            (note,) = [n for n in kkt.notes if n.startswith(f"{name} residual")]
            at_lo, lo, at_hi, hi = map(float, re.search(pattern, note).groups())
            assert lo < hi == multipliers[name]
            assert at_lo > targets[name] >= at_hi
            assert at_hi == pytest.approx(finals[name], rel=1e-11)
            assert residual * targets[name] == pytest.approx(abs(at_hi - targets[name]))
            if name == "budget":
                assert replay(log, kkt.profile.with_lam(lo)).spend == pytest.approx(at_lo)

    def test_realized_result_keeps_window_cap(self):
        # the inner budget solve depends only on the multipliers, so the
        # result is the high, fitting end of the delivery search
        log, budget, cap = self._realized_window_log()
        kkt = solve_kkt_grid(
            log, ConstraintSet(budget=budget, delivery_windows=(DeliveryWindow("w", 0, 1, cap),))
        )
        assert kkt.feasible
        assert kkt.replay.spend <= budget
        assert kkt.replay.per_window["w"][0] <= cap * (1 + 1e-4)
        assert replay(log, kkt.profile).per_window["w"][0] == kkt.replay.per_window["w"][0]
        profile = kkt.profile
        for m in (profile.lam, profile.mu, *profile.window_lambda.values()):
            assert type(m) is float


class TestMarginalRoi:
    def test_single_placement_matches_lambda(self):
        log = quantile_lognormal_log(5000, LOGN_SP, -1.0, 0.5)
        budget = 0.05 * len(log)
        sol = solve_lambda_star(log, budget)
        roi = marginal_roi(log, budget)
        assert abs(roi.roi["p"] - sol.lam) / sol.lam <= 0.02

    def test_two_placements_equalized(self):
        mech_b = MechanismSpec("second_price", 0.0, LognormalBids(0.3, 0.8))
        log_a = quantile_lognormal_log(3000, LOGN_SP, -1.0, 0.5, placement="a")
        log_b = quantile_lognormal_log(3000, mech_b, -0.7, 0.6, placement="b")
        merged = [
            LogRecord(
                time=float(i),
                placement=r.placement,
                value=r.value,
                mechanism=r.mechanism,
            )
            for i, r in enumerate(log_a.records + log_b.records)
        ]
        log = OpportunityLog(merged)
        budget = 0.05 * len(log)
        sol = solve_lambda_star(log, budget)
        roi = marginal_roi(log, budget)
        values = list(roi.roi.values())
        assert abs(values[0] - values[1]) / max(values) <= 0.02
        for v in values:
            assert abs(v - sol.lam) / sol.lam <= 0.02

    @pytest.mark.parametrize("placements", [1, 2])
    def test_shared_curves_match_separate_solves(self, placements, monkeypatch):
        import dualbid.oracle as oracle

        mech_b = MechanismSpec("second_price", 0.0, LognormalBids(0.3, 0.8))
        records = quantile_lognormal_log(1500, LOGN_SP, -1.0, 0.5, placement="a").records
        if placements == 2:
            records += quantile_lognormal_log(1500, mech_b, -0.7, 0.6, placement="b").records
        log = OpportunityLog(
            [LogRecord(float(i), r.placement, r.value, r.mechanism) for i, r in enumerate(records)]
        )
        budget, delta = 0.05 * len(log), 0.05 * len(log) * 1e-3
        replays = []
        original = oracle.replay
        monkeypatch.setattr(oracle, "replay", lambda *a: replays.append(1) or original(*a))

        # the same central differences, each solve on a curve of its own
        lam = solve_lambda_star(log, budget).lam
        expected = {}
        base = original(log, MultiplierProfile(lam=lam))
        for placement, (spend_k, _) in base.per_placement.items():
            sub = log.restrict_to_placement(placement)
            up, down = (solve_lambda_star(sub, spend_k + s * delta).value for s in (1, -1))
            expected[placement] = (up - down) / (2.0 * delta)
        separate = len(replays)

        replays.clear()
        roi = marginal_roi(log, budget)
        assert roi.roi == expected and roi.lam == lam
        assert len(replays) < separate

    def test_single_placement_restricts_to_itself(self):
        log = quantile_lognormal_log(20, LOGN_SP, -1.0, 0.5)
        assert log.restrict_to_placement("p") is log

    def test_unconstrained_is_zero(self):
        log = quantile_lognormal_log(200, LOGN_SP, -1.0, 0.5)
        roi = marginal_roi(log, budget=1e6)
        assert all(v == 0.0 for v in roi.roi.values())

    def test_needs_distributional_log(self):
        with pytest.raises(OracleError):
            marginal_roi(realized_log(THREE), budget=1.0)


class TestProp1:
    def test_second_price_lognormal(self):
        log = quantile_lognormal_log(2000, LOGN_SP, -1.0, 0.5)
        budget = 0.05 * len(log)
        sol = solve_lambda_star(log, budget)
        check = prop1_residual(log, sol.lam)
        assert check.v_prime <= 1e-9
        assert check.s_prime <= 1e-9
        assert check.residual <= 1e-3 * abs(check.v_prime)

    def test_first_price_uniform(self):
        log = quantile_lognormal_log(2000, UNIFORM_FP, -1.0, 0.4)
        sol = solve_lambda_star(log, budget=0.04 * len(log))
        check = prop1_residual(log, sol.lam)
        assert check.v_prime <= 1e-9
        assert check.s_prime <= 1e-9
        assert check.residual <= 1e-3 * abs(check.v_prime)

    def test_flat_region(self):
        # tiny multiplier: every bid clears the whole uniform support, so
        # both derivatives vanish
        log = quantile_lognormal_log(200, UNIFORM_SP, 1.0, 0.3)
        check = prop1_residual(log, 1e-4)
        assert check.v_prime == pytest.approx(0.0, abs=1e-9)
        assert check.s_prime == pytest.approx(0.0, abs=1e-9)
        assert check.residual == pytest.approx(0.0, abs=1e-9)


class TestFixedBidBaseline:
    def test_hand_computed(self):
        outcomes = [(1.0, 0.2), (2.0, 0.6), (3.0, 1.1)]
        baseline = fixed_bid_baseline(realized_log(outcomes), budget=0.9)
        # constant bid in [0.6, 1.1) wins the first two at cost 0.8
        assert 0.6 <= baseline.bid < 1.1
        assert baseline.spend == pytest.approx(0.8)
        assert baseline.value == pytest.approx(3.0)

    def test_needs_realized_log(self):
        with pytest.raises(OracleError):
            fixed_bid_baseline(quantile_lognormal_log(10, LOGN_SP, 0.0, 1.0), budget=1.0)


def test_replay_matches_per_record_reference():
    # the table replay must agree with scalar per-record evaluation across
    # families, auction types, reserves, windows, and realized/model
    # records; value-equal mechanisms built as distinct objects included
    from dualbid.mechanisms import EmpiricalBids

    rng = np.random.default_rng(33)
    samples = tuple(rng.lognormal(0, 0.5, 50))
    mechs = [
        MechanismSpec("second_price", 0.0, LognormalBids(0.1, 0.9)),
        MechanismSpec("first_price", 0.05, LognormalBids(-0.2, 0.7)),
        MechanismSpec("second_price", 0.1, UniformBids(0.0, 1.5)),
        MechanismSpec("first_price", 0.0, UniformBids(0.2, 1.2)),
        MechanismSpec("first_price", 0.5, UniformBids(0.2, 1.2)),
        MechanismSpec("second_price", 0.0, EmpiricalBids(samples)),
        MechanismSpec("first_price", 0.3, EmpiricalBids(samples)),
        MechanismSpec("first_price", 0.05, LognormalBids(-0.2, 0.7)),
        MechanismSpec("second_price", 0.0, EmpiricalBids(samples)),
    ]
    assert mechs[7] == mechs[1] and mechs[7] is not mechs[1]
    records = []
    for i in range(450):
        mech = mechs[i % len(mechs)]
        records.append(
            LogRecord(
                time=float(i),
                placement="a" if i % 2 else "b",
                value=float(rng.lognormal(-0.8, 0.6)),
                mechanism=mech,
                clearing_bid=float(rng.lognormal(0.0, 0.8)) if i % 3 == 0 else None,
                windows=("w",) if i % 5 == 0 else (),
            )
        )
    log = OpportunityLog(records)
    profile = MultiplierProfile(
        lam=1.7, mu=0.4, cost_target=0.3, window_lambda={"w": 0.6}, window_mu={}
    )
    fast = replay(log, profile)

    slow_spend, slow_value, slow_placements, slow_windows = replay_by_record(log, profile)
    assert fast.spend == pytest.approx(slow_spend, rel=1e-9)
    assert fast.value == pytest.approx(slow_value, rel=1e-9)
    assert set(fast.per_placement) == set(slow_placements)
    assert set(fast.per_window) == set(slow_windows)
    for k, (s, v) in slow_placements.items():
        assert fast.per_placement[k][0] == pytest.approx(s, rel=1e-9)
        assert fast.per_placement[k][1] == pytest.approx(v, rel=1e-9)
    for k, (s, v) in slow_windows.items():
        assert fast.per_window[k][0] == pytest.approx(s, rel=1e-9)
        assert fast.per_window[k][1] == pytest.approx(v, rel=1e-9)


def test_log_validation():
    with pytest.raises(OracleError):
        OpportunityLog([])
    with pytest.raises(OracleError):
        OpportunityLog(
            [
                LogRecord(time=1.0, placement="p", value=1.0, mechanism=UNIFORM_SP),
                LogRecord(time=0.0, placement="p", value=1.0, mechanism=UNIFORM_SP),
            ]
        )
    with pytest.raises(OracleError):
        LogRecord(time=0.0, placement="p", value=-1.0, mechanism=UNIFORM_SP)
    with pytest.raises(OracleError):
        LogRecord(time=0.0, placement="p", value=1.0, mechanism=UNIFORM_SP, clearing_bid=np.nan)


def test_mode_counts_realized_records():
    model = LogRecord(time=0.0, placement="p", value=1.0, mechanism=UNIFORM_SP)
    realized = LogRecord(time=0.0, placement="p", value=1.0, mechanism=UNIFORM_SP, clearing_bid=0.5)
    assert OpportunityLog([model, model]).mode == "distributional"
    assert OpportunityLog([realized, realized]).mode == "realized"
    assert OpportunityLog([model, realized]).mode == "mixed"
    assert OpportunityLog([realized, model, model]).mode == "mixed"
