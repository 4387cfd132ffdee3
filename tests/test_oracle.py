"""Hindsight oracle tests: replay, dual solutions, KKT search, diagnostics."""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from dualbid import bidding, oracle
from dualbid.bidding import DEFAULT_BID_CAP, LAMBDA_FLOOR
from dualbid.coldstart import PlacementPriors, expected_spend_per_opportunity, solve_lambda0
from dualbid.mechanisms import LognormalBids, MechanismSpec, UniformBids
from dualbid.oracle import (
    LAMBDA_REL_TOL,
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
from dualbid.scenario import load_scenario, parse_scenario
from dualbid.simulate import distributional_log, generate_stream, realized_lambda_star
from dualbid.simulate import realized_log as sim_realized_log
from helpers import (
    count_reads,
    enumerate_best_winset,
    lambda_band_by_bisection,
    quantile_lognormal_log,
    replay_by_record,
    search_floor_first,
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
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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
        assert seen[:3] == [1.0, 4.0, 16.0]
        assert lo < 5.3 <= hi == x
        assert hi - lo <= 1e-12 * hi
        assert (r_lo, r_hi) == (1.0, -1.0)

    def test_tolerance_stops_on_smooth_excess(self):
        x, (lo, hi, _, _) = search_multiplier(lambda x: 2.0 - x, 0.0, 10.0, tol=1e-3)
        assert abs(x - 2.0) <= 1e-3
        assert lo <= x <= hi

    def test_smooth_excess_takes_secant_steps_in_log_coordinates(self):
        seen = []
        # linear in ln x: the steps to the bracket [1, 4], and one secant
        # step onto the root; the floor, below a 1 that does not fit, is not read
        x, _ = search_multiplier(
            lambda x: seen.append(x) or math.log(2.0 / x), 1e-9, 1e6, tol=1e-12
        )
        assert seen == [1.0, 4.0, x]
        assert x == pytest.approx(2.0, rel=1e-12)

    def test_smooth_excess_from_zero_takes_midpoints_until_lo_moves(self):
        seen = []
        x, _ = search_multiplier(lambda x: seen.append(x) or 0.3 - x, 0.0, 10.0, tol=1e-12)
        assert seen[:4] == [1.0, 0.0, 0.5, 0.25]
        assert abs(x - 0.3) <= 1e-12 and len(seen) <= 12

    def test_illinois_halves_an_end_that_stays_put(self):
        # convex in ln x: plain regula falsi would keep moving one end only
        seen = []
        x, _ = search_multiplier(
            lambda x: seen.append(x) or (2.0 / x) ** 8 - 1.0, 1e-3, 1e6, tol=1e-12
        )
        assert x == pytest.approx(2.0, rel=1e-12)
        assert len(seen) <= 25

    @pytest.mark.parametrize("above", [True, False])
    def test_start_steps_away_twice_as_far_each_time(self, above):
        # linear in ln x, the root at 2: from 2 * f**3 down (or 2 / f**3 up)
        # by f, f, f**2, a bracket of width f**2, and one secant step onto it
        f = oracle.START_STEP
        seen = []
        side = 1 if above else -1
        x, _ = search_multiplier(
            lambda x: seen.append(x) or math.log(2.0 / x),
            1e-9, 1e6, tol=1e-12, start=2.0 * f ** (3 * side),
        )  # fmt: skip
        steps = [2.0 * f ** (k * side) for k in (3, 2, 1, -1)]
        assert seen[:4] == pytest.approx(steps, rel=1e-12)
        assert seen[4:] == [x] and x == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "excess, floor, limit, tol, want",
        [
            (lambda x: math.log(2.0 / x), 1e-9, 1e6, 1e-12, 2.0),
            (lambda x: (2.0 / x) ** 8 - 1.0, 1e-3, 1e6, 1e-12, 2.0),
            (lambda x: 0.3 - x, 0.0, 10.0, 1e-12, 0.3),
            (lambda x: 1.0 if x < 5.3 else -1.0, 1e-9, 1e6, None, 5.3),
        ],
    )
    @pytest.mark.parametrize("start", [1e-9, 0.01, 1.0, 50.0, 1e6])
    def test_any_start_finds_the_same_root(self, excess, floor, limit, tol, want, start):
        x, (lo, hi, _, _) = search_multiplier(excess, floor, limit, tol, start=start)
        assert lo <= x <= hi
        if tol is None:
            assert lo < want <= hi == x and hi - lo <= 1e-12 * hi
        else:
            assert abs(excess(x)) <= tol

    def test_start_reaches_the_floor_and_the_limit(self):
        assert search_multiplier(lambda x: -1.0, 1e-9, 10.0, start=2.0) == (1e-9, None)
        assert search_multiplier(lambda x: -1.0, 1e-9, 10.0, start=1e-9) == (1e-9, None)
        assert search_multiplier(lambda x: 1.0, 0.0, 100.0, start=3.0) is None

    @pytest.mark.parametrize(
        "excess, floor, limit, tol",
        [
            (lambda x: math.log(2.0 / x), 1e-9, 1e6, 1e-12),
            (lambda x: math.log(1e-5 / x), 1e-9, 1e6, 1e-12),
            (lambda x: 0.3 - x, 0.0, 10.0, 1e-12),
            (lambda x: (2.0 / x) ** 8 - 1.0, 1e-3, 1e6, 1e-12),
            (lambda x: -1.0 - x, 0.0, 10.0, 1e-12),
            (lambda x: 1.0 if x < 5.3 else -1.0, 1e-9, 1e6, None),
            (lambda x: 1.0 if x < 0.25 else -1.0, 0.0, 0.5, None),
            (lambda x: 1.0 if x < 99.0 else -1.0, 0.0, 100.0, None),
            (lambda x: -1.0, 0.0, 10.0, None),
            (lambda x: 1.0, 0.0, 100.0, None),
        ],
    )
    def test_same_answer_as_reading_the_floor_first(self, excess, floor, limit, tol):
        # one read fewer where even min(1, limit) does not fit, one more where
        # the floor fits, as many where the answer lies between them
        seen, ref_seen = [], []
        got = search_multiplier(lambda x: seen.append(x) or excess(x), floor, limit, tol)
        want = search_floor_first(lambda x: ref_seen.append(x) or excess(x), floor, limit, tol)
        assert got == want
        extra = -1 if excess(min(1.0, limit)) > 0 else 1 if excess(floor) <= 0 else 0
        assert len(seen) == len(ref_seen) + extra

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

    @pytest.mark.parametrize("scale", [0.1, 1.0, 2.0])
    def test_smooth_solve_lies_in_reference_band(self, shipped_dlog, scale, monkeypatch):
        log, budget, bid_cap = shipped_dlog
        budget *= scale
        reads, replays = count_reads(monkeypatch)
        sol = solve_lambda_star(log, budget, bid_cap)
        monkeypatch.undo()
        # Illinois steps in log coordinates, each a read of spend alone, and
        # one replay at the result; bisecting the bracket took 23 replays
        assert len(reads) <= 10 and len(replays) == 1
        assert not sol.unconstrained
        assert sol.spend == replay(log, MultiplierProfile(lam=sol.lam), bid_cap).spend
        assert abs(sol.spend - budget) <= LAMBDA_REL_TOL * budget
        lo, hi = lambda_band_by_bisection(log, budget, LAMBDA_REL_TOL, bid_cap)
        assert lo < sol.lam <= hi

    def test_spend_alone_is_a_replays_spend_bit_for_bit(self, shipped_dlog):
        # the smooth search reads spend alone; each read must be the spend a
        # replay at the same multipliers sums, with window multipliers too
        log, _, bid_cap = shipped_dlog
        first_price = quantile_lognormal_log(300, UNIFORM_FP, -1.0, 0.4)
        windows = dict.fromkeys(log.window_masks, 0.5)
        for log, profile_of in (
            (log, MultiplierProfile),
            (log, lambda lam: MultiplierProfile(lam, window_lambda=windows)),
            (first_price, MultiplierProfile),
        ):
            curve = oracle._SpendCurve(log, bid_cap, profile_of)
            for lam in (LAMBDA_FLOOR, 0.3, 1.0, 2.5, 40.0):
                assert curve.spend(lam) == replay(log, profile_of(lam), bid_cap).spend

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

    def test_unattainable_delivery_cap_is_infeasible(self):
        # a record worth 1e12 bids the bid cap at every window multiplier up
        # to its limit, so window "d" spends 1 against its cap of 0.5; the
        # guarantee window beside it shares no record with it
        log = OpportunityLog(
            [
                LogRecord(0.0, "p", 1e12, UNIFORM_SP, clearing_bid=1.0, windows=("d",)),
                LogRecord(1.0, "p", 1.0, UNIFORM_SP, clearing_bid=0.5, windows=("g",)),
            ]
        )
        constraints = ConstraintSet(
            budget=10.0,
            delivery_windows=(DeliveryWindow("d", 0, 1, 0.5),),
            guarantee_windows=(GuaranteeWindow("g", 0, 1, 0.5),),
        )
        kkt = solve_kkt_grid(log, constraints)
        assert kkt.replay.per_window["d"][0] == 1.0
        assert not kkt.feasible
        assert len([n for n in kkt.notes if n.startswith("delivery")]) == 1
        assert "delivery_d" not in kkt.residuals

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
        # note shows the step: the spend either side, and the budget
        # multiplier (the final bracket of its search) or the window's
        # factor (its threshold, and the win limit that crosses the cap) there
        log, budget, cap = self._realized_window_log()
        constraints = ConstraintSet(
            budget=budget, delivery_windows=(DeliveryWindow("w", 0, 1, cap),)
        )
        kkt = solve_kkt_grid(log, constraints)
        lam = kkt.profile.lam
        multipliers = {"budget": lam, "delivery_w": kkt.profile.vector_for(("w",)).factor}
        targets = {"budget": budget, "delivery_w": cap}
        finals = {"budget": kkt.replay.spend, "delivery_w": kkt.replay.per_window["w"][0]}
        pattern = r"steps from (\S+) at \S+=(\S+) to (\S+) at \S+=(\S+), either side of its step"
        # the far sides, replayed: the rows outside the window at lam at the
        # low end of the bracket, with the window's rows held at its cap, and
        # the window's rows bidding its far factor
        window = OpportunityLog([r for r in log.records if r.windows == ("w",)])
        rest = OpportunityLog([r for r in log.records if r.windows != ("w",)])
        replayed = {
            "budget": lambda far: replay(rest, MultiplierProfile(far)).spend + finals["delivery_w"],
            "delivery_w": lambda far: replay(window, MultiplierProfile(lam=1.0 / far)).spend,
        }
        for name in ("budget", "delivery_w"):
            residual = kkt.residuals[name]
            assert residual > 1e-4
            (note,) = [n for n in kkt.notes if n.startswith(f"{name} residual")]
            at_far, far, at_near, near = map(float, re.search(pattern, note).groups())
            assert near == multipliers[name]
            # a larger budget multiplier, or a smaller factor, spends less
            assert far < near if name == "budget" else far > near
            assert at_far > targets[name] >= at_near
            assert at_near == pytest.approx(finals[name], rel=1e-11)
            assert residual * targets[name] == pytest.approx(abs(at_near - targets[name]))
            assert replayed[name](far) == pytest.approx(at_far)

    def test_replayed_window_over_its_cap_is_infeasible(self, monkeypatch):
        # the replayed solution is checked against every cap: with the window
        # multipliers that the thresholds map to forced to 0, the window
        # spends the budget optimum's twice its cap, and the solution says so
        log, budget, cap = self._realized_window_log()
        mapped = oracle._kkt_profile
        monkeypatch.setattr(
            oracle, "_kkt_profile", lambda *a: replace(mapped(*a), window_lambda={"w": 0.0})
        )
        kkt = solve_kkt_grid(
            log, ConstraintSet(budget=budget, delivery_windows=(DeliveryWindow("w", 0, 1, cap),))
        )
        assert kkt.replay.per_window["w"][0] > cap
        assert not kkt.feasible
        assert [n for n in kkt.notes if n.startswith("delivery 'w' spends")]

    @pytest.mark.parametrize("budget, feasible", [(5.5, False), (20.0, True)])
    def test_budget_below_the_cost_targets_band_is_infeasible(self, budget, feasible):
        # the guarantee floor wins its 10 rows (cost 0.5 per result) at any
        # factor, so spend per result meets 0.3 only once enough of the 20
        # cheap rows (0.10 to 0.29 per result) are won too: a budget of 5.5
        # leaves 0.5 for them, too little, and the replay says so
        records = [LogRecord(float(i), "p", 1.0, UNIFORM_SP, 0.5, ("g",)) for i in range(10)]
        records += [LogRecord(10.0 + i, "p", 1.0, UNIFORM_SP, 0.1 + 0.01 * i) for i in range(20)]
        constraints = ConstraintSet(
            budget=budget, cost_target=0.3, guarantee_windows=(GuaranteeWindow("g", 0, 1, 5.0),)
        )
        kkt = solve_kkt_grid(OpportunityLog(records), constraints)
        rep = kkt.replay
        assert rep.spend <= budget and rep.per_window["g"][1] >= 5.0
        assert kkt.feasible is feasible
        assert (rep.spend / rep.value <= 0.3) is feasible
        broken = [n for n in kkt.notes if n.startswith("cost_target spends")]
        assert len(broken) == (not feasible)

    def test_a_floor_its_multiplier_cannot_hold_is_read_at_the_profile(self):
        # the floor needs five of the rows in "g", priced 0.30 to 0.84, and a
        # budget just above what they cost leaves lam near 1e4 / 0.54, where
        # mu_g is held at its limit and g's rows bid below the floor: lam is
        # searched at the profile's factors, not on the log clamped to the
        # floor, so both sides of the budget's step are the profile's spend
        g = [LogRecord(float(i), "p", 1.0, UNIFORM_SP, 0.3 + 0.06 * i, ("g",)) for i in range(10)]
        rest = [LogRecord(10.0 + i, "p", 1.0, UNIFORM_SP, 1e-5 * (1 + i / 10)) for i in range(30)]
        log, budget = OpportunityLog(g + rest), 2.1 + 1.5e-4
        floor = (GuaranteeWindow("g", 0, 1, 5.0),)
        kkt = solve_kkt_grid(log, ConstraintSet(budget=budget, guarantee_windows=floor))
        assert kkt.profile.window_mu["g"] == 1e4 and not kkt.feasible
        (note,) = [n for n in kkt.notes if n.startswith("budget residual")]
        far = float(re.search(r"steps from \S+ at lam=(\S+)", note).group(1))
        sides = [replay(log, replace(kkt.profile, lam=lam)).spend for lam in (far, kkt.profile.lam)]
        assert sides[0] > budget >= sides[1] == kkt.replay.spend

    def test_a_cost_target_whose_cap_lies_below_it_is_met_above_the_floor(self):
        # the rows in "g" cost about 0.85 per result, so the cost target's
        # cap (0.22) lies below its target (0.26): below lam = 1 / 0.22 the
        # profile holds mu at its limit, and with it g's floor broken, though
        # it fits the budget at the floor multiplier.  lam is searched on the
        # log clamped to every threshold, which holds both, and fits from
        # lam = 11.08 on, where the profile holds every threshold
        fp, sp = MechanismSpec("first_price", 0.0, UniformBids(0.0, 1.0)), UNIFORM_SP
        fp_logn = MechanismSpec("first_price", 0.05, LognormalBids(-0.3, 0.8))
        rows = [
            (0.82, fp, 0.32, ()), (0.39, fp, 0.62, ()), (0.43, fp_logn, 0.73, ()),
            (2.84, fp, 0.53, ()), (0.73, fp_logn, 0.90, ("g",)), (4.21, fp, 0.006, ()),
            (0.59, sp, 0.94, ()), (1.06, fp, 0.89, ("g",)), (0.67, fp_logn, 0.84, ()),
        ]  # fmt: skip
        log = OpportunityLog([LogRecord(float(i), "p", *row) for i, row in enumerate(rows)])
        floor = (GuaranteeWindow("g", 0, 1, 0.13),)
        kkt = solve_kkt_grid(log, ConstraintSet(1.08, cost_target=0.26, guarantee_windows=floor))
        assert kkt.feasible and not kkt.unconstrained
        assert kkt.profile.lam == pytest.approx(11.08, rel=1e-3)
        rep = replay(log, kkt.profile)
        assert rep.spend <= 1.08 and rep.spend <= 0.26 * rep.value
        assert rep.per_window["g"][1] >= 0.13

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


def _shipped_kkt(name: str, monkeypatch):
    """The KKT solve of a shipped scenario's realized log, its replays and
    its first-price shading calls."""
    import dualbid.simulate as simulate

    scenario = load_scenario(SCENARIOS / name)
    log = simulate.realized_log(scenario, generate_stream(scenario))
    replays, shades, original, shade = [], [], oracle.replay, bidding.shade_bids
    monkeypatch.setattr(oracle, "replay", lambda *a: replays.append(1) or original(*a))
    monkeypatch.setattr(bidding, "shade_bids", lambda *a: shades.append(1) or shade(*a))
    kkt = solve_kkt_grid(log, scenario.constraints, scenario.agent.bid_cap)
    return kkt, len(replays), len(shades)


def test_guaranteed_scenario_thresholds(monkeypatch):
    # the guarantee window's floor and the cost target's cap are scans of
    # sorted win limits: the winners of the nested searches they replaced
    # (4,097 replays), in one replay
    kkt, replays, _ = _shipped_kkt("guaranteed.json", monkeypatch)
    rep = kkt.replay
    assert (rep.spend, rep.value) == (42.38227153539532, 132.5803275584251)
    assert rep.per_window["launch"][1] == 50.310275592087194
    assert kkt.feasible and replays <= 5


def test_mixed_constrained_scenario_keeps_its_cap(monkeypatch):
    # a delivery window over first-price rows: its cap and then lambda are
    # each a bracketed budget_search, the window's rows first and then the
    # log clamped to the cap, shading about as often as lambda* (the
    # bisections they replaced shaded 129 times)
    kkt, replays, shades = _shipped_kkt("mixed_constrained.json", monkeypatch)
    rep = kkt.replay
    assert rep.value >= 309.59634036484766 and rep.spend <= 90.0
    assert rep.per_window["weekend"][0] <= 12.0
    assert kkt.feasible and replays <= 5 and shades <= 20


def test_give_up_notes_compare_only_a_missed_target():
    # mu is held at its limit here with the cost per result below the
    # target, so its note names the multiplier instead of a bound that
    # does not hold; the guarantee floor is missed, and its bound holds
    import dualbid.simulate as simulate
    from test_pacing import _windowed_stationary

    scenario = parse_scenario(_windowed_stationary())
    log = simulate.realized_log(scenario, generate_stream(scenario))
    kkt = solve_kkt_grid(log, scenario.constraints)
    assert not kkt.feasible and kkt.profile.mu == 1e6 / 0.3
    assert kkt.notes[:2] == (
        "cost_target: mu held at its limit 3.33333e+06, spend / value 0.203322 against its "
        "target 0.3",
        "guarantee 'g' infeasible: max achievable value 32.0298 < floor 110",
    )


@pytest.mark.parametrize(
    "kind,window,note",
    [
        ("budget", None, "budget: lam held at its limit 100, spend 2 against its budget 4"),
        (
            "cost_target",
            None,
            "cost_target: mu held at its limit 100, spend / value 0.5 against its target 4",
        ),
        ("delivery", "d", "delivery 'd': lam_d held at its limit 100, spend 1 against its cap 4"),
        (
            "guarantee",
            "g",
            "guarantee 'g': mu_g held at its limit 100, value 5 against its floor 4",
        ),
    ],
    ids=["budget", "cost_target", "delivery", "guarantee"],
)
def test_give_up_note_names_a_multiplier_held_within_its_target(kind, window, note):
    rep = oracle.ReplayResult(2.0, 4.0, {}, {"d": (1.0, 3.0), "g": (2.0, 5.0)})
    assert oracle.KktConstraint(kind, window, 4.0, 100.0).give_up_note(rep) == note


@pytest.fixture(scope="module", params=["stationary.json", "mixed_constrained.json"])
def shipped_twins(request):
    """A shipped scenario's realized log, its distributional twin, its
    budget and bid cap."""
    scenario = load_scenario(SCENARIOS / request.param)
    stream = generate_stream(scenario)
    realized = sim_realized_log(scenario, stream)
    log = distributional_log(scenario, stream, realized)
    return realized, log, scenario.constraints.budget, scenario.agent.bid_cap


@pytest.fixture(scope="module")
def shipped_dlog(shipped_twins):
    """A shipped scenario's distributional log, its budget and bid cap."""
    return shipped_twins[1:]


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

    def test_active_roi_is_lambda_star(self, shipped_dlog, monkeypatch):
        reads, replays = count_reads(monkeypatch)
        # Proposition 1 holds record by record, so every placement's ROI is lambda*
        log, budget, bid_cap = shipped_dlog
        lam = solve_lambda_star(log, budget, bid_cap).lam
        solve_reads = len(reads)
        reads.clear()
        replays.clear()
        roi = marginal_roi(log, budget, bid_cap=bid_cap)
        # the same search, with no replay at lambda*, then the two replays
        # around it
        assert len(reads) == solve_reads + 1 and len(replays) == 2
        assert roi.lam == lam and roi.inactive == ()
        assert list(roi.roi) == log.placement_names
        for value in roi.roi.values():
            assert abs(value - lam) / lam <= 1e-5

    def test_matches_restricted_solves(self, shipped_dlog):
        # an independent estimate: each placement's log on its own, with
        # lambda* solved at its optimal spend +/- delta, and the central
        # difference of the value
        log, budget, bid_cap = shipped_dlog
        lam = solve_lambda_star(log, budget, bid_cap).lam
        base = replay(log, MultiplierProfile(lam=lam), bid_cap)
        roi = marginal_roi(log, budget, bid_cap=bid_cap)
        delta = 1e-3 * budget
        for placement, (spend_k, _) in base.per_placement.items():
            sub = OpportunityLog([r for r in log.records if r.placement == placement])
            up, down = (
                solve_lambda_star(sub, spend_k + s * delta, bid_cap).value for s in (1, -1)
            )
            expected = (up - down) / (2.0 * delta)
            assert abs(roi.roi[placement] - expected) / expected <= 1e-3

    def test_placement_that_never_wins_is_inactive(self):
        unwinnable = MechanismSpec("second_price", 0.0, UniformBids(50.0, 60.0))
        records = quantile_lognormal_log(1500, LOGN_SP, -1.0, 0.5, placement="a").records
        records += quantile_lognormal_log(1500, unwinnable, -1.0, 0.5, placement="b").records
        log = OpportunityLog(
            [LogRecord(float(i), r.placement, r.value, r.mechanism) for i, r in enumerate(records)]
        )
        budget = 0.05 * 1500
        sol = solve_lambda_star(log, budget)
        assert not sol.unconstrained
        roi = marginal_roi(log, budget)
        assert roi.inactive == ("b",)
        assert abs(roi.roi["a"] - sol.lam) / sol.lam <= 1e-5

    def test_unconstrained_is_zero(self):
        log = quantile_lognormal_log(200, LOGN_SP, -1.0, 0.5)
        roi = marginal_roi(log, budget=1e6)
        assert all(v == 0.0 for v in roi.roi.values())

    def test_needs_distributional_log(self):
        with pytest.raises(OracleError):
            marginal_roi(realized_log(THREE), budget=1.0)

    def test_shipped_stationary_log_reads_spend_alone_then_replays_twice(self, monkeypatch):
        scenario = load_scenario(SCENARIOS / "stationary.json")
        log = distributional_log(scenario, generate_stream(scenario))
        reads, replays = count_reads(monkeypatch)
        marginal_roi(log, scenario.constraints.budget, bid_cap=scenario.agent.bid_cap)
        # lambda* from reads of spend alone (none of them a replay), then the
        # two replays around it; it took 10 replays when every read was one
        assert len(reads) - len(replays) <= 7 and len(replays) == 2


def twin_logs(clearing: float, n: int = 400) -> tuple[OpportunityLog, OpportunityLog]:
    """A realized log whose every clearing bid is clearing, and its
    distributional twin: n second-price lognormal(0, 1) auctions."""
    records = quantile_lognormal_log(n, LOGN_SP, -1.0, 0.5).records
    realized = OpportunityLog(
        [LogRecord(r.time, r.placement, r.value, r.mechanism, clearing) for r in records]
    )
    return realized, realized.distributional()


class TestMarginalRoiStart:
    """marginal_roi's search started at the realized budget-only lambda*,
    as compare and run --roi start it."""

    def test_starts_near_the_answer_in_at_most_4_reads(self, shipped_twins, monkeypatch):
        realized, log, budget, bid_cap = shipped_twins
        start = realized_lambda_star(realized, budget, bid_cap)
        reads, replays = count_reads(monkeypatch)
        roi = marginal_roi(log, budget, bid_cap=bid_cap, start=start)
        monkeypatch.undo()
        # the start, one step to a bracket and two Illinois steps, where the
        # default start of 1 reads spend 7 times
        assert len(reads) - len(replays) <= 4 and len(replays) == 2
        lo, hi = lambda_band_by_bisection(log, budget, LAMBDA_REL_TOL, bid_cap)
        assert lo < roi.lam <= hi
        assert roi.inactive == ()
        for value in roi.roi.values():
            assert abs(value - roi.lam) / roi.lam <= 1e-5

    def test_realized_floor_distributional_binds(self, monkeypatch):
        # every clearing bid 0.5: the realized spend at the floor, 200, fits
        # the budget, and the expected spend there, about 660, does not
        realized, log = twin_logs(0.5)
        budget = 400.0
        start = realized_lambda_star(realized, budget, DEFAULT_BID_CAP)
        assert start == LAMBDA_FLOOR
        reads, replays = count_reads(monkeypatch)
        roi = marginal_roi(log, budget, start=start)
        monkeypatch.undo()
        # ten steps up from the floor, each twice as far from it as the
        # last, and the Illinois steps across a wide bracket (13 reads from
        # the default start)
        assert len(reads) - len(replays) <= 24 and len(replays) == 2
        lo, hi = lambda_band_by_bisection(log, budget, LAMBDA_REL_TOL)
        assert lo < roi.lam <= hi
        assert abs(roi.roi["p"] - roi.lam) / roi.lam <= 1e-5

    def test_realized_binds_distributional_floor(self, monkeypatch):
        # every clearing bid 3: the realized spend at the floor, 1200, does
        # not fit the budget, and the expected spend there, about 660, does
        realized, log = twin_logs(3.0)
        budget = 800.0
        start = realized_lambda_star(realized, budget, DEFAULT_BID_CAP)
        assert start > LAMBDA_FLOOR
        reads, replays = count_reads(monkeypatch)
        roi = marginal_roi(log, budget, start=start)
        monkeypatch.undo()
        # steps down to the floor, each twice as far from the start as the
        # last, where the default start reads spend twice
        assert len(reads) <= 12 and replays == []
        assert roi.lam == LAMBDA_FLOOR and roi.roi == {"p": 0.0}


@pytest.mark.parametrize("solve", [solve_lambda_star, marginal_roi])
@pytest.mark.parametrize("budget", [math.inf, math.nan, 0.0])
@pytest.mark.parametrize("kind", ["realized", "distributional"])
def test_budget_must_be_finite_and_positive(solve, budget, kind):
    if kind == "realized":
        log = realized_log(THREE)
    else:
        log = quantile_lognormal_log(200, LOGN_SP, -1.0, 0.5)
    with pytest.raises(OracleError, match="budget must be finite and > 0"):
        solve(log, budget)


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

    def test_multiplier_must_be_positive(self):
        log = quantile_lognormal_log(20, UNIFORM_SP, 1.0, 0.3)
        with pytest.raises(OracleError, match="lam must be > 0, got 0"):
            prop1_residual(log, 0)


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
    columns = ("time", "values", "clearing", "mechanisms", "mechanism_codes", "placement_names",
               "placement_codes", "window_combos", "combo_codes")  # fmt: skip
    with pytest.raises(OracleError, match="must not be empty"):
        OpportunityLog([])
    with pytest.raises(OracleError, match="must not be empty"):
        OpportunityLog.from_columns(**dict.fromkeys(columns, []))
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
