"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its stated tolerance baked in."""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from dualbid.coldstart import (
    PlacementPriors,
    expected_phi_affine,
    expected_spend_per_opportunity,
    solve_lambda0,
)
from dualbid.mechanisms import (
    EmpiricalBids,
    LognormalBids,
    MechanismSpec,
    UniformBids,
    cost_derivative,
    expected_cost,
    simulate_outcome,
    win_density,
    win_prob,
)
from dualbid.oracle import (
    LogRecord,
    OpportunityLog,
    dual_value,
    fixed_bid_baseline,
    marginal_roi,
    prop1_residual,
    solve_kkt_grid,
    solve_lambda_star,
)
from dualbid.pacing import update_additive, update_multiplicative
from dualbid.scenario import parse_scenario
from dualbid.simulate import distributional_log, generate_stream, realized_log, run_episode
from dualbid.cli import main as cli_main
from helpers import (
    enumerate_best_winset,
    mc_outcomes,
    mixed_scenario,
    quantile_lognormal_log,
    stationary_scenario,
    threshold_lambda,
)

LOGN_SP = MechanismSpec("second_price", 0.0, LognormalBids(0.0, 1.0))
UNIFORM_FP = MechanismSpec("first_price", 0.0, UniformBids(0.0, 1.0))


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {description}")


def test_01_mechanism_calculus():
    with criterion(1, "mechanism derivatives and Monte Carlo outcomes"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        smooth = [
            MechanismSpec("second_price", 0.0, LognormalBids(0.1, 0.9)),
            MechanismSpec("second_price", 0.05, UniformBids(0.0, 1.8)),
            MechanismSpec("first_price", 0.0, LognormalBids(-0.2, 1.1)),
            MechanismSpec("first_price", 0.0, UniformBids(0.1, 1.4)),
        ]
        step = 1e-7
        for mech in smooth:
            comp = mech.competitor
            lo = comp.lo if isinstance(comp, UniformBids) else 0.05
            hi = comp.hi if isinstance(comp, UniformBids) else 4.0
            pts = rng.uniform(lo + 1e-3, hi - 1e-3, 100)
            pts = pts[pts > mech.reserve + 1e-3]
            g_fd = (win_prob(mech, pts + step) - win_prob(mech, pts - step)) / (2 * step)
            h_fd = (expected_cost(mech, pts + step) - expected_cost(mech, pts - step)) / (2 * step)
            assert np.max(np.abs(win_density(mech, pts) - g_fd)) <= 1e-5
            assert np.max(np.abs(cost_derivative(mech, pts) - h_fd)) <= 1e-5

        families = smooth + [
            MechanismSpec("second_price", 0.0, EmpiricalBids(tuple(rng.lognormal(0.0, 0.7, 500))))
        ]
        for mech in families:
            bid = 1.1
            draws = rng.random(1_000_000)
            won, cost = mc_outcomes(mech, bid, draws)
            for i in range(100):  # the vectorized sampler mirrors the scalar op
                w, c, _ = simulate_outcome(mech, bid, float(draws[i]))
                assert w == won[i] and c == float(cost[i])
            G, H = win_prob(mech, bid), expected_cost(mech, bid)
            se_w = max(won.std() / 1000.0, 1e-12)
            se_c = max(cost.std() / 1000.0, 1e-12)
            assert abs(won.mean() - G) <= 3 * se_w
            assert abs(cost.mean() - H) <= 3 * se_c
        assert time.monotonic() - start < 30.0


def test_02_value_spend_derivative_relation():
    with criterion(2, "value and spend derivatives linearly related (V' = lam S')"):
        start = time.monotonic()
        rng = np.random.default_rng(202)
        logs = [
            quantile_lognormal_log(2000, LOGN_SP, -1.0, 0.5),
            quantile_lognormal_log(2000, UNIFORM_FP, -1.0, 0.4),
        ]
        for log in logs:
            sol = solve_lambda_star(log, budget=0.05 * len(log))
            lams = np.exp(rng.uniform(np.log(0.5 * sol.lam), np.log(2.0 * sol.lam), 20))
            for lam in lams:
                check = prop1_residual(log, float(lam))
                assert check.v_prime <= 1e-9
                assert check.s_prime <= 1e-9
                assert check.residual <= 1e-3 * abs(check.v_prime)
        assert time.monotonic() - start < 60.0


def test_03_mirror_descent_closed_forms():
    with criterion(3, "additive and multiplicative updates match closed forms exactly"):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            lam = float(rng.uniform(1e-3, 1e3))
            eps = float(rng.uniform(1e-5, 0.5))
            grad = float(rng.uniform(-10.0, 10.0))
            expected_add = lam - eps * grad
            if expected_add > 1e-9:
                assert update_additive(lam, eps, grad) == expected_add
            expected_mult = lam * math.exp(-eps * grad)
            if 1e-9 <= expected_mult <= 1e9:
                assert update_multiplicative(lam, eps, grad) == expected_mult


def test_04_cold_start_spend_curve():
    with criterion(4, "closed-form spend curve matches 2-D Monte Carlo and inverts"):
        start = time.monotonic()
        rng = np.random.default_rng(404)
        for _ in range(20):
            priors = PlacementPriors(
                bid_mu=float(rng.uniform(-0.5, 0.5)),
                bid_sigma=float(rng.uniform(0.3, 1.3)),
                value_mu=float(rng.uniform(-1.5, 0.5)),
                value_sigma=float(rng.uniform(0.3, 1.3)),
                forecast_count=1000.0,
            )
            lam = float(rng.uniform(0.2, 3.0))
            z = rng.lognormal(priors.bid_mu, priors.bid_sigma, 1_000_000)
            v = rng.lognormal(priors.value_mu, priors.value_sigma, 1_000_000)
            pay = np.where(z <= v / lam, z, 0.0)
            se = max(pay.std() / 1000.0, 1e-12)
            assert abs(pay.mean() - expected_spend_per_opportunity(priors, lam)) <= 3 * se

            rate = float(rng.uniform(0.05, 0.9)) * priors.mean_competing_bid()
            solved = solve_lambda0(priors, budget=rate * 1000.0)
            residual = abs(expected_spend_per_opportunity(priors, solved.lam) - rate)
            assert residual <= 1e-9 * rate

        worked = PlacementPriors(0.0, 1.0, 0.0, 1.0, 1000.0)
        solved = solve_lambda0(worked, budget=0.8243606353500641 * 1000.0)
        assert abs(solved.lam - math.exp(-1.0)) <= 1e-6
        assert time.monotonic() - start < 120.0


def test_05_normal_cdf_expectation_identity():
    with criterion(5, "E[Phi(aX+b)] identity against 1e7-draw Monte Carlo"):
        rng = np.random.default_rng(505)
        x = rng.standard_normal(10_000_000)
        n = len(x)
        sample = np.empty_like(x)  # one buffer holds a*x+b, then Phi of it
        for _ in range(20):
            a = float(rng.uniform(-4.0, 4.0))
            b = float(rng.uniform(-4.0, 4.0))
            np.multiply(x, a, out=sample)
            sample += b
            ndtr(sample, out=sample)
            mean = sample.sum() / n
            var = max(np.dot(sample, sample) / n - mean * mean, 0.0)
            se = max(math.sqrt(var / n), 1e-12)
            assert abs(mean - expected_phi_affine(a, b)) <= 3 * se


def test_06_dual_optimality():
    with criterion(6, "hindsight multiplier matches budget; brackets agree with enumeration"):
        log = quantile_lognormal_log(10_000, LOGN_SP, -1.0, 0.5)
        budget = 0.05 * len(log)
        sol = solve_lambda_star(log, budget)
        assert abs(sol.spend - budget) <= 1e-6 * budget

        rng = np.random.default_rng(606)
        for _ in range(20):
            n = int(rng.integers(5, 16))
            outcomes = [
                (float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 1.0)))
                for _ in range(n)
            ]
            b = float(rng.uniform(0.3, 2.0))
            jump = threshold_lambda(outcomes, b)
            records = [
                LogRecord(
                    time=float(i),
                    placement="p",
                    value=v,
                    mechanism=MechanismSpec("second_price", 0.0, UniformBids(0.0, 1.0)),
                    clearing_bid=c,
                )
                for i, (v, c) in enumerate(outcomes)
            ]
            rsol = solve_lambda_star(OpportunityLog(records), b)
            best_value, _ = enumerate_best_winset(outcomes, b)
            if jump is None:
                assert rsol.unconstrained
                assert rsol.value == pytest.approx(best_value)
                continue
            lo, hi = rsol.bracket
            assert lo <= jump <= hi + 1e-9
            assert rsol.lam == pytest.approx(jump, rel=1e-6)
            assert rsol.spend <= b + 1e-12
            # weak duality sandwich around the enumeration optimum
            assert rsol.value <= best_value + 1e-9
            assert dual_value(OpportunityLog(records), b, rsol.lam) >= best_value - 1e-9


@pytest.mark.parametrize("mode", ["additive", "multiplicative"])
def test_07_online_convergence(mode):
    with criterion(7, f"{mode} controller converges to the hindsight multiplier"):
        start = time.monotonic()
        cfg = stationary_scenario(agent={"mode": mode})
        scenario = parse_scenario(cfg)
        episode = run_episode(scenario)
        sol = solve_lambda_star(
            realized_log(scenario, episode.stream), scenario.constraints.budget
        )
        lam_path = (
            np.array(episode.metrics.lambda_trajectory) * episode.metrics.lambda_prime
        )
        errs = np.abs(lam_path - sol.lam) / sol.lam
        assert np.any(errs[:200] <= 0.05), "never within 5% in the first 200 intervals"
        assert errs[-1] <= 0.05
        assert episode.metrics.total_value / sol.value >= 0.95
        assert time.monotonic() - start < 120.0


def test_08_constraint_control():
    with criterion(8, "cost target, delivery cap, and guarantee floor controlled"):
        # binding cost-per-result target
        cost_cfg = stationary_scenario(
            seed=11,
            intervals=400,
            budget=200.0,
            cost_target=0.9 * 0.2434,
            agent={"constraint_xi": 5.0},
        )
        episode = run_episode(parse_scenario(cost_cfg))
        C = cost_cfg["cost_target"]
        assert episode.metrics.cost_per_result <= 1.05 * C
        assert episode.state.mu > 1e-9  # genuinely binding

        # delivery window cap
        window_cfg = stationary_scenario(
            seed=11,
            intervals=300,
            budget=150.0,
            delivery_windows=[{"id": "mid", "start": 100, "end": 160, "cap": 18.0}],
            agent={"constraint_xi": 5.0},
        )
        episode = run_episode(parse_scenario(window_cfg))
        assert episode.metrics.window_spend["mid"] <= 1.05 * 18.0

        # guaranteed delivery floor, certified feasible by the oracle
        floor = 172.0
        guarantee_cfg = stationary_scenario(
            seed=11,
            intervals=300,
            budget=150.0,
            guarantee_windows=[{"id": "push", "start": 100, "end": 160, "floor": floor}],
            agent={"constraint_xi": 5.0},
        )
        scenario = parse_scenario(guarantee_cfg)
        kkt = solve_kkt_grid(
            realized_log(scenario, generate_stream(scenario)), scenario.constraints
        )
        assert kkt.feasible
        episode = run_episode(scenario)
        assert episode.metrics.window_value["push"] >= 0.95 * floor

        # complementary slackness: generous constraints leave multipliers at 0
        slack_cfg = stationary_scenario(
            seed=11,
            intervals=150,
            budget=75.0,
            cost_target=50.0,
            delivery_windows=[{"id": "w", "start": 40, "end": 80, "cap": 1000.0}],
            guarantee_windows=[{"id": "g", "start": 90, "end": 130, "floor": 0.01}],
        )
        episode = run_episode(parse_scenario(slack_cfg))
        assert episode.state.mu <= 1e-9
        assert episode.state.window_lambda["w"] <= 1e-9
        assert episode.state.window_mu["g"] <= 1e-9


def test_09_marginal_roi_equalized():
    with criterion(9, "marginal ROI equalized across mixed-auction placements"):
        scenario = parse_scenario(mixed_scenario())
        episode = run_episode(scenario)
        assert episode.metrics.budget_utilization >= 0.9  # converged episode
        dlog = distributional_log(scenario, episode.stream)
        sol = solve_lambda_star(dlog, scenario.constraints.budget)
        roi = marginal_roi(dlog, scenario.constraints.budget)
        values = list(roi.roi.values())
        assert len(values) == 2
        assert abs(values[0] - values[1]) / max(values) <= 0.05
        for v in values:
            assert abs(v - sol.lam) / sol.lam <= 0.05


def test_10_drift_beats_fixed_bid_baseline():
    with criterion(10, "dual controller beats a budget-matched fixed bid under drift"):
        drift_cfg = stationary_scenario(
            seed=5,
            intervals=300,
            budget=150.0,
            agent={"xi": 3.0},
        )
        drift_cfg["placements"][0]["drift"] = {
            "bid_mu": [[0, 0.0], [149, 0.0], [150, 0.6], [299, 0.6]]
        }
        scenario = parse_scenario(drift_cfg)
        episode = run_episode(scenario)
        log = realized_log(scenario, episode.stream)
        sol = solve_lambda_star(log, scenario.constraints.budget)
        baseline = fixed_bid_baseline(log, scenario.constraints.budget)
        agent_ratio = episode.metrics.total_value / sol.value
        baseline_ratio = baseline.value / sol.value
        print(f"  value ratios: dual controller {agent_ratio:.4f}, fixed bid {baseline_ratio:.4f}")
        assert agent_ratio >= baseline_ratio
        # the drifted multiplier also re-converges to the post-drift optimum
        post = episode.stream[episode.stream.interval >= 150]
        post_sol = solve_lambda_star(
            OpportunityLog(realized_log(scenario, post).records),
            scenario.constraints.budget / 2.0,
        )
        lam_path = (
            np.array(episode.metrics.lambda_trajectory) * episode.metrics.lambda_prime
        )
        errs = np.abs(lam_path - post_sol.lam) / post_sol.lam
        assert np.any(errs[150:250] <= 0.05), "no re-convergence within 100 intervals of the step"


def test_11_run_determinism(tmp_path):
    with criterion(11, "identical config and seed reproduce the trace byte for byte"):
        import json

        cfg = stationary_scenario(intervals=40, budget=20.0)
        cfg["placements"][0]["intensity"] = 30.0
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(cfg))
        for name in ("a", "b"):
            code = cli_main(
                ["run", "--scenario", str(scenario_path), "--out", str(tmp_path / name)]
            )
            assert code == 0
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (
            tmp_path / "b" / "trace.csv"
        ).read_bytes()
