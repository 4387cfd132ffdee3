"""Pacing controller tests: gradients, update algebra, FTL, constraints."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dualbid.bidding import LAMBDA_FLOOR
from dualbid.cli import main
from dualbid.mechanisms import MechanismSpec, UniformBids
from dualbid.pacing import (
    ConstraintSet,
    DeliveryWindow,
    ForecastModel,
    GuaranteeWindow,
    PacingConfig,
    PacingError,
    PacingState,
    apply_batch_update,
    dual_gradient,
    ftl_update,
    normalize,
    pace_ratio,
    step_size,
    update_additive,
    update_constraint_multipliers,
    update_multiplicative,
)
from helpers import (
    auction_history,
    enumerate_best_winset,
    record_one_at_a_time,
    stationary_scenario,
    threshold_lambda,
)

UNIFORM_SP = MechanismSpec("second_price", 0.0, UniformBids(0.0, 1.0))


def make_state(**kw) -> PacingState:
    defaults = dict(budget=100.0, expected_total=1000.0, intervals_total=10)
    defaults.update(kw)
    return PacingState(**defaults)


class TestDualGradient:
    def test_total_mode(self):
        state = make_state()
        state.interval_count = 100
        state.interval_spend = 8.0
        state.interval_wins = 50
        cfg = PacingConfig(xi=0.1)
        assert dual_gradient(state, cfg, ForecastModel(total=1000.0), 0) == pytest.approx(2.0)

    def test_on_pace_is_zero(self):
        state = make_state()
        state.interval_count = 50
        state.interval_spend = 5.0
        state.interval_wins = 50
        cfg = PacingConfig(xi=0.1)
        assert dual_gradient(state, cfg, ForecastModel(total=1000.0), 0) == pytest.approx(0.0)

    def test_relative_mode(self):
        state = make_state()
        state.interval_spend = 7.0
        state.interval_wins = 50
        cfg = PacingConfig(xi=0.1, forecast_mode="relative")
        forecast = ForecastModel(shares=(0.05, 0.95))
        assert dual_gradient(state, cfg, forecast, 0) == pytest.approx(-2.0)

    def test_missing_forecast_interval(self):
        state = make_state()
        cfg = PacingConfig(xi=0.1, forecast_mode="relative")
        with pytest.raises(PacingError):
            dual_gradient(state, cfg, ForecastModel(shares=(1.0,)), 3)


class TestUpdateAlgebra:
    def test_additive_example(self):
        assert update_additive(1.0, 0.1, -0.2) == pytest.approx(1.02)

    def test_additive_normalized_fixed_point(self):
        # on pace (R = 1) the normalized update is the identity
        assert update_additive(1.0, 0.05, 1.0 - 1.0) == 1.0

    def test_additive_batch_substitution(self):
        grad = 0.1 * 100 - 8.0
        assert update_additive(2.0, 0.01, grad) == pytest.approx(1.98)

    def test_multiplicative_example(self):
        assert update_multiplicative(1.0, 0.1, 0.2) == pytest.approx(math.exp(-0.02))

    def test_multiplicative_zero_grad(self):
        assert update_multiplicative(1.7, 0.3, 0.0) == 1.7

    def test_multiplicative_exact_exponent(self):
        assert update_multiplicative(0.5, 1.0, -math.log(2.0)) == pytest.approx(1.0)

    def test_closed_forms_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            lam = float(rng.uniform(0.01, 100.0))
            eps = float(rng.uniform(1e-4, 0.1))
            grad = float(rng.uniform(-5.0, 5.0))
            if lam - eps * grad > LAMBDA_FLOOR:
                assert update_additive(lam, eps, grad) == lam - eps * grad
            assert update_multiplicative(lam, eps, grad) == lam * math.exp(-eps * grad)

    def test_projection_keeps_nonnegative(self):
        assert update_additive(0.1, 1.0, 100.0) == LAMBDA_FLOOR
        assert update_multiplicative(1e-8, 10.0, 100.0) >= 0

    def test_first_order_agreement(self):
        # the two updates coincide to first order at the normalized
        # operating point (lam = 1), which is where the controller runs them
        rng = np.random.default_rng(9)
        lam = 1.0
        for _ in range(200):
            eps = float(rng.uniform(1e-4, 0.05))
            grad = float(rng.uniform(-2.0, 2.0))
            add = update_additive(lam, eps, grad)
            mult = update_multiplicative(lam, eps, grad)
            bound = eps**2 * grad**2 * lam * math.exp(abs(eps * grad))
            assert abs((add - lam) - (mult - lam)) <= bound + 1e-15


class TestPaceRatio:
    def test_total_mode(self):
        state = make_state()
        state.interval_count = 100
        state.interval_spend = 8.0
        state.interval_wins = 100
        cfg = PacingConfig(xi=0.1)
        assert pace_ratio(state, cfg, ForecastModel(total=1000.0), 0) == pytest.approx(0.8)

    def test_mpc_mode(self):
        state = make_state()
        state.spent_total = 40.0
        state.opportunities_seen = 600
        state.interval_count = 100
        state.interval_spend = 12.0
        state.interval_wins = 100
        cfg = PacingConfig(xi=0.1, mpc=True)
        assert pace_ratio(state, cfg, ForecastModel(total=1000.0), 5) == pytest.approx(0.8)

    def test_relative_mode(self):
        state = make_state()
        state.interval_spend = 7.0
        state.interval_wins = 100
        cfg = PacingConfig(xi=0.1, forecast_mode="relative")
        assert pace_ratio(state, cfg, ForecastModel(shares=(0.05, 0.95)), 0) == pytest.approx(1.4)

    def test_empty_interval_skipped(self):
        state = make_state()
        cfg = PacingConfig(xi=0.1)
        assert pace_ratio(state, cfg, ForecastModel(total=1000.0), 0) is None

    def test_zero_share_interval_skipped(self):
        # relative forecast: an interval expected to see no traffic has no
        # target spend to compare against
        state = make_state()
        state.interval_spend = 3.0
        state.interval_wins = 10
        cfg = PacingConfig(xi=0.1, forecast_mode="relative")
        assert pace_ratio(state, cfg, ForecastModel(shares=(0.0, 1.0)), 0) is None

    def test_mpc_with_the_budget_spent(self):
        # no budget left: any spend is infinitely over pace, read as 1e12
        state = make_state()
        state.spent_total = 100.0
        state.opportunities_seen = 600
        state.interval_count = 100
        state.interval_spend = 12.0
        state.interval_wins = 100
        cfg = PacingConfig(xi=0.1, mpc=True)
        assert pace_ratio(state, cfg, ForecastModel(total=1000.0), 5) == 1e12

    def test_sparse_interval_uses_smoothed_spend(self):
        state = make_state()
        state.interval_count = 100
        state.interval_spend = 0.0
        state.interval_wins = 2  # below the smoothing threshold
        state.smoothed_spend = 10.0
        cfg = PacingConfig(xi=0.1)
        assert pace_ratio(state, cfg, ForecastModel(total=1000.0), 0) == pytest.approx(1.0)


class TestNormalize:
    def test_identity_scaling(self):
        state = make_state(lambda_prime=1.0, lambda_tilde=0.4)
        normalize(state, 0.4)
        assert state.lambda_tilde == pytest.approx(1.0)
        assert state.lam == pytest.approx(0.4)

    def test_step_size_definition(self):
        state = make_state()
        state.interval_count = 50
        cfg = PacingConfig(xi=0.1)
        assert step_size(state, cfg, ForecastModel(total=1000.0), 0) == pytest.approx(0.005)

    def test_epsilon_form_matches_xi(self):
        # xi = eps * B / lambda_prime, so the two parameterizations agree
        state = make_state(lambda_prime=2.0)
        state.interval_count = 50
        via_xi = step_size(state, PacingConfig(xi=0.1), ForecastModel(total=1000.0), 0)
        eps = 0.1 * state.lambda_prime / state.budget
        via_eps = step_size(state, PacingConfig(epsilon=eps), ForecastModel(total=1000.0), 0)
        assert via_eps == pytest.approx(via_xi)

    def test_rejects_nonpositive(self):
        with pytest.raises(PacingError):
            normalize(make_state(), 0.0)


class TestFtl:
    def three_entries(self):
        return auction_history([1.0, 2.0, 3.0], [0.5] * 3, UNIFORM_SP)

    def test_three_record_example(self):
        # independent oracles: exhaustive win sets and density thresholds
        outcomes = [(1.0, 0.5), (2.0, 0.5), (3.0, 0.5)]
        best_value, _ = enumerate_best_winset(outcomes, budget=1.0)
        assert best_value == 5.0  # wins v=2 and v=3
        jump = threshold_lambda(outcomes, budget=1.0)
        assert jump == pytest.approx(2.0)  # v=1 drops out above lam = 1/0.5

        result = ftl_update(self.three_entries(), budget=1.0, expected_total=3.0)
        assert not result.unconstrained
        assert result.lam == pytest.approx(jump, rel=1e-6)
        # conservative side: replayed spend at the returned multiplier fits
        wins = [v for v in (1.0, 2.0, 3.0) if v / result.lam >= 0.5]
        assert wins == [2.0, 3.0]

    def test_unconstrained(self):
        result = ftl_update(self.three_entries(), budget=10.0, expected_total=3.0)
        assert result.unconstrained
        assert result.lam == LAMBDA_FLOOR

    def test_stationary_one_step_convergence(self):
        # identical repeated auctions: the hindsight multiplier is the same
        # after 10 and after 100 observations
        entries = auction_history([1.0] * 100, [0.4] * 100, UNIFORM_SP)
        early = ftl_update(entries.rows(slice(10)), budget=30.0, expected_total=100.0)
        late = ftl_update(entries, budget=30.0, expected_total=100.0)
        assert early.lam == pytest.approx(late.lam, rel=1e-9)

    def test_lookback_window(self):
        entries = auction_history([9.0, 9.0, 9.0, 1.0, 2.0, 3.0], [0.5] * 6, UNIFORM_SP)
        result = ftl_update(entries, budget=1.0, expected_total=6.0, window=3)
        # only the trailing (1, 2, 3) block is replayed, with target 0.5
        assert result.lam == pytest.approx(4.0, rel=1e-6)

    def test_empty_log_rejected(self):
        with pytest.raises(PacingError):
            ftl_update([], budget=1.0, expected_total=1.0)


class TestRecordOutcomes:
    @pytest.mark.parametrize(
        "n,budget,windows,first_cost,expect_bid",
        [
            (200, 1e9, (), None, 200),
            (200, 1e9, ("w", "g"), None, 200),
            (200, 3.0, ("w", "g"), None, 35),
            (200, 0.5, ("w",), None, 0),
            (200, 0.7, ("w", "g"), None, 0),
            (200, 0.8, ("w", "g"), 0.2, 1),
            (1, 1e9, ("w",), 0.2, 1),
        ],
        ids=[
            "no_cut", "two_windows", "cut_inside", "spent_before", "spent_at_budget",
            "cut_at_first_row", "one_row",
        ],
    )  # fmt: skip
    def test_matches_one_at_a_time(self, n, budget, windows, first_cost, expect_bid):
        rng = np.random.default_rng(5)
        values = rng.lognormal(-1.0, 0.5, n)
        won = rng.random(n) < 0.3
        costs = np.where(won, rng.lognormal(-2.0, 0.7, n), 0.0)
        results = (won & (rng.random(n) < 0.4)).astype(float)
        if first_cost is not None:  # the first auction is won at this cost
            won[0], costs[0] = True, first_cost

        def start() -> PacingState:
            return make_state(
                budget=budget,
                spent_total=0.7,
                value_total=1.3,
                interval_spend=0.1,
                interval_value=0.2,
                results_realized=2.0,
                window_spend={"w": 0.3},
                window_interval_spend={"w": 0.1},
            )

        def bits(xs) -> list[int]:
            return np.asarray(xs, dtype=float).view(np.int64).tolist()

        state, reference = start(), start()
        winners = np.flatnonzero(won)
        bid = state.record_outcomes(
            windows, n, winners.tolist(), costs[winners].tolist(), values[winners].tolist(),
            results[winners].tolist(),
        )  # fmt: skip
        after = record_one_at_a_time(reference, windows, values, won, costs, results)
        assert state == reference
        before = [0.7] + [s for s, _ in after[:-1]]
        assert bid == next((i for i, s in enumerate(before) if s >= budget), n) == expect_bid
        # the running totals over the rows bid, as an episode's trace sums them
        kept = won & (np.arange(n) < bid)
        spend = np.add.accumulate(np.r_[0.7, np.where(kept, costs, 0.0)])[1:]
        value = np.add.accumulate(np.r_[1.3, np.where(kept, values, 0.0)])[1:]
        assert bits(spend) == bits([s for s, _ in after])
        assert bits(value) == bits([v for _, v in after])

    def test_spend_at_the_budget_stops_bidding(self):
        state = make_state(budget=1.0, spent_total=0.5)
        reference = make_state(budget=1.0, spent_total=0.5)
        bid = state.record_outcomes((), 4, [0, 1, 2, 3], [0.25] * 4, [1.0] * 4, [0.0] * 4)
        after = record_one_at_a_time(
            reference, (), np.ones(4), np.ones(4, dtype=bool), np.full(4, 0.25), np.zeros(4)
        )
        assert bid == 2
        assert [s for s, _ in after] == [0.75, 1.0, 1.0, 1.0]
        assert state == reference


class TestConstraintSet:
    def test_overlap_names_both_windows(self):
        with pytest.raises(PacingError, match="weekend.*launch|launch.*weekend"):
            ConstraintSet(
                budget=10.0,
                delivery_windows=(
                    DeliveryWindow("weekend", 5, 10, 1.0),
                    DeliveryWindow("launch", 8, 12, 1.0),
                ),
            )

    def test_duplicate_ids(self):
        with pytest.raises(PacingError):
            ConstraintSet(
                budget=10.0,
                delivery_windows=(DeliveryWindow("w", 0, 5, 1.0),),
                guarantee_windows=(GuaranteeWindow("w", 5, 8, 1.0),),
            )

    def test_active_window_lookup(self):
        cs = ConstraintSet(
            budget=10.0,
            delivery_windows=(DeliveryWindow("w", 2, 4, 1.0),),
            guarantee_windows=(GuaranteeWindow("g", 3, 6, 2.0),),
        )
        assert cs.active_windows(3).delivery.id == "w"
        assert cs.active_windows(4).delivery is None
        assert cs.active_windows(3).ids == ("w", "g")

    def test_field_validation(self):
        with pytest.raises(PacingError):
            ConstraintSet(budget=0.0)
        with pytest.raises(PacingError):
            ConstraintSet(budget=1.0, cost_target=0.0)
        with pytest.raises(PacingError):
            DeliveryWindow("w", 3, 3, 1.0)
        with pytest.raises(PacingError):
            GuaranteeWindow("g", 0, 5, 0.0)


class TestConfigValidation:
    def test_exactly_one_scale(self):
        with pytest.raises(PacingError):
            PacingConfig()
        with pytest.raises(PacingError):
            PacingConfig(epsilon=0.1, xi=0.1)

    def test_mode_names(self):
        with pytest.raises(PacingError):
            PacingConfig(xi=0.1, mode="newton")

    def test_mpc_needs_total_forecast(self):
        with pytest.raises(PacingError):
            PacingConfig(xi=0.1, mpc=True, forecast_mode="relative")

    def test_relative_needs_interval_batches(self):
        with pytest.raises(PacingError):
            PacingConfig(xi=0.1, forecast_mode="relative", batch_size=50)

    def test_forecast_model_validation(self):
        with pytest.raises(PacingError):
            ForecastModel()
        with pytest.raises(PacingError):
            ForecastModel(total=10.0, shares=(1.0,))
        with pytest.raises(PacingError):
            ForecastModel(shares=(0.5, 0.4))


class TestConstraintMultipliers:
    def _constraints(self, **kw):
        defaults = dict(budget=100.0)
        defaults.update(kw)
        return ConstraintSet(**defaults)

    def test_slack_cost_target_stays_zero(self):
        state = make_state()
        cfg = PacingConfig(xi=0.1, constraint_xi=1.0)
        constraints = self._constraints(cost_target=100.0)
        state.interval_spend = 1.0
        state.interval_value = 10.0  # cost/result far below target
        state.interval_wins = 50
        for _ in range(20):
            update_constraint_multipliers(state, cfg, constraints, 0, eta=0.05)
        assert state.mu == 0.0

    def test_violated_cost_target_raises_mu(self):
        state = make_state()
        cfg = PacingConfig(xi=0.1, constraint_xi=1.0)
        constraints = self._constraints(cost_target=0.05)
        state.interval_spend = 1.0
        state.interval_value = 10.0  # cost/result 0.1 > 0.05
        state.interval_wins = 50
        update_constraint_multipliers(state, cfg, constraints, 0, eta=0.05)
        assert state.mu > 0.0

    def test_no_evidence_leaves_mu_alone(self):
        state = make_state()
        state.mu = 1.5
        cfg = PacingConfig(xi=0.1)
        constraints = self._constraints(cost_target=0.05)
        update_constraint_multipliers(state, cfg, constraints, 0, eta=0.05)
        assert state.mu == 1.5

    def test_inactive_window_frozen(self):
        state = make_state()
        state.window_lambda["w"] = 0.7
        cfg = PacingConfig(xi=0.1)
        constraints = self._constraints(delivery_windows=(DeliveryWindow("w", 5, 8, 1.0),))
        update_constraint_multipliers(state, cfg, constraints, 2, eta=0.05)
        assert state.window_lambda["w"] == 0.7

    def test_without_guarantee_formula_reduces(self):
        state = make_state(lambda_prime=2.0, lambda_tilde=1.0)
        constraints = self._constraints()
        lam_k, mu_k = state.window_multipliers(constraints.active_windows(0))
        assert mu_k == 0.0 and lam_k == 0.0
        from dualbid.bidding import bid_factor

        assert bid_factor(state.lam, state.mu, None, lam_k, mu_k) == pytest.approx(0.5)

    def test_overspent_window_raises_lambda_k(self):
        state = make_state()
        state.window_spend["w"] = 3.0
        state.window_interval_spend["w"] = 3.0
        state.interval_count = 100
        cfg = PacingConfig(xi=0.1)
        constraints = self._constraints(delivery_windows=(DeliveryWindow("w", 0, 10, 10.0),))
        update_constraint_multipliers(state, cfg, constraints, 0, eta=0.05)
        assert state.window_lambda["w"] > 0.0

    def test_behind_guarantee_raises_mu_k(self):
        state = make_state()
        state.window_value["g"] = 0.0
        state.window_interval_value["g"] = 0.0
        state.interval_count = 100
        cfg = PacingConfig(xi=0.1)
        constraints = self._constraints(guarantee_windows=(GuaranteeWindow("g", 0, 10, 50.0),))
        update_constraint_multipliers(state, cfg, constraints, 0, eta=0.05)
        assert state.window_mu["g"] > 0.0


def test_batch_update_resets_accumulators():
    state = make_state()
    cfg = PacingConfig(xi=0.1)
    constraints = ConstraintSet(budget=100.0)
    state.interval_count = 10
    state.interval_spend = 2.0
    state.interval_wins = 10
    state.interval_value = 1.0
    apply_batch_update(state, cfg, ForecastModel(total=1000.0), constraints, 0)
    assert state.interval_count == 0
    assert state.interval_spend == 0.0
    assert state.flags == []


def test_batch_update_skips_empty_interval_with_flag():
    state = make_state()
    before = state.lambda_tilde
    cfg = PacingConfig(xi=0.1)
    apply_batch_update(state, cfg, ForecastModel(total=1000.0), ConstraintSet(budget=100.0), 3)
    assert state.lambda_tilde == before
    assert any("no traffic" in f for f in state.flags)


def test_multipliers_stay_nonnegative_under_noise():
    rng = np.random.default_rng(10)
    state = make_state()
    cfg = PacingConfig(xi=0.5)
    constraints = ConstraintSet(
        budget=100.0,
        cost_target=0.1,
        delivery_windows=(DeliveryWindow("w", 0, 10, 5.0),),
        guarantee_windows=(GuaranteeWindow("g", 0, 10, 5.0),),
    )
    forecast = ForecastModel(total=1000.0)
    seen = []
    for i in range(200):
        state.interval_count = int(rng.integers(1, 200))
        state.interval_spend = float(rng.uniform(0, 30))
        state.interval_value = float(rng.uniform(0, 30))
        state.interval_wins = int(rng.integers(0, 40))
        state.window_interval_spend["w"] = float(rng.uniform(0, 3))
        state.window_interval_value["g"] = float(rng.uniform(0, 3))
        state.window_spend["w"] = state.window_spend.get("w", 0.0) + state.window_interval_spend["w"]
        state.window_value["g"] = state.window_value.get("g", 0.0) + state.window_interval_value["g"]
        apply_batch_update(state, cfg, forecast, constraints, i % 10)
        assert state.lambda_tilde >= 0
        assert state.mu >= 0
        assert all(v >= 0 for v in state.window_lambda.values())
        assert all(v >= 0 for v in state.window_mu.values())
        seen += [state.lambda_tilde, state.mu, state.window_lambda["w"], state.window_mu["g"]]
    # and every multiplier after each batch, bit for bit: the cost target on
    # smoothed and raw signals, both windows, capped ratios
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == (
        "92e3039debbb6d4f3ca32b945c4cdb70b39eb27274f874595a3e7a066e780481"
    )


ROOT = Path(__file__).resolve().parents[1]


def _windowed_stationary() -> dict:
    """A cost target, one delivery and one guarantee window, and count
    batches of 75, most with fewer than SMOOTHING_MIN_WINS wins."""
    cfg = stationary_scenario(
        intervals=40,
        budget=120.0,
        cost_target=0.3,
        delivery_windows=[{"id": "d", "start": 8, "end": 20, "cap": 16.0}],
        guarantee_windows=[{"id": "g", "start": 24, "end": 36, "floor": 110.0}],
        agent={"batch": 75, "constraint_xi": 5.0},
    )
    cfg["placements"][0]["intensity"] = 150.0
    return cfg


# sha256 of trace.csv and metrics.csv from `dualbid run`
EPISODE_DIGESTS = {
    # mu and mu_k
    "guaranteed.json": (
        "be667e69db95b6a658c37356dcf61c2558747957305be28415c940f84e2b1f94",
        "fd446760ac9b80b880966e93b383c6dd70eb77e5817ffb531d2646e308e68be1",
    ),
    # lambda_k over first-price rows
    "mixed_constrained.json": (
        "079c15b0132f9592cd82ea3c0b89b192c0e9e7cb5247499bf13cbadc00822b59",
        "4f3fb213d98950445795ff32fe1e06670c1626270089f7674db16a2655f95f4a",
    ),
    # all three, on smoothed and raw batch signals
    "windowed_stationary": (
        "fccbe3322234e606e14bdb489d4127a6bd91576001d023ba73e34b7eb713dd45",
        "402cb6f20ac35bfc57e775d30ee0e7040e419ee7a5dc191de18832cbc5072db0",
    ),
}


@pytest.mark.parametrize("scenario", list(EPISODE_DIGESTS))
def test_constrained_episodes_are_pinned(tmp_path, scenario):
    # the controller's trace and metrics, byte for byte
    path = ROOT / "scenarios" / scenario
    if scenario == "windowed_stationary":
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_windowed_stationary()))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    for name, digest in zip(("trace.csv", "metrics.csv"), EPISODE_DIGESTS[scenario]):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
