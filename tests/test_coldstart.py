"""Cold-start tests: the normal-CDF identity, spend curve, and inversion."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from dualbid.coldstart import (
    ColdStartError,
    PlacementPriors,
    expected_phi_affine,
    expected_spend_per_opportunity,
    fit_lognormal,
    solve_lambda0,
    solve_lambda0_multi,
)

STANDARD = PlacementPriors(
    bid_mu=0.0, bid_sigma=1.0, value_mu=0.0, value_sigma=1.0, forecast_count=1000.0
)


class TestExpectedPhiAffine:
    def test_degenerate_slope(self):
        assert expected_phi_affine(0.0, 1.0) == pytest.approx(float(ndtr(1.0)), abs=1e-12)

    def test_symmetry_point(self):
        assert expected_phi_affine(1.0, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_three_two_monte_carlo(self):
        # frozen from Phi(2/sqrt(10)); cross-checked by simulation
        assert expected_phi_affine(3.0, 2.0) == pytest.approx(0.7364553715672310, abs=1e-12)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2_000_000)
        sample = ndtr(3.0 * x + 2.0)
        se = sample.std() / math.sqrt(len(sample))
        assert abs(sample.mean() - expected_phi_affine(3.0, 2.0)) <= 3 * se

    def test_phi_matches_scipy_on_minus_8_to_8(self):
        # expected_phi_affine(0, x) is the cold start's Phi(x), from math.erfc
        x = np.linspace(-8.0, 8.0, 16_001)
        phi = np.array([expected_phi_affine(0.0, float(v)) for v in x])
        np.testing.assert_allclose(phi, ndtr(x), rtol=4e-15, atol=0.0)

    def test_reflection_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.uniform(-5, 5), rng.uniform(-5, 5)
            assert expected_phi_affine(a, b) + expected_phi_affine(a, -b) == pytest.approx(
                1.0, abs=1e-12
            )


class TestExpectedSpend:
    def test_worked_point(self):
        out = expected_spend_per_opportunity(STANDARD, math.exp(-1.0))
        assert out == pytest.approx(0.8243606353500641, abs=1e-12)

    def test_limits(self):
        assert expected_spend_per_opportunity(STANDARD, 1e12) == pytest.approx(0.0, abs=1e-9)
        assert expected_spend_per_opportunity(STANDARD, 1e-12) == pytest.approx(
            STANDARD.mean_competing_bid(), rel=1e-9
        )

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            priors = PlacementPriors(
                bid_mu=rng.uniform(-1, 1),
                bid_sigma=rng.uniform(0.2, 2.0),
                value_mu=rng.uniform(-2, 1),
                value_sigma=rng.uniform(0.2, 2.0),
                forecast_count=100.0,
            )
            # log-grid spanning the responsive region; far outside it the
            # normal CDF saturates in double precision
            center = math.exp(priors.value_mu - priors.bid_mu - priors.bid_sigma**2)
            spread = math.exp(6.0 * math.hypot(priors.value_sigma, priors.bid_sigma))
            grid = np.geomspace(center / spread, center * spread, 1000)
            spends = [expected_spend_per_opportunity(priors, g) for g in grid]
            assert all(a > b for a, b in zip(spends, spends[1:]))

    def test_domain(self):
        with pytest.raises(ColdStartError):
            expected_spend_per_opportunity(STANDARD, 0.0)


class TestSolveLambda0:
    def test_worked_point(self):
        result = solve_lambda0(STANDARD, budget=824.3606353500641, count=1000.0)
        assert not result.unconstrained
        assert result.lam == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_median_case(self):
        # at a rate of half the mean bid the quantile term vanishes
        priors = PlacementPriors(0.3, 0.9, -0.4, 0.6, 100.0)
        rate = 0.5 * priors.mean_competing_bid()
        result = solve_lambda0(priors, budget=rate * 100.0, count=100.0)
        expected = math.exp(priors.value_mu - priors.bid_mu - priors.bid_sigma**2)
        assert result.lam == pytest.approx(expected, rel=1e-12)

    def test_back_substitution(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            priors = PlacementPriors(
                bid_mu=rng.uniform(-1, 1),
                bid_sigma=rng.uniform(0.2, 1.5),
                value_mu=rng.uniform(-2, 1),
                value_sigma=rng.uniform(0.2, 1.5),
                forecast_count=rng.uniform(10, 1e5),
            )
            rate = rng.uniform(0.01, 0.95) * priors.mean_competing_bid()
            result = solve_lambda0(priors, budget=rate * priors.forecast_count)
            residual = abs(expected_spend_per_opportunity(priors, result.lam) - rate)
            assert residual <= 1e-9 * rate

    def test_unconstrained_boundary(self):
        result = solve_lambda0(STANDARD, budget=2000.0, count=1000.0)
        assert result.unconstrained

    def test_closed_form_matches_monte_carlo(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            priors = PlacementPriors(
                bid_mu=rng.uniform(-0.5, 0.5),
                bid_sigma=rng.uniform(0.3, 1.2),
                value_mu=rng.uniform(-1.5, 0.5),
                value_sigma=rng.uniform(0.3, 1.2),
                forecast_count=100.0,
            )
            lam = float(rng.uniform(0.3, 3.0))
            z = rng.lognormal(priors.bid_mu, priors.bid_sigma, 1_000_000)
            v = rng.lognormal(priors.value_mu, priors.value_sigma, 1_000_000)
            pay = np.where(z <= v / lam, z, 0.0)
            se = pay.std() / 1000.0
            assert abs(pay.mean() - expected_spend_per_opportunity(priors, lam)) <= 3 * se


class TestSolveLambda0Multi:
    def test_single_reduces(self):
        single = solve_lambda0(STANDARD, budget=400.0)
        multi = solve_lambda0_multi([STANDARD], budget=400.0)
        assert multi.lam == pytest.approx(single.lam, rel=1e-9)

    def test_two_halves_equal_one_whole(self):
        half = PlacementPriors(0.0, 1.0, 0.0, 1.0, 500.0)
        multi = solve_lambda0_multi([half, half], budget=400.0)
        single = solve_lambda0(STANDARD, budget=400.0)
        assert multi.lam == pytest.approx(single.lam, rel=1e-8)

    def test_heterogeneous_back_substitution(self):
        a = PlacementPriors(0.2, 0.8, -0.5, 0.6, 700.0)
        b = PlacementPriors(-0.4, 1.3, -1.0, 0.9, 1800.0)
        budget = 300.0
        result = solve_lambda0_multi([a, b], budget)
        aggregate = sum(
            p.forecast_count * expected_spend_per_opportunity(p, result.lam) for p in (a, b)
        )
        assert abs(aggregate - budget) <= 1e-6 * budget

    def test_unconstrained(self):
        result = solve_lambda0_multi([STANDARD], budget=1e9)
        assert result.unconstrained

    def test_validation(self):
        with pytest.raises(ColdStartError):
            solve_lambda0_multi([], budget=10.0)


class TestFitLognormal:
    def test_degenerate_floor(self):
        mu, sigma = fit_lognormal([math.e**2] * 5)
        assert mu == pytest.approx(2.0)
        assert sigma == 1e-6

    def test_two_point_moments(self):
        mu, sigma = fit_lognormal([math.e, math.e**3])
        assert mu == pytest.approx(2.0)
        assert sigma == pytest.approx(math.sqrt(2.0))

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        samples = rng.lognormal(0.5, 0.8, 100_000)
        mu, sigma = fit_lognormal(samples)
        assert abs(mu - 0.5) <= 0.01
        assert abs(sigma - 0.8) <= 0.01

    def test_errors(self):
        with pytest.raises(ColdStartError):
            fit_lognormal([1.0])
        with pytest.raises(ColdStartError):
            fit_lognormal([1.0, -2.0])
        with pytest.raises(ColdStartError):
            fit_lognormal([1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_sample_raises_before_numpy_warns(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ColdStartError, match="finite"):
                fit_lognormal([1.0, bad, 2.0])


def test_priors_validation():
    with pytest.raises(ColdStartError):
        PlacementPriors(0.0, 0.0, 0.0, 1.0, 10.0)
    with pytest.raises(ColdStartError):
        PlacementPriors(0.0, 1.0, 0.0, -1.0, 10.0)
    with pytest.raises(ColdStartError):
        PlacementPriors(0.0, 1.0, 0.0, 1.0, 0.0)


@pytest.mark.parametrize("field", ["bid_mu", "bid_sigma", "value_mu", "value_sigma", "forecast_count"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_priors_reject_non_finite_fields(field, bad):
    fields = {"bid_mu": 0.0, "bid_sigma": 1.0, "value_mu": 0.0, "value_sigma": 1.0,
              "forecast_count": 10.0}
    with pytest.raises(ColdStartError, match=field):
        PlacementPriors(**{**fields, field: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_solvers_reject_a_non_finite_budget(bad):
    for placements in ([STANDARD], [STANDARD, STANDARD]):
        with pytest.raises(ColdStartError, match="budget"):
            solve_lambda0_multi(placements, budget=bad)
    with pytest.raises(ColdStartError, match="budget"):
        solve_lambda0(STANDARD, bad)
    with pytest.raises(ColdStartError, match="count"):
        solve_lambda0(STANDARD, 1.0, count=math.inf)
