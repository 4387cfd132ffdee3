"""The KKT solve's budget and delivery multipliers against the fractional
LP of helpers.kkt_lp, on realized second-price logs.

Realized spend is a step function of the multipliers, so the oracle's
integral solution and the LP's fractional one differ by the LP's fractional
records, one per binding constraint at most.  Three things follow and are
checked:

- a window that binds in the LP has the LP's effective multiplier: the
  oracle's lam + lam_k equals the LP's budget dual plus the window's dual,
  both being the win limit of the window's marginal record;
- lam lies in the span of win limits that the LP's fractional records
  cover: of the rows bidding at lam (those outside every binding window),
  the oracle wins each one the LP wins in full, and the ones it wins
  beyond those cost no more, together, than the LP's fractional records;
- the LP's value exceeds the oracle's by at most (K + 1) times the largest
  record value, K being the number of delivery windows.
"""

from pathlib import Path

import numpy as np
import pytest

from dualbid.bidding import DEFAULT_BID_CAP
from dualbid.oracle import solve_kkt_grid, win_limits
from dualbid.pacing import ConstraintSet
from dualbid.scenario import load_scenario, parse_scenario, scenario_to_dict
from dualbid.simulate import generate_stream, realized_log
from helpers import kkt_lp
from test_kkt_pins import _constraints, _log

ROOT = Path(__file__).resolve().parents[1]


def _stationary_two_windows():
    cfg = scenario_to_dict(load_scenario(ROOT / "scenarios" / "stationary.json"))
    cfg["delivery_windows"] = [
        {"id": "a", "start": 20, "end": 60, "cap": 12.0},
        {"id": "b", "start": 120, "end": 170, "cap": 14.0},
    ]
    scenario = parse_scenario(cfg)
    return realized_log(scenario, generate_stream(scenario)), scenario.constraints


def _sp(case: str):
    log = _log("sp")
    return log, _constraints(log, case)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: _sp("budget"), id="sp-budget"),
        pytest.param(lambda: _sp("delivery"), id="sp-delivery"),
        pytest.param(_stationary_two_windows, id="stationary-two-windows"),
    ],
)
def test_kkt_matches_the_lp(build):
    log, constraints = build()
    assert isinstance(constraints, ConstraintSet)
    caps = {w.id: w.cap for w in constraints.delivery_windows}
    kkt = solve_kkt_grid(log, constraints)
    lp = kkt_lp(log, constraints.budget, caps)
    profile, rep = kkt.profile, kkt.replay
    assert kkt.feasible and rep.spend <= constraints.budget
    for w, cap in caps.items():
        assert rep.per_window[w][0] <= cap
        if lp.window_duals[w] > 0:
            effective = profile.lam + profile.window_lambda[w]
            assert effective == pytest.approx(lp.budget_dual + lp.window_duals[w], rel=1e-6)

    cols = log.arrays
    price = cols.price
    limits = win_limits(cols.values, cols.clearing, cols.table, DEFAULT_BID_CAP)
    at_lam = np.ones(len(log), dtype=bool)
    for w in caps:
        if profile.window_lambda[w] > 0:
            at_lam &= ~cols.window_masks[w]
    won = limits >= profile.lam
    fractional = (lp.x > 1e-9) & (lp.x < 1.0 - 1e-9)
    full = lp.x >= 1.0 - 1e-9
    assert not (at_lam & full & ~won).any()
    assert price[at_lam & won & ~full].sum() <= price[fractional].sum()

    assert rep.value <= lp.value * (1.0 + 1e-12)
    assert lp.value - rep.value <= (len(caps) + 1) * cols.values.max()
