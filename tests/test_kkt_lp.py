"""The KKT solve against the fractional LP of helpers.kkt_lp, on realized
second-price logs, for every kind of constraint: the budget, delivery and
guarantee windows and the cost target.

Realized spend and value are step functions of the bid factors, so the
oracle's integral solution and the LP's fractional one differ by the LP's
fractional records, one per binding constraint at most.  Four things follow
and are checked:

- the oracle's solution is feasible: within the budget and every cap, at
  every floor, and at most the cost target per unit of value;
- a window that binds in the LP has the LP's effective factor: the factor
  the oracle's multipliers give the window's rows equals the one the LP's
  duals give them (LpSolution.factor), both being the win limit of the
  window's marginal record;
- every record bids the factor of its windows, and wins exactly while that
  factor reaches its win limit: where only the budget and caps bind, the
  oracle wins each record the LP wins in full, and the ones it wins beyond
  those cost no more, together, than the LP's fractional records (with a
  floor or the cost target binding as well, the LP may trade part of one
  binding row's marginal record for a whole record under another);
- on these fixed builds, the LP's value exceeds the oracle's by at most
  (K + 1) times the largest record value, K being the number of window and
  cost rows binding in the LP.

The last bound is checked on these builds only: it does not hold in
general.  On random problems with a guarantee floor nested in a slack
delivery window (the outer search) the oracle's value can fall further
below the LP's, though no threshold policy does better there.
test_threshold_policy.py checks the oracle against every threshold policy
on tiny logs instead.
"""

from pathlib import Path

import numpy as np
import pytest

from dualbid.bidding import DEFAULT_BID_CAP, optimal_bids
from dualbid.mechanisms import resolve
from dualbid.oracle import solve_kkt_grid, win_limits
from dualbid.pacing import ConstraintSet
from dualbid.scenario import load_scenario, parse_scenario, scenario_to_dict
from dualbid.simulate import generate_stream, realized_log
from helpers import kkt_lp
from test_kkt_pins import _constraints, _log

ROOT = Path(__file__).resolve().parents[1]
BINDS = 1e-9  # an LP dual above this binds its row


def _shipped(name: str, **windows):
    cfg = scenario_to_dict(load_scenario(ROOT / "scenarios" / name))
    cfg.update(windows)
    scenario = parse_scenario(cfg)
    return realized_log(scenario, generate_stream(scenario)), scenario.constraints


def rep_won(log, profile) -> np.ndarray:
    """The records a replay at profile wins."""
    factors = np.array([profile.vector_for(combo).factor for combo in log.window_combos])
    bids = optimal_bids(log.table, factors[log.combo_codes] * log.values, DEFAULT_BID_CAP)
    return resolve(log.table, bids, log.clearing)[0]


def _stationary_two_windows():
    return _shipped("stationary.json", delivery_windows=[
        {"id": "a", "start": 20, "end": 60, "cap": 12.0},
        {"id": "b", "start": 120, "end": 170, "cap": 14.0},
    ])  # fmt: skip


def _sp(case: str):
    log = _log("sp")
    return log, _constraints(log, case)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: _sp("budget"), id="sp-budget"),
        pytest.param(lambda: _sp("delivery"), id="sp-delivery"),
        pytest.param(lambda: _sp("guarantee"), id="sp-guarantee"),
        pytest.param(lambda: _sp("cost_binding"), id="sp-cost_binding"),
        pytest.param(lambda: _sp("cost_delivery"), id="sp-cost_delivery"),
        pytest.param(_stationary_two_windows, id="stationary-two-windows"),
        pytest.param(lambda: _shipped("guaranteed.json"), id="guaranteed"),
    ],
)
def test_kkt_matches_the_lp(build):
    log, constraints = build()
    assert isinstance(constraints, ConstraintSet)
    caps = {w.id: w.cap for w in constraints.delivery_windows}
    floors = {w.id: w.floor for w in constraints.guarantee_windows}
    cost_target = constraints.cost_target
    kkt = solve_kkt_grid(log, constraints)
    lp = kkt_lp(log, constraints.budget, caps, floors, cost_target)
    profile, rep = kkt.profile, kkt.replay

    assert kkt.feasible and rep.spend <= constraints.budget
    for w, cap in caps.items():
        assert rep.per_window[w][0] <= cap
    for w, floor in floors.items():
        assert rep.per_window[w][1] >= floor
    if cost_target is not None:
        assert rep.spend <= cost_target * rep.value
    for w, dual in lp.window_duals.items():
        if dual > BINDS:
            effective = profile.vector_for((w,)).factor
            assert effective == pytest.approx(lp.factor((w,), cost_target), rel=1e-6), w

    price = log.price
    limits = win_limits(log.values, log.clearing, log.table, DEFAULT_BID_CAP)[0]
    factors = np.array([profile.vector_for(combo).factor for combo in log.window_combos])
    won = limits <= factors[log.combo_codes]
    assert np.array_equal(won, rep_won(log, profile))
    binding_floors = [w for w in floors if lp.window_duals[w] > BINDS]
    if not binding_floors and lp.cost_dual <= BINDS:
        fractional = (lp.x > 1e-9) & (lp.x < 1.0 - 1e-9)
        full = lp.x >= 1.0 - 1e-9
        assert not (full & ~won).any()
        assert price[won & ~full].sum() <= price[fractional].sum()

    binding = sum(d > BINDS for d in lp.window_duals.values()) + (lp.cost_dual > BINDS)
    assert rep.value <= lp.value * (1.0 + 1e-12)
    assert lp.value - rep.value <= (binding + 1) * log.values.max()
