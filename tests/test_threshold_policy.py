"""The realized KKT solve against an exhaustive reference on tiny logs.

helpers.best_threshold_policy enumerates every threshold policy, each
window combination's rows bidding one factor of their own, and returns the
best feasible value or None.  The oracle's profile is one such policy: it
gives every record the factor of its combination.  On seeded problems of
at most three combinations and two dozen rows, second and first price,
with delivery caps, guarantee floors (disjoint from, nested in and
overlapping the caps' windows) and cost targets, three things are checked:

- where no policy is feasible, the oracle reports infeasible;
- where the oracle reports infeasible, no policy is feasible;
- a feasible answer replays within the budget and every constraint, and
  wins no more than the best policy.

The gap to the best policy is not bounded: a Lagrangian profile cannot
give a combination a factor of the wrong sign, and integrality does the
rest.
"""

import numpy as np
import pytest

from dualbid.mechanisms import LognormalBids, MechanismSpec, UniformBids
from dualbid.oracle import LogRecord, MultiplierProfile, OpportunityLog, replay, solve_kkt_grid
from dualbid.pacing import ConstraintSet, DeliveryWindow, GuaranteeWindow
from helpers import best_threshold_policy

SP = MechanismSpec("second_price", 0.0, UniformBids(0.0, 1.0))
FP = MechanismSpec("first_price", 0.0, UniformBids(0.0, 1.0))
FP_LOGN = MechanismSpec("first_price", 0.0, LognormalBids(-0.3, 0.8))
# the same first-price rows with a reserve, which shading clamps to
RESERVED = (
    MechanismSpec("first_price", 0.3, UniformBids(0.0, 1.0)),
    MechanismSpec("first_price", 0.05, LognormalBids(-0.3, 0.8)),
)

# which windows a row may be in, by layout: each has at most three combinations
LAYOUTS = {
    "none": [()],
    "cap": [("d",), ()],
    "floor": [("g",), ()],
    "disjoint": [("d",), ("g",), ()],
    "nested": [("d",), ("d", "g"), ()],
    "overlap": [("d",), ("d", "g"), ("g",)],
}
SEEDS = range(80)  # even seeds second price, odd ones mostly first price
RESERVED_SEEDS = range(1, 40, 2)


def problem(
    seed: int, first_price: tuple[MechanismSpec, MechanismSpec] = (FP, FP_LOGN)
) -> tuple[OpportunityLog, ConstraintSet]:
    """A random realized log and constraints set from its replay at lam = 2:
    a budget, at random a cost target, and a cap and a floor on the windows
    of the layout, each drawn to bind, to be slack or to be out of reach.
    An odd seed's first-price rows are first_price's uniform and lognormal
    mechanisms."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 25))
    layout = list(LAYOUTS)[int(rng.integers(len(LAYOUTS)))]
    combos = LAYOUTS[layout]
    if seed % 2:
        uniform, lognormal = first_price
        mechs = [(SP, uniform, lognormal, uniform)[int(k)] for k in rng.integers(4, size=n)]
    else:
        mechs = [SP] * n
    records = [
        LogRecord(float(i), "p", float(v), m, float(c), combos[int(k)])
        for i, (v, m, c, k) in enumerate(
            zip(rng.uniform(0.2, 3.0, n), mechs, rng.uniform(0.05, 1.0, n),
                rng.integers(len(combos), size=n))
        )
    ]  # fmt: skip
    log = OpportunityLog(records)
    base = replay(log, MultiplierProfile(lam=2.0))
    windows = {w: base.per_window.get(w, (0.0, 0.0)) for w in ("d", "g")}
    cost_target = None
    if layout == "none" or rng.random() < 0.5:
        cost_target = base.spend / max(base.value, 1e-9) * rng.uniform(0.6, 1.4)
    delivery = tuple(
        DeliveryWindow("d", 0, 1, max(windows["d"][0], 0.05) * rng.uniform(0.3, 1.5))
        for _ in range(any("d" in k for k in combos))
    )
    guarantee = tuple(
        GuaranteeWindow("g", 0, 1, max(windows["g"][1], 0.05) * rng.uniform(0.5, 1.8))
        for _ in range(any("g" in k for k in combos))
    )
    budget = max(base.spend, 0.05) * rng.uniform(0.4, 1.3)
    return log, ConstraintSet(
        budget=budget, cost_target=cost_target, delivery_windows=delivery, guarantee_windows=guarantee
    )


def meets(log: OpportunityLog, profile: MultiplierProfile, constraints: ConstraintSet) -> bool:
    """Whether a replay at profile keeps the budget and every constraint."""
    rep, slack = replay(log, profile), 1.0 + 1e-12
    ok = rep.spend <= constraints.budget * slack
    if constraints.cost_target is not None:
        ok &= rep.spend <= constraints.cost_target * rep.value * slack
    for w in constraints.delivery_windows:
        ok &= rep.per_window.get(w.id, (0.0, 0.0))[0] <= w.cap * slack
    for w in constraints.guarantee_windows:
        ok &= rep.per_window.get(w.id, (0.0, 0.0))[1] * slack >= w.floor
    return ok


def check(seed: int, first_price: tuple[MechanismSpec, MechanismSpec] = (FP, FP_LOGN)) -> None:
    log, constraints = problem(seed, first_price)
    best = best_threshold_policy(log, constraints)
    kkt = solve_kkt_grid(log, constraints)
    assert kkt.feasible == (best is not None), (seed, kkt.notes, best)
    if kkt.feasible:
        assert meets(log, kkt.profile, constraints), (seed, kkt.notes)
        assert kkt.replay.value <= best * (1.0 + 1e-12), (seed, kkt.replay.value, best)


@pytest.mark.parametrize("chunk", range(4))
def test_oracle_is_infeasible_exactly_where_no_threshold_policy_is_feasible(chunk):
    for seed in SEEDS[chunk::4]:
        check(seed)


@pytest.mark.parametrize("seed", RESERVED_SEEDS)
def test_oracle_matches_threshold_policies_on_reserved_rows(seed):
    check(seed, RESERVED)


# Seeds past SEEDS where the oracle reports infeasible though a threshold
# policy is feasible, one whose factors keep a profile's signs (caps below
# the global factor, floors above it).  The solve fixes each window's
# threshold from its own constraint, before the cost target's, and takes a
# multiplier above 0 only where its constraint binds.  Seed 87 (disjoint
# windows) meets its cost target only with d's rows held at 0.20, below
# the 0.64 that d's cap alone allows, which no such profile gives; seeds
# 117 and 153 (overlapping windows, the outer guarantee search) end with
# the cost target or g's floor given up.
@pytest.mark.xfail(strict=True, reason="the KKT solve misses a feasible threshold policy")
@pytest.mark.parametrize("seed", [87, 117, 153])
def test_oracle_misses_a_feasible_threshold_policy(seed):
    check(seed)
