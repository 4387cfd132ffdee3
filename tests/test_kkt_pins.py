"""Pinned KKT solutions: every constraint kind and combination on small
realized and distributional logs.

The expected multipliers and residuals are reprs, the notes exact, and the
replay count that of oracle.replay calls made by one solve.  Every pin was
computed when the delivery windows and the budget moved from nested searches
to one search per window plus the lambda* solve (see solve_kkt_grid); the
windows' effective multipliers and the values they reach are checked
against an independent LP in test_kkt_lp.py.
"""

import numpy as np
import pytest

from dualbid import oracle
from dualbid.mechanisms import LognormalBids, MechanismSpec, UniformBids
from dualbid.oracle import (
    KKT_REL_TOL,
    LogRecord,
    MultiplierProfile,
    OpportunityLog,
    replay,
    solve_kkt_grid,
    solve_lambda_star,
)
from dualbid.pacing import ConstraintSet, DeliveryWindow, GuaranteeWindow

UNIFORM_SP = MechanismSpec("second_price", 0.0, UniformBids(0.0, 1.0))
UNIFORM_FP = MechanismSpec("first_price", 0.0, UniformBids(0.0, 1.0))
LOGN_SP = MechanismSpec("second_price", 0.1, LognormalBids(-0.5, 0.8))


def _windows(i: int) -> tuple[str, ...]:
    """Records 0-11 are in delivery window "d", the odd ones in guarantee
    window "g"."""
    return (("d",) if i < 12 else ()) + (("g",) if i % 2 else ())


def _log(kind: str) -> OpportunityLog:
    rng = np.random.default_rng(11)
    n = 24
    values = rng.uniform(0.3, 3.0, n)
    clearing = rng.uniform(0.1, 1.0, n)
    if kind == "sp":
        mechs, realized = [UNIFORM_SP] * n, True
    elif kind == "mixed":
        mechs, realized = [(UNIFORM_FP, UNIFORM_SP)[i % 2] for i in range(n)], True
    else:
        mechs, realized = [(LOGN_SP, UNIFORM_SP)[i % 2] for i in range(n)], False
    return OpportunityLog(
        [
            LogRecord(
                time=float(i),
                placement="p",
                value=float(values[i]),
                mechanism=mechs[i],
                clearing_bid=float(clearing[i]) if realized else None,
                windows=_windows(i),
            )
            for i in range(n)
        ]
    )


def _constraints(log: OpportunityLog, case: str) -> ConstraintSet:
    """Targets set from the replay at lam = 2, where the budget binds."""
    base = replay(log, MultiplierProfile(lam=2.0))
    budget = base.spend
    d_spend = base.per_window["d"][0]
    g_value = base.per_window["g"][1]
    g_total = replay(log, MultiplierProfile(lam=1e-9)).per_window["g"][1]
    natural = base.spend / base.value
    cost_binding = 0.8 * natural
    delivery = (DeliveryWindow("d", 0, 1, 0.6 * d_spend),)
    slack_delivery = (DeliveryWindow("d", 0, 1, 10.0 * d_spend),)
    guarantee = (GuaranteeWindow("g", 0, 1, 1.05 * g_value),)
    cases = {
        "budget": ConstraintSet(budget=budget),
        "unconstrained": ConstraintSet(budget=100.0 * budget, delivery_windows=delivery),
        "cost_binding": ConstraintSet(budget=budget, cost_target=cost_binding),
        "cost_slack": ConstraintSet(budget=budget, cost_target=100.0),
        "delivery": ConstraintSet(budget=budget, delivery_windows=delivery),
        "guarantee": ConstraintSet(budget=budget, guarantee_windows=guarantee),
        "guarantee_infeasible": ConstraintSet(
            budget=budget, guarantee_windows=(GuaranteeWindow("g", 0, 1, 2.0 * g_total),)
        ),
        "cost_delivery": ConstraintSet(
            budget=budget, cost_target=cost_binding, delivery_windows=delivery
        ),
        "guarantee_delivery": ConstraintSet(
            budget=budget, delivery_windows=delivery, guarantee_windows=guarantee
        ),
        "all": ConstraintSet(
            budget=budget,
            cost_target=100.0,
            delivery_windows=slack_delivery,
            guarantee_windows=guarantee,
        ),
    }
    return cases[case]


def solve_counted(monkeypatch, log, constraints):
    """solve_kkt_grid, and the number of oracle.replay calls it made."""
    calls = []
    original = oracle.replay

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "replay", counted)
    kkt = solve_kkt_grid(log, constraints)
    monkeypatch.setattr(oracle, "replay", original)
    return kkt, len(calls)


def outcome(kkt, replays: int) -> dict:
    p = kkt.profile
    return {
        "lam": repr(p.lam),
        "mu": repr(p.mu),
        "window_lambda": {k: repr(v) for k, v in p.window_lambda.items()},
        "window_mu": {k: repr(v) for k, v in p.window_mu.items()},
        "residuals": {k: repr(v) for k, v in kkt.residuals.items()},
        "notes": list(kkt.notes),
        "feasible": kkt.feasible,
        "replays": replays,
    }


PINS = {('dist', 'all'): {'feasible': True,
                   'lam': '2.2415517187832035',
                   'mu': '0.0',
                   'notes': [],
                   'replays': 82,
                   'residuals': {'budget': '3.957739691529127e-09',
                                 'guarantee_g': '7.859286303424362e-06'},
                   'window_lambda': {'d': '0.0'},
                   'window_mu': {'g': '0.2228090706878207'}},
 ('dist', 'budget'): {'feasible': True,
                      'lam': '2.000000000131601',
                      'mu': '0.0',
                      'notes': [],
                      'replays': 9,
                      'residuals': {'budget': '8.399714257478763e-11'},
                      'window_lambda': {},
                      'window_mu': {}},
 ('dist', 'cost_binding'): {'feasible': True,
                            'lam': '1e-09',
                            'mu': '5.660052503538917',
                            'notes': ['budget unconstrained'],
                            'replays': 25,
                            'residuals': {'budget': '0.0', 'cost_target': '5.834137422278118e-06'},
                            'window_lambda': {},
                            'window_mu': {}},
 ('dist', 'cost_delivery'): {'feasible': True,
                             'lam': '1e-09',
                             'mu': '5.265127477583451',
                             'notes': ['budget unconstrained'],
                             'replays': 84,
                             'residuals': {'budget': '0.0',
                                           'cost_target': '3.3412835798163343e-07',
                                           'delivery_d': '7.2674863629274e-06'},
                             'window_lambda': {'d': '0.4830534123279201'},
                             'window_mu': {}},
 ('dist', 'cost_slack'): {'feasible': True,
                          'lam': '2.000000000131601',
                          'mu': '0.0',
                          'notes': [],
                          'replays': 9,
                          'residuals': {'budget': '8.399714257478763e-11'},
                          'window_lambda': {},
                          'window_mu': {}},
 ('dist', 'delivery'): {'feasible': True,
                        'lam': '1.5283134485386072',
                        'mu': '0.0',
                        'notes': [],
                        'replays': 15,
                        'residuals': {'budget': '1.019569095817019e-09',
                                      'delivery_d': '9.940819994891381e-05'},
                        'window_lambda': {'d': '1.3820825107738706'},
                        'window_mu': {}},
 ('dist', 'guarantee'): {'feasible': True,
                         'lam': '2.2415517187832035',
                         'mu': '0.0',
                         'notes': [],
                         'replays': 74,
                         'residuals': {'budget': '3.957739691529127e-09',
                                       'guarantee_g': '7.859286303424362e-06'},
                         'window_lambda': {},
                         'window_mu': {'g': '0.2228090706878207'}},
 ('dist', 'guarantee_delivery'): {'feasible': True,
                                  'lam': '1.8554954157043915',
                                  'mu': '0.0',
                                  'notes': [],
                                  'replays': 81,
                                  'residuals': {'budget': '5.214262577268869e-09',
                                                'delivery_d': '3.768876489895767e-06',
                                                'guarantee_g': '3.9986380777956576e-05'},
                                  'window_lambda': {'d': '2.3272837255047545'},
                                  'window_mu': {'g': '0.7526099979184785'}},
 ('dist', 'guarantee_infeasible'): {'feasible': False,
                                    'lam': '4.900325367894165',
                                    'mu': '0.0',
                                    'notes': ["guarantee 'g' infeasible: max achievable value "
                                              '18.5368 < floor 37.0737'],
                                    'replays': 79,
                                    'residuals': {'budget': '4.649820628532808e-08'},
                                    'window_lambda': {},
                                    'window_mu': {'g': '10000.0'}},
 ('dist', 'unconstrained'): {'feasible': True,
                             'lam': '1e-09',
                             'mu': '0.0',
                             'notes': ['budget unconstrained'],
                             'replays': 7,
                             'residuals': {'budget': '0.0', 'delivery_d': '9.940819994891381e-05'},
                             'window_lambda': {'d': '2.9103959583124777'},
                             'window_mu': {}},
 ('mixed', 'all'): {'feasible': True,
                    'lam': '2.729872419093226',
                    'mu': '0.0',
                    'notes': ['guarantee_g residual 0.0383 exceeds rel_tol 0.0001: realized value '
                              "in 'g' steps from 17.3072112751 at mu_g=1.3308851718902588 to "
                              '18.1593868207 at mu_g=1.330885261297226, the final bracket of its '
                              'search'],
                    'replays': 1207,
                    'residuals': {'budget': '7.249756350802272e-14',
                                  'guarantee_g': '0.03829256974029449'},
                    'window_lambda': {'d': '0.0'},
                    'window_mu': {'g': '1.330885261297226'}},
 ('mixed', 'budget'): {'feasible': True,
                       'lam': '2.0000000000004547',
                       'mu': '0.0',
                       'notes': [],
                       'replays': 1,
                       'residuals': {'budget': '1.0125233984581428e-13'},
                       'window_lambda': {},
                       'window_mu': {}},
 ('mixed', 'cost_binding'): {'feasible': True,
                             'lam': '1e-09',
                             'mu': '4.918429493904114',
                             'notes': ['budget unconstrained',
                                       'cost_target residual 0.0739 exceeds rel_tol 0.0001: '
                                       'realized spend / value steps from 0.181918283273 at '
                                       'mu=4.9184291362762451 to 0.167088387204 at '
                                       'mu=4.9184294939041138, the final bracket of its search'],
                             'replays': 73,
                             'residuals': {'budget': '0.0', 'cost_target': '0.07394819732085511'},
                             'window_lambda': {},
                             'window_mu': {}},
 ('mixed', 'cost_delivery'): {'feasible': True,
                              'lam': '1e-09',
                              'mu': '3.4449604749679565',
                              'notes': ['budget unconstrained',
                                        'delivery_d residual 0.284 exceeds rel_tol 0.0001: '
                                        "realized spend in 'd' steps from 1.99926871693 at "
                                        'lam+lam_d=0.78067183185353684 to 1.36683294337 at '
                                        'lam+lam_d=0.78067183185444633, the final bracket of its '
                                        'search'],
                              'replays': 1165,
                              'residuals': {'budget': '0.0',
                                            'cost_target': '1.856456433024789e-09',
                                            'delivery_d': '0.2844686096335012'},
                              'window_lambda': {'d': '0.7806718308544464'},
                              'window_mu': {}},
 ('mixed', 'cost_slack'): {'feasible': True,
                           'lam': '2.0000000000004547',
                           'mu': '0.0',
                           'notes': [],
                           'replays': 1,
                           'residuals': {'budget': '1.0125233984581428e-13'},
                           'window_lambda': {},
                           'window_mu': {}},
 ('mixed', 'delivery'): {'feasible': True,
                         'lam': '1.4798857351152037',
                         'mu': '0.0',
                         'notes': ['budget residual 0.041 exceeds rel_tol 0.0001: realized spend '
                                   'steps from 6.73015317363 at lam=1.4798857351138395 to '
                                   '6.02412705208 at lam=1.4798857351152037, the final bracket of '
                                   'its search',
                                   'delivery_d residual 0.284 exceeds rel_tol 0.0001: realized '
                                   "spend in 'd' steps from 1.99926871693 at "
                                   'lam+lam_d=2.6058776203090019 to 1.36683294337 at '
                                   'lam+lam_d=2.6058776203103662, the final bracket of its search'],
                         'replays': 1,
                         'residuals': {'budget': '0.0409899397735467',
                                       'delivery_d': '0.284468609633467'},
                         'window_lambda': {'d': '1.1259918851951625'},
                         'window_mu': {}},
 ('mixed', 'guarantee'): {'feasible': True,
                          'lam': '2.729872419093226',
                          'mu': '0.0',
                          'notes': ['guarantee_g residual 0.0383 exceeds rel_tol 0.0001: realized '
                                    "value in 'g' steps from 17.3072112751 at "
                                    'mu_g=1.3308851718902588 to 18.1593868207 at '
                                    'mu_g=1.330885261297226, the final bracket of its search'],
                          'replays': 1167,
                          'residuals': {'budget': '7.249756350802272e-14',
                                        'guarantee_g': '0.03829256974029449'},
                          'window_lambda': {},
                          'window_mu': {'g': '1.330885261297226'}},
 ('mixed', 'guarantee_infeasible'): {'feasible': False,
                                     'lam': '3.0856700847543834',
                                     'mu': '0.0',
                                     'notes': ["guarantee 'g' infeasible: max achievable value "
                                               '18.5368 < floor 37.0737',
                                               'budget residual 0.015 exceeds rel_tol 0.0001: '
                                               'realized spend steps from 6.49913740128 at '
                                               'lam=3.0856700847516549 to 6.18736629278 at '
                                               'lam=3.0856700847543834, the final bracket of its '
                                               'search'],
                                     'replays': 346,
                                     'residuals': {'budget': '0.01500309176929504'},
                                     'window_lambda': {},
                                     'window_mu': {'g': '10000.0'}},
 ('mixed', 'unconstrained'): {'feasible': True,
                              'lam': '1e-09',
                              'mu': '0.0',
                              'notes': ['budget unconstrained',
                                        'delivery_d residual 0.284 exceeds rel_tol 0.0001: '
                                        "realized spend in 'd' steps from 1.99926871693 at "
                                        'lam+lam_d=2.6058776203090019 to 1.36683294337 at '
                                        'lam+lam_d=2.6058776203103662, the final bracket of its '
                                        'search'],
                              'replays': 1,
                              'residuals': {'budget': '0.0', 'delivery_d': '0.284468609633467'},
                              'window_lambda': {'d': '2.605877619310366'},
                              'window_mu': {}},
 ('sp', 'all'): {'feasible': True,
                 'lam': '2.959771470229498',
                 'mu': '0.0',
                 'notes': ['budget residual 0.0165 exceeds rel_tol 0.0001: realized spend steps '
                           'from 7.614425997 at lam=2.9597714702267695 to 6.90839987545 at '
                           'lam=2.9597714702294979, the final bracket of its search',
                           'guarantee_g residual 0.0383 exceeds rel_tol 0.0001: realized value in '
                           "'g' steps from 17.3072112751 at mu_g=1.5271830856800079 to "
                           '18.1593868207 at mu_g=1.5271831750869751, the final bracket of its '
                           'search'],
                 'replays': 1208,
                 'residuals': {'budget': '0.01650330395372146',
                               'guarantee_g': '0.03829256974029449'},
                 'window_lambda': {'d': '0.0'},
                 'window_mu': {'g': '1.527183175086975'}},
 ('sp', 'budget'): {'feasible': True,
                    'lam': '1.8612852724681943',
                    'mu': '0.0',
                    'notes': [],
                    'replays': 1,
                    'residuals': {'budget': '0.0'},
                    'window_lambda': {},
                    'window_mu': {}},
 ('sp', 'cost_binding'): {'feasible': True,
                          'lam': '1e-09',
                          'mu': '5.764186859130859',
                          'notes': ['budget unconstrained',
                                    'cost_target residual 0.039 exceeds rel_tol 0.0001: realized '
                                    'spend / value steps from 0.170818240705 at '
                                    'mu=5.7641865015029907 to 0.157971945077 at '
                                    'mu=5.7641868591308594, the final bracket of its search'],
                          'replays': 73,
                          'residuals': {'budget': '0.0', 'cost_target': '0.03897682881628095'},
                          'window_lambda': {},
                          'window_mu': {}},
 ('sp', 'cost_delivery'): {'feasible': True,
                           'lam': '1e-09',
                           'mu': '5.764186859130859',
                           'notes': ['budget unconstrained',
                                     'cost_target residual 0.039 exceeds rel_tol 0.0001: realized '
                                     'spend / value steps from 0.170818240705 at '
                                     'mu=5.7641865015029907 to 0.157971945077 at '
                                     'mu=5.7641868591308594, the final bracket of its search'],
                           'replays': 141,
                           'residuals': {'budget': '0.0', 'cost_target': '0.03897682881628095'},
                           'window_lambda': {'d': '0.0'},
                           'window_mu': {}},
 ('sp', 'cost_slack'): {'feasible': True,
                        'lam': '1.8612852724681943',
                        'mu': '0.0',
                        'notes': [],
                        'replays': 1,
                        'residuals': {'budget': '0.0'},
                        'window_lambda': {},
                        'window_mu': {}},
 ('sp', 'delivery'): {'feasible': True,
                      'lam': '0.7379816460616824',
                      'mu': '0.0',
                      'notes': ['budget residual 0.115 exceeds rel_tol 0.0001: realized spend '
                                'steps from 7.1244517364 at lam=0.73798164606077288 to '
                                '6.21316376558 at lam=0.73798164606168237, the final bracket of '
                                'its search',
                                'delivery_d residual 0.199 exceeds rel_tol 0.0001: realized spend '
                                "in 'd' steps from 2.05477187693 at lam+lam_d=2.6058776203090019 "
                                'to 1.42233610338 at lam+lam_d=2.6058776203103662, the final '
                                'bracket of its search'],
                      'replays': 1,
                      'residuals': {'budget': '0.11547881628004564',
                                    'delivery_d': '0.19943846658551534'},
                      'window_lambda': {'d': '1.8678959742486838'},
                      'window_mu': {}},
 ('sp', 'guarantee'): {'feasible': True,
                       'lam': '2.959771470229498',
                       'mu': '0.0',
                       'notes': ['budget residual 0.0165 exceeds rel_tol 0.0001: realized spend '
                                 'steps from 7.614425997 at lam=2.9597714702267695 to '
                                 '6.90839987545 at lam=2.9597714702294979, the final bracket of '
                                 'its search',
                                 'guarantee_g residual 0.0383 exceeds rel_tol 0.0001: realized '
                                 "value in 'g' steps from 17.3072112751 at mu_g=1.5271830856800079 "
                                 'to 18.1593868207 at mu_g=1.5271831750869751, the final bracket '
                                 'of its search'],
                       'replays': 1163,
                       'residuals': {'budget': '0.01650330395372146',
                                     'guarantee_g': '0.03829256974029449'},
                       'window_lambda': {},
                       'window_mu': {'g': '1.527183175086975'}},
 ('sp', 'guarantee_infeasible'): {'feasible': False,
                                  'lam': '3.220534681384379',
                                  'mu': '0.0',
                                  'notes': ["guarantee 'g' infeasible: max achievable value "
                                            '18.5368 < floor 37.0737',
                                            'budget residual 0.0298 exceeds rel_tol 0.0001: '
                                            'realized spend steps from 7.73038229085 at '
                                            'lam=3.2205346813816504 to 6.81486138584 at '
                                            'lam=3.2205346813843789, the final bracket of its '
                                            'search'],
                                  'replays': 346,
                                  'residuals': {'budget': '0.029819672018484455'},
                                  'window_lambda': {},
                                  'window_mu': {'g': '10000.0'}},
 ('sp', 'unconstrained'): {'feasible': True,
                           'lam': '1e-09',
                           'mu': '0.0',
                           'notes': ['budget unconstrained',
                                     'delivery_d residual 0.199 exceeds rel_tol 0.0001: realized '
                                     "spend in 'd' steps from 2.05477187693 at "
                                     'lam+lam_d=2.6058776203090019 to 1.42233610338 at '
                                     'lam+lam_d=2.6058776203103662, the final bracket of its '
                                     'search'],
                           'replays': 1,
                           'residuals': {'budget': '0.0', 'delivery_d': '0.19943846658551534'},
                           'window_lambda': {'d': '2.605877619310366'},
                           'window_mu': {}}}


@pytest.mark.parametrize("log_kind, case", sorted(PINS))
def test_kkt_solution_pinned(monkeypatch, log_kind, case):
    log = _log(log_kind)
    kkt, replays = solve_counted(monkeypatch, log, _constraints(log, case))
    assert outcome(kkt, replays) == PINS[log_kind, case]


@pytest.mark.parametrize("case", sorted(c for k, c in PINS if k == "dist"))
def test_smooth_cost_target_meets_its_tolerance(case):
    # the mu search and the residual read one relative gap, so a binding
    # smooth cost target ends within KKT_REL_TOL, with no note about it
    log = _log("dist")
    kkt = solve_kkt_grid(log, _constraints(log, case))
    if kkt.profile.mu > 0:
        assert kkt.residuals["cost_target"] <= KKT_REL_TOL
        assert not [n for n in kkt.notes if "cost_target" in n]


@pytest.mark.parametrize("log_kind", ["sp", "mixed", "dist"])
def test_budget_alone_is_lambda_star(log_kind):
    # with no window and no outer constraint the solve is solve_lambda_star's
    log = _log(log_kind)
    budget = _constraints(log, "budget").budget
    kkt = solve_kkt_grid(log, ConstraintSet(budget=budget))
    sol = solve_lambda_star(log, budget)
    assert (kkt.profile.lam, kkt.replay.spend, kkt.replay.value) == (sol.lam, sol.spend, sol.value)
    assert kkt.unconstrained == sol.unconstrained
