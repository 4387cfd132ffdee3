"""Pinned KKT solutions: every constraint kind and combination on small
realized and distributional logs.

The expected multipliers and residuals are reprs, the notes exact, and the
replay count that of the reads of the whole log one solve makes, replays
and reads of spend alone (each calls oracle._row_bids once).  Every pin was
computed when each constraint became a threshold on a factor, read from one
scan of sorted win limits on realized second-price rows (see
solve_kkt_grid); the values the realized solutions reach, the windows'
effective factors and their feasibility are checked against an independent
LP, extended to guarantee floors and the cost target, in test_kkt_lp.py.
"""

import numpy as np
import pytest

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
from helpers import count_reads

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
    """solve_kkt_grid, and the number of reads of the whole log it made."""
    reads, _ = count_reads(monkeypatch)
    kkt = solve_kkt_grid(log, constraints)
    monkeypatch.undo()
    return kkt, len(reads)


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
                   'replays': 119,
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
                            'mu': '5.659999590867991',
                            'notes': ['budget unconstrained'],
                            'replays': 8,
                            'residuals': {'budget': '0.0', 'cost_target': '2.550517717136991e-06'},
                            'window_lambda': {},
                            'window_mu': {}},
 ('dist', 'cost_delivery'): {'feasible': True,
                             'lam': '1e-09',
                             'mu': '5.266127288876495',
                             'notes': ['budget unconstrained'],
                             'replays': 14,
                             'residuals': {'budget': '0.0',
                                           'cost_target': '6.698170657493119e-05',
                                           'delivery_d': '9.940819994891381e-05'},
                             'window_lambda': {'d': '0.4829303670557894'},
                             'window_mu': {}},
 ('dist', 'cost_slack'): {'feasible': True,
                          'lam': '2.000000000131601',
                          'mu': '0.0',
                          'notes': [],
                          'replays': 11,
                          'residuals': {'budget': '8.399714257478763e-11'},
                          'window_lambda': {},
                          'window_mu': {}},
 ('dist', 'delivery'): {'feasible': True,
                        'lam': '1.5283134485386072',
                        'mu': '0.0',
                        'notes': [],
                        'replays': 14,
                        'residuals': {'budget': '1.019569095817019e-09',
                                      'delivery_d': '9.940819994891381e-05'},
                        'window_lambda': {'d': '1.3820825107738703'},
                        'window_mu': {}},
 ('dist', 'guarantee'): {'feasible': True,
                         'lam': '2.241340381781736',
                         'mu': '0.0',
                         'notes': [],
                         'replays': 14,
                         'residuals': {'budget': '7.345294836813565e-07',
                                       'guarantee_g': '4.408732451222086e-05'},
                         'window_lambda': {},
                         'window_mu': {'g': '0.22261401341664688'}},
 ('dist', 'guarantee_delivery'): {'feasible': True,
                                  'lam': '1.8554954157043908',
                                  'mu': '0.0',
                                  'notes': [],
                                  'replays': 92,
                                  'residuals': {'budget': '5.2142624662465664e-09',
                                                'delivery_d': '3.768876490228834e-06',
                                                'guarantee_g': '3.998638077817862e-05'},
                                  'window_lambda': {'d': '2.327283725504754'},
                                  'window_mu': {'g': '0.7526099979184778'}},
 ('dist', 'guarantee_infeasible'): {'feasible': False,
                                    'lam': '4.900325367894165',
                                    'mu': '0.0',
                                    'notes': ["guarantee 'g' infeasible: max achievable value "
                                              '18.5368 < floor 37.0737'],
                                    'replays': 25,
                                    'residuals': {'budget': '4.649820628532808e-08'},
                                    'window_lambda': {},
                                    'window_mu': {'g': '10000.0'}},
 ('dist', 'unconstrained'): {'feasible': True,
                             'lam': '1e-09',
                             'mu': '0.0',
                             'notes': ['budget unconstrained'],
                             'replays': 8,
                             'residuals': {'budget': '0.0', 'delivery_d': '9.940819994891381e-05'},
                             'window_lambda': {'d': '2.9103959583124777'},
                             'window_mu': {}},
 ('mixed', 'all'): {'feasible': True,
                    'lam': '2.729872419093226',
                    'mu': '0.0',
                    'notes': ['guarantee_g residual 0.0383 exceeds rel_tol 0.0001: realized value '
                              "in 'g' steps from 17.3072112751 at mu_g=1.3308851718902588 to "
                              '18.1593868207 at mu_g=1.330885261297226, either side of its step'],
                    'replays': 18,
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
                             'mu': '4.918429175441515',
                             'notes': ['budget unconstrained',
                                       'cost_target residual 0.0739 exceeds rel_tol 0.0001: '
                                       'realized spend / value steps from 0.181918282957 at '
                                       'f=0.38374787526722809 to 0.167088389962 at '
                                       'f=0.38374787526702719, either side of its step'],
                             'replays': 1,
                             'residuals': {'budget': '0.0', 'cost_target': '0.0739481820324901'},
                             'window_lambda': {},
                             'window_mu': {}},
 ('mixed', 'cost_delivery'): {'feasible': True,
                              'lam': '1e-09',
                              'mu': '3.4449604449235465',
                              'notes': ['budget unconstrained',
                                        'delivery_d residual 0.284 exceeds rel_tol 0.0001: '
                                        "realized spend in 'd' steps from 1.99926871693 at "
                                        'f_d=0.38374787526722809 to 1.36683294337 at '
                                        'f_d=0.38374787526702714, either side of its step'],
                              'replays': 15,
                              'residuals': {'budget': '0.0',
                                            'cost_target': '3.042011087472929e-14',
                                            'delivery_d': '0.2844686096334672'},
                              'window_lambda': {'d': '0.7806718467722479'},
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
                                   '6.02412705208 at lam=1.4798857351152037, either side of its '
                                   'step',
                                   'delivery_d residual 0.284 exceeds rel_tol 0.0001: realized '
                                   "spend in 'd' steps from 1.99926871693 at "
                                   'f_d=0.38374787526722809 to 1.36683294337 at '
                                   'f_d=0.38374787526702719, either side of its step'],
                         'replays': 1,
                         'residuals': {'budget': '0.0409899397735467',
                                       'delivery_d': '0.284468609633467'},
                         'window_lambda': {'d': '1.1259918851951622'},
                         'window_mu': {}},
 ('mixed', 'guarantee'): {'feasible': True,
                          'lam': '2.729872419093226',
                          'mu': '0.0',
                          'notes': ['guarantee_g residual 0.0383 exceeds rel_tol 0.0001: realized '
                                    "value in 'g' steps from 17.3072112751 at "
                                    'f_g=0.85384400388765258 to 18.1593868207 at '
                                    'f_g=0.8538440038876528, either side of its step'],
                          'replays': 2,
                          'residuals': {'budget': '7.249756350802272e-14',
                                        'guarantee_g': '0.03829256974029449'},
                          'window_lambda': {},
                          'window_mu': {'g': '1.3308851964210324'}},
 ('mixed', 'guarantee_infeasible'): {'feasible': False,
                                     'lam': '3.0856700847543834',
                                     'mu': '0.0',
                                     'notes': ["guarantee 'g' infeasible: max achievable value "
                                               '18.5368 < floor 37.0737',
                                               'budget residual 0.015 exceeds rel_tol 0.0001: '
                                               'realized spend steps from 6.49913740128 at '
                                               'lam=3.0856700847516549 to 6.18736629278 at '
                                               'lam=3.0856700847543834, either side of its step'],
                                     'replays': 42,
                                     'residuals': {'budget': '0.01500309176929504'},
                                     'window_lambda': {},
                                     'window_mu': {'g': '10000.0'}},
 ('mixed', 'unconstrained'): {'feasible': True,
                              'lam': '1e-09',
                              'mu': '0.0',
                              'notes': ['budget unconstrained',
                                        'delivery_d residual 0.284 exceeds rel_tol 0.0001: '
                                        "realized spend in 'd' steps from 1.99926871693 at "
                                        'f_d=0.38374787526722809 to 1.36683294337 at '
                                        'f_d=0.38374787526702719, either side of its step'],
                              'replays': 1,
                              'residuals': {'budget': '0.0', 'delivery_d': '0.284468609633467'},
                              'window_lambda': {'d': '2.605877619310366'},
                              'window_mu': {}},
 ('sp', 'all'): {'feasible': True,
                 'lam': '2.959771470229498',
                 'mu': '0.0',
                 'notes': ['budget residual 0.0165 exceeds rel_tol 0.0001: realized spend steps '
                           'from 7.614425997 at lam=2.9597714702267695 to 6.90839987545 at '
                           'lam=2.9597714702294979, either side of its step',
                           'guarantee_g residual 0.0383 exceeds rel_tol 0.0001: realized value in '
                           "'g' steps from 17.3072112751 at mu_g=1.5271830856800079 to "
                           '18.1593868207 at mu_g=1.5271831750869751, either side of its step'],
                 'replays': 1,
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
                          'mu': '5.764186801290653',
                          'notes': ['budget unconstrained',
                                    'cost_target residual 0.039 exceeds rel_tol 0.0001: realized '
                                    'spend / value steps from 0.170818240705 at '
                                    'f=0.33786392296109569 to 0.157971945077 at '
                                    'f=0.33786392296109563, either side of its step'],
                          'replays': 1,
                          'residuals': {'budget': '0.0', 'cost_target': '0.03897682881628095'},
                          'window_lambda': {},
                          'window_mu': {}},
 ('sp', 'cost_delivery'): {'feasible': True,
                           'lam': '1e-09',
                           'mu': '5.764186801290653',
                           'notes': ['budget unconstrained',
                                     'cost_target residual 0.039 exceeds rel_tol 0.0001: realized '
                                     'spend / value steps from 0.170818240705 at '
                                     'f=0.33786392296109569 to 0.157971945077 at '
                                     'f=0.33786392296109563, either side of its step'],
                           'replays': 1,
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
                                '6.21316376558 at lam=0.73798164606168237, either side of its step',
                                'delivery_d residual 0.199 exceeds rel_tol 0.0001: realized spend '
                                "in 'd' steps from 2.05477187693 at f_d=0.38374787526704934 to "
                                '1.42233610338 at f_d=0.38374787526704929, either side of its '
                                'step'],
                      'replays': 1,
                      'residuals': {'budget': '0.11547881628004564',
                                    'delivery_d': '0.19943846658551534'},
                      'window_lambda': {'d': '1.8678959742485335'},
                      'window_mu': {}},
 ('sp', 'guarantee'): {'feasible': True,
                       'lam': '2.959771470229498',
                       'mu': '0.0',
                       'notes': ['budget residual 0.0165 exceeds rel_tol 0.0001: realized spend '
                                 'steps from 7.614425997 at lam=2.9597714702267695 to '
                                 '6.90839987545 at lam=2.9597714702294979, either side of its step',
                                 'guarantee_g residual 0.0383 exceeds rel_tol 0.0001: realized '
                                 "value in 'g' steps from 17.3072112751 at f_g=0.85384400388765258 "
                                 'to 18.1593868207 at f_g=0.85384400388765269, either side of its '
                                 'step'],
                       'replays': 1,
                       'residuals': {'budget': '0.01650330395372146',
                                     'guarantee_g': '0.03829256974029449'},
                       'window_lambda': {},
                       'window_mu': {'g': '1.5271831227331991'}},
 ('sp', 'guarantee_infeasible'): {'feasible': False,
                                  'lam': '3.220534681384379',
                                  'mu': '0.0',
                                  'notes': ["guarantee 'g' infeasible: max achievable value "
                                            '18.5368 < floor 37.0737',
                                            'budget residual 0.0298 exceeds rel_tol 0.0001: '
                                            'realized spend steps from 7.73038229085 at '
                                            'lam=3.2205346813816504 to 6.81486138584 at '
                                            'lam=3.2205346813843789, either side of its step'],
                                  'replays': 42,
                                  'residuals': {'budget': '0.029819672018484455'},
                                  'window_lambda': {},
                                  'window_mu': {'g': '10000.0'}},
 ('sp', 'unconstrained'): {'feasible': True,
                           'lam': '1e-09',
                           'mu': '0.0',
                           'notes': ['budget unconstrained',
                                     'delivery_d residual 0.199 exceeds rel_tol 0.0001: realized '
                                     "spend in 'd' steps from 2.05477187693 at "
                                     'f_d=0.38374787526704934 to 1.42233610338 at '
                                     'f_d=0.38374787526704929, either side of its step'],
                           'replays': 1,
                           'residuals': {'budget': '0.0', 'delivery_d': '0.19943846658551534'},
                           'window_lambda': {'d': '2.605877619310216'},
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
