"""Pinned KKT solutions: every constraint kind and combination on small
realized and distributional logs.

The expected multipliers and residuals are reprs, the notes exact, and the
replay count that of oracle.replay calls made by one solve.  The realized
("sp", "mixed") pins were computed before the KKT search was written as one
recursion over a list of constraints, and a realized search bisects, so it
must evaluate the same points in the same order.  The distributional
("dist") pins were computed when smooth searches moved from bisection to
Illinois regula falsi in log coordinates; every case kept its feasibility
and notes, and each residual is within KKT_REL_TOL.
"""

import numpy as np
import pytest

from dualbid import oracle
from dualbid.mechanisms import LognormalBids, MechanismSpec, UniformBids
from dualbid.oracle import LogRecord, MultiplierProfile, OpportunityLog, replay, solve_kkt_grid
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


PINS = {('sp', 'budget'): {'lam': '1.861285388469696',
                           'mu': '0.0',
                           'window_lambda': {},
                           'window_mu': {},
                           'residuals': {'budget': '0.0'},
                           'notes': [],
                           'feasible': True,
                           'replays': 1},
        ('sp', 'unconstrained'): {'lam': '1e-09',
                                  'mu': '0.0',
                                  'window_lambda': {'d': '2.605877697467804'},
                                  'window_mu': {},
                                  'residuals': {'budget': '0.0',
                                                'delivery': '0.19943846658551528'},
                                  'notes': ['budget unconstrained',
                                            'delivery residual 0.199 exceeds rel_tol 0.0001: '
                                            "realized spend in 'd' steps from 2.05477187693 at "
                                            'lam_d=2.6058775186538696 to 1.42233610338 at '
                                            'lam_d=2.605877697467804, the final bracket of its '
                                            'search'],
                                  'feasible': True,
                                  'replays': 28},
        ('sp', 'cost_binding'): {'lam': '1e-09',
                                 'mu': '5.764186859130859',
                                 'window_lambda': {},
                                 'window_mu': {},
                                 'residuals': {'budget': '0.0',
                                               'cost_target': '0.038976828816280826'},
                                 'notes': ['budget unconstrained',
                                           'cost_target residual 0.039 exceeds rel_tol 0.0001: '
                                           'realized spend - cost_target * value steps from '
                                           '0.188431412178 at mu=5.7641865015029907 to '
                                           '-0.1740960428 at mu=5.7641868591308594, the final '
                                           'bracket of its search'],
                                 'feasible': True,
                                 'replays': 83},
        ('sp', 'cost_slack'): {'lam': '1.861285388469696',
                               'mu': '0.0',
                               'window_lambda': {},
                               'window_mu': {},
                               'residuals': {'budget': '0.0'},
                               'notes': [],
                               'feasible': True,
                               'replays': 54},
        ('sp', 'delivery'): {'lam': '0.7379816773173773',
                             'mu': '0.0',
                             'window_lambda': {'d': '1.8678959608078003'},
                             'window_mu': {},
                             'residuals': {'budget': '0.11547881628004562',
                                           'delivery': '0.19943846658551528'},
                             'notes': ['budget residual 0.115 exceeds rel_tol 0.0001: realized '
                                       'spend steps from 7.75688750995 at lam=0.73798161771273263 '
                                       'to 6.21316376558 at lam=0.73798167731737729, the final '
                                       'bracket of its search',
                                       'delivery residual 0.199 exceeds rel_tol 0.0001: realized '
                                       "spend in 'd' steps from 2.05477187693 at "
                                       'lam_d=1.867895781993866 to 1.42233610338 at '
                                       'lam_d=1.8678959608078003, the final bracket of its '
                                       'search'],
                             'feasible': True,
                             'replays': 706},
        ('sp', 'guarantee'): {'lam': '2.9597715735435486',
                              'mu': '0.0',
                              'window_lambda': {},
                              'window_mu': {'g': '1.5271832644939423'},
                              'residuals': {'budget': '0.016503303953721418',
                                            'guarantee': '0.0382925697402945'},
                              'notes': ['budget residual 0.0165 exceeds rel_tol 0.0001: realized '
                                        'spend steps from 7.614425997 at lam=2.9597713947296143 '
                                        'to 6.90839987545 at lam=2.9597715735435486, the final '
                                        'bracket of its search',
                                        'guarantee residual 0.0383 exceeds rel_tol 0.0001: '
                                        "realized value in 'g' steps from 17.3072112751 at "
                                        'mu_g=1.5271831750869751 to 18.1593868207 at '
                                        'mu_g=1.5271832644939423, the final bracket of its '
                                        'search'],
                              'feasible': True,
                              'replays': 783},
        ('sp', 'guarantee_infeasible'): {'lam': '3.2205346822738647',
                                         'mu': '0.0',
                                         'window_lambda': {},
                                         'window_mu': {'g': '10000.0'},
                                         'residuals': {'budget': '0.02981967201848442'},
                                         'notes': ["guarantee 'g' infeasible: max achievable "
                                                   'value 18.5368 < floor 37.0737',
                                                   'budget residual 0.0298 exceeds rel_tol '
                                                   '0.0001: realized spend steps from '
                                                   '7.73038229085 at lam=3.2205345034599304 to '
                                                   '6.81486138584 at lam=3.2205346822738647, the '
                                                   'final bracket of its search'],
                                         'feasible': False,
                                         'replays': 270},
        ('sp', 'cost_delivery'): {'lam': '1e-09',
                                  'mu': '5.764186859130859',
                                  'window_lambda': {'d': '0.0'},
                                  'window_mu': {},
                                  'residuals': {'budget': '0.0',
                                                'cost_target': '0.038976828816280826'},
                                  'notes': ['budget unconstrained',
                                            'cost_target residual 0.039 exceeds rel_tol 0.0001: '
                                            'realized spend - cost_target * value steps from '
                                            '0.188431412178 at mu=5.7641865015029907 to '
                                            '-0.1740960428 at mu=5.7641868591308594, the final '
                                            'bracket of its search'],
                                  'feasible': True,
                                  'replays': 166},
        ('sp', 'all'): {'lam': '2.9597715735435486',
                        'mu': '0.0',
                        'window_lambda': {'d': '0.0'},
                        'window_mu': {'g': '1.5271832644939423'},
                        'residuals': {'budget': '0.016503303953721418',
                                      'guarantee': '0.0382925697402945'},
                        'notes': ['budget residual 0.0165 exceeds rel_tol 0.0001: realized spend '
                                  'steps from 7.614425997 at lam=2.9597713947296143 to '
                                  '6.90839987545 at lam=2.9597715735435486, the final bracket of '
                                  'its search',
                                  'guarantee residual 0.0383 exceeds rel_tol 0.0001: realized '
                                  "value in 'g' steps from 17.3072112751 at "
                                  'mu_g=1.5271831750869751 to 18.1593868207 at '
                                  'mu_g=1.5271832644939423, the final bracket of its search'],
                        'feasible': True,
                        'replays': 3132},
        ('mixed', 'budget'): {'lam': '2.0000001192092896',
                              'mu': '0.0',
                              'window_lambda': {},
                              'window_mu': {},
                              'residuals': {'budget': '2.655609178123441e-08'},
                              'notes': [],
                              'feasible': True,
                              'replays': 1},
        ('mixed', 'unconstrained'): {'lam': '1e-09',
                                     'mu': '0.0',
                                     'window_lambda': {'d': '2.605877697467804'},
                                     'window_mu': {},
                                     'residuals': {'budget': '0.0',
                                                   'delivery': '0.28446862404748385'},
                                     'notes': ['budget unconstrained',
                                               'delivery residual 0.284 exceeds rel_tol 0.0001: '
                                               "realized spend in 'd' steps from 1.99926875239 at "
                                               'lam_d=2.6058775186538696 to 1.36683291584 at '
                                               'lam_d=2.605877697467804, the final bracket of its '
                                               'search'],
                                     'feasible': True,
                                     'replays': 28},
        ('mixed', 'cost_binding'): {'lam': '1e-09',
                                    'mu': '4.918429493904114',
                                    'window_lambda': {},
                                    'window_mu': {},
                                    'residuals': {'budget': '0.0',
                                                  'cost_target': '0.07394819732085502'},
                                    'notes': ['budget unconstrained',
                                              'cost_target residual 0.0739 exceeds rel_tol '
                                              '0.0001: realized spend - cost_target * value steps '
                                              'from 0.0358116650376 at mu=4.9184291362762451 to '
                                              '-0.299264943958 at mu=4.9184294939041138, the '
                                              'final bracket of its search'],
                                    'feasible': True,
                                    'replays': 83},
        ('mixed', 'cost_slack'): {'lam': '2.0000001192092896',
                                  'mu': '0.0',
                                  'window_lambda': {},
                                  'window_mu': {},
                                  'residuals': {'budget': '2.655609178123441e-08'},
                                  'notes': [],
                                  'feasible': True,
                                  'replays': 54},
        ('mixed', 'delivery'): {'lam': '1.6102673709392548',
                                'mu': '0.0',
                                'window_lambda': {'d': '0.9956102967262268'},
                                'window_mu': {},
                                'residuals': {'budget': '0.2274934098518282',
                                              'delivery': '0.2844686183668321'},
                                'notes': ['budget residual 0.227 exceeds rel_tol 0.0001: realized '
                                          'spend steps from 6.40054186934 at '
                                          'lam=1.6102672815322876 to 4.85258501513 at '
                                          'lam=1.6102673709392548, the final bracket of its '
                                          'search',
                                          'delivery residual 0.284 exceeds rel_tol 0.0001: '
                                          "realized spend in 'd' steps from 1.99926872124 at "
                                          'lam_d=0.99561023712158203 to 1.36683292669 at '
                                          'lam_d=0.99561029672622681, the final bracket of its '
                                          'search'],
                                'feasible': True,
                                'replays': 755},
        ('mixed', 'guarantee'): {'lam': '2.729872465133667',
                                 'mu': '0.0',
                                 'window_lambda': {},
                                 'window_mu': {'g': '1.330885261297226'},
                                 'residuals': {'budget': '4.62247276084771e-09',
                                               'guarantee': '0.0382925697402945'},
                                 'notes': ['guarantee residual 0.0383 exceeds rel_tol 0.0001: '
                                           "realized value in 'g' steps from 17.3072112751 at "
                                           'mu_g=1.3308851718902588 to 18.1593868207 at '
                                           'mu_g=1.330885261297226, the final bracket of its '
                                           'search'],
                                 'feasible': True,
                                 'replays': 783},
        ('mixed', 'guarantee_infeasible'): {'lam': '3.0856701731681824',
                                            'mu': '0.0',
                                            'window_lambda': {},
                                            'window_mu': {'g': '10000.0'},
                                            'residuals': {'budget': '0.015003095443105335'},
                                            'notes': ["guarantee 'g' infeasible: max achievable "
                                                      'value 18.5368 < floor 37.0737',
                                                      'budget residual 0.015 exceeds rel_tol '
                                                      '0.0001: realized spend steps from '
                                                      '6.49913743401 at lam=3.085669994354248 to '
                                                      '6.1873662697 at lam=3.0856701731681824, '
                                                      'the final bracket of its search'],
                                            'feasible': False,
                                            'replays': 270},
        ('mixed', 'cost_delivery'): {'lam': '1e-09',
                                     'mu': '4.918429493904114',
                                     'window_lambda': {'d': '0.0'},
                                     'window_mu': {},
                                     'residuals': {'budget': '0.0',
                                                   'cost_target': '0.07394819732085502'},
                                     'notes': ['budget unconstrained',
                                               'cost_target residual 0.0739 exceeds rel_tol '
                                               '0.0001: realized spend - cost_target * value '
                                               'steps from 0.0358116650376 at '
                                               'mu=4.9184291362762451 to -0.299264943958 at '
                                               'mu=4.9184294939041138, the final bracket of its '
                                               'search'],
                                     'feasible': True,
                                     'replays': 166},
        ('mixed', 'all'): {'lam': '2.729872465133667',
                           'mu': '0.0',
                           'window_lambda': {'d': '0.0'},
                           'window_mu': {'g': '1.330885261297226'},
                           'residuals': {'budget': '4.62247276084771e-09',
                                         'guarantee': '0.0382925697402945'},
                           'notes': ['guarantee residual 0.0383 exceeds rel_tol 0.0001: realized '
                                     "value in 'g' steps from 17.3072112751 at "
                                     'mu_g=1.3308851718902588 to 18.1593868207 at '
                                     'mu_g=1.330885261297226, the final bracket of its search'],
                           'feasible': True,
                           'replays': 3132},
        ('dist', 'budget'): {'lam': '2.000000000131601',
                             'mu': '0.0',
                             'window_lambda': {},
                             'window_mu': {},
                             'residuals': {'budget': '8.39971500285437e-11'},
                             'notes': [],
                             'feasible': True,
                             'replays': 9},
        ('dist', 'unconstrained'): {'lam': '1e-09',
                                    'mu': '0.0',
                                    'window_lambda': {'d': '2.9103959583126517'},
                                    'window_mu': {},
                                    'residuals': {'budget': '0.0',
                                                  'delivery': '9.940820005734304e-05'},
                                    'notes': ['budget unconstrained'],
                                    'feasible': True,
                                    'replays': 7},
        ('dist', 'cost_binding'): {'lam': '1e-09',
                                   'mu': '5.6604922209177815',
                                   'window_lambda': {},
                                   'window_mu': {},
                                   'residuals': {'budget': '0.0',
                                                 'cost_target': '3.311949529166868e-05'},
                                   'notes': ['budget unconstrained'],
                                   'feasible': True,
                                   'replays': 26},
        ('dist', 'cost_slack'): {'lam': '2.000000000131601',
                                 'mu': '0.0',
                                 'window_lambda': {},
                                 'window_mu': {},
                                 'residuals': {'budget': '8.39971500285437e-11'},
                                 'notes': [],
                                 'feasible': True,
                                 'replays': 18},
        ('dist', 'delivery'): {'lam': '1.5284141749835785',
                               'mu': '0.0',
                               'window_lambda': {'d': '1.3818060026210646'},
                               'window_mu': {},
                               'residuals': {'budget': '1.6220831654622126e-09',
                                             'delivery': '1.0227169809883245e-05'},
                               'notes': [],
                               'feasible': True,
                               'replays': 71},
        ('dist', 'guarantee'): {'lam': '2.241551718783203',
                                'mu': '0.0',
                                'window_lambda': {},
                                'window_mu': {'g': '0.22280907068782052'},
                                'residuals': {'budget': '3.957739587590904e-09',
                                              'guarantee': '7.859286303171182e-06'},
                                'notes': [],
                                'feasible': True,
                                'replays': 83},
        ('dist', 'guarantee_infeasible'): {'lam': '4.900325367894165',
                                           'mu': '0.0',
                                           'window_lambda': {},
                                           'window_mu': {'g': '10000.0'},
                                           'residuals': {'budget': '4.649820627509425e-08'},
                                           'notes': ["guarantee 'g' infeasible: max achievable "
                                                     'value 18.5368 < floor 37.0737'],
                                           'feasible': False,
                                           'replays': 90},
        ('dist', 'cost_delivery'): {'lam': '1e-09',
                                    'mu': '5.265214067160799',
                                    'window_lambda': {'d': '0.4830213123167126'},
                                    'window_mu': {},
                                    'residuals': {'budget': '0.0',
                                                  'cost_target': '4.862109679051619e-06',
                                                  'delivery': '4.798960806216722e-06'},
                                    'notes': ['budget unconstrained'],
                                    'feasible': True,
                                    'replays': 206},
        ('dist', 'all'): {'lam': '2.241551718783203',
                          'mu': '0.0',
                          'window_lambda': {'d': '0.0'},
                          'window_mu': {'g': '0.22280907068782052'},
                          'residuals': {'budget': '3.957739587590904e-09',
                                        'guarantee': '7.859286303171182e-06'},
                          'notes': [],
                          'feasible': True,
                          'replays': 332},
        ('dist', 'guarantee_delivery'): {'lam': '1.855496906560823',
                                         'mu': '0.0',
                                         'window_lambda': {'d': '2.3272380147489424'},
                                         'window_mu': {'g': '0.7525980570174541'},
                                         'residuals': {'budget': '8.913524244752005e-12',
                                                       'delivery': '4.2627075054902604e-06',
                                                       'guarantee': '3.981807274688851e-05'},
                                         'notes': [],
                                         'feasible': True,
                                         'replays': 428}}


@pytest.mark.parametrize("log_kind, case", sorted(PINS))
def test_kkt_solution_pinned(monkeypatch, log_kind, case):
    log = _log(log_kind)
    kkt, replays = solve_counted(monkeypatch, log, _constraints(log, case))
    assert outcome(kkt, replays) == PINS[log_kind, case]
