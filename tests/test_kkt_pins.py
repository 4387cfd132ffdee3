"""Pinned KKT solutions: every constraint kind and combination on small
realized and distributional logs.

The expected multipliers and residuals are reprs, the notes exact, and the
replay count that of oracle.replay calls made by one solve; they were
computed before the KKT search was written as one recursion over a list of
constraints, so the search must evaluate the same points in the same order.
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
        ('dist', 'budget'): {'lam': '2.0000001192092896',
                             'mu': '0.0',
                             'window_lambda': {},
                             'window_mu': {},
                             'residuals': {'budget': '7.608794460461892e-08'},
                             'notes': [],
                             'feasible': True,
                             'replays': 26},
        ('dist', 'unconstrained'): {'lam': '1e-09',
                                    'mu': '0.0',
                                    'window_lambda': {'d': '2.91015625'},
                                    'window_mu': {},
                                    'residuals': {'budget': '0.0',
                                                  'delivery': '5.010266098236451e-05'},
                                    'notes': ['budget unconstrained'],
                                    'feasible': True,
                                    'replays': 12},
        ('dist', 'cost_binding'): {'lam': '1e-09',
                                   'mu': '5.658203125',
                                   'window_lambda': {},
                                   'window_mu': {},
                                   'residuals': {'budget': '0.0',
                                                 'cost_target': '0.00010896918724880597'},
                                   'notes': ['budget unconstrained'],
                                   'feasible': True,
                                   'replays': 66},
        ('dist', 'cost_slack'): {'lam': '2.0000001192092896',
                                 'mu': '0.0',
                                 'window_lambda': {},
                                 'window_mu': {},
                                 'residuals': {'budget': '7.608794460461892e-08'},
                                 'notes': [],
                                 'feasible': True,
                                 'replays': 52},
        ('dist', 'delivery'): {'lam': '1.5284920930862427',
                               'mu': '0.0',
                               'window_lambda': {'d': '1.381591796875'},
                               'window_mu': {},
                               'residuals': {'budget': '5.666634022778238e-08',
                                             'delivery': '9.524209937989196e-05'},
                               'notes': [],
                               'feasible': True,
                               'replays': 403},
        ('dist', 'guarantee'): {'lam': '2.241387128829956',
                                'mu': '0.0',
                                'window_lambda': {},
                                'window_mu': {'g': '0.22265625'},
                                'residuals': {'budget': '3.6171576602663755e-08',
                                              'guarantee': '3.648623916892009e-05'},
                                'notes': [],
                                'feasible': True,
                                'replays': 272},
        ('dist', 'guarantee_infeasible'): {'lam': '4.900323867797852',
                                           'mu': '0.0',
                                           'window_lambda': {},
                                           'window_mu': {'g': '10000.0'},
                                           'residuals': {'budget': '2.8124859990089536e-08'},
                                           'notes': ["guarantee 'g' infeasible: max achievable "
                                                     'value 18.5368 < floor 37.0737'],
                                           'feasible': False,
                                           'replays': 242},
        ('dist', 'cost_delivery'): {'lam': '1e-09',
                                    'mu': '5.265625',
                                    'window_lambda': {'d': '0.48291015625'},
                                    'window_mu': {},
                                    'residuals': {'budget': '0.0',
                                                  'cost_target': '2.8739760382070687e-05',
                                                  'delivery': '1.9919698440817768e-05'},
                                    'notes': ['budget unconstrained'],
                                    'feasible': True,
                                    'replays': 870},
        ('dist', 'all'): {'lam': '2.241387128829956',
                          'mu': '0.0',
                          'window_lambda': {'d': '0.0'},
                          'window_mu': {'g': '0.22265625'},
                          'residuals': {'budget': '3.6171576602663755e-08',
                                        'guarantee': '3.648623916892009e-05'},
                          'notes': [],
                          'feasible': True,
                          'replays': 1088},
        ('dist', 'guarantee_delivery'): {'lam': '1.8561453819274902',
                                         'mu': '0.0',
                                         'window_lambda': {'d': '2.32861328125'},
                                         'window_mu': {'g': '0.75390625'},
                                         'residuals': {'budget': '7.447769361311587e-09',
                                                       'delivery': '7.18030338423909e-05',
                                                       'guarantee': '7.007580771720423e-05'},
                                         'notes': [],
                                         'feasible': True,
                                         'replays': 3984}}


@pytest.mark.parametrize("log_kind, case", sorted(PINS))
def test_kkt_solution_pinned(monkeypatch, log_kind, case):
    log = _log(log_kind)
    kkt, replays = solve_counted(monkeypatch, log, _constraints(log, case))
    assert outcome(kkt, replays) == PINS[log_kind, case]
