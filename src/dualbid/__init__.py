"""Budget pacing and auto-bidding: mechanism models, optimal bids under
constraint multipliers, online dual pacing, cold-start initialization, a
hindsight oracle, and a deterministic marketplace simulator."""

from .bidding import (
    DEFAULT_BID_CAP,
    LAMBDA_FLOOR,
    BidDecision,
    MultiplierVector,
    adjusted_value,
    make_bid,
    optimal_bid,
    shade_bids,
    surplus,
)
from .coldstart import (
    ColdStartResult,
    PlacementPriors,
    expected_phi_affine,
    expected_spend_per_opportunity,
    fit_lognormal,
    solve_lambda0,
    solve_lambda0_multi,
)
from .mechanisms import (
    EmpiricalBids,
    LognormalBids,
    MechanismError,
    MechanismSpec,
    MechanismTable,
    RealizedLandscape,
    UniformBids,
    cost_derivative,
    expected_cost,
    resolve,
    simulate_outcome,
    win_density,
    win_prob,
)
from .oracle import (
    LogRecord,
    MultiplierProfile,
    OpportunityLog,
    OracleError,
    dual_value,
    fixed_bid_baseline,
    marginal_roi,
    prop1_residual,
    replay,
    solve_kkt_grid,
    solve_lambda_star,
)
from .pacing import (
    ConstraintSet,
    DeliveryWindow,
    ForecastModel,
    GuaranteeWindow,
    PacingConfig,
    PacingState,
    dual_gradient,
    ftl_update,
    normalize,
    pace_ratio,
    update_additive,
    update_constraint_multipliers,
    update_multiplicative,
)
from .scenario import ScenarioConfig, ScenarioError, load_scenario, parse_scenario
from .simulate import EpisodeMetrics, EpisodeResult, generate_stream, run_episode

__version__ = "0.1.0"
