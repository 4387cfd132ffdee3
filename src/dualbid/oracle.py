"""Hindsight-optimal multipliers from a complete opportunity log.

Given every opportunity's value and auction model (distributional mode) or
resolved competing bid (realized mode), replay answers "what would we have
spent and won at multipliers m".  Each constraint's excess (spend - budget,
window spend - cap, cost-target gap, result shortfall) does not increase in
its own multiplier, so every multiplier, the budget one, each KKT one and
follow-the-leader's, is the smallest value at which that excess is <= 0,
found by the one search_multiplier (complementary slackness: a constraint
that already fits at 0 keeps a zero multiplier).  Everything here is the
ground truth the online controllers are judged against.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .bidding import DEFAULT_BID_CAP, LAMBDA_FLOOR, MultiplierVector, shade_bids
from .mechanisms import MechanismSpec, MechanismTable, resolve


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class LogRecord:
    """One logged opportunity.  clearing_bid set means realized mode: the
    auction resolves by indicator instead of the smooth G/H model."""

    time: float
    placement: str
    value: float
    mechanism: MechanismSpec
    clearing_bid: float | None = None
    windows: tuple[str, ...] = ()

    def __post_init__(self):
        if self.value < 0:
            raise OracleError(f"value must be >= 0, got {self.value}")
        if self.clearing_bid is not None and not self.clearing_bid >= 0:
            raise OracleError(f"clearing bid must be >= 0, got {self.clearing_bid}")


class OpportunityLog:
    """Ordered opportunity records, held as columns for replay."""

    def __init__(self, records: list[LogRecord]):
        if not records:
            raise OracleError("opportunity log must not be empty")
        times = [r.time for r in records]
        if any(b < a for a, b in zip(times, times[1:])):
            raise OracleError("record times must be nondecreasing")
        self.records = list(records)
        self.arrays = LogColumns.from_records(self.records)

    @classmethod
    def from_columns(cls, columns: LogColumns) -> OpportunityLog:
        """A log over columns built in time order, such as a simulated
        stream's; its records are built when first read."""
        if len(columns) == 0:
            raise OracleError("opportunity log must not be empty")
        log = object.__new__(cls)
        log.arrays = columns
        return log

    @cached_property
    def records(self) -> list[LogRecord]:
        return self.arrays.records()

    def __len__(self) -> int:
        return len(self.arrays)

    @property
    def mode(self) -> str:
        realized = int(np.count_nonzero(self.arrays.realized))
        if realized == 0:
            return "distributional"
        if realized == len(self):
            return "realized"
        return "mixed"

    def restrict_to_placement(self, placement: str) -> OpportunityLog:
        cols = self.arrays
        if placement not in cols.placement_names:
            raise OracleError(f"no records for placement {placement!r}")
        return OpportunityLog.from_columns(
            cols.take(cols.placement_codes == cols.placement_names.index(placement))
        )


def _by_first_appearance(codes: np.ndarray, names) -> tuple[np.ndarray, list]:
    """codes renumbered, and names kept, in order of first appearance."""
    used, first = np.unique(codes, return_index=True)
    order = used[np.argsort(first)]
    renumber = np.zeros(len(names), dtype=np.intp)
    renumber[order] = np.arange(len(order))
    return renumber[codes], [names[c] for c in order]


class LogColumns:
    """Per-record columns of a log: times, values, clearing bids (NaN in
    distributional records), the mechanism of each record (a code into
    mechanisms) and their table, and codes for the placement and the window
    combination of each record.  Placements and window combinations are
    numbered in order of first appearance, and only those that appear are
    kept."""

    def __init__(
        self, time, values, clearing, mechanisms, mechanism_codes, placement_names,
        placement_codes, window_combos, combo_codes,
    ):  # fmt: skip
        self.time = np.asarray(time, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.clearing = np.asarray(clearing, dtype=float)
        self.realized = ~np.isnan(self.clearing)
        self.mechanisms = tuple(mechanisms)
        self.mechanism_codes = np.asarray(mechanism_codes, dtype=np.intp)
        self.table = MechanismTable.from_specs(self.mechanisms).take(self.mechanism_codes)
        self.placement_codes, self.placement_names = _by_first_appearance(
            np.asarray(placement_codes, dtype=np.intp), placement_names
        )
        self.combo_codes, self.window_combos = _by_first_appearance(
            np.asarray(combo_codes, dtype=np.intp), window_combos
        )
        windows = dict.fromkeys(w for ws in self.window_combos for w in ws)
        self.window_masks = {
            w: np.isin(self.combo_codes, [c for c, ws in enumerate(self.window_combos) if w in ws])
            for w in windows
        }

    @classmethod
    def from_records(cls, records: list[LogRecord]) -> LogColumns:
        mechanisms: dict[MechanismSpec, int] = {}
        placements: dict[str, int] = {}
        combos: dict[tuple[str, ...], int] = {}
        return cls(
            time=[r.time for r in records],
            values=[r.value for r in records],
            clearing=[np.nan if r.clearing_bid is None else r.clearing_bid for r in records],
            mechanism_codes=[mechanisms.setdefault(r.mechanism, len(mechanisms)) for r in records],
            mechanisms=mechanisms,
            placement_codes=[placements.setdefault(r.placement, len(placements)) for r in records],
            placement_names=list(placements),
            combo_codes=[combos.setdefault(r.windows, len(combos)) for r in records],
            window_combos=list(combos),
        )

    def __len__(self) -> int:
        return len(self.values)

    def take(self, rows) -> LogColumns:
        """The columns restricted to rows (an index array, mask or slice)."""
        return LogColumns(
            self.time[rows], self.values[rows], self.clearing[rows], self.mechanisms,
            self.mechanism_codes[rows], self.placement_names, self.placement_codes[rows],
            self.window_combos, self.combo_codes[rows],
        )  # fmt: skip

    def records(self) -> list[LogRecord]:
        clearing = [None if np.isnan(c) else c for c in self.clearing.tolist()]
        return [
            LogRecord(
                time=t,
                placement=self.placement_names[p],
                value=v,
                mechanism=self.mechanisms[m],
                clearing_bid=c,
                windows=self.window_combos[k],
            )
            for t, p, v, m, c, k in zip(
                self.time.tolist(),
                self.placement_codes.tolist(),
                self.values.tolist(),
                self.mechanism_codes.tolist(),
                clearing,
                self.combo_codes.tolist(),
            )
        ]


@dataclass(frozen=True)
class MultiplierProfile:
    """Global multipliers plus per-window ones, applied to the windows each
    record belongs to."""

    lam: float
    mu: float = 0.0
    cost_target: float | None = None
    window_lambda: Mapping[str, float] = field(default_factory=dict)
    window_mu: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "window_lambda", MappingProxyType(dict(self.window_lambda)))
        object.__setattr__(self, "window_mu", MappingProxyType(dict(self.window_mu)))

    def vector_for(self, windows: tuple[str, ...]) -> MultiplierVector:
        lam_k = sum(self.window_lambda.get(w, 0.0) for w in windows)
        mu_k = sum(self.window_mu.get(w, 0.0) for w in windows)
        return MultiplierVector(
            lam=self.lam,
            mu=self.mu,
            cost_target=self.cost_target,
            lam_k=lam_k,
            mu_k=mu_k,
        )

    def with_lam(self, lam: float) -> MultiplierProfile:
        return MultiplierProfile(
            lam=lam,
            mu=self.mu,
            cost_target=self.cost_target,
            window_lambda=dict(self.window_lambda),
            window_mu=dict(self.window_mu),
        )


@dataclass(frozen=True)
class ReplayResult:
    spend: float
    value: float
    per_placement: dict[str, tuple[float, float]]
    per_window: dict[str, tuple[float, float]]


def _spend_value(
    log: OpportunityLog, profile: MultiplierProfile, bid_cap: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-record spend and value at the given multipliers."""
    cols = log.arrays
    vectors = [profile.vector_for(c) for c in cols.window_combos]
    factors = np.array([v.numerator / max(v.denominator, LAMBDA_FLOOR) for v in vectors])
    adjusted = factors[cols.combo_codes] * cols.values
    bids = np.minimum(adjusted, bid_cap)
    rows, first_price = cols.table.first_price_rows
    if rows.size:
        bids[rows], _ = shade_bids(first_price, adjusted[rows], bid_cap)
    won, spend = resolve(cols.table, bids, cols.clearing)
    value = np.where(won, cols.values, 0.0)
    model = ~cols.realized
    if model.any():
        spend[model] = cols.table.expected_cost(bids)[model]
        value[model] = (cols.values * cols.table.win_prob(bids))[model]
    return spend, value


def replay(
    log: OpportunityLog, profile: MultiplierProfile, bid_cap: float = DEFAULT_BID_CAP
) -> ReplayResult:
    """Total and per-placement/per-window spend and value at the given
    multipliers; exact in distributional mode, deterministic in realized."""
    cols = log.arrays
    spend, value = _spend_value(log, profile, bid_cap)
    n = len(cols.placement_names)
    p_spend = np.bincount(cols.placement_codes, weights=spend, minlength=n)
    p_value = np.bincount(cols.placement_codes, weights=value, minlength=n)
    return ReplayResult(
        spend=float(spend.sum()),
        value=float(value.sum()),
        per_placement={
            name: (float(s), float(v)) for name, s, v in zip(cols.placement_names, p_spend, p_value)
        },
        per_window={
            w: (float(spend[mask].sum()), float(value[mask].sum()))
            for w, mask in cols.window_masks.items()
        },
    )


class _SpendCurve:
    """Memoized spend as a function of the budget multiplier, with a
    monotonicity guard that names the offending record on violation."""

    def __init__(self, log: OpportunityLog, profile: MultiplierProfile, bid_cap: float):
        self.log = log
        self.profile = profile
        self.bid_cap = bid_cap
        self._lams: list[float] = []
        self._replays: dict[float, ReplayResult] = {}

    def at(self, lam: float) -> ReplayResult:
        if lam in self._replays:
            return self._replays[lam]
        result = replay(self.log, self.profile.with_lam(lam), self.bid_cap)
        pos = bisect.bisect_left(self._lams, lam)
        slack = 1e-9 * (1.0 + abs(result.spend))
        if pos > 0:
            left = self._lams[pos - 1]
            if result.spend > self._replays[left].spend + slack:
                self._raise_non_monotone(left, lam)
        if pos < len(self._lams):
            right = self._lams[pos]
            if result.spend + slack < self._replays[right].spend:
                self._raise_non_monotone(lam, right)
        self._lams.insert(pos, lam)
        self._replays[lam] = result
        return result

    def _raise_non_monotone(self, lo: float, hi: float) -> None:
        s_lo, _ = _spend_value(self.log, self.profile.with_lam(lo), self.bid_cap)
        s_hi, _ = _spend_value(self.log, self.profile.with_lam(hi), self.bid_cap)
        worst = int(np.argmax(s_hi - s_lo))
        raise OracleError(
            f"replayed spend increases with the multiplier between {lo:g} and {hi:g}; "
            f"record {worst} spends {s_lo[worst]:g} -> {s_hi[worst]:g}"
        )


@dataclass(frozen=True)
class LambdaSolution:
    lam: float
    unconstrained: bool
    bracket: tuple[float, float] | None
    spend: float
    value: float


LAMBDA_LIMIT = 1e120  # the budget and FTL searches give up above this multiplier


def search_multiplier(
    excess: Callable[[float], float],
    floor: float,
    limit: float,
    tol: float | None = None,
    width_rel: float = 1e-12,
) -> tuple[float, tuple[float, float, float, float] | None] | None:
    """Smallest multiplier x >= floor at which the non-increasing excess(x)
    (spend - budget, window spend - cap, shortfall, ...) is <= 0.

    Returns (floor, None) when the floor fits.  Otherwise steps up from 1 by
    factors of 4 to a bracket and bisects it until |excess| <= tol (pass tol
    only for smooth curves; the bisection point is returned) or until its
    width is <= width_rel * max(1, hi), returning hi, the side that fits.
    The second value is the final bracket (lo, hi, excess(lo), excess(hi)).
    Returns None when the excess is still positive at limit.
    """
    r_lo = excess(floor)
    if r_lo <= 0:
        return floor, None
    lo, hi = floor, min(1.0, limit)
    r_hi = excess(hi)
    while r_hi > 0:
        if hi >= limit:
            return None
        lo, r_lo = hi, r_hi
        hi = min(4.0 * hi, limit)
        r_hi = excess(hi)
    while hi - lo > width_rel * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        r = excess(mid)
        if tol is not None and abs(r) <= tol:
            return mid, (lo, hi, r_lo, r_hi)
        if r <= 0:
            hi, r_hi = mid, r
        else:
            lo, r_lo = mid, r
    return hi, (lo, hi, r_lo, r_hi)


def _solve_budget_multiplier(
    curve: _SpendCurve,
    budget: float,
    rel_tol: float = 1e-6,
    width_rel: float = 1e-12,
) -> tuple[LambdaSolution, tuple[float, float, float, float] | None]:
    """The budget multiplier on one spend curve, and its search bracket."""
    smooth = curve.log.mode == "distributional"
    found = search_multiplier(
        lambda lam: curve.at(lam).spend - budget,
        LAMBDA_FLOOR,
        LAMBDA_LIMIT,
        tol=rel_tol * budget if smooth else None,
        width_rel=width_rel,
    )
    if found is None:
        raise OracleError("could not bracket the budget multiplier")
    lam, bracket = found
    r = curve.at(lam)
    sol = LambdaSolution(
        lam=lam,
        unconstrained=bracket is None,
        bracket=bracket and bracket[:2],
        spend=r.spend,
        value=r.value,
    )
    return sol, bracket


def solve_lambda_star(
    log: OpportunityLog,
    budget: float,
    rel_tol: float = 1e-6,
    bid_cap: float = DEFAULT_BID_CAP,
) -> LambdaSolution:
    """Budget-only hindsight multiplier.

    Unconstrained branch: if replayed spend at the floor multiplier fits the
    budget, the floor is returned flagged.  Otherwise bisection matches
    spend to budget (distributional mode) or returns the conservative high
    side of the step bracket (realized mode, never overspending).
    """
    if not budget > 0:
        raise OracleError(f"budget must be > 0, got {budget}")
    curve = _SpendCurve(log, MultiplierProfile(lam=1.0), bid_cap)
    return _solve_budget_multiplier(curve, budget, rel_tol)[0]


def dual_value(log: OpportunityLog, budget: float, lam: float, bid_cap: float = DEFAULT_BID_CAP) -> float:
    """Lagrangian dual objective V(lam) - lam*S(lam) + lam*B."""
    r = replay(log, MultiplierProfile(lam=lam), bid_cap)
    return r.value - lam * r.spend + lam * budget


@dataclass(frozen=True)
class KktSolution:
    profile: MultiplierProfile
    replay: ReplayResult
    residuals: dict[str, float]
    feasible: bool
    notes: tuple[str, ...]


def solve_kkt_grid(
    log: OpportunityLog,
    constraints,
    bid_cap: float = DEFAULT_BID_CAP,
    rel_tol: float = 1e-4,
) -> KktSolution:
    """Hindsight multipliers for budget + cost target + one delivery window
    + one guarantee window, satisfying each KKT branch: a multiplier is
    either 0 (slack constraint) or its constraint holds with equality
    within rel_tol.

    Built for small test instances: nested search_multiplier searches, the
    guarantee multiplier outermost, then the delivery and cost-target ones,
    with the budget multiplier solved innermost from scratch each time, so
    every search sees a function of its own multiplier alone.

    Realized spend and value are step functions of the multipliers, so a
    constraint may have no multiplier that meets it within rel_tol.  When a
    log with realized records leaves a residual above rel_tol, a note names
    the final bracket of that constraint's multiplier and the jump of the
    constrained quantity across it.
    """
    if len(constraints.delivery_windows) > 1 or len(constraints.guarantee_windows) > 1:
        raise OracleError("kkt oracle supports at most one window of each kind")
    budget = constraints.budget
    cost_target = constraints.cost_target
    delivery = constraints.delivery_windows[0] if constraints.delivery_windows else None
    guarantee = constraints.guarantee_windows[0] if constraints.guarantee_windows else None
    smooth = log.mode == "distributional"
    notes: list[str] = []
    # per constraint, the final bracket (lo, hi, excess at lo, excess at hi)
    # of the last search of its multiplier, the one behind the result
    brackets: dict[str, tuple[float, float, float, float] | None] = {}

    def search(
        name: str, excess: Callable[[float], float], limit: float, scale: float
    ) -> float | None:
        found = search_multiplier(
            excess, 0.0, limit, tol=rel_tol * scale if smooth else None, width_rel=1e-7
        )
        if found is None:
            return None
        x, brackets[name] = found
        return x

    def solve_inner(mu: float, lam_k: float, mu_k: float) -> tuple[MultiplierProfile, ReplayResult, bool]:
        profile = MultiplierProfile(
            lam=1.0,
            mu=mu,
            cost_target=cost_target,
            window_lambda={delivery.id: lam_k} if delivery else {},
            window_mu={guarantee.id: mu_k} if guarantee else {},
        )
        curve = _SpendCurve(log, profile, bid_cap)
        sol, brackets["budget"] = _solve_budget_multiplier(
            curve, budget, rel_tol=1e-7, width_rel=1e-7
        )
        return profile.with_lam(sol.lam), curve.at(sol.lam), sol.unconstrained

    def solve_mu(lam_k: float, mu_k: float) -> tuple[float, MultiplierProfile, ReplayResult, bool]:
        mu = 0.0
        if cost_target is not None:
            limit = 1e6 / cost_target

            def excess(mu: float) -> float:
                _, rep, _ = solve_inner(mu, lam_k, mu_k)
                return rep.spend - cost_target * rep.value

            mu = search("cost_target", excess, limit, budget)
            if mu is None:
                notes.append("cost target unattainable even at the multiplier bound")
                mu = limit
        return (mu, *solve_inner(mu, lam_k, mu_k))

    def solve_lam_k(mu_k: float) -> tuple[float, float, MultiplierProfile, ReplayResult, bool]:
        lam_k = 0.0
        if delivery is not None:

            def excess(lam_k: float) -> float:
                rep = solve_mu(lam_k, mu_k)[2]
                return rep.per_window.get(delivery.id, (0.0, 0.0))[0] - delivery.cap

            lam_k = search("delivery", excess, 1e8, delivery.cap)
            if lam_k is None:
                notes.append(f"delivery window {delivery.id!r} cap unattainable")
                lam_k = 1e8
        return (lam_k, *solve_mu(lam_k, mu_k))

    feasible = True
    mu_k = 0.0
    if guarantee is not None:

        def shortfall(mu_k: float) -> float:
            rep = solve_lam_k(mu_k)[3]
            return guarantee.floor - rep.per_window.get(guarantee.id, (0.0, 0.0))[1]

        mu_k = search("guarantee", shortfall, 1e4, guarantee.floor)
        if mu_k is None:
            feasible = False
            mu_k = 1e4
    lam_k, mu, profile, rep, lam_unconstrained = solve_lam_k(mu_k)
    if not feasible:
        achieved = rep.per_window.get(guarantee.id, (0.0, 0.0))[1]
        notes.append(
            f"guarantee {guarantee.id!r} infeasible: max achievable value "
            f"{achieved:g} < floor {guarantee.floor:g}"
        )

    if lam_unconstrained:
        notes.append("budget unconstrained")

    residuals: dict[str, float] = {
        "budget": abs(rep.spend - budget) / budget if not lam_unconstrained else 0.0
    }
    if cost_target is not None and mu > LAMBDA_FLOOR:
        residuals["cost_target"] = abs(rep.spend - cost_target * rep.value) / (
            cost_target * max(rep.value, 1e-300)
        )
    if delivery is not None and lam_k > LAMBDA_FLOOR:
        residuals["delivery"] = (
            abs(rep.per_window.get(delivery.id, (0.0, 0.0))[0] - delivery.cap) / delivery.cap
        )
    if guarantee is not None and mu_k > LAMBDA_FLOOR and feasible:
        residuals["guarantee"] = (
            abs(rep.per_window.get(guarantee.id, (0.0, 0.0))[1] - guarantee.floor)
            / guarantee.floor
        )

    if not smooth:
        for name, residual in residuals.items():
            if residual > rel_tol and brackets.get(name):
                notes.append(_step_note(name, residual, rel_tol, brackets[name], constraints))

    return KktSolution(
        profile=profile,
        replay=rep,
        residuals=residuals,
        feasible=feasible,
        notes=tuple(notes),
    )


def _step_note(name, residual, rel_tol, bracket, constraints) -> str:
    """Why a realized KKT residual exceeds rel_tol: the constrained quantity
    jumps across the final bracket of its multiplier's search."""
    lo, hi, r_lo, r_hi = bracket
    sign = 1.0
    if name == "budget":
        multiplier, quantity, target = "lam", "spend", constraints.budget
    elif name == "cost_target":
        multiplier, quantity, target = "mu", "spend - cost_target * value", 0.0
    elif name == "delivery":
        window = constraints.delivery_windows[0]
        multiplier, quantity, target = f"lam_{window.id}", f"spend in {window.id!r}", window.cap
    else:
        window = constraints.guarantee_windows[0]
        multiplier, quantity, target = f"mu_{window.id}", f"value in {window.id!r}", window.floor
        sign = -1.0
    return (
        f"{name} residual {residual:.3g} exceeds rel_tol {rel_tol:g}: realized {quantity} "
        f"steps from {target + sign * r_lo:.12g} at {multiplier}={lo:.17g} to "
        f"{target + sign * r_hi:.12g} at {multiplier}={hi:.17g}, the final bracket of its search"
    )


@dataclass(frozen=True)
class MarginalRoi:
    roi: dict[str, float]
    inactive: tuple[str, ...]
    lam: float


def marginal_roi(
    log: OpportunityLog,
    budget: float,
    delta: float | None = None,
    bid_cap: float = DEFAULT_BID_CAP,
) -> MarginalRoi:
    """Central-difference value gain per extra unit of budget routed to each
    placement at the joint optimum.  At the optimum these all coincide with
    the budget multiplier.  Needs a distributional log (smooth curves)."""
    if log.mode != "distributional":
        raise OracleError("marginal ROI needs a distributional log")
    if delta is None:
        delta = 1e-3 * budget
    global_sol = solve_lambda_star(log, budget, bid_cap=bid_cap)
    if global_sol.unconstrained:
        base = replay(log, MultiplierProfile(lam=global_sol.lam), bid_cap)
        return MarginalRoi(
            roi={p: 0.0 for p in base.per_placement}, inactive=(), lam=global_sol.lam
        )
    base = replay(log, MultiplierProfile(lam=global_sol.lam), bid_cap)
    roi: dict[str, float] = {}
    inactive: list[str] = []
    for placement, (spend_k, _) in base.per_placement.items():
        if spend_k <= delta:
            inactive.append(placement)
            continue
        sub = log.restrict_to_placement(placement)
        values = []
        for target in (spend_k + delta, spend_k - delta):
            sol = solve_lambda_star(sub, target, bid_cap=bid_cap)
            if sol.unconstrained:
                values = None
                break
            values.append(sol.value)
        if values is None:
            inactive.append(placement)
            continue
        roi[placement] = (values[0] - values[1]) / (2.0 * delta)
    return MarginalRoi(roi=roi, inactive=tuple(inactive), lam=global_sol.lam)


@dataclass(frozen=True)
class FixedBidBaseline:
    bid: float
    spend: float
    value: float


def fixed_bid_baseline(
    log: OpportunityLog, budget: float, bid_cap: float = DEFAULT_BID_CAP
) -> FixedBidBaseline:
    """Naive reference policy: one constant bid for every opportunity, set in
    hindsight to the largest level whose realized spend fits the budget."""
    if log.mode != "realized":
        raise OracleError("the fixed-bid baseline needs a realized log")
    cols = log.arrays

    def outcome(bid: float) -> tuple[float, float]:
        won, spend = resolve(cols.table, np.full(len(log), bid), cols.clearing)
        return float(spend.sum()), float(np.where(won, cols.values, 0.0).sum())

    lo, hi = 0.0, bid_cap
    if outcome(hi)[0] <= budget:
        spend, value = outcome(hi)
        return FixedBidBaseline(bid=hi, spend=spend, value=value)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if outcome(mid)[0] <= budget:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    spend, value = outcome(lo)
    return FixedBidBaseline(bid=lo, spend=spend, value=value)


@dataclass(frozen=True)
class Prop1Check:
    v_prime: float
    s_prime: float
    residual: float


def prop1_residual(
    log: OpportunityLog,
    lam: float,
    delta: float | None = None,
    bid_cap: float = DEFAULT_BID_CAP,
) -> Prop1Check:
    """Central-difference check that value and spend derivatives stay
    linearly related: V'(lam) = lam * S'(lam)."""
    if not lam > 0:
        raise OracleError(f"lam must be > 0, got {lam}")
    if delta is None:
        delta = 1e-4 * lam
    hi = replay(log, MultiplierProfile(lam=lam + delta), bid_cap)
    lo = replay(log, MultiplierProfile(lam=lam - delta), bid_cap)
    v_prime = (hi.value - lo.value) / (2.0 * delta)
    s_prime = (hi.spend - lo.spend) / (2.0 * delta)
    return Prop1Check(
        v_prime=v_prime, s_prime=s_prime, residual=abs(v_prime - lam * s_prime)
    )
