"""Scenario configuration: schema, validation, and (de)serialization.

A scenario is a single versioned JSON document describing the marketplace
(placements with auction formats, competing-bid models, value models,
traffic intensities, optional drift), the constraints (budget, cost target,
delivery / guarantee windows over interval ranges), and the pacing agent.

Example::

    {
      "version": 1,
      "seed": 42,
      "intervals": 200,
      "budget": 50.0,
      "placements": [
        {"id": "feed", "auction": "second_price", "reserve": 0.0,
         "competitor": {"family": "lognormal", "mu": 0.0, "sigma": 1.0},
         "value": {"mu": -1.0, "sigma": 0.5},
         "intensity": 80.0}
      ],
      "agent": {"mode": "additive", "xi": 0.1, "batch": "interval",
                "forecast": "total", "initialization": "coldstart"}
    }
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import asdict, dataclass
from pathlib import Path

from .bidding import DEFAULT_BID_CAP
from .mechanisms import (
    LognormalBids,
    MechanismSpec,
    competitor_from_dict,
    competitor_to_dict,
)
from .pacing import (
    ConstraintSet,
    DeliveryWindow,
    GuaranteeWindow,
    PacingConfig,
    PacingError,
)

SCENARIO_VERSION = 1
SEED_LIMIT = 2**64  # a seed keys a 64-bit Philox word, so seeds are in [0, SEED_LIMIT)
INTERVAL_LIMIT = 10**6  # intervals in a horizon
OPPORTUNITY_LIMIT = 10**7  # expected opportunities in a horizon; lambda* holds ~360 B each


class ScenarioError(ValueError):
    """Config validation failure, carrying the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class DriftSchedule:
    """Piecewise-linear offsets keyed by interval index."""

    knots: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.knots:
            raise ValueError("drift schedule needs at least one knot")
        intervals = [k for k, _ in self.knots]
        if any(b <= a for a, b in zip(intervals, intervals[1:])):
            raise ValueError("drift knots must have strictly increasing intervals")
        if not all(math.isfinite(v) for _, v in self.knots):
            raise ValueError("drift offsets must be finite")

    def covers(self, intervals: int) -> bool:
        return self.knots[0][0] <= 0 and self.knots[-1][0] >= intervals - 1

    def offset_at(self, interval: int) -> float:
        knots = self.knots
        if interval <= knots[0][0]:
            return knots[0][1]
        for (i0, v0), (i1, v1) in zip(knots, knots[1:]):
            if interval <= i1:
                return v0 + (v1 - v0) * (interval - i0) / (i1 - i0)
        return knots[-1][1]


@dataclass(frozen=True)
class PlacementConfig:
    id: str
    mechanism: MechanismSpec
    value_mu: float
    value_sigma: float
    intensity: float | tuple[float, ...]
    bid_mu_drift: DriftSchedule | None = None
    value_mu_drift: DriftSchedule | None = None

    def __post_init__(self):
        if not math.isfinite(self.value_mu):
            raise ValueError(f"placement {self.id!r}: value mu must be finite")
        if not (self.value_sigma > 0 and math.isfinite(self.value_sigma)):
            raise ValueError(f"placement {self.id!r}: value sigma must be finite and > 0")
        raw = self.intensity if isinstance(self.intensity, tuple) else (self.intensity,)
        if not all(0 <= x < math.inf for x in raw):
            raise ValueError(f"placement {self.id!r}: intensities must be finite and >= 0")

    def intensity_at(self, interval: int) -> float:
        if isinstance(self.intensity, tuple):
            return self.intensity[interval]
        return self.intensity

    def expected_total(self, intervals: int) -> float:
        if isinstance(self.intensity, tuple):
            return float(sum(self.intensity[:intervals]))
        return self.intensity * intervals


@dataclass(frozen=True)
class AgentConfig:
    pacing: PacingConfig
    lambda0: float | None = None  # None: cold start from placement priors
    lambda_prime: float | None = None  # None: use the initialization value
    bid_cap: float = DEFAULT_BID_CAP

    def __post_init__(self):
        for name in ("lambda0", "lambda_prime", "bid_cap"):
            v = getattr(self, name)
            if v is not None and not 0 < v < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    intervals: int
    constraints: ConstraintSet
    placements: tuple[PlacementConfig, ...]
    agent: AgentConfig
    version: int = SCENARIO_VERSION

    def __post_init__(self):
        if not self.intervals > 0:
            raise ValueError(f"intervals must be > 0, got {self.intervals}")
        if not self.placements:
            raise ValueError("at least one placement required")
        ids = [p.id for p in self.placements]
        if len(ids) != len(set(ids)):
            raise ValueError("placement ids must be unique")
        if self.agent.pacing.mode == "ftl" and not self.constraints.budget_only:
            # FTL re-solves the budget multiplier alone, so it would leave
            # every other constraint unenforced
            raise ValueError(
                "ftl pacing solves the budget only; remove the cost target and the "
                "delivery and guarantee windows, or use another mode"
            )
        for w in self.constraints.delivery_windows + self.constraints.guarantee_windows:
            if w.end > self.intervals:
                raise ValueError(f"window {w.id!r} extends past the horizon")
        for p in self.placements:
            if isinstance(p.intensity, tuple) and len(p.intensity) != self.intervals:
                raise ValueError(
                    f"placement {p.id!r}: intensity schedule length "
                    f"{len(p.intensity)} != intervals {self.intervals}"
                )
            for name, sched in (("bid_mu", p.bid_mu_drift), ("value_mu", p.value_mu_drift)):
                if sched is not None and not sched.covers(self.intervals):
                    raise ValueError(
                        f"placement {p.id!r}: {name} drift schedule does not cover the horizon"
                    )
            if p.bid_mu_drift is not None and not isinstance(p.mechanism.competitor, LognormalBids):
                raise ValueError(
                    f"placement {p.id!r}: competing-bid drift needs a lognormal model"
                )

    def expected_total(self) -> float:
        return sum(p.expected_total(self.intervals) for p in self.placements)


_REQUIRED = object()


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(field, f"expected an object, got {reprlib.repr(value)}")
    return value


def _number(value, field: str, kind=float):
    """value as kind (float or int) when it is a JSON number, and an
    integral one for int; booleans, strings and the rest are errors that
    name the field's path."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if kind is float or value == int(value):
                return kind(value)
        except (OverflowError, ValueError):  # int(inf), int(nan), float(10**400)
            pass
    expected = "an integer" if kind is int else "a number"
    raise ScenarioError(field, f"expected {expected}, got {reprlib.repr(value)}")


def _get(data: dict, key: str, path: str, kind=float, default=_REQUIRED):
    """data[key] as kind, or default when it is absent or null; errors name
    the field's path.  float and int take JSON numbers only (int integral
    ones), bool takes true or false only, and str takes any value."""
    field = f"{path}.{key}" if path else key
    value = data.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ScenarioError(field, "missing required field")
        return default
    if kind is str:
        return str(value)
    if kind is bool:
        if not isinstance(value, bool):
            raise ScenarioError(field, f"expected true or false, got {reprlib.repr(value)}")
        return value
    return _number(value, field, kind)


def _objects(data: dict, key: str, required: bool = False) -> list[tuple[str, dict]]:
    """The objects listed in data[key] (none when it is absent or null and
    not required), each with its field path."""
    items = data.get(key)
    if items is None and not required:
        items = []
    if not isinstance(items, list):
        raise ScenarioError(key, f"expected a list, got {reprlib.repr(items)}")
    return [(f"{key}[{i}]", _object(item, f"{key}[{i}]")) for i, item in enumerate(items)]


def _parse_drift(raw, path: str) -> DriftSchedule:
    if not isinstance(raw, list) or not all(isinstance(k, list) and len(k) == 2 for k in raw):
        expected = "a list of [interval, offset] pairs"
        raise ScenarioError(path, f"expected {expected}, got {reprlib.repr(raw)}")
    knots = tuple(
        (_number(i, f"{path}[{k}][0]", int), _number(v, f"{path}[{k}][1]"))
        for k, (i, v) in enumerate(raw)
    )
    try:
        return DriftSchedule(knots=knots)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _parse_placement(raw: dict, path: str) -> PlacementConfig:
    pid = _get(raw, "id", path, str)
    auction = _get(raw, "auction", path, str)
    reserve = _get(raw, "reserve", path, default=0.0)
    competitor = _object(raw.get("competitor"), f"{path}.competitor")
    value = _object(raw.get("value"), f"{path}.value")
    value_mu = _get(value, "mu", f"{path}.value")
    value_sigma = _get(value, "sigma", f"{path}.value")
    if isinstance(raw.get("intensity"), list):
        intensity = tuple(
            _number(x, f"{path}.intensity[{i}]") for i, x in enumerate(raw["intensity"])
        )
    else:
        intensity = _get(raw, "intensity", path)
    for key, v in competitor.items():
        if key != "family":
            for x in v if isinstance(v, list) else [v]:
                _number(x, f"{path}.competitor.{key}")
    drift = _object(raw.get("drift") or {}, f"{path}.drift")
    bid_mu_drift, value_mu_drift = (
        _parse_drift(drift[key], f"{path}.drift.{key}") if key in drift else None
        for key in ("bid_mu", "value_mu")
    )
    try:
        return PlacementConfig(
            id=pid,
            mechanism=MechanismSpec(auction, reserve, competitor_from_dict(competitor)),
            value_mu=value_mu,
            value_sigma=value_sigma,
            intensity=intensity,
            bid_mu_drift=bid_mu_drift,
            value_mu_drift=value_mu_drift,
        )
    except KeyError as exc:
        raise ScenarioError(path, f"competitor spec needs a {exc} field") from None
    except TypeError as exc:
        raise ScenarioError(path, f"bad placement spec: {exc}") from None
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _parse_agent(raw: dict) -> AgentConfig:
    batch = raw.get("batch", "interval")
    if batch == "interval":
        batch_size = None
    elif isinstance(batch, int) and not isinstance(batch, bool):
        batch_size = batch
    else:
        raise ScenarioError("agent.batch", f"expected 'interval' or an integer, got {batch!r}")
    init = raw.get("initialization", "coldstart")
    if init == "coldstart":
        lambda0 = None
    elif isinstance(init, dict) and "lambda0" in init:
        lambda0 = _get(init, "lambda0", "agent.initialization")
    else:
        raise ScenarioError(
            "agent.initialization", f"expected 'coldstart' or {{'lambda0': x}}, got {init!r}"
        )
    try:
        pacing = PacingConfig(
            mode=str(raw.get("mode", "additive")),
            epsilon=_get(raw, "epsilon", "agent", default=None),
            xi=_get(raw, "xi", "agent", default=None),
            batch_size=batch_size,
            forecast_mode=str(raw.get("forecast", "total")),
            mpc=_get(raw, "mpc", "agent", bool, False),
            ftl_window=_get(raw, "ftl_window", "agent", int, None),
            constraint_xi=_get(raw, "constraint_xi", "agent", default=1.0),
        )
    except PacingError as exc:
        raise ScenarioError("agent", str(exc)) from None
    lambda_prime = _get(raw, "lambda_prime", "agent", default=None)
    bid_cap = _get(raw, "bid_cap", "agent", default=DEFAULT_BID_CAP)
    try:
        return AgentConfig(
            pacing=pacing, lambda0=lambda0, lambda_prime=lambda_prime, bid_cap=bid_cap
        )
    except ValueError as exc:
        raise ScenarioError("agent", str(exc)) from None


def _parse_window(window, target: str, raw: dict, path: str):
    """The window at path, of class window, whose target field is named
    target (cap or floor)."""
    fields = {"id": _get(raw, "id", path, str)}
    fields.update({key: _get(raw, key, path, int) for key in ("start", "end")})
    fields[target] = _get(raw, target, path)
    try:
        return window(**fields)
    except PacingError as exc:
        raise ScenarioError(path, str(exc)) from None


def parse_windows(data) -> tuple[tuple[DeliveryWindow, ...], tuple[GuaranteeWindow, ...]]:
    """The delivery_windows and guarantee_windows of a scenario, or of a
    windows file: a JSON object with the same two lists."""
    _object(data, "file")
    delivery, guarantee = (
        tuple(_parse_window(window, target, w, path) for path, w in _objects(data, key))
        for key, window, target in (
            ("delivery_windows", DeliveryWindow, "cap"),
            ("guarantee_windows", GuaranteeWindow, "floor"),
        )
    )
    return delivery, guarantee


def parse_scenario(data, seed_override: int | None = None) -> ScenarioConfig:
    version = _object(data, "file").get("version")
    if version != SCENARIO_VERSION:
        raise ScenarioError("version", f"expected {SCENARIO_VERSION}, got {version!r}")
    delivery, guarantee = parse_windows(data)
    try:
        constraints = ConstraintSet(
            budget=_get(data, "budget", ""),
            cost_target=_get(data, "cost_target", "", default=None),
            delivery_windows=delivery,
            guarantee_windows=guarantee,
        )
    except PacingError as exc:
        raise ScenarioError("constraints", str(exc)) from None
    placements = tuple(_parse_placement(p, path) for path, p in _objects(data, "placements", True))
    agent = _parse_agent(_object(data.get("agent"), "agent"))
    seed = _get(data, "seed", "", int) if seed_override is None else int(seed_override)
    if not 0 <= seed < SEED_LIMIT:
        raise ScenarioError("seed", f"must be in [0, 2**64), got {seed}")
    intervals = _get(data, "intervals", "", int)
    if intervals > INTERVAL_LIMIT:
        raise ScenarioError("intervals", f"must be at most {INTERVAL_LIMIT}, got {intervals}")
    try:
        scenario = ScenarioConfig(
            seed=seed,
            intervals=intervals,
            constraints=constraints,
            placements=placements,
            agent=agent,
        )
    except ValueError as exc:
        raise ScenarioError("scenario", str(exc)) from None
    if scenario.expected_total() > OPPORTUNITY_LIMIT:
        totals = [p.expected_total(intervals) for p in placements]
        raise ScenarioError(
            f"placements[{totals.index(max(totals))}].intensity",
            f"expects {scenario.expected_total():.6g} opportunities over the horizon, "
            f"more than {OPPORTUNITY_LIMIT}",
        )
    return scenario


def load_scenario(path: str | Path, seed_override: int | None = None) -> ScenarioConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError("file", f"invalid JSON: {exc}") from None
    return parse_scenario(data, seed_override)


def scenario_to_dict(s: ScenarioConfig) -> dict:
    """Canonical echo of a resolved scenario, parseable by parse_scenario."""
    agent = {
        "mode": s.agent.pacing.mode,
        "batch": "interval" if s.agent.pacing.batch_size is None else s.agent.pacing.batch_size,
        "forecast": s.agent.pacing.forecast_mode,
        "mpc": s.agent.pacing.mpc,
        "constraint_xi": s.agent.pacing.constraint_xi,
        "bid_cap": s.agent.bid_cap,
        "initialization": "coldstart" if s.agent.lambda0 is None else {"lambda0": s.agent.lambda0},
    }
    if s.agent.pacing.epsilon is not None:
        agent["epsilon"] = s.agent.pacing.epsilon
    if s.agent.pacing.xi is not None:
        agent["xi"] = s.agent.pacing.xi
    if s.agent.pacing.ftl_window is not None:
        agent["ftl_window"] = s.agent.pacing.ftl_window
    if s.agent.lambda_prime is not None:
        agent["lambda_prime"] = s.agent.lambda_prime
    placements = []
    for p in s.placements:
        item = {
            "id": p.id,
            "auction": p.mechanism.auction_type,
            "reserve": p.mechanism.reserve,
            "competitor": competitor_to_dict(p.mechanism.competitor),
            "value": {"mu": p.value_mu, "sigma": p.value_sigma},
            "intensity": list(p.intensity) if isinstance(p.intensity, tuple) else p.intensity,
        }
        drift = {}
        if p.bid_mu_drift is not None:
            drift["bid_mu"] = [list(k) for k in p.bid_mu_drift.knots]
        if p.value_mu_drift is not None:
            drift["value_mu"] = [list(k) for k in p.value_mu_drift.knots]
        if drift:
            item["drift"] = drift
        placements.append(item)
    return {
        "version": s.version,
        "seed": s.seed,
        "intervals": s.intervals,
        "budget": s.constraints.budget,
        "cost_target": s.constraints.cost_target,
        "delivery_windows": [asdict(w) for w in s.constraints.delivery_windows],
        "guarantee_windows": [asdict(w) for w in s.constraints.guarantee_windows],
        "placements": placements,
        "agent": agent,
    }
