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
from dataclasses import dataclass
from pathlib import Path

from .mechanisms import (
    LognormalBids,
    MechanismError,
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
        if not self.value_sigma > 0:
            raise ValueError(f"placement {self.id!r}: value sigma must be > 0")
        raw = self.intensity if isinstance(self.intensity, tuple) else (self.intensity,)
        if any(x < 0 for x in raw):
            raise ValueError(f"placement {self.id!r}: intensities must be >= 0")

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
    bid_cap: float = 1e4

    def __post_init__(self):
        if self.lambda0 is not None and not self.lambda0 > 0:
            raise ValueError(f"lambda0 must be > 0, got {self.lambda0}")
        if self.lambda_prime is not None and not self.lambda_prime > 0:
            raise ValueError(f"lambda_prime must be > 0, got {self.lambda_prime}")
        if not self.bid_cap > 0:
            raise ValueError(f"bid_cap must be > 0, got {self.bid_cap}")


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


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing required field")
    return data[key]


def _parse_drift(raw, path: str) -> DriftSchedule:
    try:
        return DriftSchedule(knots=tuple((int(i), float(v)) for i, v in raw))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(path, str(exc)) from None


def _parse_placement(raw: dict, path: str) -> PlacementConfig:
    pid = str(_require(raw, "id", path))
    try:
        mech = MechanismSpec(
            auction_type=str(_require(raw, "auction", path)),
            reserve=float(raw.get("reserve", 0.0)),
            competitor=competitor_from_dict(_require(raw, "competitor", path)),
        )
    except MechanismError as exc:
        raise ScenarioError(path, str(exc)) from None
    value = _require(raw, "value", path)
    intensity = _require(raw, "intensity", path)
    drift = raw.get("drift", {}) or {}
    try:
        return PlacementConfig(
            id=pid,
            mechanism=mech,
            value_mu=float(value["mu"]),
            value_sigma=float(value["sigma"]),
            intensity=tuple(float(x) for x in intensity)
            if isinstance(intensity, list)
            else float(intensity),
            bid_mu_drift=_parse_drift(drift["bid_mu"], f"{path}.drift.bid_mu")
            if "bid_mu" in drift
            else None,
            value_mu_drift=_parse_drift(drift["value_mu"], f"{path}.drift.value_mu")
            if "value_mu" in drift
            else None,
        )
    except (KeyError, TypeError) as exc:
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
        lambda0 = float(init["lambda0"])
    else:
        raise ScenarioError(
            "agent.initialization", f"expected 'coldstart' or {{'lambda0': x}}, got {init!r}"
        )
    try:
        pacing = PacingConfig(
            mode=str(raw.get("mode", "additive")),
            epsilon=float(raw["epsilon"]) if "epsilon" in raw else None,
            xi=float(raw["xi"]) if "xi" in raw else None,
            batch_size=batch_size,
            forecast_mode=str(raw.get("forecast", "total")),
            mpc=bool(raw.get("mpc", False)),
            ftl_window=int(raw["ftl_window"]) if raw.get("ftl_window") is not None else None,
            constraint_xi=float(raw.get("constraint_xi", 1.0)),
        )
    except PacingError as exc:
        raise ScenarioError("agent", str(exc)) from None
    try:
        return AgentConfig(
            pacing=pacing,
            lambda0=lambda0,
            lambda_prime=float(raw["lambda_prime"]) if raw.get("lambda_prime") is not None else None,
            bid_cap=float(raw.get("bid_cap", 1e4)),
        )
    except ValueError as exc:
        raise ScenarioError("agent", str(exc)) from None


def parse_scenario(data: dict, seed_override: int | None = None) -> ScenarioConfig:
    version = data.get("version")
    if version != SCENARIO_VERSION:
        raise ScenarioError("version", f"expected {SCENARIO_VERSION}, got {version!r}")
    try:
        windows = tuple(
            DeliveryWindow(
                id=str(_require(w, "id", f"delivery_windows[{i}]")),
                start=int(w["start"]),
                end=int(w["end"]),
                cap=float(w["cap"]),
            )
            for i, w in enumerate(data.get("delivery_windows", []))
        )
        guarantees = tuple(
            GuaranteeWindow(
                id=str(_require(w, "id", f"guarantee_windows[{i}]")),
                start=int(w["start"]),
                end=int(w["end"]),
                floor=float(w["floor"]),
            )
            for i, w in enumerate(data.get("guarantee_windows", []))
        )
        constraints = ConstraintSet(
            budget=float(_require(data, "budget", "")),
            cost_target=float(data["cost_target"]) if data.get("cost_target") is not None else None,
            delivery_windows=windows,
            guarantee_windows=guarantees,
        )
    except PacingError as exc:
        raise ScenarioError("constraints", str(exc)) from None
    placements = tuple(
        _parse_placement(p, f"placements[{i}]")
        for i, p in enumerate(_require(data, "placements", ""))
    )
    agent = _parse_agent(_require(data, "agent", ""))
    seed = int(_require(data, "seed", "")) if seed_override is None else int(seed_override)
    try:
        return ScenarioConfig(
            seed=seed,
            intervals=int(_require(data, "intervals", "")),
            constraints=constraints,
            placements=placements,
            agent=agent,
        )
    except ValueError as exc:
        raise ScenarioError("scenario", str(exc)) from None


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
        "delivery_windows": [
            {"id": w.id, "start": w.start, "end": w.end, "cap": w.cap}
            for w in s.constraints.delivery_windows
        ],
        "guarantee_windows": [
            {"id": w.id, "start": w.start, "end": w.end, "floor": w.floor}
            for w in s.constraints.guarantee_windows
        ],
        "placements": placements,
        "agent": agent,
    }
