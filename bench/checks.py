"""Output checks applied to every artifact the benchmark's CLI calls write.

Each check returns a list of problems; an empty list is a pass.  The λ*
check solves the realized second-price budget problem by sorting the
win thresholds v / max(clearing, reserve), independently of the oracle's
replay and bisection.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

# Non-numeric values each artifact may hold; every other value must parse
# back as a number.
_TEXT_COLUMNS = {"key", "placement_id"}
_TOKENS = {
    "compare.csv": {"True", "False"},
    "roi.csv": {"inactive"},
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _parses(value: str) -> bool:
    if value != value.strip():
        return False
    try:
        float(value)
    except ValueError:
        return False
    return True


def parse_back(path: Path) -> list[str]:
    """Every value of a CSV artifact reads back as a number, or as one of the
    words its format allows."""
    tokens = _TOKENS.get(path.name, set())
    problems = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            return [f"{path.name}: no header"]
        for line, row in enumerate(reader, start=2):
            if len(row) != len(header):
                problems.append(f"{path.name}:{line}: {len(row)} fields, header has {len(header)}")
                continue
            for column, value in zip(header, row):
                if column in _TEXT_COLUMNS or value in tokens or _parses(value):
                    continue
                label = row[0] if header == ["key", "value"] else column
                problems.append(f"{path.name}:{line}: {label}={value!r} does not parse back")
    return problems


def read_kv(path: Path) -> dict[str, str]:
    with path.open(newline="") as fh:
        return {row["key"]: row["value"] for row in csv.DictReader(fh)}


def spend_within_budget(metrics: dict[str, str]) -> list[str]:
    spend = float(metrics["total_spend"])
    bound = float(metrics["budget"]) + float(metrics["max_single_cost"])
    if spend <= bound:
        return []
    return [f"spend {spend!r} exceeds budget + max_single_cost = {bound!r}"]


def threshold_lambda(values: np.ndarray, prices: np.ndarray, budget: float) -> float | None:
    """Smallest multiplier whose realized second-price spend fits the budget.

    Bidding v/λ wins exactly when λ <= v/price.  Sorted by that threshold,
    the optimum is the threshold at which cumulative price first exceeds
    the budget.  None when winning everything fits.
    """
    with np.errstate(divide="ignore"):
        thresholds = np.where(prices > 0, values / np.where(prices > 0, prices, 1.0), np.inf)
    order = np.argsort(-thresholds, kind="stable")
    cumulative = np.cumsum(prices[order])
    j = int(np.searchsorted(cumulative, budget, side="right"))
    if j == len(cumulative):
        return None
    return float(thresholds[order][j])


def lambda_matches(oracle_lambda: float, expected: float | None, rel: float = 1e-9) -> list[str]:
    if expected is None:
        return [f"oracle λ* {oracle_lambda!r} but winning everything fits the budget"]
    if math.isclose(oracle_lambda, expected, rel_tol=rel, abs_tol=0.0):
        return []
    return [f"oracle λ* {oracle_lambda!r} != sorted-threshold λ* {expected!r}"]
