"""Pinned digests of `dualbid run` output on the shipped scenarios.

A change that moves a digest changes the trace format or the episode's
decisions, and must say so.
"""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from dualbid.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _run(tmp_path: Path, data: dict) -> Path:
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize(
    "batch,digest",
    [
        ("interval", "c8489727e7ae08f8a4b7c32a97d6ba1abfab8fa8dceb2b372e644ef0bbcc29d1"),
        (200, "054d48b6db19487d1cfe09e5c2e4323ef1ed0540cdd3753c2595c9efcf243515"),
    ],
)
def test_stationary_trace_digest(tmp_path, batch, digest):
    data = json.loads((SCENARIOS / "stationary.json").read_text())
    data["agent"]["batch"] = batch
    out = _run(tmp_path, data)
    assert hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest() == digest


def test_mixed_constrained_decisions(tmp_path):
    # first-price bids may move in the last bits; which auctions are won may not
    out = _run(tmp_path, json.loads((SCENARIOS / "mixed_constrained.json").read_text()))
    with (out / "trace.csv").open(newline="") as fh:
        won = "".join(row["won"] for row in csv.DictReader(fh))
    with (out / "metrics.csv").open(newline="") as fh:
        metrics = {row["key"]: row["value"] for row in csv.DictReader(fh)}
    assert len(won) == 12050
    assert hashlib.sha256(won.encode()).hexdigest() == (
        "c12765d9a689a9923901ecdc6975c0df2e70382eb7c6e2199b88228b665e6852"
    )
    assert metrics["n_wins"] == "412"
    assert metrics["total_value"] == "290.1823213698735"
