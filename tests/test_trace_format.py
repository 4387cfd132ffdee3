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
from helpers import stationary_scenario

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


def _digests(out: Path) -> tuple[str, str]:
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("trace.csv", "metrics.csv")
    )


def _stationary_ftl() -> dict:
    # the settings of the benchmark's ftl_sp workload
    data = json.loads((SCENARIOS / "stationary.json").read_text())
    data["budget"] *= 60 / data["intervals"]
    data["intervals"] = 60
    data["agent"]["mode"] = "ftl"
    return data


def _budget_stop() -> dict:
    # the budget runs out in the middle of an interval
    data = stationary_scenario(budget=20.0)
    data["agent"]["initialization"] = {"lambda0": 0.05}
    return data


def _mixed_constrained() -> dict:
    return json.loads((SCENARIOS / "mixed_constrained.json").read_text())


@pytest.mark.parametrize(
    "build,trace_digest,metrics_digest",
    [
        (
            _stationary_ftl,
            "746eeaf2582a9e9bae02f53e126ea7e732d975e1f50d0894842988a6ff54a448",
            "3fe827d09ca1f07ef784ca691cd9d744dd9fbb9097eec562f973d69948e56407",
        ),
        (
            _budget_stop,
            "4c5b3a2237d6e59d68e20a7f2d71619944a54b1cde6e5a52abd0902b11637e69",
            "32cd93af0cd85e1e65e6e3f2b320ee42fa7e681d958fbbdb966e37c923aa35e8",
        ),
        (
            _mixed_constrained,
            "5c9bff30df4d49171f0134303c874b8596241207c8d0dc5a4cc206946b114f5c",
            "74f5030d5202a7b72e8da7eb90cf12234c6a9afdeb0a5e3fdd20130f3d360051",
        ),
    ],
    ids=["stationary_ftl", "budget_stop", "mixed_constrained"],
)
def test_run_digests(tmp_path, build, trace_digest, metrics_digest):
    assert _digests(_run(tmp_path, build())) == (trace_digest, metrics_digest)


def test_placement_id_is_quoted(tmp_path):
    pid = 'feed, "main"\nmobile'
    data = stationary_scenario(intervals=20)
    data["placements"][0]["id"] = pid
    out = _run(tmp_path, data)
    with (out / "trace.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) > 0
    assert {row["placement_id"] for row in rows} == {pid}
    assert (out / "trace.csv").read_bytes().count(b"\r\n") == len(rows) + 1
