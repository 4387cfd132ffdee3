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
        ("interval", "efd7a73af70af55dc48a9e15eb41a550a9a95c8a7d89980f115fce3552c77b27"),
        (200, "421c5251e5034efaa5b334554ce10c52f9c4c2991d8e692766599e9797b61937"),
    ],
    ids=["interval", "200"],
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
            "eddf21089ff3bc3a043409e77630ef9c77597d334b85cc8915c4eda672461244",
            "e5e4d7feb390e5cfa1075337a94688b5bad82d2902c66d910f30a67a7e6113d6",
        ),
        (
            _budget_stop,
            "3c0a10d2560d32a7171c8cdb4ccf5d1e62997ee1f42291bff4c9a1f1556578e5",
            "c4f3ee1d8d6241ce01b8d02fd5ea5731bb41fdb893a0c451d547cef213558640",
        ),
        (
            _mixed_constrained,
            "079c15b0132f9592cd82ea3c0b89b192c0e9e7cb5247499bf13cbadc00822b59",
            "4f3fb213d98950445795ff32fe1e06670c1626270089f7674db16a2655f95f4a",
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
