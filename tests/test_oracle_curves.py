"""oracle_curves.csv against full replays.

On a realized log whose profile holds the budget multiplier alone, the
curve is read from the log's RealizedSpend (sums in win-limit order); every
point must be within CURVE_REL of a replay at the same multiplier, and the
multipliers are the geometric grid around lambda* that the curve has always
had, written byte for byte.  Its first-price rows are shaded in one call for
all 33 points, which writes what reading each point alone writes."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

import dualbid.cli as cli
import dualbid.oracle as oracle
from dualbid.bidding import DEFAULT_BID_CAP, LAMBDA_FLOOR
from dualbid.cli import load_log_csv, main
from dualbid.oracle import MultiplierProfile, budget_factor, replay
from dualbid.scenario import parse_scenario
from dualbid.simulate import generate_stream, realized_log
from helpers import mixed_scenario, realized_spend_shading_every_row, stationary_scenario

# about n * eps for the logs below (a few thousand rows), far above the
# 5e-15 seen on the benchmark logs and far below any step of the curve
CURVE_REL = 1e-12


def read_kv(path: Path) -> dict:
    with path.open() as fh:
        return {row["key"]: row["value"] for row in csv.DictReader(fh)}


def check_curve(path: Path, log, lam_star: float, bid_cap: float) -> list[float]:
    """Assert the curve at path against replays of log; returns its lambdas."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "spend", "value"]
    center = max(lam_star, 1e-9)
    grid = np.geomspace(center / 8.0, center * 8.0, 33).tolist()
    assert [row[0] for row in rows[1:]] == [repr(lam) for lam in grid]
    for lam, spend, value in rows[1:]:
        r = replay(log, MultiplierProfile(lam=float(lam)), bid_cap)
        assert float(spend) == pytest.approx(r.spend, rel=CURVE_REL, abs=0), lam
        assert float(value) == pytest.approx(r.value, rel=CURVE_REL, abs=0), lam
    return grid


def compare_scenario(tmp_path: Path, cfg: dict):
    """run + compare on cfg; returns (out dir, compare.csv, realized log, bid cap)."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    assert main(["compare", "--run", str(out)]) == 0
    scenario = parse_scenario(json.loads((out / "config_resolved.json").read_text()))
    log = realized_log(scenario, generate_stream(scenario))
    return out, read_kv(out / "compare.csv"), log, scenario.agent.bid_cap


def small(cfg: dict) -> dict:
    for placement in cfg["placements"]:
        placement["intensity"] = 30.0
    return cfg


@pytest.mark.parametrize(
    "cfg",
    [
        small(stationary_scenario(intervals=40, budget=20.0)),
        small(mixed_scenario(intervals=40, budget=20.0)),
        small(stationary_scenario(intervals=40, budget=5.0, agent={"bid_cap": 0.2})),
    ],
    ids=["second_price", "mixed_first_price", "bid_cap_0.2"],
)
def test_compare_curve_matches_replay(tmp_path, capsys, cfg):
    out, compare, log, bid_cap = compare_scenario(tmp_path, cfg)
    assert compare["oracle_unconstrained"] == "False"
    check_curve(out / "oracle_curves.csv", log, float(compare["oracle_lambda"]), bid_cap)


def test_unconstrained_curve_spans_the_floor(tmp_path, capsys):
    cfg = small(mixed_scenario(intervals=20, budget=1e5))
    out, compare, log, bid_cap = compare_scenario(tmp_path, cfg)
    assert compare["oracle_unconstrained"] == "True"
    grid = check_curve(out / "oracle_curves.csv", log, float(compare["oracle_lambda"]), bid_cap)
    assert grid[0] < LAMBDA_FLOOR < grid[-1]


def test_oracle_command_curve_matches_replay(tmp_path, capsys):
    rng = np.random.default_rng(5)
    lines = [",".join(cli._LOG_COLUMNS)]
    for i in range(400):
        auction = "first_price" if i % 3 == 0 else "second_price"
        value, clearing = rng.lognormal(-1.0, 0.5), rng.uniform(0.0, 0.6)
        lines.append(f"{i},p{i % 2},{value!r},{auction},0.05,uniform,0.0,0.6,{clearing!r},")
    path = tmp_path / "log.csv"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "oracle"
    assert main(["oracle", "--log", str(path), "--budget", "15.0", "--out", str(out)]) == 0
    kv = read_kv(out / "oracle_multipliers.csv")
    assert kv["unconstrained"] == "False"
    log = load_log_csv(path)
    check_curve(out / "oracle_curves.csv", log, float(kv["lambda"]), DEFAULT_BID_CAP)


def test_budget_only_compare_sorts_the_log_once(tmp_path, capsys, monkeypatch):
    """lambda* and the 33 curve points read one RealizedSpend: win limits are
    computed once, and the curve replays nothing."""
    calls = {"win_limits": 0, "replay": 0}
    win_limits, cli_replay = oracle.win_limits, cli.replay

    def counted_win_limits(*args, **kwargs):
        calls["win_limits"] += 1
        return win_limits(*args, **kwargs)

    def counted_replay(*args, **kwargs):
        calls["replay"] += 1
        return cli_replay(*args, **kwargs)

    monkeypatch.setattr(oracle, "win_limits", counted_win_limits)
    monkeypatch.setattr(cli, "replay", counted_replay)
    compare_scenario(tmp_path, small(stationary_scenario(intervals=40, budget=20.0)))
    assert calls == {"win_limits": 1, "replay": 0}


def test_first_price_curve_is_the_per_point_read(tmp_path, capsys):
    """The 33 points shaded in one call write, byte for byte, what reading
    each point alone, shading every first-price row, writes."""
    cfg = small(mixed_scenario(intervals=40, budget=20.0))
    out, compare, log, bid_cap = compare_scenario(tmp_path, cfg)
    center = max(float(compare["oracle_lambda"]), 1e-9)
    rs = log.realized_spend(bid_cap)
    rows = [["lambda", "spend", "value"]]
    for lam in np.geomspace(center / 8.0, center * 8.0, 33).tolist():
        spend, value = realized_spend_shading_every_row(rs, budget_factor(lam))
        rows.append([repr(lam), repr(spend), repr(value)])
    with (out / "oracle_curves.csv").open(newline="") as fh:
        assert list(csv.reader(fh)) == rows


def test_budget_only_compare_shades_in_few_calls(tmp_path, capsys, monkeypatch):
    """lambda* on a first-price log narrows a bracket in a handful of reads
    and the curve shades its 33 points in one call: a budget-only compare
    calls shade_bids at most 20 times, where reading spend at every search
    step and curve point took about 90."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(small(mixed_scenario(intervals=40, budget=20.0))))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    calls = []
    original = oracle.shade_bids
    monkeypatch.setattr(oracle, "shade_bids", lambda *args: calls.append(args) or original(*args))
    assert main(["compare", "--run", str(out)]) == 0
    assert read_kv(out / "compare.csv")["oracle_unconstrained"] == "False"
    assert len(calls) <= 20
