"""The benchmark's tracer (bench/spans.py) wraps the package's public
functions by module and name from outside.  Every name it patches must
still resolve, keep the argument positions its row counters read, and be
restored afterwards.  bench/ is only read here."""

import importlib
import inspect
from pathlib import Path

import pytest

from dualbid.scenario import parse_scenario
from helpers import mixed_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"

REQUIRED = {
    ("dualbid.simulate", "optimal_bids"),
    ("dualbid.bidding", "shade_bids"),
    ("dualbid.oracle", "shade_bids"),
    ("dualbid.pacing", "shade_bids"),
    ("dualbid.bidding", "win_prob"),
    ("dualbid.bidding", "win_density"),
    ("dualbid.bidding", "expected_cost"),
}


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def test_patched_signatures():
    from dualbid import bidding, oracle, pacing, simulate

    assert list(inspect.signature(pacing.ftl_update).parameters) == [
        "entries",
        "budget",
        "expected_total",
        "window",
    ]
    assert next(iter(inspect.signature(oracle.replay).parameters)) == "log"
    for fn in (bidding.shade_bids, simulate.optimal_bids):
        assert list(inspect.signature(fn).parameters)[1] == "adjusted"


def test_every_patched_name_resolves(spans):
    targets = [t[:2] for t in spans.SPAN_TARGETS + spans.COUNT_TARGETS]
    missing = [f"{m}.{a}" for m, a in targets if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def test_tracer_install_and_uninstall(spans):
    from dualbid.oracle import solve_lambda_star
    from dualbid.simulate import generate_stream, realized_log, run_episode

    targets = [t[:2] for t in spans.SPAN_TARGETS] + [t[:2] for t in spans.COUNT_TARGETS]
    assert REQUIRED <= set(targets)
    originals = {t: getattr(importlib.import_module(t[0]), t[1]) for t in targets}

    tracer = spans.Tracer()
    tracer.install()
    try:
        for module, attr in targets:
            assert getattr(importlib.import_module(module), attr) is not originals[(module, attr)]
        scenario = parse_scenario(
            mixed_scenario(intervals=8, budget=4.0, agent={"mode": "ftl", "ftl_window": 200})
        )
        run_episode(scenario)
        log = realized_log(scenario, generate_stream(scenario))
        solve_lambda_star(log, scenario.constraints.budget)
    finally:
        tracer.uninstall()
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn

    metrics = spans.layer_metrics(tracer)
    assert metrics["bidding.optimal_bids_s"] > 0
    assert metrics["pacing.ftl_calls"] > 0 and metrics["pacing.ftl_rows"] > 0
    assert metrics["oracle.replay_calls"] > 0 and metrics["oracle.replay_rows"] > 0
    # first-price rows are shaded by the episode, by FTL and by the oracle
    parents = {tracer.spans[s.parent].name for s in tracer.spans if s.name == "bidding.shade"}
    assert {"bidding.optimal_bids", "pacing.ftl", "oracle.replay"} <= parents
    assert metrics["bidding.shade_rows"] > 0
