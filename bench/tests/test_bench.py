"""Tests of the benchmark itself: its declaration, span arithmetic, output
checks and seed handling.  Run with ``python -m pytest bench/tests``."""

import csv
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from checks import parse_back, threshold_lambda
from spans import Span, Tracer, covered_length, layer_metrics, self_times
from workloads import FTL_HORIZON, MIXED_SCALE, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# per-layer metrics the benchmark measures itself instead of from spans
RUN_LEVEL = {
    "cli.bytes_written",
    "cli.compare_untraced_s",
    "cli.sweep_runs_per_s",
    "trace.overhead_s",
    "oracle.residual_max",
}


def test_declared_names_units_and_bounds_are_valid():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_span_metrics_are_the_declared_per_layer_metrics():
    emitted = set(layer_metrics(Tracer())) | RUN_LEVEL
    assert emitted == {m["name"] for m in SPEC["per_layer"]}


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)], 0.0, 10.0) == 6.0
    assert covered_length([(-2.0, 1.0), (4.0, 4.0)], 0.0, 10.0) == 1.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span("cli.compare", 0.0, 10.0, -1),
        Span("oracle.lambda_star", 1.0, 6.0, 0),
        Span("oracle.replay", 2.0, 3.0, 1),
        Span("oracle.replay", 7.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 4.0, 1.0, 2.0]


def test_layer_metrics_attribute_replays_to_their_solver():
    tracer = Tracer()
    tracer.spans = [
        Span("cli.compare", 0.0, 10.0, -1),
        Span("oracle.lambda_star", 1.0, 6.0, 0),
        Span("oracle.replay", 2.0, 3.0, 1, rows=50),
        Span("oracle.replay", 3.0, 4.0, 1, rows=50),
        Span("oracle.replay", 7.0, 9.0, 0, rows=50),
        Span("bidding.shade", 9.0, 9.5, 0, rows=7, flag=True),
    ]
    m = layer_metrics(tracer)
    assert m["oracle.lambda_star_s"] == 5.0
    assert (m["oracle.lambda_star_replays"], m["oracle.replay_calls"], m["oracle.replay_rows"]) == (2, 3, 150)
    assert m["oracle.replay_s"] == 4.0
    assert (m["bidding.shade_rows"], m["bidding.fallback_calls"]) == (7, 1)
    assert m["cli.compare_children_s"] == 7.5
    assert m["cli.self_s"] == 2.5


def test_tracer_restores_the_package():
    import dualbid.oracle

    original = dualbid.oracle.replay
    tracer = Tracer()
    tracer.install()
    try:
        assert dualbid.oracle.replay is not original
    finally:
        tracer.uninstall()
    assert dualbid.oracle.replay is original


def _write(path: Path, rows) -> Path:
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def test_parse_back_accepts_clean_artifacts(tmp_path):
    assert parse_back(_write(tmp_path / "compare.csv", [["key", "value"], ["oracle_lambda", "1.5"], ["oracle_feasible", "True"]])) == []
    assert parse_back(_write(tmp_path / "roi.csv", [["placement_id", "marginal_roi"], ["feed", "0.9"], ["net", "inactive"]])) == []
    assert parse_back(_write(tmp_path / "trace.csv", [["interval", "placement_id", "bid"], ["0", "feed", "inf"]])) == []


def test_parse_back_flags_corrupted_artifacts(tmp_path):
    compare = [["key", "value"], ["oracle_lambda", "1.5"], ["oracle_lambda_weekend", "np.float64(0.876)"]]
    assert len(parse_back(_write(tmp_path / "compare.csv", compare))) == 1
    assert len(parse_back(_write(tmp_path / "metrics.csv", [["key", "value"], ["budget", "True"]]))) == 1
    assert len(parse_back(_write(tmp_path / "trace.csv", [["interval", "bid"], ["0", "1.0", "2.0"]]))) == 1
    assert len(parse_back(_write(tmp_path / "oracle_curves.csv", [["lambda", "spend"], ["1.0", " 2.0"]]))) == 1


def test_threshold_lambda_is_the_spend_jump():
    rng = np.random.default_rng(0)
    values = rng.lognormal(-1.0, 0.5, 400)
    prices = rng.lognormal(0.0, 1.0, 400)
    budget = 0.2 * prices.sum()

    def spend(lam):
        return prices[np.minimum(values / lam, 1e4) >= prices].sum()

    lam = threshold_lambda(values, prices, budget)
    assert spend(lam) > budget >= spend(lam * (1 + 1e-12))
    assert threshold_lambda(values, prices, 2 * prices.sum()) is None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_reaches_the_generated_scenario(name):
    from dualbid.scenario import parse_scenario

    workload = WORKLOADS[name]
    first, again, other = (workload.scenario(ROOT, s) for s in (1, 1, 2))
    assert first == again
    assert first["seed"] != other["seed"]
    seeds = workload.panel_seeds(1)
    assert seeds == list(range(seeds[0], seeds[0] + workload.panel))
    assert first["seed"] == seeds[0]
    assert parse_scenario(first).seed == seeds[0]
    shipped = json.loads((ROOT / "scenarios" / workload.source).read_text())
    if name == "mixed_fp":
        assert first["budget"] == shipped["budget"] * MIXED_SCALE
        assert "delivery_windows" not in first
    if name == "ftl_sp":
        assert (first["intervals"], first["agent"]["mode"]) == (FTL_HORIZON, "ftl")


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "stationary_sp", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_median_scaled_counts_slow_stretches_at_reference_speed():
    from calibration import REFERENCE_S
    from run import median_scaled

    ref = REFERENCE_S
    assert median_scaled([(1, 2.0, ref), (1, 1.0, ref), (2, 5.0, ref)]) == 2.0
    # a call made while the host ran at half speed counts at full speed
    assert median_scaled([(1, 4.0, 2 * ref), (1, 1.0, ref), (2, 3.0, ref)]) == 2.0


def test_reference_loop_restores_the_collector():
    import gc

    from calibration import reference_loop

    assert gc.isenabled()
    assert reference_loop() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        reference_loop()
        assert not gc.isenabled()
    finally:
        gc.enable()
