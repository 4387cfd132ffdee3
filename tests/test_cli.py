"""CLI contract tests: exit codes, file outputs, determinism, subcommands."""

import csv
import json
import math
from pathlib import Path

import pytest

from dualbid.cli import main
from helpers import stationary_scenario


def write_scenario(tmp_path: Path, cfg: dict, name: str = "scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def small_scenario(**overrides) -> dict:
    overrides.setdefault("intervals", 40)
    overrides.setdefault("budget", 20.0)
    cfg = stationary_scenario(**overrides)
    cfg["placements"][0]["intensity"] = 30.0
    return cfg


def read_kv(path: Path) -> dict:
    with path.open() as fh:
        return {row["key"]: row["value"] for row in csv.DictReader(fh)}


class TestRun:
    def test_successful_run(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, small_scenario())
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "spend=" in printed and "utilization=" in printed
        trace = (out / "trace.csv").read_text().splitlines()
        metrics = read_kv(out / "metrics.csv")
        assert len(trace) == int(float(metrics["n_opportunities"])) + 1
        assert (out / "config_resolved.json").exists()

    def test_refuses_overwrite_without_force(self, tmp_path):
        scenario = write_scenario(tmp_path, small_scenario())
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert main(["run", "--scenario", str(scenario), "--out", str(out), "--force"]) == 0

    def test_byte_identical_reruns(self, tmp_path):
        scenario = write_scenario(tmp_path, small_scenario())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", str(scenario), "--out", str(out1)]) == 0
        assert main(["run", "--scenario", str(scenario), "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_seed_override_changes_trace(self, tmp_path):
        scenario = write_scenario(tmp_path, small_scenario())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--scenario", str(scenario), "--out", str(out1)])
        main(["run", "--scenario", str(scenario), "--out", str(out2), "--seed", "99"])
        assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()

    def test_window_notes(self, tmp_path, capsys):
        cfg = small_scenario(
            delivery_windows=[{"id": "loose", "start": 0, "end": 10, "cap": 1000.0}],
            guarantee_windows=[{"id": "push", "start": 5, "end": 10, "floor": 1000.0}],
        )
        scenario = write_scenario(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
        notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note:")]
        delivered = float(read_kv(out / "metrics.csv")["window_push_value"])
        assert notes == [
            f"note: guarantee window 'push' delivered {delivered:.6g}, below its floor 1000"
        ]

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = small_scenario(
            delivery_windows=[
                {"id": "weekend", "start": 5, "end": 15, "cap": 2.0},
                {"id": "launch", "start": 10, "end": 20, "cap": 2.0},
            ]
        )
        scenario = write_scenario(tmp_path, cfg)
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "weekend" in err and "launch" in err

    @pytest.mark.parametrize(
        "constraint",
        [
            {"cost_target": 0.5},
            {"delivery_windows": [{"id": "weekend", "start": 5, "end": 15, "cap": 2.0}]},
            {"guarantee_windows": [{"id": "push", "start": 5, "end": 15, "floor": 1.0}]},
        ],
        ids=["cost_target", "delivery", "guarantee"],
    )
    def test_ftl_with_constraints_exits_2(self, tmp_path, capsys, constraint):
        # FTL re-solves the budget multiplier alone and would ignore them
        cfg = small_scenario(agent={"mode": "ftl"}, **constraint)
        cfg["agent"].pop("xi")
        scenario = write_scenario(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert "ftl" in capsys.readouterr().err
        assert not out.exists()
        del cfg[next(iter(constraint))]
        assert main(["run", "--scenario", str(write_scenario(tmp_path, cfg)), "--out", str(out)]) == 0

    def test_missing_scenario_exits_2(self, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


class TestCompare:
    def test_compare_outputs(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, small_scenario())
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario), "--out", str(out)])
        capsys.readouterr()
        assert main(["compare", "--run", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "value_ratio=" in printed and "baseline_value_ratio=" in printed
        compare = read_kv(out / "compare.csv")
        assert float(compare["value_ratio"]) > 0
        assert float(compare["baseline_value_ratio"]) > 0
        assert (out / "oracle_curves.csv").exists()
        assert (out / "roi.csv").exists()

    def test_oracle_initialized_agent_near_optimal(self, tmp_path):
        from dualbid.oracle import solve_lambda_star
        from dualbid.scenario import parse_scenario
        from dualbid.simulate import generate_stream, realized_log

        cfg = stationary_scenario(intervals=120, budget=60.0)
        scenario = parse_scenario(cfg)
        lam_star = solve_lambda_star(
            realized_log(scenario, generate_stream(scenario)), 60.0
        ).lam
        cfg["agent"]["initialization"] = {"lambda0": lam_star}
        scenario_path = write_scenario(tmp_path, cfg)
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_path), "--out", str(out)])
        assert main(["compare", "--run", str(out)]) == 0
        compare = read_kv(out / "compare.csv")
        assert float(compare["value_ratio"]) >= 0.95

    def test_frozen_overpriced_agent_underperforms(self, tmp_path):
        # multiplier pinned far above optimal: underspends and loses value
        cfg = small_scenario(
            agent={"initialization": {"lambda0": 250.0}, "xi": 1e-9}
        )
        scenario = write_scenario(tmp_path, cfg)
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario), "--out", str(out)])
        assert main(["compare", "--run", str(out)]) == 0
        compare = read_kv(out / "compare.csv")
        metrics = read_kv(out / "metrics.csv")
        assert float(compare["value_ratio"]) < 0.5
        assert float(metrics["budget_utilization"]) < 0.5

    def test_unconstrained_marker(self, tmp_path, capsys):
        cfg = small_scenario(budget=100000.0)
        scenario = write_scenario(tmp_path, cfg)
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario), "--out", str(out)])
        capsys.readouterr()
        assert main(["compare", "--run", str(out)]) == 0
        assert "unconstrained" in capsys.readouterr().out

    def test_shipped_constrained_scenario_round_trips(self, tmp_path, capsys):
        # the KKT path: first-price rows and a binding delivery window
        scenario = Path(__file__).resolve().parents[1] / "scenarios" / "mixed_constrained.json"
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
        metrics = read_kv(out / "metrics.csv")
        # the episode overshoots the weekend cap, and says so
        assert float(metrics["window_weekend_spend"]) > 12.0
        notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note:")]
        assert notes == [
            f"note: delivery window 'weekend' spent "
            f"{float(metrics['window_weekend_spend']):.6g}, above its cap 12"
        ]
        assert main(["compare", "--run", str(out)]) == 0
        assert "re-solved" not in capsys.readouterr().out
        compare = read_kv(out / "compare.csv")
        assert "oracle_lambda_weekend" in compare
        for key, value in compare.items():
            if value not in ("True", "False"):
                assert math.isfinite(float(value)), key
        budget = json.loads((out / "config_resolved.json").read_text())["budget"]
        assert float(compare["oracle_spend"]) <= budget
        assert 0 < float(compare["value_ratio"]) <= 1
        with (out / "oracle_curves.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 33
        assert all(float(v) >= 0 for row in rows for v in row.values())
        # the curves hold the KKT window multiplier, so at oracle_lambda they
        # spend what the KKT solution spends
        lam = float(compare["oracle_lambda"])
        nearest = min(rows, key=lambda row: abs(float(row["lambda"]) - lam))
        assert float(nearest["spend"]) == pytest.approx(float(compare["oracle_spend"]), rel=0.01)

    def test_missing_run_dir_exits_2(self, tmp_path):
        assert main(["compare", "--run", str(tmp_path / "missing")]) == 2

    def test_corrupt_metrics_schema_exits_2(self, tmp_path):
        scenario = write_scenario(tmp_path, small_scenario())
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario), "--out", str(out)])
        (out / "metrics.csv").write_text("a,b\n1,2\n")
        assert main(["compare", "--run", str(out), "--force"]) == 2


class TestColdstart:
    def test_worked_point(self, capsys):
        code = main(
            [
                "coldstart",
                "--budget", "824.3606353500641",
                "--count", "1000",
                "--bid-mu", "0", "--bid-sigma", "1",
                "--value-mu", "0", "--value-sigma", "1",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        lam = float(printed.split("lambda0=")[1].split()[0])
        assert lam == pytest.approx(math.exp(-1.0), rel=1e-5)

    def test_unconstrained_marker(self, capsys):
        code = main(
            [
                "coldstart",
                "--budget", "1e9",
                "--count", "10",
                "--bid-mu", "0", "--bid-sigma", "1",
                "--value-mu", "0", "--value-sigma", "1",
            ]
        )
        assert code == 0
        assert "unconstrained" in capsys.readouterr().out

    def test_sample_files_with_floor_warning(self, tmp_path, capsys):
        bids = tmp_path / "bids.txt"
        bids.write_text("\n".join(["2.718281828459045"] * 20))
        values = tmp_path / "values.txt"
        values.write_text("\n".join(str(0.2 + 0.01 * i) for i in range(20)))
        code = main(
            [
                "coldstart",
                "--budget", "5.0",
                "--count", "100",
                "--bid-samples", str(bids),
                "--value-samples", str(values),
            ]
        )
        assert code == 0
        assert "floored" in capsys.readouterr().out

    def test_grid_csv_written(self, tmp_path):
        out = tmp_path / "cold"
        code = main(
            [
                "coldstart",
                "--budget", "50.0",
                "--count", "1000",
                "--bid-mu", "0", "--bid-sigma", "1",
                "--value-mu", "-1", "--value-sigma", "0.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = (out / "coldstart_grid.csv").read_text().splitlines()
        assert rows[0] == "lambda,spend_per_opportunity"
        assert len(rows) == 82

    def test_multi_priors_json(self, tmp_path, capsys):
        from dualbid.coldstart import PlacementPriors, solve_lambda0_multi

        priors = [
            {"bid_mu": 0.0, "bid_sigma": 1.0, "value_mu": -1.0, "value_sigma": 0.5, "count": 700},
            {"bid_mu": 0.3, "bid_sigma": 0.8, "value_mu": -0.7, "value_sigma": 0.6, "count": 1300},
        ]
        path = tmp_path / "priors.json"
        path.write_text(json.dumps(priors))
        assert main(["coldstart", "--budget", "60.0", "--priors", str(path)]) == 0
        printed = capsys.readouterr().out
        lam = float(printed.split("lambda0=")[1].split()[0])
        expected = solve_lambda0_multi(
            [
                PlacementPriors(p["bid_mu"], p["bid_sigma"], p["value_mu"], p["value_sigma"], p["count"])
                for p in priors
            ],
            60.0,
        )
        assert lam == pytest.approx(expected.lam, rel=1e-5)

    def test_missing_priors_exits_2(self):
        assert main(["coldstart", "--budget", "10.0"]) == 2


class TestSweep:
    def test_isolated_seed_outputs(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, small_scenario())
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--scenario", str(scenario),
                "--out", str(out),
                "--sweep-seeds", "2",
                "--seed", "100",
                "--jobs", "2",
            ]
        )
        assert code == 0
        assert (out / "seed_100" / "trace.csv").exists()
        assert (out / "seed_101" / "trace.csv").exists()
        printed = capsys.readouterr().out
        assert "seed=100" in printed and "seed=101" in printed

    @pytest.mark.parametrize("flag", ["--jobs", "--sweep-seeds"])
    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_non_positive_counts_exit_2(self, tmp_path, monkeypatch, flag, bad):
        import dualbid.cli as cli

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        scenario = write_scenario(tmp_path, small_scenario())
        out = tmp_path / "sweep"
        argv = ["sweep", "--scenario", str(scenario), "--out", str(out)]
        argv += ["--sweep-seeds", "2", "--jobs", "2"]
        argv[argv.index(flag) + 1] = bad
        assert main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("jobs,cpus,seeds,workers", [(64, 8, 3, 3), (64, 2, 3, 2), (2, None, 3, 0)])
    def test_workers_capped(self, tmp_path, monkeypatch, jobs, cpus, seeds, workers):
        # the pool is replaced by an in-process stand-in, so no worker starts
        import dualbid.cli as cli

        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        scenario = write_scenario(tmp_path, small_scenario(intervals=5))
        argv = ["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "sweep")]
        argv += ["--sweep-seeds", str(seeds), "--jobs", str(jobs)]
        assert main(argv) == 0
        assert started == ([workers] if workers else [])
        assert len(list((tmp_path / "sweep").iterdir())) == seeds


def test_kv_csv_round_trips_numpy_scalars_and_bools(tmp_path):
    import numpy as np

    from dualbid.cli import _read_kv_csv, _write_kv_csv

    path = tmp_path / "kv.csv"
    lam = np.float64(0.8765432109876543)
    _write_kv_csv(path, [("oracle_lambda_weekend", lam), ("oracle_feasible", True)])
    rows = _read_kv_csv(path)
    assert float(rows["oracle_lambda_weekend"]) == float(lam)
    assert rows["oracle_feasible"] == "True"


def test_format_column_keeps_each_repr():
    import numpy as np

    from dualbid.cli import _format_column

    floats = np.array([0.0, -0.0, 0.1, 0.0, float("nan"), 1e16, -0.0])
    assert _format_column(floats) == [repr(x) for x in floats.tolist()]
    assert _format_column(np.array([3, 3, 12, -1])) == ["3", "3", "12", "-1"]


class TestOracleCommand:
    def _write_log(self, path: Path, realized: bool = True):
        rows = ["time,placement_id,value,auction_type,reserve,competitor_family,"
                "competitor_p1,competitor_p2,clearing_bid,windows"]
        clearing = ["0.5", "0.5", "0.5"] if realized else ["", "", ""]
        for i, (v, c) in enumerate(zip(("1.0", "2.0", "3.0"), clearing)):
            rows.append(f"{i},p,{v},second_price,0.0,uniform,0.0,1.0,{c},")
        path.write_text("\n".join(rows) + "\n")

    def test_realized_log(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        self._write_log(log)
        out = tmp_path / "oracle"
        assert main(["oracle", "--log", str(log), "--budget", "1.0", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "lambda=" in printed
        kv = read_kv(out / "oracle_multipliers.csv")
        assert float(kv["lambda"]) == pytest.approx(2.0, rel=1e-4)
        assert float(kv["value"]) == pytest.approx(5.0)
        assert (out / "oracle_curves.csv").exists()

    def test_cost_target_report(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        self._write_log(log, realized=False)
        out = tmp_path / "oracle"
        code = main(
            [
                "oracle",
                "--log", str(log),
                "--budget", "0.4",
                "--cost-target", "0.2",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "kkt residual report" in capsys.readouterr().out

    def test_schema_mismatch_exits_2(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("time,value\n0,1\n")
        assert main(["oracle", "--log", str(log), "--budget", "1.0", "--out", str(tmp_path / "o")]) == 2
