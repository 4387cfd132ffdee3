"""CLI contract tests: exit codes, file outputs, determinism, subcommands."""

import concurrent.futures
import contextlib
import csv
import hashlib
import io
import json
import math
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dualbid.cli import COMPARE_OUTPUTS, RUN_OUTPUTS, SUBCOMMANDS, CliError, build_parser, main
from dualbid.scenario import INTERVAL_LIMIT, OPPORTUNITY_LIMIT
from dualbid.simulate import STREAM_COLUMNS
from helpers import mixed_scenario, stationary_scenario


ROOT = Path(__file__).resolve().parents[1]
MIXED_CONSTRAINED = ROOT / "scenarios" / "mixed_constrained.json"
DROP = object()  # a field to delete


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

    # a seed keys a 64-bit Philox word: -1 or 2**64 + 41 would silently
    # alias 2**64 - 1 or 41
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 41])
    def test_seed_out_of_range_exits_2(self, tmp_path, capsys, seed):
        out = tmp_path / "o"
        scenario = write_scenario(tmp_path, small_scenario())
        assert main(["run", "--scenario", str(scenario), "--out", str(out), "--seed", str(seed)]) == 2
        assert f"--seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
        scenario = write_scenario(tmp_path, small_scenario(seed=seed))
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert f"invalid scenario: seed: must be in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        scenario = write_scenario(tmp_path, small_scenario(intervals=5, seed=2**64 - 1))
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 0

    def test_missing_scenario_exits_2(self, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "keys, value, field",
        [
            (("delivery_windows", 0, "start"), DROP, "delivery_windows[0].start"),
            (("delivery_windows", 0, "start"), "abc", "delivery_windows[0].start"),
            (("delivery_windows", 0, "cap"), None, "delivery_windows[0].cap"),
            (("delivery_windows",), 5, "delivery_windows"),
            (("guarantee_windows",), [{"id": "g", "start": 0, "end": 9}], "guarantee_windows[0].floor"),
            (("agent", "xi"), "abc", "agent.xi"),
            (("agent", "ftl_window"), "x", "agent.ftl_window"),
            (("budget",), "abc", "budget"),
            (("cost_target",), "abc", "cost_target"),
            (("seed",), "abc", "seed"),
            (("placements",), 3, "placements"),
            ((), ["a", "list"], "file"),
            # non-finite numbers
            (("placements", 0, "reserve"), math.nan, "placements[0]"),
            (("placements", 1, "competitor", "mu"), math.nan, "placements[1]"),
            (("placements", 0, "value", "sigma"), math.inf, "placements[0]"),
            (("placements", 0, "intensity"), math.nan, "placements[0]"),
            (("placements", 1, "drift", "bid_mu", 1, 1), math.nan, "placements[1].drift.bid_mu"),
            (("budget",), math.inf, "constraints"),
            (("delivery_windows", 0, "cap"), math.inf, "delivery_windows[0]"),
            (("agent", "xi"), math.inf, "agent"),
            (("agent", "constraint_xi"), math.nan, "agent"),
            (("agent", "bid_cap"), math.inf, "agent"),
            # numbers must be JSON numbers, integers integral ones
            (("intervals",), 220.9, "intervals"),
            (("seed",), "7", "seed"),
            (("budget",), True, "budget"),
            (("delivery_windows", 0, "end"), 150.5, "delivery_windows[0].end"),
            (("agent", "ftl_window"), True, "agent.ftl_window"),
            (("agent", "xi"), "2.0", "agent.xi"),
            (("placements", 0, "intensity"), "30", "placements[0].intensity"),
            (("placements", 0, "intensity"), [30.0, "30"], "placements[0].intensity[1]"),
            (("placements", 1, "competitor", "mu"), "-0.3", "placements[1].competitor.mu"),
            (("placements", 1, "drift", "bid_mu", 1, 0), 140.5, "placements[1].drift.bid_mu[1][0]"),
            (("placements", 1, "drift", "bid_mu", 1), 140, "placements[1].drift.bid_mu"),
            # a boolean must be a JSON boolean: "false" would turn MPC on
            (("agent", "mpc"), "false", "agent.mpc"),
            (("agent", "mpc"), 0, "agent.mpc"),
        ],
    )
    def test_malformed_field_exits_2_with_its_path(self, tmp_path, capsys, keys, value, field):
        cfg = json.loads(MIXED_CONSTRAINED.read_text())
        if keys:
            parent = cfg
            for key in keys[:-1]:
                parent = parent[key]
            if value is DROP:
                del parent[keys[-1]]
            else:
                parent[keys[-1]] = value
        else:
            cfg = value
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, cfg)), "--out", str(out)]) == 2
        assert f"invalid scenario: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "keys, value, field",
        [
            (("intervals",), INTERVAL_LIMIT + 1, "intervals"),
            # 200 intervals of 30 on placement 0, so the total passes the cap by 2
            (("placements", 1, "intensity"), (OPPORTUNITY_LIMIT - 5998) / 200,
             "placements[1].intensity"),  # fmt: skip
            # numpy's Poisson draw fails on it ("lam value too large")
            (("placements", 0, "intensity"), 1e300, "placements[0].intensity"),
        ],
    )
    def test_oversized_scenario_exits_2_before_the_stream(
        self, tmp_path, capsys, monkeypatch, keys, value, field
    ):
        cfg = json.loads(MIXED_CONSTRAINED.read_text())
        parent = cfg
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value

        def unreachable(*args, **kwargs):
            raise AssertionError("the episode started")

        monkeypatch.setattr("dualbid.cli.run_episode", unreachable)
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, cfg)), "--out", str(out)]) == 2
        assert f"invalid scenario: {field}: " in capsys.readouterr().err


# Importing scipy.special takes longer than a second-price episode runs, so
# no second-price run loads any of scipy.  Lognormal G/H curves and
# first-price shading load the one extension module that holds ndtr and
# log_ndtr (mechanisms._normal_ufuncs), when called, and nothing else of
# scipy; a later import of scipy.special reuses it.  The process pool
# (multiprocessing) is imported by a parallel sweep alone.
SCIPY_LOADS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import dualbid.cli
for argv in json.loads(sys.argv[2]):
    assert dualbid.cli.main(argv) == 0, argv
    print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
assert "concurrent.futures.process" not in sys.modules
import scipy.special
from dualbid.mechanisms import _normal_ufuncs
assert _normal_ufuncs() == (scipy.special.ndtr, scipy.special.log_ndtr)
"""


@pytest.fixture(scope="module")
def scipy_loads(tmp_path_factory):
    """The scipy modules loaded after each of two second-price runs and then
    a first-price run and its compare, in one fresh interpreter."""
    tmp_path = tmp_path_factory.mktemp("scipy_loads")
    stationary = ROOT / "scenarios" / "stationary.json"
    ftl = json.loads(stationary.read_text())
    ftl["agent"]["mode"] = "ftl"
    commands = [
        ["run", "--scenario", str(stationary), "--out", str(tmp_path / "run")],
        ["run", "--scenario", str(write_scenario(tmp_path, ftl, "ftl.json")), "--out",
         str(tmp_path / "ftl")],
        ["run", "--scenario", str(MIXED_CONSTRAINED), "--out", str(tmp_path / "mixed")],
        ["compare", "--run", str(tmp_path / "mixed")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_LOADS, str(ROOT / "src"), json.dumps(commands)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("run", "ftl", "mixed"):
        assert (tmp_path / name / "trace.csv").is_file()
    assert (tmp_path / "mixed" / "compare.csv").is_file()
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]


def test_second_price_runs_do_not_load_scipy(scipy_loads):
    assert scipy_loads[:2] == [[], []]


def test_first_price_run_and_compare_load_only_the_normal_ufuncs(scipy_loads):
    assert scipy_loads[2:] == [["scipy.special._special_ufuncs"]] * 2


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

    def test_first_price_reserve_round_trips(self, tmp_path):
        # rows priced at the reserve bid it exactly, so replayed spend rises
        # with the factor and the oracle solves
        cfg = mixed_scenario(intervals=60, budget=20.0)
        cfg["placements"][1]["reserve"] = 0.6
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, cfg)), "--out", str(out)]) == 0
        assert main(["compare", "--run", str(out)]) == 0
        assert float(read_kv(out / "compare.csv")["value_ratio"]) > 0.9

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
        # spend what the KKT solution spends; each point is read from the
        # log's RealizedSpend, the window's rows and the rest's (rows(mask))
        lam = float(compare["oracle_lambda"])
        nearest = min(rows, key=lambda row: abs(float(row["lambda"]) - lam))
        assert float(nearest["spend"]) == pytest.approx(float(compare["oracle_spend"]), rel=0.01)
        # the decomposed KKT solution (checked against an LP in
        # test_kkt_lp.py) reaches more value than the nested search did
        # (308.842), within the budget
        assert float(compare["oracle_value"]) >= 309.5
        # the KKT solution and everything read from it, byte for byte
        digests = {
            "compare.csv": "1000b7d7521e751d9905bd98835dde414d78bdaa27bf9432018daf76a7fa1194",
            "oracle_curves.csv": "0a4e09f4be15f16560f8a21fe2a444d915922e83eecf5804bd4f96fc5bfd7396",
            # each ROI is lambda* of the distributional log (test_oracle.TestMarginalRoi),
            # searched from the realized budget-only lambda*, which lies in a
            # reference bisection's spend band (test_oracle.TestMarginalRoiStart)
            "roi.csv": "03b613aac2b74b8af611e29ba1c253f4482c436ee194f77c31d18e1fc12593e2",
        }
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_shipped_stationary_compare_is_pinned(self, tmp_path):
        # the budget-only path: lambda*, the oracle curve read from the log's
        # RealizedSpend, the fixed-bid baseline and the ROI, byte for byte
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(ROOT / "scenarios" / "stationary.json"),
                     "--out", str(out)]) == 0  # fmt: skip
        assert main(["compare", "--run", str(out)]) == 0
        digests = {
            "compare.csv": "8edfd9b90abed7dcca3c5725f48bfe6906e5354955e2366e43f801dc30b9a5ea",
            "oracle_curves.csv": "29584b1a621d165291c5a1741868bb0aff06d0e4cacbf5a16e81ad809b063a06",
            "roi.csv": "187f23d1f2a071c8e13a99e88ddefcfa97f1b2369403610e46d995b1dac2e7f3",
        }
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_shipped_guaranteed_scenario_round_trips(self, tmp_path, capsys):
        # a cost target and a guarantee window: both thresholds bind, each
        # read from one scan of sorted win limits
        from dualbid.oracle import KKT_REL_TOL

        out = tmp_path / "out"
        assert main(["run", "--scenario", str(ROOT / "scenarios" / "guaranteed.json"),
                     "--out", str(out)]) == 0  # fmt: skip
        capsys.readouterr()
        assert main(["compare", "--run", str(out)]) == 0
        printed = capsys.readouterr().out
        compare = read_kv(out / "compare.csv")
        assert compare["oracle_feasible"] == "True"
        for key, value in compare.items():
            if value not in ("True", "False"):
                assert math.isfinite(float(value)), key
        residuals = {k[len("kkt_residual_"):]: float(v) for k, v in compare.items()
                     if k.startswith("kkt_residual_")}  # fmt: skip
        assert {"budget", "cost_target", "guarantee_launch"} <= set(residuals)
        for name, residual in residuals.items():
            assert residual <= KKT_REL_TOL or f"note: {name} residual" in printed, name
        assert float(compare["oracle_mu"]) > 0 and float(compare["oracle_mu_launch"]) > 0

    def test_two_delivery_windows(self, tmp_path, capsys):
        cfg = small_scenario(
            delivery_windows=[
                {"id": "a", "start": 5, "end": 15, "cap": 2.0},
                {"id": "b", "start": 20, "end": 30, "cap": 2.5},
            ]
        )
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, cfg)), "--out", str(out)]) == 0
        assert main(["compare", "--run", str(out)]) == 0
        compare = read_kv(out / "compare.csv")
        for key, value in compare.items():
            if value not in ("True", "False"):
                assert math.isfinite(float(value)), key
        assert compare["oracle_feasible"] == "True"
        assert {"oracle_lambda_a", "oracle_lambda_b"} <= set(compare)

    def test_disjoint_guarantee_windows_each_bind(self, tmp_path, capsys):
        # two guarantee windows on records of their own: each is one
        # threshold on its rows' factor, and both floors bind
        cfg = small_scenario(
            guarantee_windows=[
                {"id": "g1", "start": 5, "end": 15, "floor": 20.0},
                {"id": "g2", "start": 20, "end": 30, "floor": 20.0},
            ]
        )
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, cfg)), "--out", str(out)]) == 0
        assert main(["compare", "--run", str(out)]) == 0
        compare = read_kv(out / "compare.csv")
        assert compare["oracle_feasible"] == "True"
        for w in ("g1", "g2"):
            assert float(compare[f"oracle_mu_{w}"]) > 0
            assert float(compare[f"kkt_residual_guarantee_{w}"]) < 0.05

    def test_guarantee_windows_on_delivery_records_exit_2_before_the_stream(
        self, tmp_path, capsys, monkeypatch
    ):
        # each guarantee window overlaps a delivery window: the solve would
        # need nested searches, so compare refuses before any work
        cfg = small_scenario(
            delivery_windows=[
                {"id": "d1", "start": 0, "end": 10, "cap": 5.0},
                {"id": "d2", "start": 20, "end": 30, "cap": 5.0},
            ],
            guarantee_windows=[
                {"id": "g1", "start": 5, "end": 15, "floor": 1.0},
                {"id": "g2", "start": 25, "end": 35, "floor": 1.0},
            ],
        )
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, cfg)), "--out", str(out)]) == 0
        capsys.readouterr()

        def unreachable(*args, **kwargs):
            raise AssertionError("the stream was generated or read")

        monkeypatch.setattr("dualbid.cli.generate_stream", unreachable)
        monkeypatch.setattr("dualbid.cli.load_stream", unreachable)
        assert main(["compare", "--run", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'g1'" in err and "'g2'" in err
        assert not (out / "compare.csv").exists()

    @pytest.mark.parametrize(
        "cfg, zero",
        [
            pytest.param(None, False, id="stationary"),
            # budget only, with a first-price placement
            pytest.param(mixed_scenario(intervals=60, budget=30.0), False, id="first_price"),
            # the budget-only lambda* binds, the KKT solution binds the cost
            # target instead
            pytest.param(
                mixed_scenario(
                    intervals=120,
                    cost_target=0.25,
                    delivery_windows=[{"id": "w", "start": 30, "end": 80, "cap": 8.0}],
                    guarantee_windows=[{"id": "g", "start": 60, "end": 100, "floor": 15.0}],
                    agent={"constraint_xi": 5.0},
                ),
                False,
                id="constrained",
            ),
            # the budget-only lambda* does not bind: every ROI is 0.0
            pytest.param(small_scenario(budget=1e4), True, id="budget_unconstrained"),
        ],
    )
    def test_run_roi_matches_compare_roi(self, tmp_path, cfg, zero):
        # run --roi and compare solve one budget-only marginal_roi on one
        # distributional log, whatever the KKT solution binds
        out = tmp_path / "out"
        if cfg is None:
            scenario = Path(__file__).resolve().parents[1] / "scenarios" / "stationary.json"
            run = ["run", "--scenario", str(scenario), "--out", str(out), "--seed", "3"]
        else:
            run = ["run", "--scenario", str(write_scenario(tmp_path, cfg)), "--out", str(out)]
        assert main(run + ["--roi"]) == 0
        assert main(["compare", "--run", str(out)]) == 0
        metrics = read_kv(out / "metrics.csv")
        with (out / "roi.csv").open() as fh:
            roi = {row["placement_id"]: row["marginal_roi"] for row in csv.DictReader(fh)}
        resolved = json.loads((out / "config_resolved.json").read_text())
        assert list(roi) == sorted(p["id"] for p in resolved["placements"])
        for placement, value in roi.items():
            assert float(metrics[f"placement_{placement}_roi"]) == float(value)
            assert (float(value) == 0.0) == zero

    def test_missing_run_dir_exits_2(self, tmp_path):
        assert main(["compare", "--run", str(tmp_path / "missing")]) == 2

    def test_corrupt_metrics_schema_exits_2(self, tmp_path):
        scenario = write_scenario(tmp_path, small_scenario())
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario), "--out", str(out)])
        (out / "metrics.csv").write_text("a,b\n1,2\n")
        assert main(["compare", "--run", str(out), "--force"]) == 2

    @pytest.mark.parametrize(
        "key, text",
        [
            ("total_value", "abc"),
            ("total_value", "nan"),
            ("total_spend", "inf"),
            ("total_spend", "-inf"),
            ("total_spend", ""),
            ("total_value", DROP),
        ],
    )
    def test_bad_metric_exits_2_naming_the_key(self, tmp_path, capsys, key, text):
        scenario = write_scenario(tmp_path, small_scenario())
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario), "--out", str(out)])
        metrics = read_kv(out / "metrics.csv")
        if text is DROP:
            del metrics[key]
        else:
            metrics[key] = text
        rows = "".join(f"{k},{v}\n" for k, v in metrics.items())
        (out / "metrics.csv").write_text("key,value\n" + rows)
        capsys.readouterr()
        assert main(["compare", "--run", str(out), "--force"]) == 2
        assert key in capsys.readouterr().err
        assert not (out / "compare.csv").exists()


def _stream_columns(path: Path) -> dict[str, np.ndarray]:
    with path.open("rb") as fh:
        return {name: np.load(fh) for name in STREAM_COLUMNS}


def _records(*columns) -> bytes:
    """The columns as consecutive .npy records, as save_stream writes them."""
    buf = io.BytesIO()
    for column in columns:
        np.save(buf, column)
    return buf.getvalue()


def _changed(name, change):
    """A stream file whose column name is change(column)."""
    return lambda c: _records(*(change(x) if n == name else x for n, x in c.items()))


def _set(name, row, x):
    def change(column):
        column[row] = x
        return column

    return _changed(name, change)


def _huge_jitter(c) -> bytes:
    """A jitter header that states 10**12 rows, before the jitter's data."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": (10**12,)}
    )
    rest = _records(*list(c.values())[1:])
    return _records(c["interval"]) + header.getvalue() + rest[rest.index(b"\n") + 1 :]


def _version_2(c) -> bytes:
    """The columns as .npy records of format version 2.0."""
    buf = io.BytesIO()
    for column in c.values():
        np.lib.format.write_array(buf, column, version=(2, 0))
    return buf.getvalue()


# each malformed stream.npy: a function of the saved columns giving the
# file's bytes, and a part of the error
MALFORMED_STREAMS = {
    "five_records": (lambda c: _records(*list(c.values())[:5]), "result_draw: EOF"),
    "seven_records": (lambda c: _records(*c.values(), c["jitter"]), "bytes after the last"),
    "trailing_byte": (lambda c: _records(*c.values()) + b"\0", "1 bytes after the last record"),
    "not_npy": (lambda c: b"interval,jitter\n0,0.5\n", "interval: the magic string"),
    "npy_version_2": (_version_2, "interval: unsupported .npy format version (2, 0)"),
    "float_intervals": (_changed("interval", np.float64), "interval: expected a 1-D int64"),
    "float32_values": (_changed("value", np.float32), "value: expected a 1-D float64"),
    "object_column": (_changed("jitter", lambda x: x.astype(object)), "jitter: expected a 1-D"),
    "two_dim": (_changed("jitter", lambda x: x.reshape(1, -1)), "jitter: expected a 1-D"),
    "huge_header": (_huge_jitter, "jitter: 1000000000000 rows, more than the file holds"),
    "lengths_differ": (_changed("jitter", lambda x: x[:-1]), "records of different lengths"),
    "row_count": (
        lambda c: _records(*(x[:-1] for x in c.values())),
        "rows, but metrics.csv n_opportunities is",
    ),
    "negative_interval": (_set("interval", 0, -1), "interval: row 0: -1 outside [0, 40)"),
    "interval_past_horizon": (_set("interval", -1, 40), "40 outside [0, 40)"),
    "intervals_decrease": (_set("interval", 0, 39), "interval: row 1: 0 after 39"),
    "placement_code": (_set("placement", 3, 1), "placement: row 3: 1 outside [0, 1)"),
    "negative_placement": (_set("placement", 0, -1), "placement: row 0: -1 outside"),
    "jitter_one": (_set("jitter", 2, 1.0), "jitter: row 2: 1.0 outside [0.0, 1.0)"),
    "negative_jitter": (_set("jitter", 2, -0.0625), "jitter: row 2: -0.0625 outside"),
    "nan_result_draw": (_set("result_draw", 5, math.nan), "result_draw: row 5: nan outside"),
    "infinite_value": (_set("value", 1, math.inf), "value: row 1: inf outside [0.0, inf)"),
    "negative_value": (_set("value", 1, -1.0), "value: row 1: -1.0 outside"),
    "nan_clearing_bid": (_set("clearing_bid", 4, math.nan), "clearing_bid: row 4: nan"),
    "negative_clearing_bid": (_set("clearing_bid", 4, -math.inf), "clearing_bid: row 4: -inf"),
}


class TestStreamArtifact:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("run")
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, small_scenario())),
                     "--out", str(out)]) == 0  # fmt: skip
        return out

    def test_run_and_compare_write_exactly_their_outputs(self, tmp_path, run_dir):
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(RUN_OUTPUTS)
        assert "stream.npy" in RUN_OUTPUTS  # so --force and sweep's check cover it
        out = tmp_path / "cmp"
        assert main(["compare", "--run", str(run_dir), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(COMPARE_OUTPUTS)
        assert main(["compare", "--run", str(run_dir), "--out", str(run_dir)]) == 0
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(RUN_OUTPUTS + COMPARE_OUTPUTS)
        for name in COMPARE_OUTPUTS:
            assert (run_dir / name).read_bytes() == (out / name).read_bytes()
            (run_dir / name).unlink()

    def test_an_existing_stream_is_not_overwritten(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "stream.npy").write_bytes(b"kept")
        scenario = write_scenario(tmp_path, small_scenario(intervals=5))
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert str(out / "stream.npy") in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["stream.npy"]

    def test_compare_judges_the_saved_auctions_whatever_the_seed(self, tmp_path, run_dir):
        # the stream is the run's: a seed edited after the run draws nothing new
        copy = tmp_path / "copy"
        copy.mkdir()
        for name in RUN_OUTPUTS:
            (copy / name).write_bytes((run_dir / name).read_bytes())
        assert main(["compare", "--run", str(copy), "--out", str(tmp_path / "a")]) == 0
        config = json.loads((copy / "config_resolved.json").read_text())
        config["seed"] += 1
        (copy / "config_resolved.json").write_text(json.dumps(config))
        assert main(["compare", "--run", str(copy), "--out", str(tmp_path / "b")]) == 0
        for name in COMPARE_OUTPUTS:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_count_batches_see_every_row(self, tmp_path):
        # the episode counts every row of the stream, after the budget too
        cfg = mixed_scenario(intervals=30, budget=4.0, agent={"batch": 7})
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, cfg)), "--out", str(out)]) == 0
        assert float(read_kv(out / "metrics.csv")["budget_utilization"]) > 0.9
        assert main(["compare", "--run", str(out)]) == 0

    @pytest.mark.parametrize("case", list(MALFORMED_STREAMS))
    def test_malformed_stream_exits_2_naming_it(self, tmp_path, capsys, run_dir, case):
        make, message = MALFORMED_STREAMS[case]
        out = tmp_path / "out"
        out.mkdir()
        for name in RUN_OUTPUTS:
            (out / name).write_bytes((run_dir / name).read_bytes())
        stream = out / "stream.npy"
        stream.write_bytes(make(_stream_columns(stream)))
        capsys.readouterr()
        assert main(["compare", "--run", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stream}: ") and message in err, err
        assert not any((out / name).exists() for name in COMPARE_OUTPUTS)


# how each input is made unreadable, and the start of the reason given
UNREADABLE = {
    "missing": "[Errno 2] No such file or directory",
    "directory": "[Errno 21] Is a directory",
    "not_utf8": "'utf-8' codec can't decode",
}


@pytest.mark.parametrize("how", list(UNREADABLE))
@pytest.mark.parametrize(
    "target", ["run", "sweep", "config_resolved.json", "metrics.csv", "stream.npy"]
)
def test_unreadable_input_exits_2_naming_it(tmp_path, capsys, target, how):
    """--scenario of run and sweep, and each file compare reads from the run
    directory: missing, a directory, or not UTF-8, each exits 2 with
    `error: <flag or file>: <reason>` (a missing run artifact says so) and
    writes nothing."""
    scenario, out = tmp_path / "scenario.json", tmp_path / "out"
    scenario.write_text(json.dumps(small_scenario(intervals=5)))
    if target in ("run", "sweep"):
        path, name = scenario, "--scenario"
        argv = [target, "--scenario", str(scenario), "--out", str(out)]
        argv += ["--sweep-seeds", "2", "--jobs", "1"] if target == "sweep" else []
    else:
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
        path = name = out / target
        argv = ["compare", "--run", str(out)]
    path.unlink()
    if how == "directory":
        path.mkdir()
    elif how == "not_utf8":
        path.write_bytes(b'{"seed": 1, "\xff": 2}\n')
    listing = lambda: sorted(p.name for p in out.iterdir()) if out.exists() else None
    before = listing()
    capsys.readouterr()
    assert main(argv) == 2
    assert listing() == before
    err = capsys.readouterr().err
    if how == "missing" and target not in ("run", "sweep"):
        assert err == f"error: missing run artifact {path}\n"
    elif how == "not_utf8" and target == "stream.npy":
        assert err.startswith(f"error: {name}: interval: the magic string is not correct")
    else:
        assert err.startswith(f"error: {name}: {UNREADABLE[how]}"), err


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

    @pytest.mark.parametrize("flag", ["--bid-samples", "--value-samples", "--priors"])
    @pytest.mark.parametrize(
        "content, reason",
        [(None, "[Errno 2] No such file or directory: "), (b"1.0\n\xff\n", "'utf-8' codec")],
        ids=["missing", "not_utf8"],
    )
    def test_unreadable_input_file_exits_2_naming_its_flag(
        self, tmp_path, capsys, flag, content, reason
    ):
        samples, unreadable = tmp_path / "samples.txt", tmp_path / "unreadable"
        samples.write_text("1.0\n2.0\n")
        if content is not None:
            unreadable.write_bytes(content)
        files = {} if flag == "--priors" else {"--bid-samples": samples, "--value-samples": samples}
        files[flag] = unreadable
        args = ["coldstart", "--budget", "5.0", "--count", "100"]
        assert main(args + [x for kv in files.items() for x in map(str, kv)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: {reason}")

    @pytest.mark.parametrize("text", ["inf", "nan", "-inf"])
    @pytest.mark.parametrize("flag", ["--bid-samples", "--value-samples"])
    def test_non_finite_sample_line_exits_2(self, tmp_path, capsys, flag, text):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("1.0\n2.0\n")
        bad.write_text(f"1.0\n\n{text}\n2.0\n")
        files = {"--bid-samples": good, "--value-samples": good, flag: bad}
        args = ["coldstart", "--budget", "5.0", "--count", "100"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the exit
            assert main(args + [x for kv in files.items() for x in map(str, kv)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}:3: not a finite number: {text!r}\n"
        assert captured.out == ""

    def test_bid_samples_without_value_samples_exit_2(self, tmp_path, capsys):
        bids = tmp_path / "bids.txt"
        bids.write_text("1.0\n2.0\n")
        args = ["coldstart", "--budget", "5.0", "--count", "100", "--bid-samples", str(bids)]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: need both --bid-samples and --value-samples\n"

    def test_sample_files_without_count_exit_2(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        samples.write_text("1.0\n2.0\n")
        files = ["--bid-samples", str(samples), "--value-samples", str(samples)]
        assert main(["coldstart", "--budget", "5.0", *files]) == 2
        assert capsys.readouterr().err == "error: --count is required with sample files\n"

    def test_sample_line_that_is_not_a_number_exits_2(self, tmp_path, capsys):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("1.0\n2.0\n")
        bad.write_text("1.0\n\n1,5\n")
        files = ["--bid-samples", str(good), "--value-samples", str(bad)]
        assert main(["coldstart", "--budget", "5.0", "--count", "100", *files]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}:3: not a number: '1,5'\n"
        assert captured.out == ""

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

    PRIOR = {"bid_mu": 0.0, "bid_sigma": 1.0, "value_mu": -1.0, "value_sigma": 0.5, "count": 700}

    @pytest.mark.parametrize(
        "flags, priors, field",
        [
            ({"--count": "inf"}, None, "count"),
            ({"--count": "nan"}, None, "count"),
            ({"--budget": "inf"}, None, "budget"),
            ({"--budget": "nan"}, None, "budget"),
            ({"--bid-mu": "nan"}, None, "bid_mu"),
            ({"--value-sigma": "inf"}, None, "value_sigma"),
            ({}, {"bid_mu": 0.0}, "--priors"),
            ({}, "priors", "--priors"),
            ({}, [PRIOR, 3], "priors[1]"),
            ({}, [{**PRIOR, "bid_mu": "x"}], "priors[0].bid_mu"),
            ({}, [{**PRIOR, "count": True}], "priors[0].count"),
            ({}, [{**PRIOR, "value_mu": None}], "priors[0].value_mu"),
            ({}, [PRIOR, {**PRIOR, "bid_sigma": math.nan}], "bid_sigma"),
            ({"--budget": "inf"}, [PRIOR, PRIOR], "budget"),
        ],
        ids=[
            "count_inf", "count_nan", "budget_inf", "budget_nan", "bid_mu_nan", "value_sigma_inf",
            "priors_object", "priors_string", "entry_number", "field_string", "field_bool",
            "field_null", "field_nan", "two_placements_budget_inf",
        ],
    )
    def test_invalid_input_exits_2_naming_the_field(self, tmp_path, capsys, flags, priors, field):
        args = {"--budget": "60.0"}
        if priors is None:
            args.update({"--count": "1000", "--bid-mu": "0", "--bid-sigma": "1",
                         "--value-mu": "0", "--value-sigma": "1"})
        else:
            path = tmp_path / "priors.json"
            path.write_text(json.dumps(priors))
            args["--priors"] = str(path)
        args.update(flags)
        assert main(["coldstart", *(x for kv in args.items() for x in kv)]) == 2
        err = capsys.readouterr().err
        assert field in err and "invalid coldstart input" in err


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

    def test_existing_outputs_exit_2_before_any_worker(self, tmp_path, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        scenario = write_scenario(tmp_path, small_scenario(intervals=5))
        out = tmp_path / "sweep"
        argv = ["sweep", "--scenario", str(scenario), "--out", str(out), "--seed", "100"]
        argv += ["--sweep-seeds", "2", "--jobs", "2"]
        assert main(argv[:-4] + ["--sweep-seeds", "1"]) == 0  # seed_100 only
        capsys.readouterr()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "refusing to overwrite" in err and str(out / "seed_100" / "trace.csv") in err
        assert not (out / "seed_101").exists()

    def test_worker_failure_keeps_its_message_and_code(self, tmp_path, capsys):
        # cold start needs a lognormal competing-bid model: each episode
        # fails in its worker, after the outputs were checked
        cfg = small_scenario(intervals=5)
        cfg["placements"][0]["competitor"] = {"family": "uniform", "lo": 0.0, "hi": 1.0}
        argv = ["sweep", "--scenario", str(write_scenario(tmp_path, cfg))]
        argv += ["--out", str(tmp_path / "sweep"), "--sweep-seeds", "2", "--jobs", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "episode failed" in err and "cold start needs a lognormal" in err
        error = pickle.loads(pickle.dumps(CliError("episode failed: x", 1)))
        assert (str(error), error.code) == ("episode failed: x", 1)

    @pytest.mark.parametrize("flag", ["--jobs", "--sweep-seeds"])
    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_non_positive_counts_exit_2(self, tmp_path, monkeypatch, flag, bad):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        scenario = write_scenario(tmp_path, small_scenario())
        out = tmp_path / "sweep"
        argv = ["sweep", "--scenario", str(scenario), "--out", str(out)]
        argv += ["--sweep-seeds", "2", "--jobs", "2"]
        argv[argv.index(flag) + 1] = bad
        assert main(argv) == 2
        assert not out.exists()

    def test_sweep_seeds_past_their_limit_exit_2(self, tmp_path, monkeypatch, capsys):
        import dualbid.cli as cli

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode was started")

        monkeypatch.setattr(cli, "cmd_run", no_episode)
        scenario = write_scenario(tmp_path, small_scenario(intervals=5))
        out = tmp_path / "sweep"
        argv = ["sweep", "--scenario", str(scenario), "--out", str(out), "--jobs", "1"]
        assert main(argv + ["--sweep-seeds", str(cli.SWEEP_SEEDS_LIMIT + 1)]) == 2
        err = capsys.readouterr().err
        assert f"--sweep-seeds must be <= {cli.SWEEP_SEEDS_LIMIT}" in err
        assert not out.exists()

    @pytest.mark.parametrize("from_file", [False, True], ids=["flag", "scenario"])
    def test_seeds_past_the_limit_exit_2(self, tmp_path, capsys, from_file):
        base = 2**64 - 2
        cfg = small_scenario(intervals=5, seed=base if from_file else 7)
        argv = ["sweep", "--scenario", str(write_scenario(tmp_path, cfg)), "--jobs", "1"]
        argv += [] if from_file else ["--seed", str(base)]
        out = tmp_path / "sweep"
        assert main(argv + ["--out", str(out), "--sweep-seeds", "3"]) == 2
        assert f"got {2**64}" in capsys.readouterr().err
        assert not out.exists()
        # the last two seeds below the limit run
        assert main(argv + ["--out", str(out), "--sweep-seeds", "2"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [f"seed_{base}", f"seed_{base + 1}"]

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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
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

    nan, inf = float("nan"), float("inf")
    # mostly unique: formatted row by row
    floats = np.array([0.0, -0.0, 0.1, 0.0, nan, 1e16, -0.0])
    assert _format_column(floats) == [repr(x) for x in floats.tolist()]
    assert _format_column(np.array([3, 3, 12, -1])) == ["3", "3", "12", "-1"]
    # runs: one string per run, with 0.0 and -0.0 adjacent runs of their own
    steps = np.repeat([0.0, -0.0, 0.0, nan, inf, 0.1, -inf], [5, 3, 1, 4, 2, 6, 3])
    assert _format_column(steps) == [repr(x) for x in steps.tolist()]
    ints = np.repeat([0, 1, -2], [4, 1, 3])
    assert _format_column(ints) == [str(x) for x in ints.tolist()]
    assert _format_column(np.array([-0.0])) == ["-0.0"]
    assert _format_column(np.array([])) == []


def _trace(n: int, placement_ids: tuple[str, ...]):
    """A Trace whose step columns run for n/7 rows each, with
    second-price rows (bid equal to adjusted_value bit for bit) and
    first-price rows (bid shaded below it)."""
    import numpy as np

    from dualbid.simulate import TRACE_COLUMNS, Trace

    rng = np.random.default_rng(0)
    interval = np.arange(n) * 7 // max(n, 1)
    won = rng.random(n) < 0.3
    value = rng.lognormal(-1.0, 0.5, n)
    lam = np.array([1.5, 0.0, -0.0, 2.0, float("nan"), 0.7, 0.0])[interval]
    adjusted = value / np.where(lam > 0, lam, 1.0)
    first_price = rng.random(n) < 0.4
    bid = np.where(first_price, adjusted * 0.7, adjusted)
    cost = np.where(won, np.where(first_price, bid, value * 0.3), 0.0)
    columns = dict(
        interval=interval,
        opportunity_index=np.arange(n),
        placement_id=rng.integers(0, len(placement_ids), n),
        value=value,
        adjusted_value=adjusted,
        bid=bid,
        won=won,
        cost=cost,
        lambda_tilde=lam,
        mu=np.where(interval % 2 == 0, 0.0, -0.0),
        lambda_k=np.full(n, float("inf")),
        mu_k=np.zeros(n),
        cum_spend=np.cumsum(cost),
        cum_value=np.cumsum(np.where(won, value, 0.0)),
    )
    assert tuple(columns) == TRACE_COLUMNS
    return Trace(placement_ids, **columns)


def _csv_reference(path: Path, trace) -> None:
    """What csv.writer writes for the trace's rows: floats as repr, won as 1/0."""
    from dualbid.simulate import TRACE_COLUMNS

    def field(x):
        return int(x) if isinstance(x, bool) else repr(x) if isinstance(x, float) else x

    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows([field(x) for x in row] for row in trace)


@pytest.mark.parametrize("n", [2500, 300, 1, 0])
def test_write_trace_matches_csv_writer(tmp_path, n):
    from dualbid.cli import _write_trace

    # 2,500 rows: runs of about 360 rows cross each 1024-row block boundary
    trace = _trace(n, ("p", 'a,"q" id'))
    if n:
        trace.value[n // 2] = float("nan")
        trace.adjusted_value[n // 2] = trace.bid[n // 2] = float("nan")
        trace.value[-1] = trace.adjusted_value[-1] = trace.bid[-1] = float("inf")
        # equal as floats but not bit for bit: bid keeps its own repr
        trace.adjusted_value[0], trace.bid[0] = 0.0, -0.0
    _write_trace(tmp_path / "trace.csv", trace)
    _csv_reference(tmp_path / "reference.csv", trace)
    written = (tmp_path / "trace.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.count(b"\r\n") == n + 1  # an empty trace is the header alone
    assert (b'"a,""q"" id"' in written) == (1 in trace.placement_id)


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

    def test_windows_file(self, tmp_path, capsys):
        # the first two records are in delivery window "d", the last two in
        # guarantee window "g": the cap binds (the record worth 1 is lost)
        # and the floor is slack
        log = tmp_path / "log.csv"
        rows = ["time,placement_id,value,auction_type,reserve,competitor_family,"
                "competitor_p1,competitor_p2,clearing_bid,windows"]
        for i, w in enumerate(("d", "d", "g", "g")):
            rows.append(f"{i},p,{i + 1}.0,second_price,0.0,uniform,0.0,1.0,0.5,{w}")
        log.write_text("\n".join(rows) + "\n")
        windows = tmp_path / "windows.json"
        windows.write_text(
            json.dumps(
                {
                    "delivery_windows": [{"id": "d", "start": 0, "end": 1, "cap": 0.6}],
                    "guarantee_windows": [{"id": "g", "start": 0, "end": 1, "floor": 1.0}],
                }
            )
        )
        out = tmp_path / "oracle"
        code = main(
            [
                "oracle",
                "--log", str(log),
                "--budget", "2.0",
                "--windows", str(windows),
                "--out", str(out),
            ]
        )
        assert code == 0
        kv = read_kv(out / "oracle_multipliers.csv")
        assert float(kv["lambda_d"]) > 0
        assert float(kv["mu_g"]) == 0.0
        assert kv["feasible"] == "True"
        assert float(kv["spend"]) == 1.5

    def test_guarantee_windows_on_delivery_records_exit_2_before_replay(
        self, tmp_path, capsys, monkeypatch
    ):
        # records 0 and 1 are in delivery and guarantee windows at once, in
        # two guarantee windows: refused before the log is replayed
        log = tmp_path / "log.csv"
        rows = ["time,placement_id,value,auction_type,reserve,competitor_family,"
                "competitor_p1,competitor_p2,clearing_bid,windows"]
        for i, w in enumerate(("d;g1", "d;g2", "")):
            rows.append(f"{i},p,{i + 1}.0,second_price,0.0,uniform,0.0,1.0,0.5,{w}")
        log.write_text("\n".join(rows) + "\n")
        windows = tmp_path / "windows.json"
        windows.write_text(
            json.dumps(
                {
                    "delivery_windows": [{"id": "d", "start": 0, "end": 2, "cap": 1.0}],
                    "guarantee_windows": [
                        {"id": "g1", "start": 0, "end": 1, "floor": 1.0},
                        {"id": "g2", "start": 1, "end": 2, "floor": 1.0},
                    ],
                }
            )
        )

        def unreachable(*args, **kwargs):
            raise AssertionError("the log was replayed")

        monkeypatch.setattr("dualbid.oracle.replay", unreachable)
        out = tmp_path / "oracle"
        args = ["oracle", "--log", str(log), "--budget", "1.0", "--windows", str(windows)]
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'g1'" in err and "'g2'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "windows, field",
        [
            ([{"id": "d", "start": 0, "end": 1, "cap": 1.0}], "file"),
            ({"delivery_windows": [{"id": "d", "start": 0, "end": 1}]}, "delivery_windows[0].cap"),
            ({"guarantee_windows": [{"id": "g", "start": "x", "end": 1, "floor": 1.0}]},
             "guarantee_windows[0].start"),
            ({"guarantee_windows": [{"id": "g", "start": 0, "end": 1, "floor": math.nan}]},
             "guarantee_windows[0]"),
        ],
    )
    def test_bad_windows_file_exits_2(self, tmp_path, capsys, windows, field):
        log = tmp_path / "log.csv"
        self._write_log(log)
        path = tmp_path / "windows.json"
        path.write_text(json.dumps(windows))
        args = ["oracle", "--log", str(log), "--budget", "1.0", "--windows", str(path)]
        assert main(args + ["--out", str(tmp_path / "o")]) == 2
        assert f"invalid windows file: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "column, text",
        [
            ("value", "nan"),
            ("value", "inf"),
            ("time", "nan"),
            ("reserve", "nan"),
            ("competitor_p1", "nan"),
            ("clearing_bid", "inf"),
        ],
    )
    def test_non_finite_log_field_exits_2(self, tmp_path, capsys, column, text):
        columns = ["time", "placement_id", "value", "auction_type", "reserve",
                   "competitor_family", "competitor_p1", "competitor_p2", "clearing_bid",
                   "windows"]
        row = dict(zip(columns, ["0", "p", "1.0", "second_price", "0.0", "lognormal", "0.0",
                                 "1.0", "0.5", ""]))
        row[column] = text
        log = tmp_path / "log.csv"
        log.write_text(",".join(columns) + "\n" + ",".join(row.values()) + "\n")
        args = ["oracle", "--log", str(log), "--budget", "1.0", "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert "row 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--log", "--windows"])
    @pytest.mark.parametrize(
        "name, reason",
        [("missing.csv", "[Errno 2] No such file"), ("", "[Errno 21] Is a directory"),
         ("latin1.csv", "'utf-8' codec")],
    )
    def test_unreadable_log_exits_2_naming_its_flag(self, tmp_path, capsys, name, reason, flag):
        # an unreadable --log, or --windows next to a readable log
        path = tmp_path / name
        if name == "latin1.csv":
            self._write_log(path)
            path.write_bytes(path.read_bytes().replace(b",p,", b",p\xe9,"))
        args = ["oracle", flag, str(path), "--budget", "1.0", "--out", str(tmp_path / "o")]
        if flag == "--windows":
            self._write_log(tmp_path / "log.csv")
            args += ["--log", str(tmp_path / "log.csv")]
        assert main(args) == 2
        assert f"error: {flag}: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_log_whose_times_decrease_exits_2_naming_it(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        self._write_log(log)
        log.write_text(log.read_text().replace("\n2,p,", "\n0.5,p,"))
        args = ["oracle", "--log", str(log), "--budget", "1.0", "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert f"error: {log}: record times must be nondecreasing" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edit, fields", [(lambda row: row[: row.rindex(",")], 9), (lambda row: row + ",x", 11)]
    )
    def test_row_of_the_wrong_length_exits_2_naming_it(
        self, tmp_path, capsys, monkeypatch, edit, fields
    ):
        # a short row used to crash with exit 1, a long one to lose its extra fields
        log = tmp_path / "log.csv"
        self._write_log(log)
        lines = log.read_text().splitlines()
        lines[2] = edit(lines[2])
        log.write_text("\n".join(lines) + "\n")

        def unreachable(*args, **kwargs):
            raise AssertionError("the log was replayed")

        monkeypatch.setattr("dualbid.oracle.replay", unreachable)
        args = ["oracle", "--log", str(log), "--budget", "1.0", "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert f"error: {log}: row 2: {fields} fields, expected 10" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unsupported_competitor_family_exits_2_naming_its_row(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        self._write_log(log)
        lines = log.read_text().splitlines()
        lines[3] = lines[3].replace(",uniform,", ",empirical,")
        log.write_text("\n".join(lines) + "\n")
        args = ["oracle", "--log", str(log), "--budget", "1.0", "--out", str(tmp_path / "o")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == f"error: {log}: row 3: unsupported competitor family 'empirical'\n"
        assert not (tmp_path / "o").exists()

    def test_log_with_no_rows_exits_2_naming_it(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        self._write_log(log)
        log.write_text(log.read_text().splitlines()[0] + "\n\n")
        args = ["oracle", "--log", str(log), "--budget", "1.0", "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {log}: empty log\n"
        assert not (tmp_path / "o").exists()

    def test_schema_mismatch_exits_2(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("time,value\n0,1\n")
        assert main(["oracle", "--log", str(log), "--budget", "1.0", "--out", str(tmp_path / "o")]) == 2


def _parsed(parse, argv: list[str]) -> tuple[object, str, str]:
    """The exit code, standard output and standard error of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_info:
            parse(argv)
    return exit_info.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_one_subcommand_parser_helps_as_the_full_one(command):
    # main builds the parser of the subcommand it runs alone
    help_of = lambda parser: _parsed(parser.parse_args, [command, "--help"])
    assert help_of(build_parser(command)) == help_of(build_parser())


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["bogus"],
        ["run"],
        ["compare", "--run"],
        ["oracle", "--log", "x.csv"],
        ["coldstart", "--budget", "abc"],
        ["run", "--scenario", "s.json", "--out", "o", "extra"],
    ],
)
def test_main_parses_as_the_full_parser(argv):
    # the same message and exit code where argv names no subcommand, and
    # where one subcommand's parser refuses its flags
    assert _parsed(main, argv) == _parsed(build_parser().parse_args, argv)
