#!/usr/bin/env python3
"""dualbid benchmark: `run`, `compare` and `sweep` on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is stationary_sp, mixed_fp, ftl_sp, or ``all`` (each workload in a
process of its own).  The loop is closed and single-process: every
``dualbid.cli.main([...])`` call starts after the previous one returns, with
imports warm.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from spans recorded around the package's public functions.
Every artifact is checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Full results
(samples, checks, provenance) go to bench/results/; see bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from calibration import REFERENCE_S, reference_loop
from checks import lambda_matches, parse_back, read_kv, sha256, spend_within_budget, threshold_lambda
from spans import Tracer, layer_metrics, median_metrics, self_times
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
MAX_PROBLEMS = 20  # problems kept for the report; every failure is still counted
JOBS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 7

# What every CLI call pays before its first opportunity: a fresh
# interpreter importing the CLI, loading the scenario and solving the
# cold-start multiplier.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import dualbid.cli
from dualbid.scenario import load_scenario
from dualbid.simulate import initial_multiplier
print(repr(initial_multiplier(load_scenario(sys.argv[2]))[0]))
"""


class SetupError(Exception):
    pass


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def import_package():
    if not (SRC / "dualbid" / "cli.py").is_file():
        raise SetupError(f"no dualbid source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import dualbid.cli

    if Path(dualbid.cli.__file__).resolve().parent != SRC / "dualbid":
        raise SetupError(f"dualbid imported from {dualbid.cli.__file__}, not {SRC}")
    return dualbid.cli.main


def provenance(workload, seed: int, seeds: list[int]) -> dict:
    import scipy

    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "scenarios").glob("*.json")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        git_sha = proc.stdout.strip() or None
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "sweep_jobs": JOBS,
        "workload": workload.name,
        "bench_seed": seed,
        "scenario_seeds": seeds,
        **workload.params,
    }


class Run:
    """One workload's CLI calls, their timings and the checks on their output.

    An operation is one CLI call; it fails when it exits non-zero or any
    check on what it wrote fails.  Checks are settled after the call, so
    they stay outside both the timings and the traced spans.
    """

    def __init__(self, main, workload, seed: int, work: Path):
        self.main = main
        self.workload = workload
        self.seeds = workload.panel_seeds(seed)
        self.work = work
        self.scenario_data = workload.scenario(ROOT, seed)
        self.scenario_path = work / "scenario.json"
        self.scenario_path.write_text(json.dumps(self.scenario_data, indent=2) + "\n")
        self.budget = float(self.scenario_data["budget"])
        # (scenario seed, seconds, seconds of the reference loop run just
        # before) per call; sweeps and setups carry no seed
        self.samples: dict[str, list[tuple[int | None, float, float]]] = {
            "setup": [], "run": [], "compare": [], "sweep": []
        }  # fmt: skip
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, list[int]] = {}
        self.problems: list[str] = []
        self.trace_sha: dict[int, str] = {}
        self.value_ratio: dict[int, float] = {}
        self.residual: dict[int, float] = {}
        self._pending: list = []
        self._dirs = 0

    # -- bookkeeping -------------------------------------------------------

    def _check(self, name: str, problems: list[str]) -> bool:
        tally = self.checks.setdefault(name, [0, 0])
        tally[1 if problems else 0] += 1
        room = max(0, MAX_PROBLEMS - len(self.problems))
        self.problems.extend(f"{name}: {p}" for p in problems[:room])
        return not problems

    def _fresh(self, stem: str) -> Path:
        self._dirs += 1
        return self.work / f"{self._dirs:04d}_{stem}"

    def _cli(self, kind: str, seed: int | None, argv: list[str], verify, tracer=None) -> float:
        self.attempted += 1
        reference = reference_loop()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = tracer.call(f"cli.{kind}", self.main, argv) if tracer else self.main(argv)
            except SystemExit as exc:
                code = exc.code
            elapsed = time.perf_counter() - start
        self._pending.append((kind, code, err.getvalue().strip(), verify))
        self.samples[kind].append((seed, elapsed, reference))
        return elapsed

    def settle(self) -> None:
        """Run the checks of every call made since the last settle."""
        for kind, code, err, verify in self._pending:
            ok = self._check("exit_code", [] if code == 0 else [f"{kind} exited {code}: {err}"])
            if not (ok and verify()):
                self.failed += 1
        self._pending.clear()

    def clean(self) -> None:
        for path in self.work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)

    # -- checks ------------------------------------------------------------

    def _artifacts(self, directory: Path, names: tuple[str, ...]) -> bool:
        problems = []
        for name in names:
            path = directory / name
            problems += parse_back(path) if path.is_file() else [f"{path.name} missing"]
        return self._check("csv_parse_back", problems)

    def _spend(self, directory: Path) -> bool:
        return self._check("spend_within_budget", spend_within_budget(read_kv(directory / "metrics.csv")))

    def _repeatable(self, seed: int, trace: Path) -> bool:
        digest = sha256(trace)
        if seed not in self.trace_sha:
            self.trace_sha[seed] = digest
            return True
        same = digest == self.trace_sha[seed]
        return self._check("trace_repeatable", [] if same else [f"seed {seed}: trace.csv differs"])

    def _threshold(self, seed: int, oracle_lambda: float) -> bool:
        from dualbid.scenario import parse_scenario
        from dualbid.simulate import generate_stream

        scenario = parse_scenario(self.scenario_data, seed_override=seed)
        stream = generate_stream(scenario)
        values = np.array([o.value for o in stream])
        prices = np.array([max(o.clearing_bid, o.mechanism.reserve) for o in stream])
        expected = threshold_lambda(values, prices, scenario.constraints.budget)
        return self._check("lambda_star_threshold", lambda_matches(oracle_lambda, expected))

    # -- operations --------------------------------------------------------

    def run(self, seed: int, tracer=None) -> tuple[float, Path]:
        out = self._fresh(f"run_{seed}")
        argv = ["run", "--scenario", str(self.scenario_path), "--out", str(out), "--seed", str(seed)]

        def verify() -> bool:
            return all(
                [
                    self._artifacts(out, ("trace.csv", "metrics.csv")),
                    self._spend(out),
                    self._repeatable(seed, out / "trace.csv"),
                ]
            )

        return self._cli("run", seed, argv, verify, tracer), out

    def compare(self, seed: int, run_dir: Path, tracer=None) -> float:
        def verify() -> bool:
            ok = self._artifacts(run_dir, ("compare.csv", "oracle_curves.csv", "roi.csv"))
            rows = read_kv(run_dir / "compare.csv")
            try:
                value_ratio = float(rows["value_ratio"])
                oracle_lambda = float(rows["oracle_lambda"])
                residual = abs(float(rows["oracle_spend"]) - self.budget) / self.budget
            except (KeyError, ValueError) as exc:
                self._check("compare_fields", [f"compare.csv: {exc}"])
                return False
            first_visit = seed not in self.value_ratio
            self.value_ratio.setdefault(seed, value_ratio)
            self.residual.setdefault(seed, residual)
            if self.workload.threshold_check and first_visit:
                ok = self._threshold(seed, oracle_lambda) and ok
            return ok

        return self._cli("compare", seed, ["compare", "--run", str(run_dir)], verify, tracer)

    def sweep(self) -> None:
        out = self._fresh("sweep")
        argv = [
            "sweep",
            "--scenario", str(self.scenario_path),
            "--out", str(out),
            "--sweep-seeds", str(len(self.seeds)),
            "--seed", str(self.seeds[0]),
            "--jobs", str(JOBS),
        ]  # fmt: skip

        def verify() -> bool:
            results = []
            for seed in self.seeds:
                directory = out / f"seed_{seed}"
                results.append(self._artifacts(directory, ("trace.csv", "metrics.csv")))
                results.append(self._spend(directory))
                same = sha256(directory / "trace.csv") == self.trace_sha.get(seed)
                results.append(
                    self._check(
                        "sweep_matches_run",
                        [] if same else [f"seed {seed}: sweep trace.csv differs from run"],
                    )
                )
            return all(results)

        self._cli("sweep", None, argv, verify)

    def setup(self) -> None:
        """One fresh interpreter paying the set-up every CLI call pays."""
        self.attempted += 1
        reference = reference_loop()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(self.scenario_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
        elapsed = time.perf_counter() - start
        problems = [] if proc.returncode == 0 else [f"exited {proc.returncode}: {proc.stderr[-300:]}"]
        if not problems:
            try:
                if not float(proc.stdout.strip()) > 0:
                    problems = [f"lambda0 {proc.stdout.strip()} not positive"]
            except ValueError:
                problems = [f"lambda0 {proc.stdout.strip()!r} does not parse"]
        if not self._check("setup", problems):
            self.failed += 1
        self.samples["setup"].append((None, elapsed, reference))


def median_scaled(samples: list[tuple[int | None, float, float]]) -> float:
    """Median call time on a host where the reference loop takes REFERENCE_S.

    Each call is scaled by the reference loop run just before it, so a call
    made while the host ran slow counts at the reference speed.
    """
    return statistics.median(seconds * REFERENCE_S / reference for _, seconds, reference in samples)


def measure(run: Run, seconds: int) -> dict[str, float]:
    """End-to-end metrics: SETUP_REPEATS setups, then a run+compare on each
    panel seed in turn until `seconds` have passed, after a first round that
    runs one seed twice.  Times are medians, scaled by the host's speed (see
    calibration.py).  Setups come first because a fresh interpreter slows
    the call that follows it."""
    for _ in range(SETUP_REPEATS):
        run.setup()
    start = time.perf_counter()
    for seed in run.seeds:
        _, run_dir = run.run(seed)
        run.compare(seed, run_dir)
    run.run(run.seeds[0])  # the same seed twice: traces must match
    while time.perf_counter() - start < seconds:
        seed = run.seeds[len(run.samples["compare"]) % len(run.seeds)]
        _, run_dir = run.run(seed)
        run.compare(seed, run_dir)
        run.settle()
        run.clean()
    run.settle()
    run.clean()
    return {
        "setup_s": median_scaled(run.samples["setup"]),
        "run_s": median_scaled(run.samples["run"]),
        "compare_s": median_scaled(run.samples["compare"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "value_ratio": statistics.fmean(run.value_ratio.values()),
    }


def measure_traced(run: Run, seconds: int) -> tuple[dict[str, float], list]:
    """Per-layer metrics: per panel seed, an untraced run+compare and then a
    traced one on the same seed, until `seconds` have passed.  Their
    difference is the tracing overhead.  Then one untraced sweep over the
    panel, after a run of each panel seed to check it against."""
    cycles = []
    start = time.perf_counter()
    index = 0
    while True:
        seed = run.seeds[index % len(run.seeds)]
        t_run, run_dir = run.run(seed)
        t_compare = run.compare(seed, run_dir)
        run.settle()
        tracer = Tracer()
        tracer.install()
        try:
            tt_run, traced_dir = run.run(seed, tracer)
            tt_compare = run.compare(seed, traced_dir, tracer)
        finally:
            tracer.uninstall()
        run.settle()
        metrics = layer_metrics(tracer)
        metrics["cli.bytes_written"] = sum(p.stat().st_size for p in traced_dir.iterdir())
        metrics["cli.compare_untraced_s"] = t_compare
        metrics["trace.overhead_s"] = (tt_run + tt_compare) - (t_run + t_compare)
        metrics["oracle.residual_max"] = run.residual[seed]
        cycles.append((seed, tracer, metrics))
        run.clean()
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    for seed in run.seeds:
        if seed not in run.trace_sha:
            run.run(seed)
    run.sweep()
    run.settle()
    run.clean()
    metrics = median_metrics([m for _, _, m in cycles])
    metrics["cli.sweep_runs_per_s"] = len(run.seeds) / run.samples["sweep"][0][1]
    return metrics, cycles


def write_spans(path: Path, cycles: list) -> None:
    with path.open("w") as fh:
        for cycle, (seed, tracer, _) in enumerate(cycles):
            for index, (span, own) in enumerate(zip(tracer.spans, self_times(tracer.spans))):
                record = {"cycle": cycle, "scenario_seed": seed, "index": index}
                record.update(dataclasses.asdict(span), self=own)
                fh.write(json.dumps(record) + "\n")


def run_workload(name: str, seed: int, seconds: int, trace: int) -> int:
    workload = WORKLOADS[name]
    end_to_end, per_layer = declared_metrics()
    main = import_package()
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH_DIR / ".work"))
    try:
        run = Run(main, workload, seed, work)
        if trace:
            metrics, cycles = measure_traced(run, seconds)
            units = per_layer
        else:
            metrics, cycles = measure(run, seconds), []
            units = end_to_end
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise SetupError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    prov = provenance(workload, seed, run.seeds)
    prov["trace_sha256"] = {str(s): d for s, d in sorted(run.trace_sha.items())}
    correct = run.failed == 0 and all(failed == 0 for _, failed in run.checks.values())
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    if cycles:
        write_spans(RESULTS / f"{stem}-spans.jsonl", cycles)
    details = {
        "provenance": prov,
        "seconds": seconds,
        "samples": {k: v for k, v in run.samples.items() if v},
        "value_ratio_by_seed": run.value_ratio,
        "oracle_residual_by_seed": run.residual,
        "checks": {k: {"passed": p, "failed": f} for k, (p, f) in sorted(run.checks.items())},
        "problems": run.problems,
        **result,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n")

    for key, unit in units.items():
        print(f"{name} {key} = {metrics[key]:.6g} {unit}")
    for check, (passed, failed) in sorted(run.checks.items()):
        print(f"{name} check {check}: {passed} passed, {failed} failed")
    for problem in run.problems:
        print(f"{name} FAILED {problem}")
    print(json.dumps({"provenance": prov, "samples": {k: len(v) for k, v in run.samples.items()}}))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, FileNotFoundError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
