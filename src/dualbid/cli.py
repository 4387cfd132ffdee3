"""Command-line interface.

Subcommands::

    dualbid run       --scenario cfg.json --out DIR [--seed N] [--force] [--roi]
    dualbid compare   --run DIR [--out DIR] [--force]
    dualbid coldstart --budget B (priors flags | --priors FILE | sample files)
    dualbid sweep     --scenario cfg.json --out DIR --sweep-seeds N [--seed BASE]
    dualbid oracle    --log FILE --budget B [--cost-target C] [--windows FILE]

Exit codes: 0 success, 1 runtime failure, 2 validation failure.  Existing
output files are never overwritten without --force.

The oracle subcommand reads an opportunity log CSV with the columns
``time, placement_id, value, auction_type, reserve, competitor_family,
competitor_p1, competitor_p2, clearing_bid, windows`` where competitor_p1 /
competitor_p2 are (mu, sigma) for lognormal or (lo, hi) for uniform models,
an empty clearing_bid marks a distributional record, and windows is a
semicolon-separated list of window ids (may be empty).  The --windows file
is a JSON object with a scenario's delivery_windows and guarantee_windows
lists.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bidding import DEFAULT_BID_CAP, LAMBDA_FLOOR
from .coldstart import (
    ColdStartError,
    PlacementPriors,
    expected_spend_per_opportunity,
    fit_lognormal,
    solve_lambda0_multi,
)
from .mechanisms import MechanismError, MechanismSpec, competitor_from_dict
from .oracle import (
    LogRecord,
    MultiplierProfile,
    OpportunityLog,
    OracleError,
    budget_factor,
    check_kkt_constraints,
    fixed_bid_baseline,
    marginal_roi,
    replay,
    solve_kkt_grid,
    solve_lambda_star,
)
from .pacing import ConstraintSet, PacingError
from .scenario import (
    SEED_LIMIT,
    ScenarioError,
    load_scenario,
    parse_scenario,
    parse_windows,
    scenario_to_dict,
)
from .simulate import (
    TRACE_COLUMNS,
    SimulationError,
    StreamError,
    Trace,
    distributional_log,
    load_stream,
    realized_log,
    run_episode,
    save_stream,
)

# compare reads the stream its run saved and no longer draws one; the name
# stays bound here for the benchmark's tracer, which wraps it in this module
from .simulate import generate_stream  # noqa: F401

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2
RUN_OUTPUTS = ["trace.csv", "metrics.csv", "config_resolved.json", "stream.npy"]
COMPARE_OUTPUTS = ["compare.csv", "oracle_curves.csv", "roi.csv"]
SWEEP_SEEDS_LIMIT = 10_000  # a sweep lists its seeds and their outputs before any runs


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code

    def __reduce__(self):  # so a sweep worker's error reaches the parent whole
        return type(self), (str(self), self.code)


def _g6(x: float) -> str:
    return f"{x:.6g}"


def _prepare_outputs(names: list[str], force: bool, *out_dirs: Path) -> None:
    """Make out_dirs, unless one of them holds one of names and not force."""
    existing = [] if force else [d / n for d in out_dirs for n in names if (d / n).exists()]
    if existing:
        raise CliError(
            f"refusing to overwrite {', '.join(map(str, existing))} (pass --force)",
            EXIT_VALIDATION,
        )
    for out_dir in out_dirs:
        out_dir.mkdir(parents=True, exist_ok=True)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_kv_csv(path: Path, rows: list[tuple[str, object]]) -> None:
    _write_csv(
        path,
        ["key", "value"],
        [(k, repr(float(v)) if isinstance(v, float) else str(v)) for k, v in rows],
    )


def _read_kv_csv(path: Path) -> dict[str, str]:
    reader = csv.DictReader(io.StringIO(_read_input(path, str(path)), newline=""))
    if reader.fieldnames != ["key", "value"]:
        raise CliError(f"{path}: expected key,value columns", EXIT_VALIDATION)
    return {row["key"]: row["value"] for row in reader}


def _csv_field(text: str) -> str:
    """text as csv.writer writes it inside a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", text])
    return buf.getvalue()[1:-2]


def _format_column(column: np.ndarray) -> list[str]:
    """str of each int, repr of each float, called once per run of equal
    values; floats are compared by bit pattern, so 0.0 and -0.0 keep their
    own repr.  A column whose runs are more than half its rows is formatted
    row by row."""
    floats = column.dtype.kind == "f"
    keys = column.view(np.int64) if floats else column
    fmt = repr if floats else str
    edges = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    if 2 * (len(edges) + 1) > len(column):
        return list(map(fmt, column.tolist()))
    bounds = [0, *edges.tolist(), len(column)]
    strings = []
    for start, stop, x in zip(bounds, bounds[1:], column[bounds[:-1]].tolist()):
        strings += [fmt(x)] * (stop - start)
    return strings


def _format_bids(bid: np.ndarray, adjusted: np.ndarray, adjusted_strings: list[str]) -> list[str]:
    """bid's strings: adjusted_value's wherever the two are equal bit for
    bit, as on every second-price row, and the other rows formatted."""
    other = np.flatnonzero(bid.view(np.int64) != adjusted.view(np.int64))
    if not other.size:
        return adjusted_strings
    strings = list(adjusted_strings)
    for row, text in zip(other.tolist(), _format_column(bid[other])):
        strings[row] = text
    return strings


_TRACE_BLOCK = 1024  # rows formatted at a time, which bounds the strings held


def _write_trace(path: Path, trace: Trace) -> None:
    """trace.csv, byte for byte what csv.writer writes for the rows (floats
    as repr, won as 1/0), formatted a column and _TRACE_BLOCK rows at a
    time: one repr per run of equal values (_format_column), and bid
    reusing adjusted_value's strings (_format_bids)."""
    names = np.array([_csv_field(p) for p in trace.placement_ids], dtype=object)
    with path.open("w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for start in range(0, len(trace), _TRACE_BLOCK):
            rows = slice(start, start + _TRACE_BLOCK)
            fields: dict[str, list[str]] = {}
            for name in TRACE_COLUMNS:
                column = getattr(trace, name)[rows]
                if name == "placement_id":
                    fields[name] = names[column].tolist()
                elif name == "won":
                    fields[name] = np.where(column, "1", "0").tolist()
                elif name == "bid":
                    adjusted = trace.adjusted_value[rows]
                    fields[name] = _format_bids(column, adjusted, fields["adjusted_value"])
                else:
                    fields[name] = _format_column(column)
            fh.write("\r\n".join(map(",".join, zip(*fields.values()))) + "\r\n")


def _check_seed(seed: int | None, flag: str = "--seed") -> None:
    if seed is not None and not 0 <= seed < SEED_LIMIT:
        raise CliError(f"{flag} must be in [0, 2**64), got {seed}", EXIT_VALIDATION)


def _read_input(path: str | Path, flag: str) -> str:
    """The text of an input file, its newlines as they are; a file that
    cannot be read (missing, a directory, not UTF-8) is a validation error
    naming flag, the option or the file it was read for."""
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"{flag}: {exc}", EXIT_VALIDATION) from None


def _load_scenario(args):
    """--scenario, seeded by --seed where given."""
    try:
        return load_scenario(args.scenario, seed_override=args.seed)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"--scenario: {exc}", EXIT_VALIDATION) from None
    except ScenarioError as exc:
        raise CliError(f"invalid scenario: {exc}", EXIT_VALIDATION) from None


def cmd_run(args) -> int:
    _check_seed(args.seed)
    scenario = _load_scenario(args)
    out_dir = Path(args.out)
    _prepare_outputs(RUN_OUTPUTS, args.force, out_dir)
    try:
        episode = run_episode(scenario, compute_roi=args.roi)
    except SimulationError as exc:
        raise CliError(f"episode failed: {exc}", EXIT_RUNTIME) from None

    _write_trace(out_dir / "trace.csv", episode.trace)
    _write_kv_csv(out_dir / "metrics.csv", episode.metrics.as_rows())
    (out_dir / "config_resolved.json").write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"
    )
    save_stream(out_dir / "stream.npy", episode.stream)
    m = episode.metrics
    print(
        f"spend={_g6(m.total_spend)} results={_g6(m.total_value)} "
        f"cost_per_result={_g6(m.cost_per_result)} utilization={_g6(m.budget_utilization)}"
    )
    for w in scenario.constraints.delivery_windows:
        spend = m.window_spend.get(w.id, 0.0)
        if spend > w.cap:
            print(f"note: delivery window {w.id!r} spent {_g6(spend)}, above its cap {_g6(w.cap)}")
    for w in scenario.constraints.guarantee_windows:
        value = m.window_value.get(w.id, 0.0)
        if value < w.floor:
            print(
                f"note: guarantee window {w.id!r} delivered {_g6(value)}, "
                f"below its floor {_g6(w.floor)}"
            )
    return EXIT_OK


def _write_oracle_curves(
    path: Path, log: OpportunityLog, profile: MultiplierProfile, bid_cap: float
) -> None:
    """Spend and value on 33 budget multipliers from lam*/8 to 8 lam*,
    lam* being profile.lam; the other multipliers stay at profile's.

    On a realized log each point is read from the log's own RealizedSpend,
    the one lambda* was searched on: with window multipliers, from its rows
    of each segment (the rows that share their windows, see
    OpportunityLog.segments) at the factor profile gives them, summed
    segment by segment.  The winners are a replay's, and spend and value
    are within n * eps relative of a replay's (see RealizedSpend).  The
    first-price rows that may win at some point are shaded in one call per
    segment.  On any other log each point is a replay."""
    center = max(profile.lam, LAMBDA_FLOOR)
    windows = {*profile.window_lambda, *profile.window_mu}
    lams = np.geomspace(center / 8.0, center * 8.0, 33).tolist()
    if log.mode == "realized":
        spend = value = 0.0
        for key, part in log.segments(windows, bid_cap).items():
            fs = budget_factor(np.asarray(lams))
            if profile.mu or windows:
                fs = np.array([profile.with_lam(lam).vector_for(key).factor for lam in lams])
            s, v = part.at(fs)
            spend, value = spend + s, value + v
        spends, values = spend.tolist(), value.tolist()
    else:
        results = [replay(log, profile.with_lam(lam), bid_cap) for lam in lams]
        spends, values = [r.spend for r in results], [r.value for r in results]
    rows = [(repr(lam), repr(s), repr(v)) for lam, s, v in zip(lams, spends, values)]
    _write_csv(path, ["lambda", "spend", "value"], rows)


def _metric(metrics: dict[str, str], key: str) -> float:
    """metrics[key] as a finite number; a missing, non-numeric or
    non-finite value is a validation error naming the key."""
    if key not in metrics:
        raise CliError(f"metrics.csv missing key {key!r}", EXIT_VALIDATION)
    try:
        value = float(metrics[key])
    except (TypeError, ValueError):  # TypeError: a row with no value column
        value = math.nan
    if not math.isfinite(value):
        raise CliError(f"metrics.csv {key}: not a finite number: {metrics[key]!r}", EXIT_VALIDATION)
    return value


def cmd_compare(args) -> int:
    run_dir = Path(args.run)
    config_path, metrics_path, stream_path = (
        run_dir / name for name in ("config_resolved.json", "metrics.csv", "stream.npy")
    )
    for p in (config_path, metrics_path, stream_path):
        if not p.exists():
            raise CliError(f"missing run artifact {p}", EXIT_VALIDATION)
    try:
        scenario = parse_scenario(json.loads(_read_input(config_path, str(config_path))))
        check_kkt_constraints(scenario.constraints)
    except (ScenarioError, OracleError, json.JSONDecodeError) as exc:
        raise CliError(f"bad resolved config: {exc}", EXIT_VALIDATION) from None
    metrics = _read_kv_csv(metrics_path)
    agent_value, agent_spend = (_metric(metrics, key) for key in ("total_value", "total_spend"))
    # the auctions the run took part in, as it saved them
    try:
        stream = load_stream(stream_path, scenario)
    except (OSError, StreamError) as exc:
        raise CliError(f"{stream_path}: {exc}", EXIT_VALIDATION) from None
    if len(stream) != _metric(metrics, "n_opportunities"):
        raise CliError(
            f"{stream_path}: {len(stream)} rows, but metrics.csv n_opportunities is "
            f"{metrics['n_opportunities']}",
            EXIT_VALIDATION,
        )

    out_dir = Path(args.out) if args.out else run_dir
    _prepare_outputs(COMPARE_OUTPUTS, args.force, out_dir)

    log = realized_log(scenario, stream)
    constraints = scenario.constraints
    budget = constraints.budget

    rows: list[tuple[str, object]] = []
    if not constraints.budget_only:
        kkt = solve_kkt_grid(log, constraints, bid_cap=scenario.agent.bid_cap)
        oracle_spend, oracle_value = kkt.replay.spend, kkt.replay.value
        profile = kkt.profile
        lam_star = profile.lam
        unconstrained = kkt.unconstrained
        rows.append(("oracle_mu", kkt.profile.mu))
        for wid, lam_k in kkt.profile.window_lambda.items():
            rows.append((f"oracle_lambda_{wid}", lam_k))
        for wid, mu_k in kkt.profile.window_mu.items():
            rows.append((f"oracle_mu_{wid}", mu_k))
        for name, residual in kkt.residuals.items():
            rows.append((f"kkt_residual_{name}", residual))
        rows.append(("oracle_feasible", kkt.feasible))
        for note in kkt.notes:
            print(f"note: {note}")
    else:
        sol = solve_lambda_star(log, budget, bid_cap=scenario.agent.bid_cap)
        oracle_spend, oracle_value = sol.spend, sol.value
        lam_star = sol.lam
        profile = MultiplierProfile(lam=lam_star)
        unconstrained = sol.unconstrained

    value_ratio = agent_value / oracle_value if oracle_value > 0 else float("inf")
    baseline = fixed_bid_baseline(log, budget, bid_cap=scenario.agent.bid_cap)
    baseline_ratio = baseline.value / oracle_value if oracle_value > 0 else float("inf")

    rows = [
        ("oracle_lambda", lam_star),
        ("oracle_unconstrained", unconstrained),
        ("oracle_spend", oracle_spend),
        ("oracle_value", oracle_value),
        ("agent_spend", agent_spend),
        ("agent_value", agent_value),
        ("value_ratio", value_ratio),
        ("baseline_bid", baseline.bid),
        ("baseline_spend", baseline.spend),
        ("baseline_value", baseline.value),
        ("baseline_value_ratio", baseline_ratio),
    ] + rows

    _write_oracle_curves(out_dir / "oracle_curves.csv", log, profile, scenario.agent.bid_cap)

    # the budget-only ROI, as run --roi writes it: 0.0 per placement when
    # the budget-only lambda* does not bind, whatever the KKT solution binds
    dlog = distributional_log(scenario, stream, log)
    roi = marginal_roi(dlog, budget, bid_cap=scenario.agent.bid_cap)
    roi_rows = [(pid, repr(roi.roi[pid])) for pid in sorted(roi.roi)]
    roi_rows += [(pid, "inactive") for pid in roi.inactive]
    _write_csv(out_dir / "roi.csv", ["placement_id", "marginal_roi"], roi_rows)
    _write_kv_csv(out_dir / "compare.csv", rows)

    marker = " (budget unconstrained)" if unconstrained else ""
    print(
        f"oracle_lambda={_g6(lam_star)}{marker} value_ratio={_g6(value_ratio)} "
        f"baseline_value_ratio={_g6(baseline_ratio)}"
    )
    return EXIT_OK


def _read_samples(path: str, flag: str) -> list[float]:
    values = []
    for i, line in enumerate(_read_input(path, flag).splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise CliError(f"{path}:{i + 1}: not a number: {line!r}", EXIT_VALIDATION) from None
        if not math.isfinite(values[-1]):
            raise CliError(f"{path}:{i + 1}: not a finite number: {line!r}", EXIT_VALIDATION)
    return values


# the fields of PlacementPriors, in order, as the CLI names them
PRIOR_FIELDS = ("bid_mu", "bid_sigma", "value_mu", "value_sigma", "count")


def _prior_number(entry: dict, i: int, key: str) -> float:
    """priors[i][key] when it is a JSON number (not a boolean)."""
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ColdStartError(f"priors[{i}].{key}: not a number: {value!r}")
    return float(value)


def _coldstart_priors(args) -> list[PlacementPriors]:
    if args.priors:
        data = json.loads(_read_input(args.priors, "--priors"))
        if not isinstance(data, list):
            raise ColdStartError(f"--priors: expected a JSON list, got {type(data).__name__}")
        priors = []
        for i, p in enumerate(data):
            if not isinstance(p, dict):
                raise ColdStartError(f"priors[{i}]: expected an object, got {type(p).__name__}")
            priors.append(PlacementPriors(*(_prior_number(p, i, key) for key in PRIOR_FIELDS)))
        return priors
    if args.bid_samples or args.value_samples:
        if not (args.bid_samples and args.value_samples):
            raise CliError("need both --bid-samples and --value-samples", EXIT_VALIDATION)
        if args.count is None:
            raise CliError("--count is required with sample files", EXIT_VALIDATION)
        bid_mu, bid_sigma = fit_lognormal(_read_samples(args.bid_samples, "--bid-samples"))
        value_mu, value_sigma = fit_lognormal(_read_samples(args.value_samples, "--value-samples"))
        for name, sigma in (("bid", bid_sigma), ("value", value_sigma)):
            if sigma <= 1e-6:
                print(f"warning: degenerate {name} samples, sigma floored at 1e-6")
        return [PlacementPriors(bid_mu, bid_sigma, value_mu, value_sigma, args.count)]
    if any(getattr(args, name) is None for name in PRIOR_FIELDS):
        raise CliError(
            "give --priors, sample files, or all of --bid-mu --bid-sigma "
            "--value-mu --value-sigma --count",
            EXIT_VALIDATION,
        )
    return [PlacementPriors(*(getattr(args, name) for name in PRIOR_FIELDS))]


def cmd_coldstart(args) -> int:
    try:
        priors = _coldstart_priors(args)
        result = solve_lambda0_multi(priors, args.budget)
    except (ColdStartError, KeyError, json.JSONDecodeError) as exc:
        raise CliError(f"invalid coldstart input: {exc}", EXIT_VALIDATION) from None
    if args.out:
        out_dir = Path(args.out)
        _prepare_outputs(["coldstart_grid.csv"], args.force, out_dir)
        center = result.lam if not result.unconstrained else 1.0
        grid = np.geomspace(center / 100.0, center * 100.0, 81)
        total = sum(p.forecast_count for p in priors)
        rows = []
        for lam in grid:
            spend = sum(
                p.forecast_count * expected_spend_per_opportunity(p, float(lam)) for p in priors
            )
            rows.append((repr(float(lam)), repr(spend / total)))
        _write_csv(out_dir / "coldstart_grid.csv", ["lambda", "spend_per_opportunity"], rows)
    if result.unconstrained:
        print(f"lambda0={_g6(result.lam)} (budget unconstrained at this traffic)")
    else:
        print(f"lambda0={_g6(result.lam)} spend_rate={_g6(result.spend_rate)}")
    return EXIT_OK


def _sweep_one(scenario_path: str, out_dir: str, seed: int, force: bool) -> tuple[int, str]:
    target = Path(out_dir) / f"seed_{seed}"
    ns = argparse.Namespace(
        scenario=scenario_path, out=str(target), seed=seed, force=force, roi=False
    )
    cmd_run(ns)
    metrics = _read_kv_csv(target / "metrics.csv")
    return seed, (
        f"seed={seed} spend={_g6(float(metrics['total_spend']))} "
        f"results={_g6(float(metrics['total_value']))}"
    )


def cmd_sweep(args) -> int:
    for flag, n in (("--jobs", args.jobs), ("--sweep-seeds", args.sweep_seeds)):
        if n < 1:
            raise CliError(f"{flag} must be >= 1, got {n}", EXIT_VALIDATION)
    if args.sweep_seeds > SWEEP_SEEDS_LIMIT:
        raise CliError(
            f"--sweep-seeds must be <= {SWEEP_SEEDS_LIMIT}, got {args.sweep_seeds}", EXIT_VALIDATION
        )
    _check_seed(args.seed)
    base = _load_scenario(args).seed
    last = base + args.sweep_seeds - 1
    _check_seed(last, "base seed + --sweep-seeds - 1")
    seeds = list(range(base, last + 1))
    # every seed's outputs, before any worker starts
    _prepare_outputs(RUN_OUTPUTS, args.force, *(Path(args.out) / f"seed_{s}" for s in seeds))
    workers = min(args.jobs, os.cpu_count() or 1, len(seeds))
    if workers > 1:
        # only here: the import loads multiprocessing, ~10 ms a CLI call
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    _sweep_one,
                    [args.scenario] * len(seeds),
                    [args.out] * len(seeds),
                    seeds,
                    [args.force] * len(seeds),
                )
            )
    else:
        results = [_sweep_one(args.scenario, args.out, s, args.force) for s in seeds]
    for _, line in sorted(results):
        print(line)
    return EXIT_OK


_LOG_COLUMNS = [
    "time",
    "placement_id",
    "value",
    "auction_type",
    "reserve",
    "competitor_family",
    "competitor_p1",
    "competitor_p2",
    "clearing_bid",
    "windows",
]


def load_log_csv(path: str | Path) -> OpportunityLog:
    """Read an opportunity log CSV (schema in the module docstring)."""
    records = []
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != _LOG_COLUMNS:
            raise CliError(
                f"{path}: expected columns {','.join(_LOG_COLUMNS)}", EXIT_VALIDATION
            )
        for i, row in enumerate(reader):
            family = row["competitor_family"]
            if family == "lognormal":
                comp = {"family": family, "mu": row["competitor_p1"], "sigma": row["competitor_p2"]}
            elif family == "uniform":
                comp = {"family": family, "lo": row["competitor_p1"], "hi": row["competitor_p2"]}
            else:
                raise CliError(
                    f"{path}: row {i + 1}: unsupported competitor family {family!r}",
                    EXIT_VALIDATION,
                )
            try:
                mechanism = MechanismSpec(
                    auction_type=row["auction_type"],
                    reserve=float(row["reserve"]),
                    competitor=competitor_from_dict(comp),
                )
                windows = tuple(w for w in row["windows"].split(";") if w)
                records.append(
                    LogRecord(
                        time=float(row["time"]),
                        placement=row["placement_id"],
                        value=float(row["value"]),
                        mechanism=mechanism,
                        clearing_bid=float(row["clearing_bid"]) if row["clearing_bid"] else None,
                        windows=windows,
                    )
                )
            except (MechanismError, OracleError, ValueError) as exc:
                raise CliError(f"{path}: row {i + 1}: {exc}", EXIT_VALIDATION) from None
    if not records:
        raise CliError(f"{path}: empty log", EXIT_VALIDATION)
    return OpportunityLog(records)


def cmd_oracle(args) -> int:
    try:
        log = load_log_csv(args.log)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"--log: {exc}", EXIT_VALIDATION) from None
    delivery, guarantee = ((), ())
    if args.windows:
        try:
            delivery, guarantee = parse_windows(json.loads(Path(args.windows).read_text()))
        except (ScenarioError, json.JSONDecodeError, OSError) as exc:
            raise CliError(f"invalid windows file: {exc}", EXIT_VALIDATION) from None
    try:
        constraints = ConstraintSet(
            budget=args.budget,
            cost_target=args.cost_target,
            delivery_windows=delivery,
            guarantee_windows=guarantee,
        )
        check_kkt_constraints(constraints, log)
    except (PacingError, OracleError) as exc:
        raise CliError(f"invalid constraints: {exc}", EXIT_VALIDATION) from None

    out_dir = Path(args.out)
    _prepare_outputs(["oracle_multipliers.csv", "oracle_curves.csv"], args.force, out_dir)
    try:
        if not constraints.budget_only:
            kkt = solve_kkt_grid(log, constraints)
            profile = kkt.profile
            rep = kkt.replay
            rows: list[tuple[str, object]] = [
                ("lambda", profile.lam),
                ("mu", profile.mu),
                ("spend", rep.spend),
                ("value", rep.value),
                ("feasible", kkt.feasible),
            ]
            for wid, lam_k in profile.window_lambda.items():
                rows.append((f"lambda_{wid}", lam_k))
            for wid, mu_k in profile.window_mu.items():
                rows.append((f"mu_{wid}", mu_k))
            print("kkt residual report:")
            for name, residual in kkt.residuals.items():
                rows.append((f"kkt_residual_{name}", residual))
                print(f"  {name}: {_g6(residual)}")
            for note in kkt.notes:
                print(f"  note: {note}")
        else:
            sol = solve_lambda_star(log, args.budget)
            rows = [
                ("lambda", sol.lam),
                ("unconstrained", sol.unconstrained),
                ("spend", sol.spend),
                ("value", sol.value),
            ]
            if sol.bracket is not None:
                rows.append(("bracket_lo", sol.bracket[0]))
                rows.append(("bracket_hi", sol.bracket[1]))
            profile = MultiplierProfile(lam=sol.lam)
            print(
                f"lambda={_g6(sol.lam)} spend={_g6(sol.spend)} value={_g6(sol.value)}"
                + (" (budget unconstrained)" if sol.unconstrained else "")
            )
    except OracleError as exc:
        raise CliError(f"oracle failed: {exc}", EXIT_RUNTIME) from None

    _write_oracle_curves(out_dir / "oracle_curves.csv", log, profile, DEFAULT_BID_CAP)
    _write_kv_csv(out_dir / "oracle_multipliers.csv", rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualbid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario episode")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--force", action="store_true")
    p_run.add_argument("--roi", action="store_true", help="include marginal ROI in metrics")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare a finished run against the hindsight oracle")
    p_cmp.add_argument("--run", required=True, help="output directory of a completed run")
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--force", action="store_true")
    p_cmp.set_defaults(func=cmd_compare)

    p_cold = sub.add_parser("coldstart", help="closed-form initial multiplier")
    p_cold.add_argument("--budget", type=float, required=True)
    p_cold.add_argument("--count", type=float, default=None, help="forecast opportunity count")
    p_cold.add_argument("--bid-mu", type=float, default=None)
    p_cold.add_argument("--bid-sigma", type=float, default=None)
    p_cold.add_argument("--value-mu", type=float, default=None)
    p_cold.add_argument("--value-sigma", type=float, default=None)
    p_cold.add_argument("--bid-samples", default=None, help="file with one bid per line")
    p_cold.add_argument("--value-samples", default=None, help="file with one value per line")
    p_cold.add_argument("--priors", default=None, help="JSON list of per-placement priors")
    p_cold.add_argument("--out", default=None)
    p_cold.add_argument("--force", action="store_true")
    p_cold.set_defaults(func=cmd_coldstart)

    p_sweep = sub.add_parser("sweep", help="run several seeds with isolated outputs")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--sweep-seeds", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, default=None, help="base seed (default: scenario)")
    p_sweep.add_argument("--jobs", type=int, default=4)
    p_sweep.add_argument("--force", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="hindsight multipliers for a log CSV")
    p_oracle.add_argument("--log", required=True)
    p_oracle.add_argument("--budget", type=float, required=True)
    p_oracle.add_argument("--cost-target", type=float, default=None)
    p_oracle.add_argument("--windows", default=None, help="JSON window constraint definitions")
    p_oracle.add_argument("--out", required=True)
    p_oracle.add_argument("--force", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ScenarioError, PacingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
