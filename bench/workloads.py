"""Benchmark workloads: scenarios derived from the shipped JSON files.

Every workload is a shipped scenario plus a transform, and a panel of
consecutive scenario seeds drawn from the benchmark's ``--seed``.  The panel
is consecutive because ``dualbid sweep --seed BASE --sweep-seeds N`` runs
seeds BASE..BASE+N-1, and the benchmark checks each swept trace against the
standalone run of the same seed.  Every panel seed is run, compared and
swept.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# mixed_fp: the delivery window is dropped, and intensity and budget are
# multiplied by MIXED_SCALE.  With a window, `compare` runs the KKT solve,
# and every KKT solve in which the window binds writes
# `oracle_lambda_weekend,np.float64(...)` to compare.csv, which does not
# parse back (a known defect of the CLI).  Without it, `compare` solves λ*
# over the first-price log, and no operation fails.
MIXED_SCALE = 0.25
# ftl_sp: horizon cut so one FTL episode takes a few seconds; the budget is
# cut in proportion so the spend pace per interval is the shipped one.
FTL_HORIZON = 60


def _mixed_budget_only(data: dict) -> dict:
    del data["delivery_windows"]
    data["budget"] *= MIXED_SCALE
    for placement in data["placements"]:
        placement["intensity"] *= MIXED_SCALE
    return data


def _ftl_horizon(data: dict) -> dict:
    data["budget"] *= FTL_HORIZON / data["intervals"]
    data["intervals"] = FTL_HORIZON
    data["agent"]["mode"] = "ftl"
    return data


@dataclass(frozen=True)
class Workload:
    name: str
    source: str
    panel: int
    transform: object = None
    params: dict = field(default_factory=dict)
    # λ* can be checked against the sorted-threshold solution only on
    # budget-only, all-second-price scenarios
    threshold_check: bool = False

    def panel_seeds(self, seed: int) -> list[int]:
        """Consecutive scenario seeds for one benchmark seed."""
        base = random.Random(f"{self.name}/{seed}").randrange(1, 2**31 - 64)
        return [base + i for i in range(self.panel)]

    def scenario(self, root: Path, seed: int) -> dict:
        data = json.loads((root / "scenarios" / self.source).read_text())
        data = self.transform(copy.deepcopy(data)) if self.transform else data
        data["seed"] = self.panel_seeds(seed)[0]
        return data


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stationary_sp",
            source="stationary.json",
            panel=4,
            threshold_check=True,
        ),
        Workload(
            name="mixed_fp",
            source="mixed_constrained.json",
            panel=4,
            transform=_mixed_budget_only,
            params={"scale_k": MIXED_SCALE},
        ),
        Workload(
            name="ftl_sp",
            source="stationary.json",
            panel=4,
            transform=_ftl_horizon,
            params={"ftl_horizon": FTL_HORIZON},
            threshold_check=True,
        ),
    )
}
