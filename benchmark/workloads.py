"""The four workloads: which qscatter commands one round runs.

A round is a list of units and a unit is a list of command lines, each
passed to `qscatter.cli.main`. Every command line holds `{out}`, the
unit's own output directory. Program seeds are drawn from the benchmark
seed and reach the program only as `--seed` flags.
"""

from __future__ import annotations

import random
from typing import Dict, List

Unit = List[List[str]]

CHAIN_D = 61

# Workload name -> logical dimension d of its commands.
DIMENSION: Dict[str, int] = {"certify-mc": 7, "scenario-d101": 101,
                             "fibre-n2000": 7, "file-chain": CHAIN_D}


def _chain(seed: int) -> Unit:
    d, s = CHAIN_D, str(seed)
    predicted = ["--standard", "{out}/unscramble/predicted_standard.csv"]
    raw = ["--standard", "{out}/tables/standard.csv"]
    for r in range(d):
        predicted += ["--table", f"{{out}}/unscramble/predicted_mub_{r}.csv"]
        raw += ["--table", f"{{out}}/tables/mub_{r}.csv"]
    return [
        ["simulate", "--d", str(d), "--n-modes", str(2 * d), "--exposure", "1e4",
         "--seed", s, "--out", "{out}"],
        ["tomo", "--scans", "{out}/scans", "--out", "{out}"],
        ["unscramble", "--t-hat", "{out}/t_hat.csv", "--out", "{out}"],
        ["certify", *predicted, "--seed", s, "--out", "{out}/cert_pred"],
        ["certify", *raw, "--n-mc", "20", "--seed", s, "--out", "{out}/cert_raw"],
    ]


def _run(scenario: str, d: int, n_modes: int, exposure: str, seed: int,
         *extra: str) -> Unit:
    return [["run", "--scenario", scenario, "--d", str(d), "--n-modes", str(n_modes),
             "--exposure", exposure, *extra, "--seed", str(seed), "--out", "{out}"]]


def plan(workload: str, seed: int) -> List[Unit]:
    """The units of one round of `workload` for benchmark seed `seed`."""
    rng = random.Random(seed)
    if workload == "certify-mc":
        return [_run("unscramble-certify", 7, 60, "1e4", rng.randrange(2 ** 31),
                     "--n-mc", "1000") for _ in range(4)]
    if workload == "scenario-d101":
        return [_run("unscramble-certify", 101, 202, "1e4", rng.randrange(2 ** 31),
                     "--n-mc", "50")]
    if workload == "fibre-n2000":
        return [_run("tomography", 7, 2000, "inf", rng.randrange(2 ** 31))]
    if workload == "file-chain":
        return [_chain(rng.randrange(2 ** 31))]
    raise KeyError(workload)
