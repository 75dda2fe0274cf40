"""Checks of each workload's outputs against the oracles.

Each check reads the files one unit left behind and returns a list of
facts (printed as reference figures) and a list of problems (empty when
the outputs are right). Tolerances:
  * the reported fidelity equals the oracle estimator on the written
    tables to 1e-9, and the certified dimension is the number of rank
    bounds below it;
  * |F - F_true| <= 5 sigma, where F_true is the fidelity of the state the
    written channel and operators actually produce;
  * sigma is within a factor 1.5 of the benchmark's own Poisson bootstrap;
  * a noiseless reconstruction equals conj(M) T M^T up to one complex
    factor to 1e-8, and the stored channel columns are orthonormal to 1e-10.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Tuple

import numpy as np

import oracles

N_BOOTSTRAP = 1000

Facts = List[Dict[str, object]]


def _json(path: str) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def _family_tables(paths: List[str], d: int) -> List[oracles.CountFile]:
    """Read rotated-family tables and order them by the r in their label."""
    by_r = {}
    for path in paths:
        t = oracles.read_count_table(path)
        by_r[int(t.label_a.rsplit(":", 1)[1])] = t
    if sorted(by_r) != list(range(d)):
        raise ValueError(f"family tables cover {sorted(by_r)}, not 0..{d - 1}")
    return [by_r[r] for r in range(d)]


def _channel_columns(out: str) -> Tuple[np.ndarray, List[int]]:
    """Reference and logical columns of channel.csv, located through
    channel.json, so a stored isometry reads the same as a full unitary."""
    meta = _json(os.path.join(out, "channel.json"))
    ref, logical = int(meta["reference_index"]), [int(i) for i in meta["logical_indices"]]
    cols = oracles.read_matrix(os.path.join(out, "channel.csv"), [ref] + logical)
    return cols, logical


def _certification(report: dict, std: oracles.CountFile,
                   fams: List[oracles.CountFile], lam: np.ndarray,
                   problems: List[str], where: str) -> float:
    res = report["results"]
    f_oracle = oracles.fidelity(std.counts, [t.counts for t in fams], lam)
    if abs(f_oracle - res["fidelity"]) > 1e-9:
        problems.append(f"{where}: reported F {res['fidelity']!r} but the tables "
                        f"give {f_oracle!r}")
    d_ent = oracles.certified_dimension(res["fidelity"], lam)
    if d_ent != res["d_ent"]:
        problems.append(f"{where}: reported d_ent {res['d_ent']} but {d_ent} rank "
                        f"bounds lie below F")
    return f_oracle


def unscramble_certify(out: str, d: int, rng: np.random.Generator) -> Tuple[Facts, List[str]]:
    """`run --scenario unscramble-certify`: fidelity, d_ent, F_true, sigma."""
    problems: List[str] = []
    report = _json(os.path.join(out, "report.json"))
    res = report["results"]
    tables = os.path.join(out, "tables")
    std = oracles.read_count_table(os.path.join(tables, "recovered_standard.csv"))
    fams = _family_tables([os.path.join(tables, f) for f in sorted(os.listdir(tables))
                           if f != "recovered_standard.csv"], d)
    lam = oracles.lambda_from_standard(std.counts)
    if np.max(np.abs(lam - np.asarray(res["target_lambda"]))) > 1e-12:
        problems.append(f"{out}: target_lambda is not the standard table's spectrum")
    f = _certification(report, std, fams, lam, problems, out)

    cols, logical = _channel_columns(out)
    t_logical = cols[logical, 1:]
    u_dir = os.path.join(out, "unscramble")
    psi = oracles.recovered_state(t_logical,
                                  oracles.read_matrix(os.path.join(u_dir, "w_alice.csv")),
                                  oracles.read_matrix(os.path.join(u_dir, "m_bob.csv")))
    f_true = oracles.true_fidelity(psi, lam)
    sigma = float(res["fidelity_sigma"])
    if not abs(f - f_true) <= 5 * sigma:
        problems.append(f"{out}: |F - F_true| = {abs(f - f_true):.3g} exceeds "
                        f"5 sigma = {5 * sigma:.3g}")
    boot = oracles.bootstrap_sigma(std, fams, lam, N_BOOTSTRAP, rng)
    if not 1 / 1.5 <= sigma / boot <= 1.5:
        problems.append(f"{out}: sigma {sigma:.4g} vs bootstrap {boot:.4g}")
    fact = {"seed": report["config"]["seed"], "F": f, "F_true": f_true,
            "sigma": sigma, "sigma_boot": boot, "dev_sigma": (f - f_true) / sigma,
            "d_ent": res["d_ent"], "d": d}
    return [fact], problems


def tomography(out: str, d: int) -> Tuple[Facts, List[str]]:
    """Noiseless `run --scenario tomography`: exact reconstruction."""
    problems: List[str] = []
    cols, logical = _channel_columns(out)
    gram_err = float(np.max(np.abs(cols.conj().T @ cols - np.eye(cols.shape[1]))))
    if gram_err > 1e-10:
        problems.append(f"{out}: stored channel columns are off orthonormal "
                        f"by {gram_err:.3g}")
    tag = _json(os.path.join(out, "t_hat.json"))["basis_tag"]
    m = oracles.mub(d, 0)
    expected = np.conjugate(m) @ cols[logical, 1:] @ m.T
    err = oracles.dist_up_to_phase(oracles.read_matrix(os.path.join(out, "t_hat.csv")),
                                   expected)
    if tag != "mub:0" or err > 1e-8:
        problems.append(f"{out}: t_hat ({tag}) is {err:.3g} from conj(M) T M^T")
    seed = _json(os.path.join(out, "config.json"))["seed"]
    return [{"seed": seed, "n_modes": cols.shape[0], "reconstruction_error": err,
             "gram_error": gram_err}], problems


def file_chain(out: str, d: int) -> Tuple[Facts, List[str]]:
    """simulate -> tomo -> unscramble -> certify (predicted, then raw)."""
    problems: List[str] = []
    u_dir = os.path.join(out, "unscramble")
    pred_std = oracles.read_count_table(os.path.join(u_dir, "predicted_standard.csv"))
    p = pred_std.counts
    off = float(np.max(np.abs(p - np.diag(np.diagonal(p)))))
    if off > 1e-12 * float(np.max(p)):
        problems.append(f"{out}: predicted standard table has off-diagonal {off:.3g}")
    uniform = np.full(d, 1 / math.sqrt(d))

    pred = _json(os.path.join(out, "cert_pred", "report.json"))
    fams = _family_tables([os.path.join(u_dir, f"predicted_mub_{r}.csv")
                           for r in range(d)], d)
    _certification(pred, pred_std, fams, uniform, problems, f"{out}/cert_pred")
    diag = np.diagonal(p) / p.sum()
    f_closed = float(np.sum(np.sqrt(diag))) ** 2 / d
    if abs(pred["results"]["fidelity"] - f_closed) > 1e-9:
        problems.append(f"{out}/cert_pred: F {pred['results']['fidelity']!r} is not "
                        f"(sum sqrt p_mm)^2/d = {f_closed!r}")

    raw = _json(os.path.join(out, "cert_raw", "report.json"))
    tables = os.path.join(out, "tables")
    raw_std = oracles.read_count_table(os.path.join(tables, "standard.csv"))
    raw_fams = _family_tables([os.path.join(tables, f"mub_{r}.csv") for r in range(d)], d)
    _certification(raw, raw_std, raw_fams, uniform, problems, f"{out}/cert_raw")
    if raw["results"]["d_ent"] > 1:
        problems.append(f"{out}/cert_raw: scrambled tables certify "
                        f"d_ent = {raw['results']['d_ent']}")
    seed = _json(os.path.join(out, "scans", "meta.json"))["seed"]
    return [{"seed": seed, "F_predicted": pred["results"]["fidelity"],
             "d_ent_predicted": pred["results"]["d_ent"],
             "F_scrambled": raw["results"]["fidelity"],
             "d_ent_scrambled": raw["results"]["d_ent"]}], problems


def check(workload: str, d: int, out_dirs: List[str], seed: int) -> Tuple[Facts, List[str]]:
    """Check every kept unit; an unreadable or malformed output is a problem."""
    facts: Facts = []
    problems: List[str] = []
    for k, out in enumerate(out_dirs):
        try:
            if workload in ("certify-mc", "scenario-d101"):
                f, p = unscramble_certify(out, d, np.random.default_rng([seed, k]))
            elif workload == "fibre-n2000":
                f, p = tomography(out, d)
            else:
                f, p = file_chain(out, d)
        except (OSError, ValueError, KeyError) as exc:
            f, p = [], [f"{out}: {exc!r}"]
        facts += f
        problems += p
    return facts, problems
