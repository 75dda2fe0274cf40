"""Batch command-line interface: simulate, reconstruct, unscramble, certify.

Subcommands map to the stages of a scattering-channel experiment:

  simulate           draw a channel, write scan bundles and raw tables
  tomo               turn a scan bundle into a transmission matrix
  unscramble         turn a transmission matrix into corrective operators
  certify            turn coincidence tables into a certification report
  run                execute a named end-to-end scenario

All randomness flows from one root seed through named sub-streams (channel
draws, each sampling stage, Monte-Carlo resampling), so any artifact can be
reproduced in isolation. Reports are canonical JSON: same config and seed
give byte-identical output. A report's tables block names each table's CSV
file and its SHA-256 rather than repeating the counts.

Every scenario, and `simulate`, is a short sequence of shared stages: draw
the medium, scan it, reconstruct its transmission matrix, build the
correction, measure the coincidence tables, certify. Each count table is
written as soon as it is measured and handed on; certification reads each
rotated-family table once and keeps only its d-length statistics, so no
stage holds more than the standard table and one family table at a time.

The exposure setting is passed unchanged to every sampler in `measure`,
which reads it as the Poisson mean of each acquisition's brightest cell:
each coincidence table is one acquisition, each four-step phase scan
another. exposure = inf is the noiseless mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from . import bases, certify, channel, measure, numerics, states, tomo, unscramble
from .errors import (
    CertificationFailure,
    ConditioningError,
    ConfigError,
    FormatError,
    ToolkitError,
)

_STREAM_CHANNEL = 1

REPORT_SCHEMA = "report_v2"


@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved settings for one scenario run."""

    scenario: str
    d: int = 7
    n_modes: int = 60
    seed: int = 0
    exposure: float = 1e4
    dark_rate: float = 0.0
    reference_amplitude: float = 1.0
    n_mc: int = 1000
    scan_family: str = "mub:0"

    def __post_init__(self) -> None:
        # Types first: JSON true is not an integer, and exposure may be inf
        # but no other number may be infinite or NaN.
        for name in ("d", "n_modes", "seed", "n_mc"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("exposure", "dark_rate", "reference_amplitude"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if name != "exposure" and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if not isinstance(self.scan_family, str):
            raise ConfigError(f"scan_family must be a string, got {self.scan_family!r}")
        if self.scenario not in _SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; choose from {_SCENARIOS}")
        if not numerics.is_prime(self.d):
            raise ConfigError(f"d must be prime, got {self.d}")
        if self.d + 1 > self.n_modes:
            raise ConfigError(
                f"need d + 1 <= n_modes, got d={self.d}, n_modes={self.n_modes}")
        if not (self.exposure > 0):
            raise ConfigError(f"exposure must be positive, got {self.exposure}")
        if self.dark_rate < 0:
            raise ConfigError("dark_rate must be nonnegative")
        if self.reference_amplitude <= 0:
            raise ConfigError("reference_amplitude must be positive")
        if self.n_mc < 0:
            raise ConfigError("n_mc must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        try:
            bases.parse_basis_spec(self.scan_family, self.d)
        except ToolkitError as exc:
            raise ConfigError(f"bad scan_family: {exc}") from exc
        if self.scenario == "fixture-a1" and self.d != 7:
            raise ConfigError("the shipped fixture is 7-dimensional; use d=7")


def config_to_dict(cfg: ScenarioConfig) -> Dict[str, object]:
    out = asdict(cfg)
    if math.isinf(cfg.exposure):
        out["exposure"] = "inf"
    return out


def config_from_dict(data: Dict[str, object]) -> ScenarioConfig:
    known = {f for f in ScenarioConfig.__dataclass_fields__}
    extra = set(data) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    if "scenario" not in data:
        raise ConfigError("config needs a 'scenario' key")
    kwargs = dict(data)
    if isinstance(kwargs.get("exposure"), str):
        if kwargs["exposure"] != "inf":
            raise ConfigError(f"bad exposure {kwargs['exposure']!r}")
        kwargs["exposure"] = math.inf
    try:
        return ScenarioConfig(**kwargs)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _sanitize(obj):
    """Make reports JSON-safe: numpy scalars/arrays to plain Python."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path: str, obj) -> None:
    """Write canonical JSON: sorted keys, fixed indentation, full precision."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(_sanitize(obj), sort_keys=True, indent=2,
                            allow_nan=False) + "\n")


def emit_report(report: Dict[str, object], out_dir: str) -> str:
    path = os.path.join(out_dir, "report.json")
    _write_json(path, report)
    return path


def _report(scenario: str, results: Dict[str, object],
            table_paths: Dict[str, str], out_dir: str) -> Dict[str, object]:
    """Report skeleton whose tables block points at each table's CSV file.

    Each label maps to the file's path, relative to out_dir where the
    report is written, and the SHA-256 of its bytes.
    """
    tables = {}
    for label, path in table_paths.items():
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        tables[label] = {"path": os.path.relpath(path, out_dir).replace(os.sep, "/"),
                         "sha256": digest}
    return {"schema": REPORT_SCHEMA, "scenario": scenario, "results": results,
            "tables": tables}


def _save_table(directory: str, table: measure.CountTable,
                name: Optional[str] = None) -> str:
    """Write a table to <directory>/<name>.csv and return that path.

    A table's name defaults to its label with ':' replaced by '_'.
    """
    if name is None:
        name = table.basis_label_a.replace(":", "_")
    path = os.path.join(directory, name + ".csv")
    measure.save_count_table(path, table)
    return path


def _saving(directory: str, tables: Iterable[measure.CountTable],
            paths: Dict[str, str]) -> Iterator[measure.CountTable]:
    """Write each table as it passes and map its label to its path in `paths`."""
    for table in tables:
        paths[table.basis_label_a] = _save_table(directory, table)
        yield table


# ---------------------------------------------------------------------------
# Pipeline stages: medium -> scans -> reconstruction -> correction -> tables
# -> certification. Scenarios and subcommands are short sequences of these.
# ---------------------------------------------------------------------------


def _draw_channel(cfg: ScenarioConfig, out_dir: str) -> channel.ChannelModel:
    """Draw the medium from the channel sub-stream and save it."""
    ch = channel.haar_channel(cfg.d, cfg.n_modes,
                              numerics.substream(cfg.seed, _STREAM_CHANNEL))
    channel.save_channel(os.path.join(out_dir, "channel"), ch)
    return ch


def _scan(cfg: ScenarioConfig, ch: channel.ChannelModel, out_dir: str):
    """Run the S and E phase-step scans through the medium, reference lit.

    Saves the scan bundle and returns the scanned state, both scans' step
    tables and the scan family.
    """
    family = bases.parse_basis_spec(cfg.scan_family, cfg.d)
    full = channel.transmitted_state(ch, cfg.reference_amplitude)
    s_tabs, e_tabs = (scan(full, family, cfg.exposure, cfg.seed, cfg.dark_rate)
                      for scan in (measure.phase_step_scan_s, measure.phase_step_scan_e))
    scan_dir = os.path.join(out_dir, "scans")
    for kind, tabs in (("s", s_tabs), ("e", e_tabs)):
        for step, table in enumerate(tabs):
            _save_table(scan_dir, table, f"{kind}_step{step}")
    meta = {
        "family": family.kind,
        "d": family.dim,
        "theta_grid": list(measure.THETA_GRID),
        "exposure": "inf" if math.isinf(cfg.exposure) else cfg.exposure,
        "seed": cfg.seed,
    }
    _write_json(os.path.join(scan_dir, "meta.json"), meta)
    return full, s_tabs, e_tabs, family


def _load_scan_bundle(scan_dir: str):
    """Read the eight step tables, then build the family meta.json names at
    the width of the S tables; any other `d` there raises FormatError."""
    meta_path = os.path.join(scan_dir, "meta.json")
    meta = numerics._read_json(meta_path, {"d": int, "family": str})
    names = ([f"{kind}_step{k}.csv" for k in range(4)] for kind in "se")
    s_tabs, e_tabs = ([measure.load_count_table(os.path.join(scan_dir, n)) for n in scan]
                      for scan in names)
    width = s_tabs[0].counts.shape[1]
    if meta["d"] != width:
        raise FormatError(f"{meta_path}: 'd' is {meta['d']}, "
                          f"but the S tables are {width} wide")
    family = bases.parse_basis_spec(meta["family"], meta["d"])
    return s_tabs, e_tabs, family


def _save_t_hat(out_dir: str, recon: tomo.Reconstruction) -> None:
    t = recon.t
    numerics.save_matrix_csv(os.path.join(out_dir, "t_hat.csv"), t.matrix)
    meta = {
        "dim": t.dim,
        "includes_reference": t.includes_reference,
        "basis_tag": None if t.basis_tag is None else t.basis_tag.kind,
        "e_ratio": recon.e_ratio,
        "condition_number": recon.condition_number,
    }
    _write_json(os.path.join(out_dir, "t_hat.json"), meta)


def _scan_and_reconstruct(cfg: ScenarioConfig, ch: channel.ChannelModel,
                          out_dir: str):
    """Scan the medium, then reconstruct and save its transmission matrix.

    Returns the scanned state and the reconstruction.
    """
    full, s_tabs, e_tabs, family = _scan(cfg, ch, out_dir)
    recon = tomo.reconstruct(s_tabs, e_tabs, family=family)
    _save_t_hat(out_dir, recon)
    return full, recon


def _load_t_hat(path: str) -> channel.EffectiveT:
    matrix = numerics.load_matrix_csv(path)
    meta_path = os.path.splitext(path)[0] + ".json"
    meta = numerics._read_json(meta_path) if os.path.exists(meta_path) else {}
    includes_reference = meta.get("includes_reference", False)
    basis_tag = meta.get("basis_tag")
    if not isinstance(includes_reference, bool):
        raise FormatError(f"{meta_path}: 'includes_reference' must be true or false")
    if not isinstance(basis_tag, (str, type(None))):
        raise FormatError(f"{meta_path}: 'basis_tag' must be a string or null")
    family = (None if basis_tag is None
              else bases.parse_basis_spec(basis_tag, matrix.shape[0]))
    return channel.EffectiveT(matrix=matrix, includes_reference=includes_reference,
                              basis_tag=family)


def _build_ops(t: channel.EffectiveT,
               out_dir: str) -> unscramble.UnscrambleOperators:
    """Invert a transmission matrix into the correction and save it."""
    ops = unscramble.build_w(t)
    u_dir = os.path.join(out_dir, "unscramble")
    numerics.save_matrix_csv(os.path.join(u_dir, "w_alice.csv"), ops.normalized_w)
    numerics.save_matrix_csv(os.path.join(u_dir, "m_bob.csv"), ops.m_bob)
    meta = {
        "dim": ops.dim,
        "basis_kind": ops.basis_kind,
        "eta": ops.eta,
        "condition_number": ops.condition_number,
    }
    _write_json(os.path.join(u_dir, "meta.json"), meta)
    return ops


def _measure_tables(cfg: ScenarioConfig, state: states.BipartiteState,
                    ops: Optional[unscramble.UnscrambleOperators] = None,
                    target: Optional[certify.TargetState] = None
                    ) -> Tuple[measure.CountTable, Iterator[measure.CountTable],
                               certify.TargetState]:
    """The standard table and the d rotated-family tables, each its own
    acquisition; returns the standard table, a generator that measures the
    rotated tables one at a time as they are asked for, and the
    certification target.

    Without ops the state is measured directly in the standard and unbiased
    families against the uniform target. With ops the measurements go
    through the correction and the rotated probes are tilted to `target`,
    by default the spectrum nominated from the standard table.
    """
    if ops is None:
        def direct(family: bases.BasisFamily) -> measure.CountTable:
            return measure.measure_correlations(state, family, cfg.exposure, cfg.seed,
                                                cfg.dark_rate)

        return (direct(bases.standard_family(cfg.d)),
                (direct(bases.mub(cfg.d, r)) for r in range(cfg.d)),
                certify.TargetState.uniform(cfg.d))

    def recovered(v: Optional[unscramble.VOperator]) -> measure.CountTable:
        return unscramble.measure_recovered(state, ops, v, cfg.exposure, cfg.seed,
                                            dark_rate=cfg.dark_rate)

    std = recovered(None)
    if target is None:
        target = certify.estimate_lambda(std)
    return (std, (recovered(unscramble.build_v(ops, r, target.lambdas))
                  for r in range(cfg.d)), target)


def _certify(standard: measure.CountTable, families: Iterable[measure.CountTable],
             target: Optional[certify.TargetState], n_mc: int,
             seed: int) -> Tuple[certify.CertificationReport, Dict[str, object]]:
    """Certify a standard table and rotated-family tables, read once each;
    returns the certification and its results block."""
    rep = certify.certify(standard, families, target=target, n_mc=n_mc, seed=seed)
    return rep, {
        "fidelity": rep.fidelity,
        "fidelity_sigma": rep.fidelity_sigma,
        "n_mc": rep.n_mc,
        "method": rep.method,
        "bounds": list(rep.bounds),
        "d_ent": rep.d_ent,
        "robust_3sigma": rep.robust_3sigma,
        "entangled": rep.entangled,
        "target_lambda": rep.target.lambdas,
    }


def _certify_saved(out_dir: str, standard: measure.CountTable,
                   families: Iterable[measure.CountTable],
                   target: Optional[certify.TargetState], n_mc: int, seed: int
                   ) -> Tuple[certify.CertificationReport, Dict[str, object],
                              Dict[str, str]]:
    """Write the standard table to <out_dir>/tables, then pass each family
    table through its write into certification; returns the certification,
    its results block and each table's path by label."""
    table_dir = os.path.join(out_dir, "tables")
    paths = {standard.basis_label_a: _save_table(table_dir, standard)}
    rep, results = _certify(standard, _saving(table_dir, families, paths), target,
                            n_mc, seed)
    return rep, results, paths


# ---------------------------------------------------------------------------
# Scenarios: each writes its tables as it measures them and returns its
# results block and each table's path by label
# ---------------------------------------------------------------------------


def _scenario_direct(cfg: ScenarioConfig, out_dir: str):
    """baseline measures the source state itself; scramble measures it
    after a medium, with no correction."""
    if cfg.scenario == "baseline":
        state = states.max_entangled(cfg.d)
    else:
        state = channel.transmitted_state(_draw_channel(cfg, out_dir))
    rep, results, paths = _certify_saved(out_dir, *_measure_tables(cfg, state),
                                         cfg.n_mc, cfg.seed)
    if cfg.scenario == "scramble":
        results["certified"] = rep.entangled
    return results, paths


def _scenario_tomography(cfg: ScenarioConfig, out_dir: str):
    ch = _draw_channel(cfg, out_dir)
    _, recon = _scan_and_reconstruct(cfg, ch, out_dir)
    family = recon.t.basis_tag
    oracle = bases.rotate_matrix(channel.effective_t(ch).matrix, family)
    return {
        "reconstruction_error": numerics.dist_up_to_scalar(recon.t.matrix, oracle),
        "e_ratio": recon.e_ratio,
        "condition_number": recon.condition_number,
        "basis_tag": family.kind,
    }, {}


def _scenario_unscramble_certify(cfg: ScenarioConfig, out_dir: str):
    full, recon = _scan_and_reconstruct(cfg, _draw_channel(cfg, out_dir), out_dir)
    ops = _build_ops(recon.t, out_dir)
    _, results, paths = _certify_saved(
        out_dir, *_measure_tables(cfg, channel.drop_reference(full), ops),
        cfg.n_mc, cfg.seed)
    results["reconstruction"] = {
        "e_ratio": recon.e_ratio,
        "condition_number": recon.condition_number,
    }
    results["eta"] = ops.eta
    return results, paths


def _scenario_two_channel(cfg: ScenarioConfig, out_dir: str):
    u_a, u_b = (numerics.haar_unitary(
        cfg.d, numerics.substream(cfg.seed, _STREAM_CHANNEL, side)) for side in (0, 1))
    numerics.save_matrix_csv(os.path.join(out_dir, "u_alice.csv"), u_a)
    numerics.save_matrix_csv(os.path.join(out_dir, "u_bob.csv"), u_b)
    phi = states.max_entangled(cfg.d)
    two_sided = states.apply_one_sided(phi, u_a, u_b)
    combined = channel.compose_two_channels(u_a, u_b)
    one_sided = states.apply_one_sided(phi, None, combined.matrix)
    _, results, paths = _certify_saved(
        out_dir, *_measure_tables(cfg, two_sided, _build_ops(combined, out_dir)),
        cfg.n_mc, cfg.seed)
    results["equivalence_residual"] = float(
        np.max(np.abs(two_sided.coeffs - one_sided.coeffs)))
    return results, paths


def _scenario_fixture_a1(cfg: ScenarioConfig, out_dir: str):
    t_meas = channel.load_fixture_tm0()
    target = certify.TargetState(dim=7, lambdas=channel.load_fixture_lambda())
    t_std = bases.rotate_matrix(t_meas.matrix, t_meas.basis_tag, inverse=True)
    state = channel.choi_state(channel.EffectiveT(matrix=t_std))
    # The fixture is evaluated exactly, whatever exposure and dark rate are set.
    exact = replace(cfg, exposure=measure.NOISELESS, dark_rate=0.0)
    std, families, _ = _measure_tables(exact, state, _build_ops(t_meas, out_dir), target)
    dominant = []

    def checked(tables: Iterable[measure.CountTable]) -> Iterator[measure.CountTable]:
        # Each rotated table's diagonal dominance, taken as it passes.
        for table in tables:
            probs = table.normalized()
            dominant.append(bool(np.all(
                np.diag(probs) >= np.max(probs - np.diag(np.diag(probs)), axis=1))))
            yield table

    rep, results, paths = _certify_saved(out_dir, std, checked(families), target, 0,
                                         cfg.seed)
    results["b5"] = rep.bounds[4]
    results["lambda_fixture"] = target.lambdas
    results["lambda_recovered"] = certify.estimate_lambda(std).lambdas
    results["tilted_diagonal_dominant"] = dominant
    return results, paths


_SCENARIO_RUNNERS = {
    "baseline": _scenario_direct,
    "scramble": _scenario_direct,
    "tomography": _scenario_tomography,
    "unscramble-certify": _scenario_unscramble_certify,
    "two-channel": _scenario_two_channel,
    "fixture-a1": _scenario_fixture_a1,
}

_SCENARIOS = tuple(_SCENARIO_RUNNERS)


def run_scenario(cfg: ScenarioConfig, out_dir: str) -> Dict[str, object]:
    """Execute a scenario, writing artifacts and the final report."""
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "config.json"), config_to_dict(cfg))
    results, paths = _SCENARIO_RUNNERS[cfg.scenario](cfg, out_dir)
    report = _report(cfg.scenario, results, paths, out_dir)
    report["config"] = config_to_dict(cfg)
    emit_report(report, out_dir)
    return report


# ---------------------------------------------------------------------------
# Argument parsing and subcommand handlers
# ---------------------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--d", type=int, help="local dimension (prime)")
    p.add_argument("--n-modes", type=int, help="total fibre modes")
    p.add_argument("--seed", type=int, help="root seed")
    p.add_argument("--exposure", help="peak-cell Poisson mean, or 'inf'")
    p.add_argument("--dark-rate", type=float, help="uniform dark-count rate")
    p.add_argument("--reference-amplitude", type=float,
                   help="source weight of the reference mode")
    p.add_argument("--n-mc", type=int, help="Monte-Carlo resamples for error bars")
    p.add_argument("--scan-family", help="scan basis: standard or mub:r")
    p.add_argument("--out", default="out", help="output directory")


def _resolve_config(args: argparse.Namespace, scenario: str) -> ScenarioConfig:
    data: Dict[str, object] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="ascii") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    data["scenario"] = data.get("scenario", scenario)
    if scenario:
        data["scenario"] = scenario
    overrides = {
        "d": args.d,
        "n_modes": args.n_modes,
        "seed": args.seed,
        "dark_rate": args.dark_rate,
        "reference_amplitude": args.reference_amplitude,
        "n_mc": args.n_mc,
        "scan_family": args.scan_family,
    }
    if args.exposure is not None:
        overrides["exposure"] = (math.inf if args.exposure == "inf"
                                 else _parse_float(args.exposure, "exposure"))
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    return config_from_dict(data)


def _parse_float(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad {name}: {text!r}") from exc


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, "tomography")
    for spec in args.basis or []:
        bases.parse_basis_spec(spec, cfg.d)  # a bad spec fails before any write
    specs = args.basis or ["standard"] + [f"mub:{r}" for r in range(cfg.d)]
    ch = _draw_channel(cfg, args.out)
    _scan(cfg, ch, args.out)
    logical = channel.transmitted_state(ch)
    table_dir = os.path.join(args.out, "tables")
    for spec in specs:
        _save_table(table_dir, measure.measure_correlations(
            logical, bases.parse_basis_spec(spec, cfg.d), cfg.exposure, cfg.seed,
            cfg.dark_rate))
    print(f"wrote channel, scan bundle and {len(specs)} tables to {args.out}")
    return 0


def _cmd_tomo(args: argparse.Namespace) -> int:
    s_tabs, e_tabs, family = _load_scan_bundle(args.scans)
    recon = tomo.reconstruct(s_tabs, e_tabs, family=family,
                             ref_floor=args.ref_floor)
    _save_t_hat(args.out, recon)
    print(f"reconstructed {recon.t.dim}x{recon.t.dim} matrix "
          f"(family {family.kind}, e_ratio {recon.e_ratio:.3e}, "
          f"condition number {recon.condition_number:.2f})")
    return 0


def _save_prediction(directory: str, state: states.BipartiteState,
                     ops: unscramble.UnscrambleOperators,
                     v: Optional[unscramble.VOperator]) -> None:
    """Write the noiseless table the correction predicts through V_r (the
    standard one for v None) to <directory>/predicted_<kind>.csv."""
    kind = "standard" if v is None else v.kind
    table = measure.CountTable(counts=unscramble.predict_table(state, ops, v),
                               basis_label_a=f"recovered:{kind}",
                               basis_label_b=f"recovered:{kind}*",
                               exposure=measure.NOISELESS)
    _save_table(directory, table, "predicted_" + kind.replace(":", "_"))


def _cmd_unscramble(args: argparse.Namespace) -> int:
    t = _load_t_hat(args.t_hat)
    lambdas = None
    if args.lambdas:
        lambdas = _load_lambda_file(args.lambdas, t.dim)
    ops = _build_ops(t, args.out)
    if t.basis_tag is not None:
        t_std = bases.rotate_matrix(t.matrix, t.basis_tag, inverse=True)
    else:
        t_std = t.matrix
    state = channel.choi_state(channel.EffectiveT(matrix=t_std))
    u_dir = os.path.join(args.out, "unscramble")
    _save_prediction(u_dir, state, ops, None)
    zeta_meta = {}
    for r in range(t.dim):
        v = unscramble.build_v(ops, r, lambdas)
        numerics.save_matrix_csv(
            os.path.join(u_dir, f"v_alice_{r}.csv"), v.normalized_v)
        _save_prediction(u_dir, state, ops, v)
        zeta_meta[v.kind] = v.zeta
    _write_json(os.path.join(u_dir, "zeta.json"), zeta_meta)
    print(f"wrote unscrambling operators and predictions to {u_dir} "
          f"(condition number {ops.condition_number:.2f})")
    return 0


def _load_lambda_file(path: str, dim: int) -> np.ndarray:
    """The target spectrum of a {"lambda": [...]} file: dim finite weights
    that pass bases.check_lambdas, checked before anything is written."""
    values = numerics._read_json(path, {"lambda": list})["lambda"]
    try:
        lam = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        lam = np.array([])
    if lam.shape != (dim,) or not np.all(np.isfinite(lam)):
        raise ConfigError(f"lambda file {path}: 'lambda' must list {dim} finite numbers")
    return bases.check_lambdas(lam, dim)


def _require_dent(required: Optional[int], d_ent: int) -> None:
    if required and d_ent < required:
        raise CertificationFailure(
            f"certified d_ent = {d_ent} below required {required}")


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.n_mc < 0:
        raise ConfigError("n_mc must be nonnegative")
    if args.seed < 0:
        raise ConfigError("seed must be nonnegative")
    standard = measure.load_count_table(args.standard)
    target = None
    if args.target:
        d = standard.counts.shape[0]
        target = certify.TargetState(dim=d, lambdas=_load_lambda_file(args.target, d))
    table_paths = {standard.basis_label_a: args.standard}

    def loaded() -> Iterator[measure.CountTable]:
        # Each family table is read as certification asks for it.
        for path in args.table:
            table = measure.load_count_table(path)
            table_paths[table.basis_label_a] = path
            yield table

    rep, results = _certify(standard, loaded(), target, args.n_mc, args.seed)
    emit_report(_report("certify", results, table_paths, args.out), args.out)
    print(rep.summary())
    _require_dent(args.require_dent, rep.d_ent)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, args.scenario)
    results = run_scenario(cfg, args.out)["results"]
    if "fidelity" not in results:
        print(f"scenario {cfg.scenario}: report written to {args.out}")
        return 0
    print(f"scenario {cfg.scenario}: F = {results['fidelity']:.4f}, "
          f"d_ent = {results['d_ent']}")
    _require_dent(args.require_dent, results["d_ent"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qscatter",
        description="Simulate, reconstruct, unscramble and certify "
                    "entanglement through scattering channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a channel and write raw data")
    _add_config_flags(p_sim)
    p_sim.add_argument("--basis", action="append",
                       help="correlation table basis (repeatable)")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_tomo = sub.add_parser("tomo", help="reconstruct T from a scan bundle")
    p_tomo.add_argument("--scans", required=True, help="scan bundle directory")
    p_tomo.add_argument("--out", default="out", help="output directory")
    p_tomo.add_argument("--ref-floor", type=float, default=1e-6,
                        help="relative reference-interference floor")
    p_tomo.set_defaults(handler=_cmd_tomo)

    p_un = sub.add_parser("unscramble", help="build corrective operators")
    p_un.add_argument("--t-hat", required=True, help="t_hat.csv path")
    p_un.add_argument("--out", default="out", help="output directory")
    p_un.add_argument("--lambdas", help="target spectrum JSON for tilted probes")
    p_un.set_defaults(handler=_cmd_unscramble)

    p_cert = sub.add_parser("certify", help="certify dimensionality from tables")
    p_cert.add_argument("--standard", required=True,
                        help="standard-basis table CSV")
    p_cert.add_argument("--table", action="append", required=True,
                        help="rotated-family table CSV (repeatable)")
    p_cert.add_argument("--target", help="target spectrum JSON")
    p_cert.add_argument("--n-mc", type=int, default=1000)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--out", default="out", help="output directory")
    p_cert.add_argument("--require-dent", type=int,
                        help="exit 4 unless d_ent reaches this")
    p_cert.set_defaults(handler=_cmd_certify)

    p_run = sub.add_parser("run", help="execute a named scenario end to end")
    p_run.add_argument("--scenario", required=True, choices=_SCENARIOS)
    _add_config_flags(p_run)
    p_run.add_argument("--require-dent", type=int,
                       help="exit 4 unless d_ent reaches this")
    p_run.set_defaults(handler=_cmd_run)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CertificationFailure as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 4
    except ConditioningError as exc:
        print(f"conditioning error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
