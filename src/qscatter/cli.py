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
give byte-identical output under the same numpy, BLAS build and BLAS
thread count. A report's tables block names each table's CSV file and its
SHA-256 rather than repeating the counts. Its diagnostics block holds what
the stages measured about the correction (the basis tag, the reference's
e_ratio, T's condition number, the SLM row scales eta), each fact recorded
once, by the stage that computes it. Each command writes through one
output object, `_Output`, which stages its files inside --out and moves
them into place only once the command has succeeded.

A JSON sidecar keeps only what no CSV header, table label or report
states: channel.json the column layout that load_channel reads;
scans/meta.json, under `simulate` alone (it writes no config.json), the
configured exposure and the seed, a record (a step table's header holds
the Poisson scale); t_hat.json the basis_tag that `unscramble` reads and,
as `tomo` writes no report, e_ratio and condition_number; unscramble/meta.json
and zeta.json what `unscramble` measured. Every condition_number is T's.
Readers ignore other keys, so older outputs still load.

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
import contextlib
import functools
import hashlib
import math
import numbers
import os
import shutil
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from . import bases, certify, channel, measure, numerics, states, tomo, unscramble
from .errors import (
    CertificationFailure,
    ConditioningError,
    ConfigError,
    FormatError,
    InvalidDimensionError,
    ToolkitError,
)

_STREAM_CHANNEL = 1

REPORT_SCHEMA = "report_v3"


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
        if self.n_modes * (self.d + 1) * 16 > sys.maxsize:  # bytes of the medium
            raise ConfigError(f"n_modes is too large to store: {self.n_modes}")
        if not (self.exposure > 0):
            raise ConfigError(f"exposure must be positive, got {self.exposure}")
        if self.dark_rate < 0:
            raise ConfigError("dark_rate must be nonnegative")
        if self.reference_amplitude <= 0:
            raise ConfigError("reference_amplitude must be positive")
        certify._check_resampling(self.n_mc, self.seed)
        self.family  # parsed once here, which checks it, and kept
        if self.scenario == "fixture-a1" and self.d != 7:
            raise ConfigError("the shipped fixture is 7-dimensional; use d=7")

    @functools.cached_property
    def family(self) -> bases.BasisFamily:
        """The scan family scan_family names, built once per config."""
        try:
            return bases.parse_basis_spec(self.scan_family, self.d)
        except ToolkitError as exc:
            raise ConfigError(f"bad scan_family: {exc}") from exc


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
    return ScenarioConfig(**kwargs)  # type: ignore[arg-type]


def emit_report(report: Dict[str, object], out_dir: str) -> str:
    """Write a report to <out_dir>/report.json and return that path."""
    path = os.path.join(out_dir, "report.json")
    numerics._write_json(path, report)
    return path


class _Output(contextlib.AbstractContextManager):
    """Every file one command writes, staged inside out_dir and committed whole.

    Construction, before any work, rejects an out_dir that is not a writable
    directory. A missing out_dir is made and stages itself; an existing one
    stages in a new directory inside it, whose entries, on success, are each
    renamed over the entry of that name. Before the first rename, an input
    (any path the command read) that lies under one of those entries is
    refused with ConfigError, as the commit would delete it. On an exception,
    that refusal included, an existing out_dir keeps every byte, and a
    missing one is removed again. `tables` is the report's tables block: by
    label, each table's path from out_dir and the SHA-256 of its bytes.
    `diagnostics` is its diagnostics block, filled by the stages.
    """

    def __init__(self, out_dir: str, inputs: Iterable[str] = ()) -> None:
        self.out_dir = out_dir
        self.inputs = [path for path in inputs if path]  # an optional input may be None
        self.tables: Dict[str, Dict[str, str]] = {}
        self.diagnostics: Dict[str, object] = {}
        self._given: Dict[str, str] = {}  # each read table's path as given, by label
        if os.path.lexists(out_dir) and not os.path.isdir(out_dir):
            raise ConfigError(f"--out {out_dir} exists and is not a directory")
        # The topmost directory made here, if any, goes again on a failure.
        self.made, top = None, os.path.abspath(out_dir)
        while not os.path.lexists(top):
            self.made, top = top, os.path.dirname(top)
        try:
            os.makedirs(out_dir, exist_ok=True)
            self.stage = (out_dir if self.made is not None else
                          tempfile.mkdtemp(prefix=".", suffix=".staging", dir=out_dir))
        except OSError as exc:
            if self.made is not None:
                shutil.rmtree(self.made, ignore_errors=True)
            raise ConfigError(f"--out {out_dir} cannot be written: {exc}") from exc

    def __exit__(self, kind, exc, tb) -> None:
        try:
            if kind is None and self.made is None:  # a missing out_dir held no input
                names, out = sorted(os.listdir(self.stage)), os.path.realpath(self.out_dir)
                for path in self.inputs:
                    if os.path.relpath(os.path.realpath(path), out).split(os.sep)[0] in names:
                        raise ConfigError(f"input {path} lies under an entry of --out "
                                          f"{self.out_dir} that this command replaces")
                for name in names:
                    self._commit(name)
        finally:
            if kind is not None or self.made is None:  # a made out_dir holds the stage
                shutil.rmtree(self.made or self.stage, ignore_errors=True)

    def _commit(self, name: str) -> None:
        staged, target = os.path.join(self.stage, name), os.path.join(self.out_dir, name)
        # A rename cannot put anything over a directory, nor a directory over
        # a file: such an old entry moves aside as .<name> (no name written
        # starts with a dot), and back if the new one cannot take its place.
        aside = os.path.join(self.stage, "." + name)
        moved = os.path.lexists(target) and (os.path.isdir(target) or os.path.isdir(staged))
        if moved:
            os.replace(target, aside)
        try:
            os.replace(staged, target)
        except OSError:
            if moved:
                os.replace(aside, target)
            raise

    def path(self, rel: str) -> str:
        """The staged path of `rel`; the cell-grid writers make its directory."""
        return os.path.join(self.stage, rel)

    def json(self, rel: str, obj) -> None:
        os.makedirs(os.path.dirname(self.path(rel)), exist_ok=True)
        numerics._write_json(self.path(rel), obj)

    def measured(self, table: measure.CountTable) -> measure.CountTable:
        """Write a measured table to tables/<label>.csv, ':' as '_', name it in
        the tables block and pass it on."""
        path = "tables/" + table.basis_label_a.replace(":", "_") + ".csv"
        digest = measure.save_count_table(self.path(path), table)
        self.tables[table.basis_label_a] = {"path": path, "sha256": digest}
        return table

    def read(self, path: str) -> measure.CountTable:
        """Read an input table and name it in the tables block, with the
        SHA-256 of the bytes read. A label that bases.parse_label refuses,
        or that an earlier input carried, raises an error naming the files."""
        digest = hashlib.sha256()
        table = measure.load_count_table(path, digest)
        label = table.basis_label_a
        try:
            bases.parse_label(label, table.counts.shape[0])
        except InvalidDimensionError as exc:
            raise InvalidDimensionError(f"{path}: {exc}") from exc
        if label in self._given:
            raise ConfigError(f"tables {self._given[label]} and {path} both carry "
                              f"the label {label!r}")
        self._given[label] = path
        self.tables[label] = {
            "path": os.path.relpath(path, self.out_dir).replace(os.sep, "/"),
            "sha256": digest.hexdigest()}
        return table

    def report(self, scenario: str, results: Dict[str, object],
               **extra: object) -> Dict[str, object]:
        """Write report.json and return the report."""
        report = {"schema": REPORT_SCHEMA, "scenario": scenario, "results": results,
                  "diagnostics": self.diagnostics, "tables": self.tables, **extra}
        emit_report(report, self.stage)
        return report


# ---------------------------------------------------------------------------
# Pipeline stages: medium -> scans -> reconstruction -> correction -> tables
# -> certification. Scenarios and subcommands are short sequences of these.
# ---------------------------------------------------------------------------


def _draw_channel(cfg: ScenarioConfig, out: _Output) -> channel.ChannelModel:
    """Draw the medium from the channel sub-stream and save it; a medium
    that does not fit in memory is a ConfigError."""
    try:
        ch = channel.haar_channel(cfg.d, cfg.n_modes,
                                  numerics.substream(cfg.seed, _STREAM_CHANNEL))
    except MemoryError:
        raise ConfigError(f"n_modes {cfg.n_modes}: the {cfg.n_modes} x {cfg.d + 1} "
                          f"medium does not fit in memory") from None
    channel.save_channel(out.path("channel"), ch)
    return ch


def _scan(cfg: ScenarioConfig, ch: channel.ChannelModel, out: _Output):
    """Run the S and E phase-step scans through the medium, reference lit.

    Saves the eight step tables and returns the scanned state and both
    scans' step tables, which carry the scan family in their label.
    """
    full = channel.transmitted_state(ch, cfg.reference_amplitude)
    s_tabs, e_tabs = (scan(full, cfg.family, cfg.exposure, cfg.seed, cfg.dark_rate)
                      for scan in (measure.phase_step_scan_s, measure.phase_step_scan_e))
    for kind, tabs in (("s", s_tabs), ("e", e_tabs)):
        for step, table in enumerate(tabs):
            measure.save_count_table(out.path(f"scans/{kind}_step{step}.csv"), table)
    return full, s_tabs, e_tabs


def _load_scan_bundle(scan_dir: str):
    """Read the eight step tables; they alone decide the reconstruction, and
    a `simulate` bundle's meta.json, a record of the run, is not read."""
    return [[measure.load_count_table(os.path.join(scan_dir, f"{kind}_step{k}.csv"))
             for k in range(4)] for kind in "se"]


def _reconstruct(out: _Output, s_tabs, e_tabs, **kwargs) -> tomo.Reconstruction:
    """Reconstruct the transmission matrix from the scans and save it."""
    recon = tomo.reconstruct(s_tabs, e_tabs, **kwargs)
    t = recon.t
    numerics.save_matrix_csv(out.path("t_hat.csv"), t.matrix)
    facts = {"basis_tag": t.basis_tag.kind, "e_ratio": recon.e_ratio,
             "condition_number": t.condition_number}
    out.json("t_hat.json", facts)
    out.diagnostics.update(facts)
    return recon


def _load_t_hat(path: str) -> channel.EffectiveT:
    matrix = numerics.load_matrix_csv(path)
    meta_path = os.path.splitext(path)[0] + ".json"
    meta = numerics._read_json(meta_path) if os.path.exists(meta_path) else {}
    # a missing or null basis_tag names the standard basis
    basis_tag = "standard" if meta.get("basis_tag") is None else meta["basis_tag"]
    if meta.get("includes_reference", False) is not False:
        raise FormatError(f"{meta_path}: 'includes_reference' must be false")
    if not isinstance(basis_tag, str):
        raise FormatError(f"{meta_path}: 'basis_tag' must be a string or null")
    return channel.EffectiveT(matrix=matrix, basis_tag=bases.parse_basis_spec(
        basis_tag, matrix.shape[0]))


def _build_ops(t: channel.EffectiveT, out: _Output) -> unscramble.UnscrambleOperators:
    """Invert a transmission matrix into the correction and save it."""
    ops = unscramble.build_w(t)
    numerics.save_matrix_csv(out.path("unscramble/w_alice.csv"), ops.normalized_w)
    numerics.save_matrix_csv(out.path("unscramble/m_bob.csv"), ops.m_bob)
    out.diagnostics.update(basis_tag=ops.family.kind,
                           condition_number=t.condition_number, eta=ops.eta)
    return ops


def _measure_tables(cfg: ScenarioConfig, state: states.BipartiteState, out: _Output,
                    ops: Optional[unscramble.UnscrambleOperators] = None,
                    target: Optional[certify.TargetState] = None, exact: bool = False
                    ) -> Tuple[measure.CountTable, Iterator[measure.CountTable],
                               certify.TargetState]:
    """The standard table and the d rotated-family tables, each its own
    acquisition and each written through `out` as it is measured; returns
    the standard table, an iterator that measures the rotated tables one at
    a time as they are asked for, and the certification target.

    Without ops the state is measured directly in the standard and unbiased
    families against the uniform target. With ops the recovered state is
    formed once and measured, and the rotated probes are tilted to
    `target`, by default the spectrum nominated from the standard table.
    exact measures noiseless tables, whatever exposure and dark rate cfg sets.
    """
    exposure, dark_rate = (measure.NOISELESS, 0.0) if exact else (cfg.exposure, cfg.dark_rate)
    if ops is None:
        def direct(family: bases.BasisFamily) -> measure.CountTable:
            return out.measured(measure.measure_correlations(
                state, family, exposure, cfg.seed, dark_rate))

        return (direct(bases.standard_family(cfg.d)),
                (direct(bases.mub(cfg.d, r)) for r in range(cfg.d)),
                certify.TargetState.uniform(cfg.d))

    rec = unscramble.recovered_state(state, ops)

    def recovered(v: Optional[unscramble.VOperator]) -> measure.CountTable:
        return out.measured(unscramble.measure_recovered(
            rec, v, exposure, cfg.seed, dark_rate=dark_rate))

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


# ---------------------------------------------------------------------------
# Scenarios: each writes its artifacts through the output object, its tables
# as it measures them, and returns its results block
# ---------------------------------------------------------------------------


def _scenario_direct(cfg: ScenarioConfig, out: _Output):
    """baseline measures the source state itself; scramble measures it
    after a medium, with no correction."""
    state = (states.max_entangled(cfg.d) if cfg.scenario == "baseline"
             else channel.transmitted_state(_draw_channel(cfg, out)))
    return _certify(*_measure_tables(cfg, state, out), cfg.n_mc, cfg.seed)[1]


def _scenario_tomography(cfg: ScenarioConfig, out: _Output):
    ch = _draw_channel(cfg, out)
    t = _reconstruct(out, *_scan(cfg, ch, out)[1:]).t
    oracle = bases.rotate_matrix(channel.effective_t(ch).matrix, t.basis_tag)
    return {"reconstruction_error": numerics.dist_up_to_scalar(t.matrix, oracle)}


def _scenario_unscramble_certify(cfg: ScenarioConfig, out: _Output):
    full, *scans = _scan(cfg, _draw_channel(cfg, out), out)
    t = _reconstruct(out, *scans).t
    del scans  # the eight step tables are not held through certification
    ops = _build_ops(t, out)
    return _certify(*_measure_tables(cfg, channel.drop_reference(full), out, ops),
                    cfg.n_mc, cfg.seed)[1]


def _scenario_two_channel(cfg: ScenarioConfig, out: _Output):
    u_a, u_b = (numerics.haar_unitary(
        cfg.d, numerics.substream(cfg.seed, _STREAM_CHANNEL, side)) for side in (0, 1))
    numerics.save_matrix_csv(out.path("u_alice.csv"), u_a)
    numerics.save_matrix_csv(out.path("u_bob.csv"), u_b)
    phi = states.max_entangled(cfg.d)
    two_sided = states.apply_one_sided(phi, u_a, u_b)
    combined = channel.compose_two_channels(u_a, u_b)
    one_sided = states.apply_one_sided(phi, None, combined.matrix)
    _, results = _certify(*_measure_tables(cfg, two_sided, out, _build_ops(combined, out)),
                          cfg.n_mc, cfg.seed)
    results["equivalence_residual"] = float(
        np.max(np.abs(two_sided.coeffs - one_sided.coeffs)))
    return results


def _scenario_fixture_a1(cfg: ScenarioConfig, out: _Output):
    t_meas = channel.load_fixture_tm0()
    target = certify.TargetState(lambdas=channel.load_fixture_lambda())
    state = channel.choi_state(t_meas)
    # The fixture is evaluated exactly, whatever exposure and dark rate are set.
    std, families, _ = _measure_tables(cfg, state, out, _build_ops(t_meas, out), target,
                                       exact=True)
    dominant = []

    def checked(tables: Iterable[measure.CountTable]) -> Iterator[measure.CountTable]:
        # Each rotated table's diagonal dominance, taken as it passes.
        for table in tables:
            probs = table.normalized()
            dominant.append(bool(np.all(
                np.diag(probs) >= np.max(probs - np.diag(np.diag(probs)), axis=1))))
            yield table

    _, results = _certify(std, checked(families), target, 0, cfg.seed)
    results["lambda_recovered"] = certify.estimate_lambda(std).lambdas
    results["tilted_diagonal_dominant"] = dominant
    return results


_SCENARIO_RUNNERS = {
    "baseline": _scenario_direct,
    "scramble": _scenario_direct,
    "tomography": _scenario_tomography,
    "unscramble-certify": _scenario_unscramble_certify,
    "two-channel": _scenario_two_channel,
    "fixture-a1": _scenario_fixture_a1,
}

_SCENARIOS = tuple(_SCENARIO_RUNNERS)


def _run_scenario(cfg: ScenarioConfig, out: _Output) -> Dict[str, object]:
    """Execute a scenario, writing its config, artifacts and report through
    `out`; returns the report."""
    out.json("config.json", config_to_dict(cfg))
    results = _SCENARIO_RUNNERS[cfg.scenario](cfg, out)
    return out.report(cfg.scenario, results, config=config_to_dict(cfg))


def run_scenario(cfg: ScenarioConfig, out_dir: str) -> Dict[str, object]:
    """Execute a scenario and commit its artifacts and report to out_dir;
    returns the report."""
    with _Output(out_dir) as out:
        return _run_scenario(cfg, out)


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


def _resolve_config(args: argparse.Namespace, scenario: str,
                    strict: bool = True) -> ScenarioConfig:
    """The settings of --config, if given, under the flags', run as `scenario`.

    A config's `scenario` key, if it has one, must be `scenario` (strict, as
    `run` asks) or, as `simulate` runs any scenario's settings, a scenario.
    """
    data = numerics._read_json(args.config) if args.config else {}
    named = data.get("scenario", scenario)
    if named != scenario and (strict or named not in _SCENARIOS):
        wanted = f"--scenario {scenario!r}" if strict else "a scenario"
        raise ConfigError(f"config {args.config}: scenario {named!r} is not {wanted}")
    data["scenario"] = scenario
    for key in ("d", "n_modes", "seed", "dark_rate", "reference_amplitude", "n_mc",
                "scan_family"):
        if getattr(args, key) is not None:
            data[key] = getattr(args, key)
    if args.exposure is not None:
        try:
            data["exposure"] = float(args.exposure)  # "inf" included
        except ValueError as exc:
            raise ConfigError(f"bad exposure: {args.exposure!r}") from exc
    return config_from_dict(data)


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, "tomography", strict=False)
    specs = args.basis or ["standard"] + [f"mub:{r}" for r in range(cfg.d)]
    with _Output(args.out, [args.config]) as out:
        ch = _draw_channel(cfg, out)
        _scan(cfg, ch, out)
        out.json("scans/meta.json", {"exposure": cfg.exposure, "seed": cfg.seed})
        logical = channel.transmitted_state(ch)
        for spec in specs:
            out.measured(measure.measure_correlations(
                logical, bases.parse_basis_spec(spec, cfg.d), cfg.exposure, cfg.seed,
                cfg.dark_rate))
    print(f"wrote channel, scan bundle and {len(specs)} tables to {args.out}")
    return 0


def _cmd_tomo(args: argparse.Namespace) -> int:
    with _Output(args.out, [args.scans]) as out:
        recon = _reconstruct(out, *_load_scan_bundle(args.scans), ref_floor=args.ref_floor)
    print(f"reconstructed {recon.t.dim}x{recon.t.dim} matrix "
          f"(family {recon.t.basis_tag.kind}, e_ratio {recon.e_ratio:.3e}, "
          f"condition number {recon.t.condition_number:.2f})")
    return 0


def _save_prediction(out: _Output, recovered: states.BipartiteState,
                     v: Optional[unscramble.VOperator]) -> None:
    """Write the noiseless table of the recovered state through V_r (the
    standard one for v None) to unscramble/predicted_<kind>.csv."""
    table = measure.CountTable(counts=unscramble.predict_table(recovered, v),
                               basis_label_a=unscramble.recovered_label(v),
                               exposure=measure.NOISELESS)
    kind = "standard" if v is None else v.kind
    measure.save_count_table(
        out.path("unscramble/predicted_" + kind.replace(":", "_") + ".csv"), table)


def _cmd_unscramble(args: argparse.Namespace) -> int:
    with _Output(args.out, [args.t_hat, args.lambdas]) as out:
        t = _load_t_hat(args.t_hat)
        lambdas = _load_lambda_file(args.lambdas, t.dim) if args.lambdas else None
        ops = _build_ops(t, out)
        # This command writes no report, so its diagnostics are kept here.
        out.json("unscramble/meta.json", out.diagnostics)
        rec = unscramble.recovered_state(channel.choi_state(t), ops)
        _save_prediction(out, rec, None)
        zeta_meta = {}
        for r in range(t.dim):
            v = unscramble.build_v(ops, r, lambdas)
            numerics.save_matrix_csv(out.path(f"unscramble/v_alice_{r}.csv"),
                                     v.normalized_v)
            _save_prediction(out, rec, v)
            zeta_meta[v.kind] = v.zeta
        out.json("unscramble/zeta.json", zeta_meta)
    print(f"wrote unscrambling operators and predictions to "
          f"{os.path.join(args.out, 'unscramble')} "
          f"(condition number {t.condition_number:.2f})")
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
    certify._check_resampling(args.n_mc, args.seed)  # before any input is read
    with _Output(args.out, [args.standard, *args.table, args.target]) as out:
        standard = out.read(args.standard)
        target = None
        if args.target:
            d = standard.counts.shape[0]
            target = certify.TargetState(lambdas=_load_lambda_file(args.target, d))
        # Each family table is read as certification asks for it.
        rep, results = _certify(standard, map(out.read, args.table), target, args.n_mc,
                                args.seed)
        out.report("certify", results)
    print(rep.summary())
    _require_dent(args.require_dent, rep.d_ent)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, args.scenario)
    with _Output(args.out, [args.config]) as out:
        results = _run_scenario(cfg, out)["results"]
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
    p_tomo.add_argument("--ref-floor", type=float, default=1e-6,
                        help="relative reference-interference floor")
    p_tomo.set_defaults(handler=_cmd_tomo)

    p_un = sub.add_parser("unscramble", help="build corrective operators")
    p_un.add_argument("--t-hat", required=True, help="t_hat.csv path")
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
    p_cert.add_argument("--require-dent", type=int,
                        help="exit 4 unless d_ent reaches this")
    p_cert.set_defaults(handler=_cmd_certify)

    p_run = sub.add_parser("run", help="execute a named scenario end to end")
    p_run.add_argument("--scenario", required=True, choices=_SCENARIOS)
    _add_config_flags(p_run)
    p_run.add_argument("--require-dent", type=int,
                       help="exit 4 unless d_ent reaches this")
    p_run.set_defaults(handler=_cmd_run)
    for p in sub.choices.values():
        p.add_argument("--out", default="out", help="output directory")
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A warning that the filters let through prints as one stderr line.
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
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
