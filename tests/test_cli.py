"""Command-line interface: config handling, scenarios, exit codes."""

import builtins
import dataclasses
import hashlib
import itertools
import json
import math
import os
import shutil
import tracemalloc

import numpy as np
import pytest

from qscatter import bases, channel, cli, measure, numerics
from qscatter.errors import ConfigError

FAST = dict(d=3, n_modes=8, n_mc=16)


def _cfg(scenario="baseline", **kw):
    merged = dict(FAST, scenario=scenario)
    merged.update(kw)
    return cli.ScenarioConfig(**merged)


def _tree(path):
    """Every file under `path` by relative path, with its bytes, and every
    directory, with None."""
    tree = {}
    for root, dirs, files in os.walk(path):
        rel = os.path.relpath(root, path)
        tree.update({os.path.join(rel, d): None for d in dirs})
        for name in files:
            with open(os.path.join(root, name), "rb") as fh:
                tree[os.path.join(rel, name)] = fh.read()
    return tree


def _staging_dirs(path):
    return [str(p) for p in path.rglob("*.staging")]


@pytest.fixture(scope="module")
def filled_out(tmp_path_factory):
    """An --out that a successful unscramble-certify run filled with one
    entry of every kind a command writes."""
    out = tmp_path_factory.mktemp("filled") / "out"
    assert cli.main(["run", "--scenario", "unscramble-certify", "--d", "3",
                     "--n-modes", "8", "--exposure", "1e4", "--seed", "6",
                     "--n-mc", "4", "--out", str(out)]) == 0
    return out


@pytest.fixture
def fails(tmp_path, capsys, filled_out):
    """fails(argv, code) runs main(argv + ["--out", ...]) twice: into a
    missing, nested --out, none of whose missing directories may be left,
    and into a copy of filled_out, which must keep every byte. Both must
    return `code` with the same stderr and leave no staging directory;
    returns that stderr."""
    count = itertools.count()

    def run(argv, code):
        k = next(count)
        missing, filled = tmp_path / f"missing-{k}" / "a" / "b", tmp_path / f"filled-{k}"
        shutil.copytree(filled_out, filled)
        before = _tree(filled)
        errs = []
        for out in (missing, filled):
            capsys.readouterr()
            assert cli.main([*argv, "--out", str(out)]) == code
            errs.append(capsys.readouterr().err)
        assert not (tmp_path / f"missing-{k}").exists()
        assert _tree(filled) == before
        assert _staging_dirs(tmp_path) == []
        assert errs[0] == errs[1]
        return errs[0]

    return run


@pytest.mark.parametrize("overrides", [
    {"scenario": "nonsense"},
    {"d": 4},
    {"d": 11, "n_modes": 8},
    {"exposure": 0.0},
    {"exposure": -5.0},
    {"dark_rate": -0.1},
    {"reference_amplitude": 0.0},
    {"n_mc": -1},
    {"seed": -1},
    {"scan_family": "tilted:0"},
    {"scan_family": "mub:7"},
    {"seed": 1.5},
    {"n_mc": 1},
    {"n_modes": 10 ** 29},
])
def test_scenario_config_rejects_bad_settings(overrides):
    with pytest.raises(ConfigError):
        _cfg(**overrides)


def test_config_dict_round_trip():
    cfg = _cfg("tomography", exposure=math.inf, seed=9, scan_family="mub:1")
    data = cli.config_to_dict(cfg)
    assert data["exposure"] == "inf"
    back = cli.config_from_dict(data)
    assert back == cfg
    finite = _cfg("baseline", exposure=2e4)
    assert cli.config_from_dict(cli.config_to_dict(finite)) == finite


def test_a_run_builds_its_scan_family_once(tmp_path, monkeypatch):
    """The config parses scan_family once and the scans use that family;
    the only other build is reconstruct reading the tables' label."""
    calls = []
    mub = bases.mub

    def counted(d, r):
        calls.append((d, r))
        return mub(d, r)

    monkeypatch.setattr(bases, "mub", counted)
    assert cli.main(["run", "--scenario", "unscramble-certify", "--d", "7",
                     "--n-modes", "30", "--n-mc", "0", "--out", str(tmp_path)]) == 0
    assert calls == [(7, 0), (7, 0)]
    cfg = _cfg("tomography", scan_family="mub:1")
    assert cfg.family is cfg.family and cfg.family.kind == "mub:1"
    assert cfg == _cfg("tomography", scan_family="mub:1")
    assert "family" not in dataclasses.asdict(cfg)


def test_a_fixture_run_builds_its_scan_family_once(tmp_path, monkeypatch):
    """fixture-a1 scans nothing, and its noiseless tables are measured
    without a second config, so the family its config names is built once."""
    calls = []
    mub = bases.mub

    def counted(d, r):
        calls.append((d, r))
        return mub(d, r)

    monkeypatch.setattr(bases, "mub", counted)
    assert cli.main(["run", "--scenario", "fixture-a1", "--out", str(tmp_path)]) == 0
    assert calls == [(7, 0)]


def test_outputs_with_the_retired_sidecar_keys_still_load(tmp_path):
    """Sidecars that also hold the keys older versions wrote (t_hat.json's
    dim and includes_reference, channel.json's total_modes, scans/meta.json's
    family, d and theta_grid) give the same outputs, byte for byte."""
    new, old = tmp_path / "new", tmp_path / "old"
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8", "--exposure", "1e4",
                     "--seed", "4", "--out", str(new / "sim")]) == 0
    assert cli.main(["tomo", "--scans", str(new / "sim" / "scans"),
                     "--out", str(new / "rec")]) == 0
    shutil.copytree(new, old)
    for rel, keys in (("sim/scans/meta.json", {"family": "mub:0", "d": 3,
                                               "theta_grid": list(measure.THETA_GRID)}),
                      ("sim/channel.json", {"total_modes": 8}),
                      ("rec/t_hat.json", {"dim": 3, "includes_reference": False})):
        numerics._write_json(old / rel, {**numerics._read_json(old / rel), **keys})
    for tree in (new, old):
        tables = [arg for r in range(3)
                  for arg in ("--table", str(tree / "sim" / "tables" / f"mub_{r}.csv"))]
        for argv in (["tomo", "--scans", str(tree / "sim" / "scans")],
                     ["unscramble", "--t-hat", str(tree / "rec" / "t_hat.csv")],
                     ["certify", "--standard", str(tree / "sim" / "tables" / "standard.csv"),
                      *tables, "--n-mc", "8"]):
            assert cli.main([*argv, "--out", str(tree / "out" / argv[0])]) == 0
    assert _tree(old / "out") == _tree(new / "out")
    np.testing.assert_array_equal(channel.load_channel(old / "sim" / "channel").isometry,
                                  channel.load_channel(new / "sim" / "channel").isometry)


def test_run_scenario_baseline_noiseless(tmp_path):
    out = str(tmp_path / "base")
    report = cli.run_scenario(_cfg(exposure=math.inf), out)
    assert report["schema"] == "report_v3"
    assert report["scenario"] == "baseline"
    res = report["results"]
    assert res["method"] == "exact"
    assert res["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert res["d_ent"] == 3
    assert res["entangled"] is True
    assert os.path.exists(os.path.join(out, "config.json"))
    assert os.path.exists(os.path.join(out, "report.json"))
    assert os.path.exists(os.path.join(out, "tables", "standard.csv"))
    assert os.path.exists(os.path.join(out, "tables", "mub_2.csv"))
    with open(os.path.join(out, "report.json"), encoding="ascii") as fh:
        on_disk = json.load(fh)
    assert on_disk["results"]["d_ent"] == 3


def test_run_scenario_scramble_kills_correlations(tmp_path):
    report = cli.run_scenario(_cfg("scramble", exposure=math.inf, seed=3),
                              str(tmp_path))
    res = report["results"]
    assert res["fidelity"] < 1 / 3
    assert res["d_ent"] <= 1
    assert res["entangled"] is False


def test_run_scenario_unscramble_certify_restores(tmp_path):
    report = cli.run_scenario(
        _cfg("unscramble-certify", exposure=math.inf, seed=2),
        str(tmp_path))
    res = report["results"]
    assert res["d_ent"] == 3
    assert os.path.exists(os.path.join(str(tmp_path), "t_hat.csv"))
    assert os.path.exists(
        os.path.join(str(tmp_path), "unscramble", "w_alice.csv"))
    assert os.path.exists(
        os.path.join(str(tmp_path), "scans", "s_step3.csv"))


def test_run_scenario_two_channel_equivalence(tmp_path):
    report = cli.run_scenario(_cfg("two-channel", exposure=math.inf, seed=4),
                              str(tmp_path))
    res = report["results"]
    assert res["equivalence_residual"] < 1e-12
    assert res["d_ent"] == 3


def _report(out_dir):
    with open(os.path.join(out_dir, "report.json"), encoding="ascii") as fh:
        return json.load(fh)


def _results(out_dir):
    return _report(out_dir)["results"]


def test_main_run_tomography_reports_its_reconstruction(tmp_path, capsys):
    out = str(tmp_path / "tomo")
    assert cli.main(["run", "--scenario", "tomography", "--d", "7", "--n-modes", "60",
                     "--exposure", "inf", "--seed", "3", "--out", out]) == 0
    assert capsys.readouterr().out == f"scenario tomography: report written to {out}\n"
    report = _report(out)
    assert report["diagnostics"]["basis_tag"] == "mub:0"
    assert report["results"]["reconstruction_error"] <= 1e-8


def test_main_run_fixture_a1_certifies_the_shipped_fixture_exactly(tmp_path):
    out = str(tmp_path / "fixture")
    assert cli.main(["run", "--scenario", "fixture-a1", "--out", out]) == 0
    res = _results(out)
    assert (res["method"], res["n_mc"], res["d_ent"]) == ("exact", 0, 7)
    assert res["fidelity"] == pytest.approx(0.99276534066, abs=1e-9)
    assert res["bounds"][4] == pytest.approx(0.8169271, abs=1e-7)
    assert res["target_lambda"] == channel.load_fixture_lambda().tolist()
    assert res["tilted_diagonal_dominant"] == [True] * 7


_DIAGNOSED = {
    "baseline": set(),
    "scramble": set(),
    "tomography": {"basis_tag", "e_ratio", "condition_number"},
    "unscramble-certify": {"basis_tag", "e_ratio", "condition_number", "eta"},
    "two-channel": {"basis_tag", "condition_number", "eta"},
    "fixture-a1": {"basis_tag", "condition_number", "eta"},
}


@pytest.mark.parametrize("scenario", cli._SCENARIOS)
def test_every_report_states_each_fact_once(tmp_path, scenario):
    """results, diagnostics and tables in every report, no key in both
    results and diagnostics, and t_hat.json holds reconstruction's
    diagnostics and no other key; building W writes no sidecar under run."""
    out = str(tmp_path / scenario)
    d = 7 if scenario == "fixture-a1" else 3
    cli.run_scenario(_cfg(scenario, d=d, exposure=math.inf, seed=2), out)
    report = _report(out)
    assert {"results", "diagnostics", "tables"} <= set(report)
    diagnostics = report["diagnostics"]
    assert set(diagnostics) == _DIAGNOSED[scenario]
    assert not set(report["results"]) & set(diagnostics)
    if scenario == "unscramble-certify":
        t_meta = numerics._read_json(os.path.join(out, "t_hat.json"))
        assert t_meta == {key: diagnostics[key]
                          for key in ("basis_tag", "e_ratio", "condition_number")}
        assert sorted(os.listdir(os.path.join(out, "unscramble"))) == ["m_bob.csv",
                                                                       "w_alice.csv"]
    if scenario == "fixture-a1":
        assert diagnostics["basis_tag"] == "mub:0" and len(diagnostics["eta"]) == 7


def test_main_run_exit_codes(tmp_path, fails):
    ok = cli.main(["run", "--scenario", "baseline", "--d", "3",
                   "--n-modes", "8", "--exposure", "inf", "--n-mc", "0",
                   "--out", str(tmp_path / "a")])
    assert ok == 0
    fails(["run", "--scenario", "baseline", "--d", "4", "--n-modes", "8"], 2)
    unmet = cli.main(["run", "--scenario", "scramble", "--d", "3",
                      "--n-modes", "8", "--exposure", "inf", "--n-mc", "0",
                      "--require-dent", "2", "--out", str(tmp_path / "c")])
    assert unmet == 4


def test_main_config_file_with_flag_overrides(tmp_path, fails):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"d": 3, "n_modes": 8, "exposure": "inf", "n_mc": 0, "seed": 1}))
    out = tmp_path / "out"
    code = cli.main(["run", "--scenario", "baseline",
                     "--config", str(cfg_path), "--seed", "5",
                     "--out", str(out)])
    assert code == 0
    with open(out / "config.json", encoding="ascii") as fh:
        stored = json.load(fh)
    assert stored["seed"] == 5
    assert stored["d"] == 3
    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json")
    fails(["run", "--scenario", "baseline", "--config", str(garbled)], 2)


def test_subcommand_chain(tmp_path):
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8",
                     "--exposure", "2e4", "--seed", "5", "--n-mc", "0",
                     "--out", sim]) == 0
    # The step tables name the family and d; the sidecar keeps the rest.
    assert (numerics._read_json(os.path.join(sim, "scans", "meta.json"))
            == {"exposure": 2e4, "seed": 5})
    assert os.path.exists(os.path.join(sim, "tables", "mub_1.csv"))

    rec = str(tmp_path / "rec")
    assert cli.main(["tomo", "--scans", os.path.join(sim, "scans"),
                     "--out", rec]) == 0
    assert os.path.exists(os.path.join(rec, "t_hat.csv"))
    t_meta = numerics._read_json(os.path.join(rec, "t_hat.json"))
    assert set(t_meta) == {"basis_tag", "e_ratio", "condition_number"}

    ops = str(tmp_path / "ops")
    assert cli.main(["unscramble", "--t-hat", os.path.join(rec, "t_hat.csv"),
                     "--out", ops]) == 0
    ops_meta = numerics._read_json(os.path.join(ops, "unscramble", "meta.json"))
    assert set(ops_meta) == {"basis_tag", "condition_number", "eta"}
    assert ops_meta["basis_tag"] == t_meta["basis_tag"] == "mub:0"
    assert ops_meta["condition_number"] == t_meta["condition_number"]
    assert os.path.exists(os.path.join(ops, "unscramble", "w_alice.csv"))
    assert os.path.exists(os.path.join(ops, "unscramble", "zeta.json"))
    assert os.path.exists(
        os.path.join(ops, "unscramble", "predicted_standard.csv"))

    cert = str(tmp_path / "cert")
    u_dir = os.path.join(ops, "unscramble")
    argv = ["certify", "--standard", os.path.join(u_dir, "predicted_standard.csv"),
            "--n-mc", "32", "--out", cert]
    for r in range(3):
        argv += ["--table", os.path.join(u_dir, f"predicted_mub_{r}.csv")]
    assert cli.main(argv) == 0
    with open(os.path.join(cert, "report.json"), encoding="ascii") as fh:
        report = json.load(fh)
    assert report["results"]["method"] == "exact"
    assert report["results"]["d_ent"] >= 2


def test_malformed_json_sidecars_exit_2(tmp_path, fails):
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8", "--exposure", "inf",
                     "--seed", "1", "--out", sim]) == 0
    rec = str(tmp_path / "rec")
    assert cli.main(["tomo", "--scans", os.path.join(sim, "scans"), "--out", rec]) == 0

    t_meta_path = os.path.join(rec, "t_hat.json")
    with open(t_meta_path, encoding="ascii") as fh:
        t_meta = json.load(fh)
    for key, value in (("includes_reference", "no"), ("includes_reference", True),
                       ("basis_tag", 3)):
        with open(t_meta_path, "w", encoding="ascii") as fh:
            json.dump({**t_meta, key: value}, fh)
        err = fails(["unscramble", "--t-hat", os.path.join(rec, "t_hat.csv")], 2)
        assert f"'{key}'" in err and len(err.splitlines()) == 1

    with open(t_meta_path, "w", encoding="ascii") as fh:
        fh.write("{not json")
    err = fails(["unscramble", "--t-hat", os.path.join(rec, "t_hat.csv")], 2)
    assert "t_hat.json" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("content", ["[1, 2]", '{"lambda": 5}',
                                     '{"lambda": [NaN, 0.5, 0.5]}',
                                     '{"lambda": ["a", 0.5, 0.5]}'])
def test_malformed_target_spectrum_exits_2(tmp_path, fails, content):
    sim, rec = str(tmp_path / "sim"), str(tmp_path / "rec")
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8", "--exposure", "inf",
                     "--seed", "1", "--out", sim]) == 0
    assert cli.main(["tomo", "--scans", os.path.join(sim, "scans"), "--out", rec]) == 0
    lam = tmp_path / "lam.json"
    lam.write_text(content)
    for argv in (["unscramble", "--t-hat", os.path.join(rec, "t_hat.csv"),
                  "--lambdas", str(lam)],
                 ["certify", "--standard", os.path.join(sim, "tables", "standard.csv"),
                  "--table", os.path.join(sim, "tables", "mub_0.csv"),
                  "--target", str(lam), "--n-mc", "0"]):
        err = fails(argv, 2)
        assert "lam.json" in err and len(err.splitlines()) == 1


def test_target_spectrum_off_normalization_exits_2_from_both_commands(tmp_path, fails):
    # sum(lambda^2) = 1 + 1e-7: past the shared PROB_TOL slack of one check.
    sim, rec = str(tmp_path / "sim"), str(tmp_path / "rec")
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8", "--exposure", "inf",
                     "--seed", "1", "--out", sim]) == 0
    assert cli.main(["tomo", "--scans", os.path.join(sim, "scans"), "--out", rec]) == 0
    good = np.array([0.6, 0.6, math.sqrt(0.28)])
    good_path, lam = tmp_path / "good.json", tmp_path / "lam.json"
    good_path.write_text(json.dumps({"lambda": good.tolist()}))
    lam.write_text(json.dumps({"lambda": (good * math.sqrt(1 + 1e-7)).tolist()}))
    ops = str(tmp_path / "ops")
    assert cli.main(["unscramble", "--t-hat", os.path.join(rec, "t_hat.csv"),
                     "--lambdas", str(good_path), "--out", ops]) == 0
    predicted = os.path.join(ops, "unscramble", "predicted_{}.csv")
    for argv in (["unscramble", "--t-hat", os.path.join(rec, "t_hat.csv"),
                  "--lambdas", str(lam)],
                 ["certify", "--standard", predicted.format("standard"),
                  "--table", predicted.format("tilted_0"),
                  "--target", str(lam), "--n-mc", "0"]):
        err = fails(argv, 2)
        assert "sum(lambda^2)" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "fixture-a1", "--d", "5", "--n-modes", "12"],
    ["simulate", "--d", "3", "--n-modes", "8", "--basis", "tilted:1"],
    ["simulate", "--d", "3", "--n-modes", "8", "--basis", "mub:01"],
    ["run", "--scenario", "baseline", "--d", "3", "--n-modes", "8", "--scan-family",
     "mub:01"],
], ids=["fixture-a1-d5", "simulate-tilted-basis", "simulate-mub-01",
        "run-scan-family-mub-01"])
def test_config_errors_exit_2_before_any_output(fails, argv):
    assert len(fails(argv, 2).splitlines()) == 1


@pytest.mark.parametrize("field,config,flags", [
    ("n_mc", {"n_mc": 2.5}, []),
    ("scan_family", {"scan_family": 5}, []),
    ("d", {"d": "7"}, []),
    ("seed", {"seed": True}, []),
    ("dark_rate", {}, ["--dark-rate", "nan"]),
    ("dark_rate", {"dark_rate": "0.1"}, []),
    ("reference_amplitude", {}, ["--reference-amplitude", "nan"]),
    ("n_mc", None, ["certify", "--standard", "std.csv", "--table", "mub_0.csv",
                    "--n-mc", "-1"]),
    ("seed", None, ["certify", "--standard", "std.csv", "--table", "mub_0.csv",
                    "--seed", "-1"]),
    ("n_mc", None, ["certify", "--standard", "std.csv", "--table", "mub_0.csv",
                    "--n-mc", "1"]),
    ("n_mc", {}, ["--n-mc", "1"]),
    ("n_modes", {"n_modes": 10 ** 29}, []),
], ids=["n_mc-float", "scan_family-int", "d-string", "seed-bool", "dark_rate-nan",
        "dark_rate-string", "reference_amplitude-nan", "certify-n_mc-negative",
        "certify-seed-negative", "certify-n_mc-one", "run-n_mc-one", "n_modes-huge"])
def test_bad_settings_exit_2_naming_the_field(tmp_path, fails, field, config, flags):
    argv = flags
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"d": 3, "n_modes": 8, "exposure": "inf", "n_mc": 0, **config}))
        argv = ["run", "--scenario", "baseline", "--config", str(cfg_path), *flags]
    err = fails(argv, 2)
    assert err.startswith(f"config error: {field} ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("config, flags, message", [
    ('{"d": 3, "n_modes": 8, "bogus": 1}', [], "unknown config keys: ['bogus']"),
    ("[1]", [], "config file must hold a JSON object"),
    ('{"d": 3, "n_modes": 8, "exposure": "lots"}', [], "bad exposure 'lots'"),
    (None, ["--exposure", "lots"], "bad exposure: 'lots'"),
], ids=["unknown-key", "not-an-object", "exposure-word", "exposure-flag-word"])
def test_a_malformed_config_exits_2(tmp_path, fails, config, flags, message):
    argv = ["run", "--scenario", "baseline", "--d", "3", "--n-modes", "8", *flags]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config)
        argv += ["--config", str(cfg_path)]
    assert fails(argv, 2) == f"config error: {message}\n"


def test_poisson_means_past_numpy_limit_exit_2(tmp_path, fails):
    err = fails(["run", "--scenario", "baseline", "--d", "3", "--n-modes", "8",
                 "--exposure", "1e30"], 2)
    assert "Poisson" in err and len(err.splitlines()) == 1

    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8", "--exposure", "1e4",
                     "--seed", "1", "--out", sim]) == 0
    tables = os.path.join(sim, "tables")
    standard = os.path.join(tables, "standard.csv")
    with open(standard, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    lines[lines.index("a,b,count") + 1] = "0,0,1e30"
    with open(standard, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    argv = ["certify", "--standard", standard, "--n-mc", "10"]
    for r in range(3):
        argv += ["--table", os.path.join(tables, f"mub_{r}.csv")]
    err = fails(argv, 2)
    assert "Poisson" in err and len(err.splitlines()) == 1


def test_baseline_family_tables_draw_independent_noise(tmp_path):
    out = str(tmp_path / "base")
    assert cli.main(["run", "--scenario", "baseline", "--d", "5", "--n-modes", "12",
                     "--exposure", "1e4", "--n-mc", "0", "--seed", "3",
                     "--out", out]) == 0
    counts = [measure.load_count_table(os.path.join(out, "tables", f"mub_{r}.csv")).counts
              for r in range(5)]
    for a in range(5):
        for b in range(a + 1, 5):
            assert not np.array_equal(counts[a], counts[b]), (a, b)


def test_tomo_missing_bundle_and_degenerate_reference(tmp_path, fails):
    fails(["tomo", "--scans", str(tmp_path / "nope")], 2)
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8",
                     "--exposure", "inf", "--seed", "1", "--out", sim]) == 0
    fails(["tomo", "--scans", os.path.join(sim, "scans"), "--ref-floor", "0.999"], 3)
    # A floor outside [0, 1) would switch the degenerate-reference check off.
    for floor in ("nan", "-1"):
        err = fails(["tomo", "--scans", os.path.join(sim, "scans"),
                     "--ref-floor", floor], 2)
        assert "ref_floor" in err and len(err.splitlines()) == 1


def test_tomo_with_a_zero_floor_rejects_a_zero_reference_entry(tmp_path, fails):
    """E entry 1 is made exactly 0 by giving that column one count in all
    four reference steps; --ref-floor 0 exits 3 with one stderr line."""
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8",
                     "--exposure", "inf", "--seed", "1", "--out", sim]) == 0
    for k in range(4):
        path = os.path.join(sim, "scans", f"e_step{k}.csv")
        table = measure.load_count_table(path)
        counts = table.counts.copy()
        counts[0, 1] = 5.0
        measure.save_count_table(path, dataclasses.replace(table, counts=counts))
    err = fails(["tomo", "--scans", os.path.join(sim, "scans"), "--ref-floor", "0"], 3)
    assert "family vector 1" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("meta", ["absent", "stale"])
def test_tomo_reads_the_scan_tables_alone(tmp_path, meta):
    """The eight step tables decide the reconstruction: a bundle without
    meta.json, or with a meta.json naming another family and size, gives
    the intact bundle's t_hat.csv and t_hat.json byte for byte."""
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--d", "5", "--n-modes", "12", "--exposure", "1e4",
                     "--seed", "3", "--out", sim]) == 0
    scans = os.path.join(sim, "scans")
    assert cli.main(["tomo", "--scans", scans, "--out", str(tmp_path / "intact")]) == 0
    bundle = tmp_path / "bundle"
    shutil.copytree(scans, bundle)
    meta_path = bundle / "meta.json"
    if meta == "absent":
        meta_path.unlink()
    else:
        record = json.loads(meta_path.read_text(encoding="ascii"))
        meta_path.write_text(json.dumps(dict(record, family="mub:1", d=11)),
                             encoding="ascii")
    assert cli.main(["tomo", "--scans", str(bundle), "--out", str(tmp_path / "rec")]) == 0
    for name in ("t_hat.csv", "t_hat.json"):
        assert ((tmp_path / "rec" / name).read_bytes()
                == (tmp_path / "intact" / name).read_bytes())


# Grids of 10^14 cells: their bookkeeping alone would exceed any 47-bit
# address space, so the reader must judge them from the cells listed.
@pytest.mark.parametrize("argv, name, text", [
    (["certify", "--standard"], "big.csv",
     "basisA,basisB,exposure,seed\nstandard,standard*,1e4,none\na,b,count\n"
     "0,0,1\n10000000,10000000,1\n"),
    (["unscramble", "--t-hat"], "t_hat.csv",
     "rows,cols\n10000000,10000000\ni,j,re,im\n0,0,1,0\n"),
], ids=["certify", "unscramble"])
def test_a_huge_claimed_grid_exits_2_without_allocating_it(tmp_path, fails,
                                                           argv, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    extra = ["--table", str(path)] if argv[0] == "certify" else []
    err = fails([*argv, str(path), *extra], 2)
    assert "missing cell (0, 1)" in err and len(err.splitlines()) == 1


_TABLE_HEAD = b"basisA,basisB,exposure,seed\nstandard,standard*,1e4,none\n"


@pytest.mark.parametrize("argv, name, data, message", [
    (["certify", "--standard"], "extra.csv",
     _TABLE_HEAD + b"extra\na,b,count\n0,0,1\n", "not a count-table CSV"),
    (["certify", "--standard"], "exposure.csv",
     _TABLE_HEAD.replace(b"1e4", b"abc") + b"a,b,count\n0,0,1\n",
     "malformed count-table header"),
    (["certify", "--standard"], "fields.csv",
     _TABLE_HEAD + b"a,b,count\n0,0,1,2\n", "cells have 4 fields, expected 3"),
    (["certify", "--standard"], "byte.csv",
     _TABLE_HEAD.replace(b"none", b"n\xe9") + b"a,b,count\n0,0,1\n", "cannot read"),
    (["unscramble", "--t-hat"], "empty.csv",
     b"rows,cols\n0,3\ni,j,re,im\n0,0,1,0\n", "bad dimensions 0x3"),
    (["unscramble", "--t-hat"], "stray.csv",
     b"rows,cols\n1,1\nstray\ni,j,re,im\n0,0,1,0\n", "not a complex-matrix CSV"),
    (["unscramble", "--t-hat"], "sizes.csv",
     b"rows,cols\n3,3,3\ni,j,re,im\n0,0,1,0\n",
     "malformed entry (sizes '3,3,3' are not two integers >= 0)"),
], ids=["table-third-header-line", "table-exposure-abc", "table-four-fields",
        "table-non-ascii", "matrix-zero-rows", "matrix-stray-header", "matrix-three-sizes"])
def test_a_malformed_table_or_matrix_exits_2(tmp_path, fails, argv, name, data, message):
    path = tmp_path / name
    path.write_bytes(data)
    extra = ["--table", str(path)] if argv[0] == "certify" else []
    err = fails([*argv, str(path), *extra], 2)
    assert err.startswith(f"error: {path}: {message}") and len(err.splitlines()) == 1


def test_certify_subcommand_rejects_misplaced_standard_tables(tmp_path, fails):
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8", "--exposure", "1e4",
                     "--seed", "3", "--out", sim]) == 0
    std, mub_0, mub_1, mub_2 = (os.path.join(sim, "tables", f"{name}.csv")
                                for name in ("standard", "mub_0", "mub_1", "mub_2"))
    # a standard table among the family tables, and a family table as the
    # standard one
    for argv in (["--standard", std, "--table", mub_0, "--table", std],
                 ["--standard", mub_0, "--table", mub_0, "--table", mub_1,
                  "--table", mub_2]):
        err = fails(["certify", *argv, "--n-mc", "0"], 2)
        assert "standard" in err and len(err.splitlines()) == 1


def test_certify_subcommand_rejects_unnamed_and_misshapen_family_tables(tmp_path, fails):
    """A family table whose label names no family, one whose label is not
    spelled as a writer spells it, and a d=3 family table next to a d=5
    standard one."""
    sims = {d: str(tmp_path / f"sim{d}") for d in (3, 5)}
    for d, sim in sims.items():
        assert cli.main(["simulate", "--d", str(d), "--n-modes", "12", "--exposure", "1e4",
                         "--seed", "3", "--out", sim]) == 0
    std = os.path.join(sims[5], "tables", "standard.csv")
    with open(os.path.join(sims[5], "tables", "mub_0.csv"), encoding="ascii") as fh:
        text = fh.read()
    custom = tmp_path / "custom.csv"
    custom.write_text(text.replace("mub:0,mub:0*", "custom,custom*", 1))
    err = fails(["certify", "--standard", std, "--table", str(custom), "--n-mc", "0"], 2)
    assert err == f"error: {custom}: cannot classify basis label 'custom'\n"
    padded = tmp_path / "padded.csv"
    padded.write_text(text.replace("mub:0,mub:0*", "mub:01,mub:01*", 1))
    err = fails(["certify", "--standard", std, "--table", str(padded), "--n-mc", "0"], 2)
    assert err == f"error: {padded}: cannot classify basis label 'mub:01'\n"
    err = fails(["certify", "--standard", std, "--table",
                 os.path.join(sims[3], "tables", "mub_0.csv"), "--n-mc", "0"], 2)
    assert err == "error: table shape (3, 3) does not match dim 5\n"


def test_certify_subcommand_rejects_two_tables_with_one_label(tmp_path, fails):
    """Two --table inputs carrying one label are refused, naming both paths
    as given, rather than certifying from one and reporting the other."""
    sims = {seed: str(tmp_path / f"sim{seed}") for seed in (3, 4)}
    for seed, sim in sims.items():
        assert cli.main(["simulate", "--d", "5", "--n-modes", "20", "--exposure", "1e4",
                         "--seed", str(seed), "--out", sim]) == 0
    first, second = (os.path.join(sim, "tables", "mub_0.csv") for sim in sims.values())
    err = fails(["certify", "--standard", os.path.join(sims[3], "tables", "standard.csv"),
                 "--table", first, "--table", second], 2)
    assert err == (f"config error: tables {first} and {second} both carry "
                   "the label 'mub:0'\n")


def test_certify_fallback_warns_on_one_stderr_line(tmp_path, capsys):
    """Family tables that do not cover 0..d-1 fall back to the single-family
    lower bound, and the warning says so on one stderr line. Its estimate
    here is F = -0.54, which still certifies 1 dimension, not 0: every state
    has Schmidt number >= 1."""
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--d", "5", "--n-modes", "20", "--exposure", "1e4",
                     "--seed", "3", "--out", sim]) == 0
    tables = os.path.join(sim, "tables")
    capsys.readouterr()
    assert cli.main(["certify", "--standard", os.path.join(tables, "standard.csv"),
                     "--table", os.path.join(tables, "mub_0.csv"),
                     "--table", os.path.join(tables, "mub_1.csv"),
                     "--n-mc", "40", "--seed", "3", "--out", str(tmp_path / "cert")]) == 0
    out, err = capsys.readouterr()
    assert err == (
        "warning: families [0, 1] do not cover 0..4; "
        "falling back to the single-family lower bound\n")
    assert out.startswith("F = -0.5385 ")
    assert out.endswith("certified dimensionality 1 of 5\n")


@pytest.mark.parametrize("factor", ["inf", "nan"])
@pytest.mark.parametrize("n_mc", ["0", "10"])
def test_certify_rejects_a_non_finite_row_scale(tmp_path, fails, factor, n_mc):
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8", "--exposure", "1e4",
                     "--seed", "3", "--out", sim]) == 0
    tables = os.path.join(sim, "tables")
    mub_1 = os.path.join(tables, "mub_1.csv")
    with open(mub_1, encoding="ascii") as fh:
        lines = fh.read().splitlines(keepends=True)
    # the optional row_scale section goes between the header and the cells
    lines[2:2] = ["row_scale\n", f"{factor},1,1\n"]
    with open(mub_1, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(lines)
    argv = ["certify", "--standard", os.path.join(tables, "standard.csv")]
    for r in range(3):
        argv += ["--table", os.path.join(tables, f"mub_{r}.csv")]
    err = fails(argv + ["--n-mc", n_mc], 2)
    assert "row_scale" in err and len(err.splitlines()) == 1


def test_certify_refuses_an_edited_recovered_tilted_cell(tmp_path, fails):
    """A sampled row-scaled table stores whole counts times row_scale; one
    cell moved off that grid is a format error naming the file."""
    run = tmp_path / "run"
    assert cli.main(["run", "--scenario", "unscramble-certify", "--d", "3",
                     "--n-modes", "8", "--exposure", "1e3", "--n-mc", "0", "--seed", "1",
                     "--out", str(run)]) == 0
    edited = run / "tables" / "recovered_tilted_0.csv"
    lines = edited.read_text(encoding="ascii").splitlines(keepends=True)
    assert lines[2] == "row_scale\n"
    factors = [float(tok) for tok in lines[3].split(",")]
    a, b, count = lines[-1].split(",")
    lines[-1] = f"{a},{b},{float(count) + factors[int(a)] / 2!r}\n"
    edited.write_text("".join(lines), encoding="ascii")
    argv = ["certify", "--standard", str(run / "tables" / "recovered_standard.csv")]
    for r in range(3):
        argv += ["--table", str(run / "tables" / f"recovered_tilted_{r}.csv")]
    err = fails(argv + ["--n-mc", "10"], 2)
    assert len(err.splitlines()) == 1
    assert str(edited) in err and "row_scale" in err


def test_certify_subcommand_require_dent(tmp_path):
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8",
                     "--exposure", "inf", "--seed", "2", "--out", sim,
                     "--basis", "standard", "--basis", "mub:0"]) == 0
    assert not os.path.exists(os.path.join(sim, "tables", "mub_1.csv"))
    code = cli.main(["certify",
                     "--standard", os.path.join(sim, "tables", "standard.csv"),
                     "--table", os.path.join(sim, "tables", "mub_0.csv"),
                     "--require-dent", "3", "--n-mc", "0",
                     "--out", str(tmp_path / "cert")])
    assert code == 4


def test_simulate_rerun_is_byte_identical(tmp_path):
    args = ["run", "--scenario", "unscramble-certify", "--d", "3",
            "--n-modes", "8", "--exposure", "1e4", "--seed", "6",
            "--n-mc", "16"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(args + ["--out", a]) == 0
    assert cli.main(args + ["--out", b]) == 0
    for root, _, files in os.walk(a):
        rel = os.path.relpath(root, a)
        for name in files:
            pa = os.path.join(root, name)
            pb = os.path.join(b, rel, name)
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read(), name


def test_report_json_is_canonical(tmp_path):
    out = str(tmp_path)
    cli.run_scenario(_cfg(exposure=math.inf), out)
    with open(os.path.join(out, "report.json"), encoding="ascii") as fh:
        text = fh.read()
    data = json.loads(text)
    assert text == json.dumps(data, indent=2, sort_keys=True,
                              allow_nan=False) + "\n"
    assert data["config"]["exposure"] == "inf"


def _checked_table_paths(out_dir):
    """Check that every tables entry of the report names an existing CSV
    holding that label, with the recorded SHA-256 of its bytes; return the
    paths by label."""
    with open(os.path.join(out_dir, "report.json"), encoding="ascii") as fh:
        tables = json.load(fh)["tables"]
    paths = {}
    for label, ref in tables.items():
        paths[label] = os.path.join(out_dir, ref["path"])
        with open(paths[label], "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == ref["sha256"], label
        assert measure.load_count_table(paths[label]).basis_label_a == label
    return paths


def test_report_tables_reference_files_by_hash(tmp_path):
    run = str(tmp_path / "run")
    assert cli.main(["run", "--scenario", "unscramble-certify", "--d", "3",
                     "--n-modes", "8", "--exposure", "1e4", "--seed", "6",
                     "--n-mc", "4", "--out", run]) == 0
    ran = _checked_table_paths(run)
    assert len(ran) == 4

    cert = str(tmp_path / "cert")
    argv = ["certify", "--standard", ran.pop("recovered:standard"),
            "--n-mc", "4", "--out", cert]
    for path in ran.values():
        argv += ["--table", path]
    assert cli.main(argv) == 0
    certified = _checked_table_paths(cert)
    assert sorted(certified) == sorted([*ran, "recovered:standard"])


def test_a_run_holds_one_family_table_at_a_time(tmp_path):
    """Tables are written as they are measured and certification keeps only
    d-length statistics of each, so a run's traced peak grows as d^2, not
    as the d^3 of holding all d + 1 tables: at d = 61 it stays below 60
    d x d float arrays (the d + 1 tables alone take 62)."""
    d = 61
    argv = ["run", "--scenario", "unscramble-certify", "--d", str(d),
            "--n-modes", str(2 * d), "--exposure", "1e4", "--n-mc", "20"]
    # a first run imports everything the pipeline uses, so the traced one
    # counts the run's own working set
    assert cli.main(argv + ["--out", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv + ["--out", str(tmp_path / "traced")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 60 * d * d * 8


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "baseline", "--d", "3", "--n-modes", "8"],
    ["simulate", "--d", "3", "--n-modes", "8"],
    ["tomo", "--scans", "scans"],
    ["unscramble", "--t-hat", "t_hat.csv"],
    ["certify", "--standard", "standard.csv", "--table", "mub_0.csv"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_an_out_that_is_or_lies_under_a_file_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, argv, under):
    """The inputs named do not exist: the --out check comes first."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("kept\n")
    out = os.path.join("file", "out") if under else "file"
    assert cli.main([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out ") and len(err.splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


def test_a_rerun_at_a_smaller_d_leaves_exactly_the_tables_its_report_names(tmp_path):
    out = tmp_path / "out"
    argv = ["run", "--scenario", "baseline", "--n-modes", "12", "--exposure", "1e4",
            "--n-mc", "0", "--out", str(out)]
    assert cli.main(argv + ["--d", "5"]) == 0
    (out / "notes.txt").write_text("not written by qscatter\n")
    assert cli.main(argv + ["--d", "3"]) == 0
    named = _checked_table_paths(str(out)).values()
    assert sorted(os.listdir(out / "tables")) == sorted(os.path.basename(p) for p in named)
    assert len(named) == 4
    assert sorted(os.listdir(out)) == ["config.json", "notes.txt", "report.json", "tables"]
    assert (out / "notes.txt").read_text() == "not written by qscatter\n"
    assert _staging_dirs(tmp_path) == []


def test_the_parent_of_out_is_never_written(tmp_path, monkeypatch, filled_out):
    """Staging lies inside --out, so `--out .` works below a directory that
    cannot be written, and nothing is made or removed beside --out, whether
    the command fails or succeeds."""
    parent = tmp_path / "parent"
    shutil.copytree(filled_out, parent / "out")
    monkeypatch.chdir(parent / "out")
    argv = ["run", "--scenario", "baseline", "--d", "3", "--n-modes", "8", "--n-mc", "0",
            "--out", "."]
    parent.chmod(0o555)
    try:
        stamp = os.stat(parent).st_mtime_ns
        assert cli.main(argv + ["--exposure", "1e30"]) == 2
        assert cli.main(argv) == 0
        assert os.stat(parent).st_mtime_ns == stamp
    finally:
        parent.chmod(0o755)
    assert os.listdir(parent) == ["out"]
    named = _checked_table_paths(str(parent / "out")).values()
    assert sorted(os.listdir(parent / "out" / "tables")) == sorted(
        os.path.basename(p) for p in named)
    assert (parent / "out" / "unscramble" / "w_alice.csv").exists()
    assert _staging_dirs(tmp_path) == []


@pytest.mark.parametrize("argv, refused", [
    (["unscramble", "--t-hat", "{out}/unscramble/t_hat.csv"], True),
    (["unscramble", "--t-hat", "{out}/t_hat.csv", "--lambdas", "{out}/unscramble/l.json"],
     True),
    (["tomo", "--scans", "{out}/t_hat.csv"], False),
    (["certify", "--standard", "{out}/tables/recovered_standard.csv",
      "--table", "{out}/report.json"], False),
    (["run", "--scenario", "baseline", "--n-mc", "0", "--config", "{out}/tables/c.json"],
     True),
    (["run", "--scenario", "baseline", "--n-mc", "0", "--config", "{out}/config.json"],
     True),
    (["simulate", "--config", "{out}/scans/c.json"], True),
], ids=["t-hat", "lambdas", "scans", "table", "run-config", "run-config-json",
        "simulate-config"])
def test_an_input_under_an_entry_the_command_replaces_exits_2(tmp_path, capsys,
                                                              filled_out, argv, refused):
    """The commit would replace that entry whole and so delete the input,
    the last path of argv. It is refused after the work, before the first
    rename. `tomo --scans` and `certify --table` read no file of the entries
    they write (t_hat.csv, t_hat.json, report.json), so there the read fails."""
    out = tmp_path / "out"
    shutil.copytree(filled_out, out)
    for name in ("t_hat.csv", "t_hat.json"):
        shutil.copy(out / name, out / "unscramble" / name)
    (out / "unscramble" / "l.json").write_text(json.dumps({"lambda": [3 ** -0.5] * 3}))
    for entry in ("tables", "scans"):
        (out / entry / "c.json").write_text('{"d": 3, "n_modes": 8, "exposure": "inf"}\n')
    before = _tree(out)
    argv = [a.format(out=out) for a in argv]
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert argv[-1] in err and len(err.splitlines()) == 1
    assert err.startswith("config error: input ") == refused
    assert _tree(out) == before
    assert _staging_dirs(tmp_path) == []


def test_a_failed_commit_rename_puts_the_old_entry_back(tmp_path, monkeypatch,
                                                        filled_out):
    out = tmp_path / "out"
    shutil.copytree(filled_out, out)
    before = _tree(out / "tables")
    replace = os.replace

    def failing(src, dst):
        if str(src).endswith(".staging" + os.sep + "tables"):
            raise OSError("rename refused")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match="rename refused"):
        cli.main(["run", "--scenario", "baseline", "--d", "3", "--n-modes", "8",
                  "--n-mc", "0", "--out", str(out)])
    assert _tree(out / "tables") == before
    assert _staging_dirs(tmp_path) == []


def test_a_conditioning_failure_mid_run_leaves_out_unchanged(fails):
    """Two photons per scan acquisition leave the reference with no
    interference, so the run fails at reconstruction, after the channel and
    the scans are written."""
    err = fails(["run", "--scenario", "unscramble-certify", "--d", "7", "--n-modes", "60",
                 "--exposure", "2", "--seed", "1", "--n-mc", "0"], 3)
    assert err.startswith("conditioning error: ") and len(err.splitlines()) == 1


def test_an_unmet_require_dent_still_writes_a_complete_report(tmp_path):
    run = str(tmp_path / "run")
    assert cli.main(["run", "--scenario", "scramble", "--d", "3", "--n-modes", "8",
                     "--exposure", "inf", "--n-mc", "0", "--require-dent", "2",
                     "--out", run]) == 4
    tables = _checked_table_paths(run)
    assert len(tables) == 4
    cert = str(tmp_path / "cert")
    argv = ["certify", "--standard", tables.pop("standard"), "--n-mc", "0",
            "--require-dent", "2", "--out", cert]
    for path in tables.values():
        argv += ["--table", path]
    assert cli.main(argv) == 4
    assert len(_checked_table_paths(cert)) == 4
    with open(os.path.join(cert, "report.json"), encoding="ascii") as fh:
        assert json.load(fh)["results"]["d_ent"] <= 1
    assert _staging_dirs(tmp_path) == []


def test_certify_reads_each_input_table_once(tmp_path, monkeypatch):
    """CRLF copies: each report digest is still that of the bytes on disk."""
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8", "--exposure", "1e4",
                     "--seed", "3", "--out", str(sim)]) == 0
    paths = []
    for name in ("standard", "mub_0", "mub_1", "mub_2"):
        text = (sim / "tables" / f"{name}.csv").read_bytes()
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_bytes(text.replace(b"\n", b"\r\n"))
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    argv = ["certify", "--standard", str(paths[0]), "--n-mc", "4",
            "--out", str(tmp_path / "cert")]
    for path in paths[1:]:
        argv += ["--table", str(path)]
    assert cli.main(argv) == 0
    monkeypatch.undo()
    assert [opened.count(str(path)) for path in paths] == [1, 1, 1, 1]
    assert len(_checked_table_paths(str(tmp_path / "cert"))) == 4


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
