"""Command-line interface: config handling, scenarios, exit codes."""

import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from qscatter import bases, cli, measure
from qscatter.errors import ConfigError

FAST = dict(d=3, n_modes=8, n_mc=16)


def _cfg(scenario="baseline", **kw):
    merged = dict(FAST, scenario=scenario)
    merged.update(kw)
    return cli.ScenarioConfig(**merged)


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


def test_run_scenario_baseline_noiseless(tmp_path):
    out = str(tmp_path / "base")
    report = cli.run_scenario(_cfg(exposure=math.inf), out)
    assert report["schema"] == "report_v2"
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
    assert res["certified"] is False


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


def test_main_run_exit_codes(tmp_path):
    ok = cli.main(["run", "--scenario", "baseline", "--d", "3",
                   "--n-modes", "8", "--exposure", "inf", "--n-mc", "0",
                   "--out", str(tmp_path / "a")])
    assert ok == 0
    bad_d = cli.main(["run", "--scenario", "baseline", "--d", "4",
                      "--n-modes", "8", "--out", str(tmp_path / "b")])
    assert bad_d == 2
    unmet = cli.main(["run", "--scenario", "scramble", "--d", "3",
                      "--n-modes", "8", "--exposure", "inf", "--n-mc", "0",
                      "--require-dent", "2", "--out", str(tmp_path / "c")])
    assert unmet == 4


def test_main_config_file_with_flag_overrides(tmp_path):
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
    assert cli.main(["run", "--scenario", "baseline",
                     "--config", str(garbled), "--out", str(out)]) == 2


def test_subcommand_chain(tmp_path):
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8",
                     "--exposure", "2e4", "--seed", "5", "--n-mc", "0",
                     "--out", sim]) == 0
    assert os.path.exists(os.path.join(sim, "scans", "meta.json"))
    assert os.path.exists(os.path.join(sim, "tables", "mub_1.csv"))

    rec = str(tmp_path / "rec")
    assert cli.main(["tomo", "--scans", os.path.join(sim, "scans"),
                     "--out", rec]) == 0
    assert os.path.exists(os.path.join(rec, "t_hat.csv"))

    ops = str(tmp_path / "ops")
    assert cli.main(["unscramble", "--t-hat", os.path.join(rec, "t_hat.csv"),
                     "--out", ops]) == 0
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


def test_malformed_json_sidecars_exit_2(tmp_path, capsys):
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8", "--exposure", "inf",
                     "--seed", "1", "--out", sim]) == 0
    rec = str(tmp_path / "rec")
    assert cli.main(["tomo", "--scans", os.path.join(sim, "scans"), "--out", rec]) == 0

    meta_path = os.path.join(sim, "scans", "meta.json")
    with open(meta_path, encoding="ascii") as fh:
        meta = json.load(fh)
    del meta["d"]
    with open(meta_path, "w", encoding="ascii") as fh:
        json.dump(meta, fh)
    capsys.readouterr()
    assert cli.main(["tomo", "--scans", os.path.join(sim, "scans"),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'d'" in err and len(err.splitlines()) == 1

    meta["d"] = "three"
    with open(meta_path, "w", encoding="ascii") as fh:
        json.dump(meta, fh)
    assert cli.main(["tomo", "--scans", os.path.join(sim, "scans"),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'d'" in err and len(err.splitlines()) == 1

    # meta.json naming a family the scan tables were not recorded in
    meta.update(d=3, family="mub:1")
    with open(meta_path, "w", encoding="ascii") as fh:
        json.dump(meta, fh)
    assert cli.main(["tomo", "--scans", os.path.join(sim, "scans"),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "mub:1" in err and len(err.splitlines()) == 1

    t_meta_path = os.path.join(rec, "t_hat.json")
    with open(t_meta_path, encoding="ascii") as fh:
        t_meta = json.load(fh)
    for key, value in (("includes_reference", "no"), ("basis_tag", 3)):
        with open(t_meta_path, "w", encoding="ascii") as fh:
            json.dump({**t_meta, key: value}, fh)
        assert cli.main(["unscramble", "--t-hat", os.path.join(rec, "t_hat.csv"),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and len(err.splitlines()) == 1

    with open(t_meta_path, "w", encoding="ascii") as fh:
        fh.write("{not json")
    assert cli.main(["unscramble", "--t-hat", os.path.join(rec, "t_hat.csv"),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "t_hat.json" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("content", ["[1, 2]", '{"lambda": 5}',
                                     '{"lambda": [NaN, 0.5, 0.5]}'])
def test_malformed_target_spectrum_exits_2(tmp_path, capsys, content):
    sim, rec = str(tmp_path / "sim"), str(tmp_path / "rec")
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8", "--exposure", "inf",
                     "--seed", "1", "--out", sim]) == 0
    assert cli.main(["tomo", "--scans", os.path.join(sim, "scans"), "--out", rec]) == 0
    lam = tmp_path / "lam.json"
    lam.write_text(content)
    capsys.readouterr()
    for argv in (["unscramble", "--t-hat", os.path.join(rec, "t_hat.csv"),
                  "--lambdas", str(lam)],
                 ["certify", "--standard", os.path.join(sim, "tables", "standard.csv"),
                  "--table", os.path.join(sim, "tables", "mub_0.csv"),
                  "--target", str(lam), "--n-mc", "0"]):
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "lam.json" in err and len(err.splitlines()) == 1


def test_target_spectrum_off_normalization_exits_2_from_both_commands(tmp_path, capsys):
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
    capsys.readouterr()
    for argv in (["unscramble", "--t-hat", os.path.join(rec, "t_hat.csv"),
                  "--lambdas", str(lam)],
                 ["certify", "--standard", predicted.format("standard"),
                  "--table", predicted.format("tilted_0"),
                  "--target", str(lam), "--n-mc", "0"]):
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "sum(lambda^2)" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "fixture-a1", "--d", "5", "--n-modes", "12"],
    ["simulate", "--d", "3", "--n-modes", "8", "--basis", "tilted:1"],
], ids=["fixture-a1-d5", "simulate-tilted-basis"])
def test_config_errors_exit_2_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "o"
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("field,config,flags", [
    ("n_mc", {"n_mc": 2.5}, []),
    ("scan_family", {"scan_family": 5}, []),
    ("d", {"d": "7"}, []),
    ("seed", {"seed": True}, []),
    ("dark_rate", {}, ["--dark-rate", "nan"]),
    ("reference_amplitude", {}, ["--reference-amplitude", "nan"]),
    ("n_mc", None, ["certify", "--standard", "std.csv", "--table", "mub_0.csv",
                    "--n-mc", "-1"]),
    ("seed", None, ["certify", "--standard", "std.csv", "--table", "mub_0.csv",
                    "--seed", "-1"]),
], ids=["n_mc-float", "scan_family-int", "d-string", "seed-bool", "dark_rate-nan",
        "reference_amplitude-nan", "certify-n_mc-negative", "certify-seed-negative"])
def test_bad_settings_exit_2_naming_the_field(tmp_path, capsys, field, config, flags):
    argv = flags
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"d": 3, "n_modes": 8, "exposure": "inf", "n_mc": 0, **config}))
        argv = ["run", "--scenario", "baseline", "--config", str(cfg_path), *flags]
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field} ") and len(err.splitlines()) == 1
    assert not (tmp_path / "o" / "config.json").exists()


def test_poisson_means_past_numpy_limit_exit_2(tmp_path, capsys):
    capsys.readouterr()
    assert cli.main(["run", "--scenario", "baseline", "--d", "3", "--n-modes", "8",
                     "--exposure", "1e30", "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
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
    argv = ["certify", "--standard", standard, "--n-mc", "10",
            "--out", str(tmp_path / "cert")]
    for r in range(3):
        argv += ["--table", os.path.join(tables, f"mub_{r}.csv")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
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


def test_tomo_missing_bundle_and_degenerate_reference(tmp_path, capsys):
    assert cli.main(["tomo", "--scans", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == 2
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8",
                     "--exposure", "inf", "--seed", "1", "--out", sim]) == 0
    code = cli.main(["tomo", "--scans", os.path.join(sim, "scans"),
                     "--ref-floor", "0.999", "--out", str(tmp_path / "o2")])
    assert code == 3
    # A floor outside [0, 1) would switch the degenerate-reference check off.
    for floor in ("nan", "-1"):
        capsys.readouterr()
        assert cli.main(["tomo", "--scans", os.path.join(sim, "scans"),
                         "--ref-floor", floor, "--out", str(tmp_path / "o3")]) == 2
        err = capsys.readouterr().err
        assert "ref_floor" in err and len(err.splitlines()) == 1


def test_tomo_rejects_a_meta_d_other_than_the_table_width(tmp_path, capsys,
                                                         monkeypatch):
    """meta.json's d is checked against the S tables before any family is
    built at that size."""
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--d", "7", "--n-modes", "16", "--exposure", "inf",
                     "--seed", "1", "--out", sim]) == 0
    meta_path = os.path.join(sim, "scans", "meta.json")
    with open(meta_path, encoding="ascii") as fh:
        meta = json.load(fh)
    with open(meta_path, "w", encoding="ascii") as fh:
        json.dump(dict(meta, d=11), fh)
    dims = []
    parse = bases.parse_basis_spec

    def recorded(spec, d):
        dims.append(d)
        return parse(spec, d)

    monkeypatch.setattr(bases, "parse_basis_spec", recorded)
    capsys.readouterr()
    assert cli.main(["tomo", "--scans", os.path.join(sim, "scans"),
                     "--out", str(tmp_path / "rec")]) == 2
    err = capsys.readouterr().err
    assert "meta.json" in err and len(err.splitlines()) == 1
    assert 11 not in dims


# Grids of 10^14 cells: their bookkeeping alone would exceed any 47-bit
# address space, so the reader must judge them from the cells listed.
@pytest.mark.parametrize("argv, name, text", [
    (["certify", "--standard"], "big.csv",
     "basisA,basisB,exposure,seed\nstandard,standard*,1e4,none\na,b,count\n"
     "0,0,1\n10000000,10000000,1\n"),
    (["unscramble", "--t-hat"], "t_hat.csv",
     "rows,cols\n10000000,10000000\ni,j,re,im\n0,0,1,0\n"),
], ids=["certify", "unscramble"])
def test_a_huge_claimed_grid_exits_2_without_allocating_it(tmp_path, capsys,
                                                           argv, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    extra = ["--table", str(path)] if argv[0] == "certify" else []
    assert cli.main([*argv, str(path), *extra, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "missing cell (0, 1)" in err and len(err.splitlines()) == 1


def test_certify_subcommand_rejects_misplaced_standard_tables(tmp_path, capsys):
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--d", "3", "--n-modes", "8", "--exposure", "1e4",
                     "--seed", "3", "--out", sim]) == 0
    std, mub_0, mub_1, mub_2 = (os.path.join(sim, "tables", f"{name}.csv")
                                for name in ("standard", "mub_0", "mub_1", "mub_2"))
    capsys.readouterr()
    # a standard table among the family tables, and a family table as the
    # standard one
    for argv in (["--standard", std, "--table", mub_0, "--table", std],
                 ["--standard", mub_0, "--table", mub_0, "--table", mub_1,
                  "--table", mub_2]):
        assert cli.main(["certify", *argv, "--n-mc", "0",
                         "--out", str(tmp_path / "cert")]) == 2
        err = capsys.readouterr().err
        assert "standard" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("factor", ["inf", "nan"])
@pytest.mark.parametrize("n_mc", ["0", "10"])
def test_certify_rejects_a_non_finite_row_scale(tmp_path, capsys, factor, n_mc):
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
    capsys.readouterr()
    argv = ["certify", "--standard", os.path.join(tables, "standard.csv")]
    for r in range(3):
        argv += ["--table", os.path.join(tables, f"mub_{r}.csv")]
    assert cli.main(argv + ["--n-mc", n_mc, "--out", str(tmp_path / "cert")]) == 2
    err = capsys.readouterr().err
    assert "row_scale" in err and len(err.splitlines()) == 1


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


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
