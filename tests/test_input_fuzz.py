"""Seeded mutation fuzz over the eight kinds of file the command line reads.

Each case copies the files one command reads from a d=3
simulate -> tomo -> unscramble chain, edits one of them once or twice at
random and runs the command in process. Whatever the edit, `main` must
return 0 or 2 (3 is also allowed, for a reference left too dim to
reconstruct), a non-zero code must come with exactly one stderr line, and
no Python warning may reach the user.

Run as a script for a longer run and a count of the edits nothing notices:
per input, the accepted edits after which the command writes the same
bytes as from the intact file (leaving out the input's own SHA-256 in a
certify report). An edit that the file format allows, one that leaves the
file's normalised content as it was (`normalised`), is counted in a column
of its own; any other such edit hit data that no reader uses. The script
exits 1 if any case breaks the rules above.

    PYTHONPATH=src python tests/test_input_fuzz.py --cases 300 --seed 7
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import shutil
import sys
import tempfile
import warnings
from unittest import mock

import pytest

from qscatter import cli, numerics

TOKENS = [b"nan", b"inf", b"1e400", b"-1", b"", b"1" + b"0" * 29, b"0x10", b"1_0", b"true"]
HEADER_LINES = [b"a,b,count", b"i,j,re,im", b"rows,cols", b"basisA,basisB,exposure,seed",
                b"row_scale"]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
KEY = re.compile(rb'"(\w+)":')


def _truncate(data, rng):
    return data[:rng.randrange(len(data))]


def _line(data, rng):
    """Delete or duplicate one line."""
    lines = data.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    lines[k:k + 1] = [] if rng.random() < 0.5 else [lines[k]] * 2
    return b"".join(lines)


def _char(data, rng):
    k = rng.randrange(len(data))
    return data[:k] + bytes([rng.choice(b'0123456789.,-+e:x "{}[]\n')]) + data[k + 1:]


def _number(data, rng):
    """Replace one number by a token that is no number, or an extreme one."""
    spans = [m.span() for m in NUMBER.finditer(data)] or [(0, 0)]
    a, b = rng.choice(spans)
    return data[:a] + rng.choice(TOKENS) + data[b:]


def _structure(data, rng):
    """Change a separator, put a header-like line in place of a line, or
    rename a JSON key (to another of the file's keys, or to no known one)."""
    keys = [m.span(1) for m in KEY.finditer(data)]
    how = rng.randrange(3 if keys else 2)
    if how == 0:
        k = rng.choice([i for i, c in enumerate(data) if c in b",:"] or [0])
        return data[:k] + bytes([rng.choice(b";\t :,")]) + data[k + 1:]
    if how == 1:
        lines = data.splitlines(keepends=True)
        lines[rng.randrange(len(lines))] = rng.choice(HEADER_LINES) + b"\n"
        return b"".join(lines)
    a, b = rng.choice(keys)
    name = rng.choice([data[a:b] + b"_"] + [data[c:d] for c, d in keys])
    return data[:a] + name + data[b:]


def _crlf(data, rng):
    return data.replace(b"\n", b"\r\n")


def _swap(data, rng):
    """Exchange two cell lines (in a file with no columns line, two lines)."""
    lines = data.splitlines(keepends=True)
    columns = [k for k, line in enumerate(lines) if line.strip() in HEADER_LINES[:2]]
    cells = range(columns[0] + 1 if columns else 0, len(lines))
    if len(cells) < 2:
        return data
    a, b = rng.sample(cells, 2)
    lines[a], lines[b] = lines[b], lines[a]
    return b"".join(lines)


MUTATIONS = (_truncate, _line, _char, _number, _structure, _crlf, _swap)


def mutate(data, rng):
    """One edit, or two in 30% of cases."""
    for _ in range(2 if rng.random() < 0.3 else 1):
        if data:
            data = rng.choice(MUTATIONS)(data, rng)
    return data


def build_chain(root):
    """The d=3 chain whose files the fuzz edits, under root."""
    sim, rec = os.path.join(root, "sim"), os.path.join(root, "rec")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--d", "3", "--n-modes", "8", "--exposure", "1e4",
                         "--seed", "3", "--out", sim]) == 0
        assert cli.main(["tomo", "--scans", os.path.join(sim, "scans"), "--out", rec]) == 0
    numerics._write_json(os.path.join(root, "lambda.json"),
                         {"lambda": [0.6, 0.6, math.sqrt(0.28)]})
    numerics._write_json(os.path.join(root, "config.json"), cli.config_to_dict(
        cli.ScenarioConfig("tomography", d=3, n_modes=8, exposure=math.inf, n_mc=0,
                           seed=1)))


def _tomo(case, root):
    return ["tomo", "--scans", case]


def _certify(case, root):
    tables = [arg for r in range(3) for arg in ("--table", f"{case}/mub_{r}.csv")]
    return ["certify", "--standard", f"{case}/standard.csv", *tables,
            "--n-mc", "8", "--seed", "1"]


# kind: (directory of the chain whose files the command reads, the file the
# fuzz edits, the command's arguments given the directory of the copies and
# the chain's root)
INPUTS = {
    "s_scan": ("sim/scans", "s_step1.csv", _tomo),
    "e_scan": ("sim/scans", "e_step2.csv", _tomo),
    "t_hat_csv": ("rec", "t_hat.csv",
                  lambda case, root: ["unscramble", "--t-hat", f"{case}/t_hat.csv"]),
    "t_hat_json": ("rec", "t_hat.json",
                   lambda case, root: ["unscramble", "--t-hat", f"{case}/t_hat.csv"]),
    "lambdas": (".", "lambda.json",
                lambda case, root: ["unscramble", "--t-hat", f"{root}/rec/t_hat.csv",
                                    "--lambdas", f"{case}/lambda.json"]),
    "standard": ("sim/tables", "standard.csv", _certify),
    "family": ("sim/tables", "mub_1.csv", _certify),
    "config": (".", "config.json",
               lambda case, root: ["run", "--scenario", "tomography", "--config",
                                   f"{case}/config.json"]),
}


def normalised(name, data):
    """What a reader may take from a file, whatever its format allows: a
    JSON file's parsed object (None if it does not parse), a CSV file's
    lines under universal newlines, each stripped, empty lines dropped."""
    if name.endswith(".json"):
        try:
            return json.loads(data)
        except ValueError:
            return None
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    return [line.strip() for line in lines if line.strip()]


def _outputs(out):
    """Every file the command wrote, by relative path; a certify report
    without its inputs' SHA-256."""
    tree = {}
    for top, _, files in os.walk(out):
        for name in files:
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "report.json":
                report = json.loads(data)
                for entry in report.get("tables", {}).values():
                    entry.pop("sha256", None)
                data = json.dumps(report, sort_keys=True).encode()
            tree[os.path.relpath(path, out)] = data
    return tree


def run_case(root, case, kind, data):
    """Copy the command's inputs to `case`, with `data` as the edited file,
    and run it. Returns the exit code, the stderr lines, the warnings that
    reached the user and the files written."""
    source, name, argv = INPUTS[kind]
    os.makedirs(case)
    for entry in os.listdir(os.path.join(root, source)) if source != "." else []:
        shutil.copy(os.path.join(root, source, entry), case)
    with open(os.path.join(case, name), "wb") as fh:
        fh.write(data)
    out = os.path.join(case, "out")
    err, shown = io.StringIO(), []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(), \
            mock.patch.object(cli, "_show_warning", lambda *a, **k: shown.append(a[0])):
        warnings.simplefilter("always")  # every warning, however often it recurs
        code = cli.main([*argv(case, root), "--out", out])
    return code, err.getvalue().splitlines(), shown, _outputs(out) if code == 0 else None


def fuzz(root, kind, cases, seed):
    """Run `cases` edits of one input kind; yields (code, stderr lines,
    warnings, whether the outputs equal the intact file's, whether the
    edited file's normalised content equals the intact file's)."""
    source, name, _ = INPUTS[kind]
    with open(os.path.join(root, source, name), "rb") as fh:
        intact = fh.read()
    base = os.path.join(root, "fuzz-" + kind)
    code, _, _, expected = run_case(root, os.path.join(base, "intact"), kind, intact)
    assert code == 0
    rng = random.Random(f"{seed}:{kind}")
    for k in range(cases):
        data = mutate(intact, rng)
        code, err, shown, written = run_case(root, os.path.join(base, str(k)), kind, data)
        yield (code, err, shown, written == expected,
               normalised(name, data) == normalised(name, intact))


def broken(code, err, shown):
    """Whether a case breaks the rules: an exit code other than 0, 2 or 3,
    a stderr other than one line on failure and none on success, or a
    warning that reached the user."""
    return code not in (0, 2, 3) or len(err) != (code != 0) or bool(shown)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("chain"))
    build_chain(root)
    return root


@pytest.mark.parametrize("kind", INPUTS)
def test_an_edited_input_exits_0_or_2_with_one_line(chain, kind):
    for code, err, shown, *_ in fuzz(chain, kind, 25, 7):
        assert not broken(code, err, shown), (code, err, shown)


def test_the_script_exits_1_when_a_case_breaks_the_rules(monkeypatch, capsys):
    real = run_case

    def warned(root, case, kind, data):  # every edited case lets a warning through
        code, err, shown, written = real(root, case, kind, data)
        return code, err, shown + ([] if case.endswith("intact") else ["w"]), written

    monkeypatch.setitem(globals(), "run_case", warned)
    assert main(["--cases", "1"]) == 1
    assert "broke the rules" in capsys.readouterr().out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=300, help="edits per input kind")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    root = tempfile.mkdtemp(prefix="qscatter-fuzz-")
    total_bad = 0
    try:
        build_chain(root)
        print("                                        accepted, outputs unchanged")
        print("input       cases  exit 0  exit 2  exit 3  format only  data unread")
        for kind in INPUTS:
            codes, fmt, dead, bad = {0: 0, 2: 0, 3: 0}, 0, 0, 0
            for code, err, shown, same, fmt_only in fuzz(root, kind, args.cases, args.seed):
                codes[code] = codes.get(code, 0) + 1
                fmt += code == 0 and same and fmt_only
                dead += code == 0 and same and not fmt_only
                bad += broken(code, err, shown)
            total_bad += bad
            print(f"{kind:<11} {args.cases:5d}  {codes[0]:6d}  {codes[2]:6d}  {codes[3]:6d}"
                  f"  {fmt:11d}  {dead:11d}" + (f"  ({bad} broke the rules)" if bad else ""))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return 1 if total_bad else 0


if __name__ == "__main__":
    sys.exit(main())
