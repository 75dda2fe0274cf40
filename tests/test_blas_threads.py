"""The BLAS thread count may move a run's output bytes by rounding, never
what it counts or certifies.

The README promises byte-identical reruns for one numpy, one BLAS build and
one BLAS thread count. At d = 101 OpenBLAS splits its products by thread,
so 1 and 2 threads round differently: the channel's entries move by about
1e-16 and the row_scale factors by about 1e-13 relative (measured at seed
3). A Poisson mean that moves by one ulp could in principle draw another
count; this test would see that, since the drawn counts must be equal.
"""

import json
import os
import subprocess
import sys

import numpy as np

from qscatter import measure, numerics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Every float of one run lies within RTOL of the other run's value, relative
# to the value itself for row_scale factors and JSON numbers, and to the largest
# magnitude in the file for matrix entries (a Haar channel holds entries
# near 0 whose own relative change says nothing). The measured worst case
# is 1e-13, on row_scale factors.
RTOL = 1e-12


def _run(out, threads):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-m", "qscatter", "run", "--scenario", "unscramble-certify",
         "--d", "101", "--n-modes", "202", "--exposure", "1e4", "--n-mc", "50",
         "--seed", "3", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _files(root):
    return sorted(os.path.relpath(os.path.join(base, name), root)
                  for base, _, names in os.walk(root) for name in names)


def _close(a, b, scale):
    return np.all(np.abs(np.asarray(a) - np.asarray(b)) <= RTOL * np.asarray(scale))


def _compare_table(one, two, name):
    assert (one.basis_label_a, one.basis_label_b, one.seed) == (
        two.basis_label_a, two.basis_label_b, two.seed), name
    assert _close(one.exposure, two.exposure, abs(one.exposure)), name
    for table in (one, two):
        assert np.array_equal(table.counts, np.rint(table.counts)), name
    assert np.array_equal(one.counts, two.counts), name
    assert (one.row_scale is None) == (two.row_scale is None), name
    if one.row_scale is not None:
        assert _close(one.row_scale, two.row_scale, one.row_scale), name


def _leaves(value, path=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _compare_json(one, two, name):
    a, b = dict(_leaves(one)), dict(_leaves(two))
    assert a.keys() == b.keys(), name
    for key, x in a.items():
        y = b[key]
        if key.endswith(".sha256"):
            continue  # the digest of a table file, whose bytes may differ
        if isinstance(x, float):
            assert _close(x, y, abs(x)), f"{name}{key}: {x!r} vs {y!r}"
        else:
            assert x == y, f"{name}{key}: {x!r} vs {y!r}"


def test_one_and_two_blas_threads_count_and_certify_alike(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    assert _run(one, 1) == _run(two, 2)
    files = _files(one)
    assert files == _files(two)
    assert sum(name.startswith("tables") for name in files) == 102
    for name in files:
        p1, p2 = os.path.join(one, name), os.path.join(two, name)
        if name.endswith(".json"):
            with open(p1, encoding="ascii") as f1, open(p2, encoding="ascii") as f2:
                _compare_json(json.load(f1), json.load(f2), name)
            continue
        with open(p1, encoding="ascii") as fh:
            header = fh.readline().strip()
        if header == "basisA,basisB,exposure,seed":
            _compare_table(measure.load_count_table(p1), measure.load_count_table(p2),
                           name)
        else:
            m1, m2 = numerics.load_matrix_csv(p1), numerics.load_matrix_csv(p2)
            assert m1.shape == m2.shape, name
            assert _close(m1, m2, np.max(np.abs(m1))), name
    reports = []
    for out in (one, two):
        with open(out / "report.json", encoding="ascii") as fh:
            reports.append(json.load(fh)["results"])
    assert reports[0]["d_ent"] == reports[1]["d_ent"]
    for key in ("fidelity", "fidelity_sigma"):
        assert _close(reports[0][key], reports[1][key], abs(reports[0][key])), key
