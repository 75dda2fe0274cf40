"""Every demo script, and the README's library quick start, runs against the
package in src/."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def _run_python(argv, cwd, **env):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **env)
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(script, tmp_path):
    _run_python([script], tmp_path)


def test_certifying_demo_removes_its_fixture_directory(tmp_path):
    script = os.path.join(ROOT, "demos", "04_certifying_dimensionality.py")
    _run_python([script], tmp_path, TMPDIR=str(tmp_path))
    assert not glob.glob(os.path.join(str(tmp_path), "qscatter_fixture_*"))


def test_readme_quick_start_prints_the_line_it_shows(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
    shown = block.rstrip().splitlines()[-1]
    assert shown.startswith("# ")
    assert _run_python(["-c", block], tmp_path).splitlines() == [shown[2:]]
