"""Benchmark of the qscatter pipeline: one workload, one run.

Run from the root of a checkout:

    python3 benchmark/run.py --workload certify-mc --seed 1 --seconds 20 --trace 0

The run times the start of fresh Python processes up to the point where
qscatter is imported (set-up), then starts one worker process that runs
whole rounds of the workload for --seconds seconds (see worker.py and
workloads.py). Each time is divided by the time of a calibration loop
measured next to it (`worker.calibrate`) and multiplied by
CAL_REFERENCE_S, so it reads in seconds at the reference machine's speed
however fast the shared machine runs at the moment; the wall-clock
medians are printed as well. Afterwards it checks the files the first round wrote
against oracles.py, which does not import qscatter. It prints one line per
metric and per checked output, and as its last line a JSON object with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured with no
tracing; with --trace 1 they are the per-layer ones, from spans the worker
records around qscatter's public functions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import oracles
import workloads

OUT_ROOT = ".bench_out"
# Median of worker.calibrate() on the reference machine (2-vCPU Xeon VM,
# Python 3.11, numpy 2.4). Times are reported at this speed.
CAL_REFERENCE_S = 0.040
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 160


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.DIMENSION))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _env() -> dict:
    """PYTHONPATH at the checkout's sources, BLAS limited to the usable cores,
    and a fixed hash seed so no run differs from another by its dict layout."""
    threads = str(len(os.sched_getaffinity(0)))
    return dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0",
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads)


def _spawn(env: dict, args: list, timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """Start worker.py, telling it when it was started, and wait for it."""
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
           "--started", repr(time.monotonic()), *args]
    return subprocess.run(cmd, env=env, check=True, timeout=timeout, **kwargs)


def _setup_probe(env: dict) -> dict:
    done = _spawn(env, ["--probe"], 60, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _at_reference_speed(seconds: float, cal_s: float) -> float:
    return seconds * CAL_REFERENCE_S / cal_s


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join("src", "qscatter", "cli.py")):
        print("src/qscatter not found: run from the root of a qscatter checkout",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", "r", encoding="ascii") as fh:
        spec = json.load(fh)
    oracles.selftest()

    out = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    log = os.path.join(out, "worker.log")
    env = _env()
    try:
        _setup_probe(env)  # fills the bytecode cache; not counted
        setups = [_setup_probe(env) for _ in range(SETUP_PROBES)]
        with open(log, "w", encoding="utf-8") as fh:
            _spawn(env, ["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--out", out], WORKER_TIMEOUT_S, stdout=fh,
                   stderr=subprocess.STDOUT)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"worker failed: {exc}; see {log}", file=sys.stderr)
        return 1
    with open(os.path.join(out, "worker.json"), "r", encoding="ascii") as fh:
        res = json.load(fh)
    units = res["units"]

    d = workloads.DIMENSION[args.workload]
    kept = [u["dir"] for u in units if u["dir"]]
    facts, problems = checks.check(args.workload, d, kept, args.seed)
    for u in kept:
        shutil.rmtree(u)

    for u in units:
        u["ref_s"] = _at_reference_speed(u["s"], u["cal_s"])
    plain = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    if args.trace:
        keys = set().union(*(u["layers"] for u in traced))
        values = {k: statistics.median(u["layers"].get(k, 0) for u in traced) for k in keys}
        values["trace.overhead_s"] = (statistics.median(u["ref_s"] for u in traced)
                                      - statistics.median(u["ref_s"] for u in plain))
        wanted = spec["per_layer"]
    else:
        values = {
            "run_s": statistics.median(u["ref_s"] for u in plain),
            "setup_s": statistics.median(_at_reference_speed(p["setup_s"], p["cal_s"])
                                         for p in setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "artifact_mb": statistics.median(u["bytes"] for u in plain) / 1e6,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    for fact in facts:
        print("check " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                  for k, v in fact.items()))
    for problem in problems:
        print(f"FAILED CHECK {problem}")
    print(f"units {len(units)} ({len(traced)} traced) in {res['rounds']} rounds; "
          f"wall-clock medians: unit {statistics.median(u['s'] for u in plain):.6g} s, "
          f"set-up {statistics.median(p['setup_s'] for p in setups):.6g} s, "
          f"calibration {statistics.median(res['cals'][1:]):.6g} s after units, "
          f"{statistics.median(p['cal_s'] for p in setups):.6g} s in set-up probes")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(u["attempted"] for u in units),
        "failed": sum(u["failed"] for u in units),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
