"""One workload in one fresh process.

Started by run.py from the root of a checkout, with `src` on PYTHONPATH.
The process imports qscatter (its set-up), then runs whole rounds of the
workload through `qscatter.cli.main` until the time is used, and writes
per-unit wall times, calibration times (see `calibrate`), bytes written
and its own peak memory to `<out>/worker.json`. With --trace 1 the rounds alternate between untraced
and traced, so one process gives both the tracing overhead and the spans.
With --probe it stops once qscatter is imported and prints the set-up
time and one calibration time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--started", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    return p.parse_args(argv)


def calibrate() -> float:
    """Seconds that a fixed mix of interpreter loop, float formatting and a
    BLAS factorization takes right now.

    The shared machine's speed drifts by a fifth or more over minutes. Unit
    times are divided by the calibration times measured next to them, so
    the reported seconds are seconds at the reference speed
    (`run.CAL_REFERENCE_S`).
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((200, 200))
    t0 = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i % 7
    ",".join(format(x, ".17g") for x in a[:60].ravel())
    np.linalg.qr(a)
    return time.perf_counter() - t0


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(base, f))
               for base, _dirs, files in os.walk(path) for f in files)


def main(argv=None) -> int:
    args = _parse(argv)
    from qscatter import cli
    setup_s = time.monotonic() - args.started
    calibrate()  # the first call also starts the BLAS threads
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "cal_s": calibrate()}))
        return 0
    src = os.path.realpath("src")
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"qscatter was imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import workloads
    units = workloads.plan(args.workload, args.seed)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        with open("BENCHMARK.json", "r", encoding="ascii") as fh:
            wanted = {m["name"] for m in json.load(fh)["per_layer"]}
        missing = sorted(wanted - tracer.known_metrics())
        if missing:
            print(f"no traced function gives {', '.join(missing)}", file=sys.stderr)
            return 2

    records = []
    cals = [calibrate()]
    start = time.monotonic()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        for unit in units:
            k = len(records)
            out = os.path.join(args.out, f"u{k}")
            shutil.rmtree(out, ignore_errors=True)
            commands = [[tok.replace("{out}", out) for tok in cmd] for cmd in unit]
            failed = 0
            if traced:
                lo, tables = len(tracer.spans), tracer.new_tables
                tracer.install()
            t0 = time.perf_counter()
            for cmd in commands:
                try:
                    failed += cli.main(cmd) != 0
                except (Exception, SystemExit) as exc:
                    print(f"{' '.join(cmd[:3])}: {exc!r}", file=sys.stderr)
                    failed += 1
            wall = time.perf_counter() - t0
            cals.append(calibrate())
            rec = {"s": wall, "cal_s": (cals[-2] + cals[-1]) / 2,
                   "bytes": _tree_bytes(out), "attempted": len(commands),
                   "failed": failed, "traced": traced, "dir": out}
            if traced:
                tracer.uninstall()
                layers = tracer.summarize(lo, len(tracer.spans), t0, wall)
                layers["measure.CountTable.new"] = tracer.new_tables - tables
                rec["layers"] = layers
            if rounds > 0:
                shutil.rmtree(out, ignore_errors=True)
                rec["dir"] = None
            records.append(rec)
        rounds += 1
        if rounds >= (2 if tracer else 1) and time.monotonic() - start >= args.seconds:
            break

    if tracer is not None:
        tracer.write(os.path.join(args.out, "spans.csv"))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(os.path.join(args.out, "worker.json"), "w", encoding="ascii") as fh:
        json.dump({"peak_rss_mb": peak, "rounds": rounds, "cals": cals,
                   "units": records}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
