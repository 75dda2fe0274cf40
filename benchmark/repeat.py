"""Run the benchmark over several seeds and summarize each metric.

    python3 benchmark/repeat.py --seeds 1-10 [--trace 0]

For every workload it runs `benchmark/run.py` once per seed, one run at a
time and for BENCHMARK.json's run_seconds, and prints each metric's
median, first and third quartile, and the quartile spread as a share of
the median. It also prints the check lines
of every run (F, F_true, sigma, d_ent, reconstruction error), which are
the reference figures of README.md. The summary is saved to
`.bench_out/repeat-trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open("BENCHMARK.json", "r", encoding="ascii") as fh:
        seconds = json.load(fh)["run_seconds"]
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

    summary = {}
    for name in workloads.DIMENSION:
        results, walls = [], []
        for seed in _seeds(args.seeds):
            t0 = time.monotonic()
            done = subprocess.run([sys.executable, run, "--workload", name, "--seed",
                                   str(seed), "--seconds", str(seconds), "--trace",
                                   str(args.trace)], capture_output=True, text=True,
                                  check=True)
            walls.append(time.monotonic() - t0)
            lines = done.stdout.strip().splitlines()
            for ln in lines:
                if ln.startswith(("check ", "FAILED", "units ")):
                    print(f"{name} seed {seed}: {ln}", flush=True)
            results.append(json.loads(lines[-1]))
        rows = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            rows[metric] = {"median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med if med else 0.0,
                            "unit": results[0]["metrics"][metric]["unit"]}
        summary[name] = {
            "correct": all(r["correct"] for r in results),
            "failed_share": [r["failed"] / r["attempted"] for r in results],
            "run_wall_s": [round(w, 1) for w in walls],
            "metrics": rows,
        }
        print(f"== {name}: correct {summary[name]['correct']}, failed shares "
              f"{sorted(set(summary[name]['failed_share']))}, run walls "
              f"{summary[name]['run_wall_s']}")
        for metric, row in rows.items():
            print(f"   {metric:34s} median {row['median']:.6g} {row['unit']}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.2%}",
                  flush=True)
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", f"repeat-trace{args.trace}.json"), "w",
              encoding="ascii") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
