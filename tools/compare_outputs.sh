#!/usr/bin/env bash
# Run one grid of qscatter commands under two source trees and diff the outputs.
#
# Usage: tools/compare_outputs.sh <parent-src> <change-src>
#
# Each argument is a directory holding the qscatter package (the src/ of a
# checkout). The grid is every scenario at d=7, N=30, n_mc=40, seeds 3 and
# 11, each run plain and with --exposure 5e3 --dark-rate 0.01
# --scan-family standard, plus one such noisy unscramble-certify at d=31,
# N=62 (two-digit family names), plus the simulate -> tomo -> unscramble
# chain at d=5 with certify run on both the simulated and the predicted
# tables, once more on the simulated ones with the --table flags in reverse
# order (so the report's label -> path map is built in that order), and
# unscramble --lambdas with a fixed non-uniform spectrum followed by
# certify --target on its predicted tilted tables, plus unscramble on a
# copy of the noisy --scan-family standard tomography run's t_hat.csv
# without its t_hat.json (an untagged matrix), plus one noiseless
# tomography run at d=7 through N=2000 modes (a 2000-row channel.csv),
# plus three errors that must exit 2 before writing anything
# (run --scenario fixture-a1 --d 5, simulate --basis tilted:1, and
# unscramble --lambdas with a spectrum whose squares sum to 1.8), each with
# its own --out, plus tomo --ref-floor 0.999 on the d=5 scans, which must
# exit 3 with its degenerate-reference message.
# Every command's files, stdout, stderr and exit code are kept, in one
# temporary directory per tree, and all paths are relative, so the two
# trees' outputs can be byte-identical. Names each command that exits
# nonzero under the change tree, then prints `diff -r` of the two and
# exits with its status: 0 when every output file is identical. For each
# differing JSON file it also prints every differing key path with both
# values, and the largest absolute difference between numbers.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <parent-src> <change-src>" >&2
    exit 2
fi

# q <src> <out> <name> <qscatter args...>: one command, run inside <out>.
q() {
    local src=$1 out=$2 name=$3 code=0
    shift 3
    (cd "$out" && PYTHONPATH="$src" python3 -m qscatter "$@" \
        >"$name.stdout" 2>"$name.stderr") || code=$?
    echo "$code" >"$out/$name.exit"
}

run_grid() {
    local src out=$2 scenario seed
    src=$(cd "$1" && pwd)
    for scenario in baseline scramble tomography unscramble-certify two-channel fixture-a1; do
        for seed in 3 11; do
            set -- run --scenario "$scenario" --d 7 --n-modes 30 --n-mc 40 --seed "$seed"
            q "$src" "$out" "$scenario-$seed" "$@" --out "$scenario-$seed"
            q "$src" "$out" "$scenario-$seed-noisy" "$@" --exposure 5e3 --dark-rate 0.01 \
                --scan-family standard --out "$scenario-$seed-noisy"
        done
    done
    q "$src" "$out" unscramble-certify-d31-noisy run --scenario unscramble-certify \
        --d 31 --n-modes 62 --n-mc 40 --seed 3 --exposure 5e3 --dark-rate 0.01 \
        --scan-family standard --out unscramble-certify-d31-noisy
    # --table takes one path per flag.
    local sim_tables=() reversed_tables=() mub_tables=() tilted_tables=() r
    for r in 0 1 2 3 4; do
        sim_tables+=(--table "sim/tables/mub_$r.csv")
        reversed_tables=(--table "sim/tables/mub_$r.csv" "${reversed_tables[@]}")
        mub_tables+=(--table "ops/unscramble/predicted_mub_$r.csv")
        tilted_tables+=(--table "ops-tilted/unscramble/predicted_tilted_$r.csv")
    done
    q "$src" "$out" simulate simulate --d 5 --n-modes 20 --seed 3 --exposure 1e4 --out sim
    q "$src" "$out" tomo tomo --scans sim/scans --out rec
    q "$src" "$out" unscramble unscramble --t-hat rec/t_hat.csv --out ops
    q "$src" "$out" certify-sim certify --standard sim/tables/standard.csv \
        "${sim_tables[@]}" --n-mc 40 --seed 3 --out cert-sim
    q "$src" "$out" certify-sim-reversed certify --standard sim/tables/standard.csv \
        "${reversed_tables[@]}" --n-mc 40 --seed 3 --out cert-sim-reversed
    q "$src" "$out" certify-predicted certify \
        --standard ops/unscramble/predicted_standard.csv "${mub_tables[@]}" \
        --out cert-predicted
    printf '{"lambda": [0.5, 0.5, 0.5, 0.4, 0.3]}\n' >"$out/lambda.json"
    q "$src" "$out" unscramble-tilted unscramble --t-hat rec/t_hat.csv \
        --lambdas lambda.json --out ops-tilted
    q "$src" "$out" certify-tilted certify \
        --standard ops-tilted/unscramble/predicted_standard.csv "${tilted_tables[@]}" \
        --target lambda.json --out cert-tilted
    mkdir "$out/untagged"
    cp "$out/tomography-3-noisy/t_hat.csv" "$out/untagged/t_hat.csv"
    q "$src" "$out" unscramble-untagged unscramble --t-hat untagged/t_hat.csv \
        --out ops-untagged
    q "$src" "$out" tomography-n2000 run --scenario tomography --d 7 --n-modes 2000 \
        --exposure inf --seed 3 --out tomography-n2000
    q "$src" "$out" fixture-a1-d5 run --scenario fixture-a1 --d 5 --n-modes 12 \
        --out fixture-a1-d5
    q "$src" "$out" simulate-tilted simulate --d 5 --n-modes 20 --seed 3 \
        --basis tilted:1 --out simulate-tilted
    printf '{"lambda": [0.6, 0.6, 0.6, 0.6, 0.6]}\n' >"$out/lambda-bad.json"
    q "$src" "$out" unscramble-bad-lambdas unscramble --t-hat rec/t_hat.csv \
        --lambdas lambda-bad.json --out unscramble-bad-lambdas
    q "$src" "$out" tomo-ref-floor tomo --scans sim/scans --ref-floor 0.999 \
        --out tomo-ref-floor
}

parent_out=$(mktemp -d)
change_out=$(mktemp -d)
trap 'rm -rf "$parent_out" "$change_out"' EXIT
run_grid "$1" "$parent_out"
run_grid "$2" "$change_out"
# json_diff <parent-file> <change-file>: each differing key path with both
# values, then the largest absolute difference between numbers.
json_diff() {
    python3 - "$1" "$2" <<'PY'
import json
import sys


def leaves(value, path):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


parent, change = (dict(leaves(json.load(open(p, encoding="ascii")), ""))
                  for p in sys.argv[1:])
largest = None
for path in sorted(parent.keys() | change.keys()):
    old, new = parent.get(path, "<missing>"), change.get(path, "<missing>")
    if old != new:
        print(f"  {path or '.'}: {old!r} -> {new!r}")
        if is_number(old) and is_number(new):
            largest = max(abs(new - old), largest or 0.0)
print(f"  largest absolute numeric difference: {largest}")
PY
}

echo "compared $(find "$parent_out" -type f | wc -l) files against $(find "$change_out" -type f | wc -l)"
for f in "$change_out"/*.exit; do
    [ "$(cat "$f")" = 0 ] || echo "exit $(cat "$f") under the change: $(basename "$f" .exit)"
done
status=0
diff -r "$parent_out" "$change_out" || status=$?
if [ "$status" -eq 0 ]; then
    echo "diff -r: no differences"
fi
{ diff -rq "$parent_out" "$change_out" || true; } |
    sed -n 's/^Files \(.*\.json\) and \(.*\.json\) differ$/\1 \2/p' |
    while read -r a b; do
        echo "${a#"$parent_out"/}:"
        json_diff "$a" "$b"
    done
exit "$status"
