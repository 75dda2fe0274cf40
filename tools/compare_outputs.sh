#!/usr/bin/env bash
# Run one grid of qscatter commands under two source trees and diff the outputs.
#
# Usage: tools/compare_outputs.sh <parent-src> <change-src>
#
# Each argument is a directory holding the qscatter package (the src/ of a
# checkout). The grid is every scenario at d=7, N=30, n_mc=40, seeds 3 and
# 11, each run plain and with --exposure 5e3 --dark-rate 0.01
# --scan-family standard, plus one such noisy unscramble-certify at d=31,
# N=62 (two-digit family names), plus one unscramble-certify at d=101,
# N=202, exposure 1e4, n_mc=5 (from d=91 up a complex d x d array is
# larger than 128 KB, glibc's initial mmap threshold, so only this step
# reaches the allocator regime of large runs), plus the simulate -> tomo
# -> unscramble chain at d=5 with certify run on both the simulated and the predicted
# tables, the same chain without certify at d=67 (its 4489-cell tables and
# 8978-value matrices span more than one of the writer's 4096-value blocks,
# and its predicted tables print small entries in exponent notation), once more on the simulated ones with the --table flags in reverse
# order (so the report's label -> path map is built in that order), and
# once more on CRLF copies of the simulated tables, each with one empty
# line between its first two cells, and twice more on the simulated ones
# through the single-family lower bound: with mub_0 alone, and with mub_0
# and mub_1 (the fallback, which warns on stderr), and
# unscramble --lambdas with a fixed non-uniform spectrum followed by
# certify --target on its predicted tilted tables, plus unscramble on a
# copy of the noisy --scan-family standard tomography run's t_hat.csv
# without its t_hat.json (an untagged matrix), plus one noiseless
# tomography run at d=7 through N=2000 modes (a 2000-row channel.csv),
# plus seven errors that must exit 2 and leave their --out absent
# (run --scenario fixture-a1 --d 5, simulate --basis tilted:1, simulate
# --basis mub:01, which is not how mub:1 is spelled, unscramble
# --lambdas with a spectrum whose squares sum to 1.8, certify given
# sim/tables/mub_0.csv and a copy of it, two tables with one label,
# certify given a copy of it relabelled mub:01, and certify on copies of
# the d=7 unscramble-certify-3 run's recovered tables in which one cell of
# recovered_tilted_0.csv is moved by half its row's row_scale factor, so
# it is no longer a whole count times row_scale), each with
# its own --out, plus tomo --ref-floor 0.999 on the d=5 scans, which must
# exit 3 with its degenerate-reference message. Three steps check what
# --out holds after a rerun or a failure: a baseline run at d=5 and then at
# d=3 into one --out (tables/ must hold only the d=3 tables), an
# unscramble-certify run at --exposure 2 --seed 1 that exits 3 at
# reconstruction (its --out must stay absent), and a baseline run at
# --exposure 1e30 that exits 2 while sampling, aimed at a copy of a filled
# --out (the copy must stay as it was). Two more steps each read --config
# from inside a copy of the filled unscramble-certify --out, under an entry
# the command replaces: run --config <out>/tables/c.json and simulate
# --config <out>/scans/c.json. Each must exit 2 and leave its copy as it
# was, since the commit would delete c.json.
# Both trees run with the same OPENBLAS_NUM_THREADS and OMP_NUM_THREADS,
# taken from the environment or 1 where unset, and the script prints them
# first: at d=101 the output bytes depend on the BLAS thread count, so
# outputs saved under one setting compare only with outputs saved under it.
# Every command's files, stdout, stderr and exit code are kept, in one
# temporary directory per tree, and all paths are relative, so the two
# trees' outputs can be byte-identical. Names each command that exits
# nonzero under the change tree, then prints `diff -r` of the two and
# exits with its status: 0 when every output file is identical. For each
# differing JSON file it also prints every differing key path with both
# values, and the largest absolute difference between numbers. It ends
# with a summary: the differing files grouped by path with every run of
# digits in the base name written N, one count per group (for example
# `67 ops-d67/unscramble/predicted_mub_N.csv`), then each file or
# directory present under one tree only.
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
    q "$src" "$out" unscramble-certify-d101 run --scenario unscramble-certify \
        --d 101 --n-modes 202 --exposure 1e4 --n-mc 5 --out unscramble-certify-d101
    # --table takes one path per flag.
    local sim_tables=() reversed_tables=() crlf_tables=() mub_tables=() tilted_tables=() r name
    for r in 0 1 2 3 4; do
        sim_tables+=(--table "sim/tables/mub_$r.csv")
        crlf_tables+=(--table "crlf/mub_$r.csv")
        reversed_tables=(--table "sim/tables/mub_$r.csv" "${reversed_tables[@]}")
        mub_tables+=(--table "ops/unscramble/predicted_mub_$r.csv")
        tilted_tables+=(--table "ops-tilted/unscramble/predicted_tilted_$r.csv")
    done
    q "$src" "$out" simulate simulate --d 5 --n-modes 20 --seed 3 --exposure 1e4 --out sim
    q "$src" "$out" tomo tomo --scans sim/scans --out rec
    q "$src" "$out" unscramble unscramble --t-hat rec/t_hat.csv --out ops
    q "$src" "$out" simulate-d67 simulate --d 67 --n-modes 134 --seed 3 --exposure 1e4 \
        --out sim-d67
    q "$src" "$out" tomo-d67 tomo --scans sim-d67/scans --out rec-d67
    q "$src" "$out" unscramble-d67 unscramble --t-hat rec-d67/t_hat.csv --out ops-d67
    q "$src" "$out" certify-sim certify --standard sim/tables/standard.csv \
        "${sim_tables[@]}" --n-mc 40 --seed 3 --out cert-sim
    q "$src" "$out" certify-sim-mub0 certify --standard sim/tables/standard.csv \
        --table sim/tables/mub_0.csv --n-mc 40 --seed 3 --out cert-sim-mub0
    q "$src" "$out" certify-sim-fallback certify --standard sim/tables/standard.csv \
        --table sim/tables/mub_0.csv --table sim/tables/mub_1.csv --n-mc 40 --seed 3 \
        --out cert-sim-fallback
    q "$src" "$out" certify-sim-reversed certify --standard sim/tables/standard.csv \
        "${reversed_tables[@]}" --n-mc 40 --seed 3 --out cert-sim-reversed
    mkdir "$out/crlf"
    for name in standard mub_0 mub_1 mub_2 mub_3 mub_4; do
        awk '{ printf "%s\r\n", $0 } prev == "a,b,count" { printf "\r\n" } { prev = $0 }' \
            "$out/sim/tables/$name.csv" >"$out/crlf/$name.csv"
    done
    q "$src" "$out" certify-crlf certify --standard crlf/standard.csv \
        "${crlf_tables[@]}" --n-mc 40 --seed 3 --out cert-crlf
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
    q "$src" "$out" simulate-mub-01 simulate --d 5 --n-modes 20 --seed 3 \
        --basis mub:01 --out simulate-mub-01
    mkdir "$out/copies"
    cp "$out/sim/tables/mub_0.csv" "$out/copies/mub_0.csv"
    sed '2s/^mub:0,mub:0\*,/mub:01,mub:01*,/' "$out/sim/tables/mub_0.csv" \
        >"$out/copies/mub_01.csv"
    q "$src" "$out" certify-one-label-twice certify --standard sim/tables/standard.csv \
        "${sim_tables[@]}" --table copies/mub_0.csv --n-mc 40 --seed 3 \
        --out certify-one-label-twice
    q "$src" "$out" certify-mub-01 certify --standard sim/tables/standard.csv \
        --table copies/mub_01.csv --n-mc 40 --seed 3 --out certify-mub-01
    mkdir "$out/edited"
    cp "$out"/unscramble-certify-3/tables/recovered_*.csv "$out/edited/"
    # Line 4 holds the row_scale factors; cell (0, 0) moves by half of row 0's.
    awk -F, -v OFS=, 'NR == 4 { split($0, factors) }
        NR > 5 && $1 == 0 && $2 == 0 { $3 = sprintf("%.17g", $3 + factors[1] / 2) }
        { print }' "$out/unscramble-certify-3/tables/recovered_tilted_0.csv" \
        >"$out/edited/recovered_tilted_0.csv"
    local edited_tables=()
    for r in 0 1 2 3 4 5 6; do
        edited_tables+=(--table "edited/recovered_tilted_$r.csv")
    done
    q "$src" "$out" certify-edited-cell certify --standard edited/recovered_standard.csv \
        "${edited_tables[@]}" --n-mc 40 --seed 3 --out certify-edited-cell
    printf '{"lambda": [0.6, 0.6, 0.6, 0.6, 0.6]}\n' >"$out/lambda-bad.json"
    q "$src" "$out" unscramble-bad-lambdas unscramble --t-hat rec/t_hat.csv \
        --lambdas lambda-bad.json --out unscramble-bad-lambdas
    q "$src" "$out" tomo-ref-floor tomo --scans sim/scans --ref-floor 0.999 \
        --out tomo-ref-floor
    for d in 5 3; do
        q "$src" "$out" rerun-d$d run --scenario baseline --d $d --n-modes 12 --n-mc 0 \
            --seed 3 --out rerun
    done
    q "$src" "$out" exit3-mid-run run --scenario unscramble-certify --d 7 --n-modes 60 \
        --exposure 2 --seed 1 --n-mc 0 --out exit3-mid-run
    cp -r "$out/baseline-3" "$out/filled"
    q "$src" "$out" exit2-into-filled run --scenario baseline --d 3 --n-modes 8 \
        --exposure 1e30 --out filled
    for entry in tables scans; do
        cp -r "$out/unscramble-certify-3" "$out/config-in-$entry"
        printf '{"d": 3, "n_modes": 8, "n_mc": 0}\n' >"$out/config-in-$entry/$entry/c.json"
    done
    q "$src" "$out" run-config-in-tables run --scenario baseline \
        --config config-in-tables/tables/c.json --out config-in-tables
    q "$src" "$out" simulate-config-in-scans simulate \
        --config config-in-scans/scans/c.json --out config-in-scans
}

export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS:-1}" OMP_NUM_THREADS="${OMP_NUM_THREADS:-1}"
echo "both trees: OPENBLAS_NUM_THREADS=$OPENBLAS_NUM_THREADS OMP_NUM_THREADS=$OMP_NUM_THREADS"
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
changed=$(diff -rq "$parent_out" "$change_out" || true)
sed -n 's/^Files \(.*\.json\) and \(.*\.json\) differ$/\1 \2/p' <<<"$changed" |
    while read -r a b; do
        echo "${a#"$parent_out"/}:"
        json_diff "$a" "$b"
    done
echo "differing files per kind (digit runs in base names as N):"
sed -n 's/^Files \(.*\) and .* differ$/\1/p' <<<"$changed" |
    while read -r a; do echo "${a#"$parent_out"/}"; done |
    awk -F/ -v OFS=/ '{ gsub(/[0-9]+/, "N", $NF); print }' | sort | uniq -c
sed -n 's|^Only in \(.*\): \(.*\)$|\1/\2|p' <<<"$changed" |
    while read -r f; do
        case $f in
            "$parent_out"/*) echo "only under the parent tree: ${f#"$parent_out"/}" ;;
            *) echo "only under the change tree: ${f#"$change_out"/}" ;;
        esac
    done
exit "$status"
