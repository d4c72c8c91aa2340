#!/bin/sh
# Alternating benchmark pairs of two commits, and a line of trajectory for
# each.
#
#   scripts/bench-pairs.sh [options] <parent> <change>
#
#   --workloads a,b,...   workloads to run (default: all five)
#   --pairs N             pairs a workload (default 5)
#   --seed N              the benchmark's --seed, the same on both sides (1)
#   --seconds S           the benchmark's --seconds (20)
#   --no-history          print the table only
#
# Each commit is exported with `git archive` into a directory of its own
# under $BENCH_DIR (default ${TMPDIR:-/tmp}/eden-bench-pairs), and the
# unedited benchmark is built there, so nothing in this checkout — not
# benchmark/Cargo.lock either — is written but BENCH_history.jsonl. The two
# sides alternate, the parent first in odd pairs. For every workload and
# end-to-end metric of BENCHMARK.json the table gives both medians and
# quartiles, the pairs in which the change read better, and whether the
# difference of the medians clears the parent's interquartile distance: a
# difference inside it reads "inside", never better or worse, and a parent
# spread wider than the metric's bound reads "unresolved". Every run's
# `correct` and `failed` are checked and a run at fault is reported.
#
# Before each pair the host calibration figure (scripts/calibrate.rs, built
# with rustc into $BENCH_DIR) is taken: a fixed single-thread spin and a
# two-thread Condvar ping-pong. Its medians over a workload's pairs are
# printed beside the table, and each median of a rate or a time is also
# printed divided by the spin, taken as the host's speed: a rate (`/s`)
# times the spin in seconds, a time (`us`, `s`) over the spin in ms. Tables
# from differently loaded hosts compare on that column (an offered rate,
# such as invoke-open's, is the driver's and does not scale).
#
# Appended to BENCH_history.jsonl, one line per commit, workload and metric:
# the median, the quartiles, the pair count, seed, seconds, `nproc`, the CPU
# model, the calibration medians and the commit.
set -eu
cd "$(dirname "$0")/.." || exit 1
root=$(pwd)

workloads=$(sed -n 's/.*{"name": "\([a-z-]*\)", "why".*/\1/p' BENCHMARK.json | tr '\n' ' ')
pairs=5 seed=1 seconds=20 history=BENCH_history.jsonl
while [ $# -gt 2 ]; do
    case $1 in
    --workloads) workloads=$(echo "$2" | tr ',' ' '); shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --no-history) history=; shift ;;
    *) echo "bench-pairs: unknown option $1" >&2; exit 2 ;;
    esac
done
[ $# -eq 2 ] || { sed -n '4,11s/^# \{0,1\}//p' "$0" >&2; exit 2; }
parent=$(git rev-parse --short=12 "$1^{commit}")
change=$(git rev-parse --short=12 "$2^{commit}")
dir=${BENCH_DIR:-${TMPDIR:-/tmp}/eden-bench-pairs}
mkdir -p "$dir/runs"

# The end-to-end metrics: name, which way is better, the bound and the unit.
metrics=$(sed -n 's/.*{"name": "\([a-z_]*\)", "unit": "\([^"]*\)", "better": "\([a-z]*\)", "bound": \([0-9.]*\)}.*/\1 \3 \4 \2/p' BENCHMARK.json)

for commit in "$parent" "$change"; do
    tree="$dir/$commit"
    if [ ! -x "$tree/benchmark/target/release/eden-benchmark" ]; then
        rm -rf "$tree" && mkdir -p "$tree"
        git archive "$commit" | tar -x -C "$tree"
        echo "building the benchmark of $commit in $tree" >&2
        cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
    fi
done

calibrate="$dir/calibrate"
rm -f "$calibrate"
rustc -O --edition 2021 -o "$calibrate" scripts/calibrate.rs ||
    echo "bench-pairs: scripts/calibrate.rs does not build; no calibration" >&2

# run <commit> <workload> <pair>: one benchmark run, its output kept.
run() {
    out="$dir/runs/$2-$1-$3.txt"
    (cd "$dir/$1" && ./benchmark/target/release/eden-benchmark --workload "$2" \
        --seed "$seed" --seconds "$seconds" --trace 0) >"$out" 2>&1 || true
    tail -n 1 "$out" | grep -q '"correct": true, .*"failed": 0,' ||
        echo "bench-pairs: $2 on $1, pair $3: a run at fault (see $out)" >&2
}

# calib <workload> <field>: the field's median over the workload's pairs, or
# null.
calib() {
    i=1
    while [ "$i" -le "$pairs" ]; do
        sed -n "s/^$2 //p" "$dir/runs/$1-calib-$i.txt" 2>/dev/null
        i=$((i + 1))
    done | sort -g | awk '{ a[NR] = $1 } END { print NR ? (a[int((NR + 1) / 2)] + a[int(NR / 2) + 1]) / 2 : "null" }'
}

nproc=$(nproc)
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)
for w in $workloads; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        rm -f "$dir/runs/$w-calib-$i.txt"
        [ ! -x "$calibrate" ] || "$calibrate" >"$dir/runs/$w-calib-$i.txt"
        if [ $((i % 2)) -eq 1 ]; then
            run "$parent" "$w" "$i"; run "$change" "$w" "$i"
        else
            run "$change" "$w" "$i"; run "$parent" "$w" "$i"
        fi
        i=$((i + 1))
    done
    spin=$(calib "$w" calib_spin_ms) pingpong=$(calib "$w" calib_pingpong_us)
    printf '\n%s: %s -> %s, %s pairs, seed %s, %s s, nproc %s\n' \
        "$w" "$parent" "$change" "$pairs" "$seed" "$seconds" "$nproc"
    printf 'host calibration (median of the pairs): spin %s ms, Condvar ping-pong %s us\n' \
        "$spin" "$pingpong"
    printf '%-24s %14s %14s %22s %22s %22s %6s  %s\n' metric parent change \
        "parent q1..q3" "change q1..q3" "per spin: p..c" ahead verdict
    echo "$metrics" | while read -r name better bound unit; do
        # One line a pair: the parent's value, the change's.
        i=1 values=
        while [ "$i" -le "$pairs" ]; do
            p=$(sed -n "s/^$name [^ ]* //p" "$dir/runs/$w-$parent-$i.txt")
            c=$(sed -n "s/^$name [^ ]* //p" "$dir/runs/$w-$change-$i.txt")
            [ -n "$p" ] && [ -n "$c" ] && values="$values$p $c
"
            i=$((i + 1))
        done
        [ -n "$values" ] || continue
        printf '%s' "$values" | awk -v name="$name" -v better="$better" -v bound="$bound" \
            -v parent="$parent" -v change="$change" -v w="$w" -v seed="$seed" \
            -v seconds="$seconds" -v nproc="$nproc" -v cpu="$cpu" -v history="$history" \
            -v spin="$spin" -v pingpong="$pingpong" -v unit="$unit" '
            function quantile(a, n, q,   h, lo) {
                h = (n - 1) * q + 1; lo = int(h)
                return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
            }
            function sort(a, n,   i, j, t) {
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            }
            function line(commit, a, n) {
                printf "{\"commit\": \"%s\", \"workload\": \"%s\", \"metric\": \"%s\", \"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g, \"pairs\": %d, \"seed\": %s, \"seconds\": %s, \"nproc\": %s, \"cpu\": \"%s\", \"calib_spin_ms\": %s, \"calib_pingpong_us\": %s}\n", \
                    commit, w, name, quantile(a, n, 0.5), quantile(a, n, 0.25), quantile(a, n, 0.75), n, seed, seconds, nproc, cpu, spin, pingpong >> history
            }
            { n++; p[n] = $1; c[n] = $2; if (better == "higher" ? $2 > $1 : $2 < $1) ahead++ }
            END {
                sort(p, n); sort(c, n)
                pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
                iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
                diff = cm - pm; size = diff < 0 ? -diff : diff
                if (pm != 0 && iqr / (pm < 0 ? -pm : pm) > bound) verdict = "unresolved: the parent spreads beyond the bound"
                else if (size <= iqr) verdict = "inside the parent spread"
                else verdict = ((better == "higher") == (diff > 0) ? "better" : "worse") " beyond the parent spread"
                rel = pm != 0 ? sprintf(" (%+.3g%%)", 100 * diff / pm) : ""
                f = spin == "null" || spin == 0 ? 0 : unit ~ /\/s$/ ? spin / 1000 : unit ~ /^u?s$/ ? 1 / spin : 0
                scaled = f ? sprintf("%10.5g..%-10.5g", pm * f, cm * f) : sprintf("%22s", "-")
                printf "%-24s %14.6g %14.6g %10.6g..%-10.6g %10.6g..%-10.6g %s %3d/%-2d  %s%s\n", \
                    name, pm, cm, quantile(p, n, 0.25), quantile(p, n, 0.75), \
                    quantile(c, n, 0.25), quantile(c, n, 0.75), scaled, ahead, n, verdict, rel
                if (history != "") { line(parent, p, n); line(change, c, n) }
            }'
    done
done
[ -z "$history" ] || echo "appended to $root/$history" >&2
