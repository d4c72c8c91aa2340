#!/bin/sh
# Where a workload's CPU time goes, by the innermost eden frame.
#
#   scripts/profile.sh [--seconds S] [--seed N] <commit> <workload>
#
# The commit is exported with `git archive` into $BENCH_DIR/prof-<commit>
# (default ${TMPDIR:-/tmp}/eden-bench-pairs), and its unedited benchmark is
# built there with line tables and frame pointers
# (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only,
# RUSTFLAGS='-C force-frame-pointers=yes'), so nothing in this checkout is
# written. The workload runs for S seconds (default 40) with --trace 0 under
# the LD_PRELOAD sampler scripts/sampler.rs (built with rustc into the same
# directory): SIGPROF every 2 ms of process CPU time, the leaf instruction
# pointer and a frame-pointer chain.
#
# Each sample is attributed to its innermost frame that lies in an eden
# crate (crates/eden-*), inline frames expanded with `addr2line -a -f -i -C`
# (llvm-addr2line where there is one: GNU addr2line names the innermost
# inline frame after the function it is inlined into);
# a leaf outside the benchmark binary (libc, the vDSO) is attributed up the
# chain, and a sample with no eden frame at all reads "(no eden frame)". The
# tables give the share of samples by file and by function, and, for the
# samples whose eden frame is in sched.rs, the leaf function they were
# taken in (a lock's slow path shows there).
set -eu
cd "$(dirname "$0")/.." || exit 1

seconds=40 seed=1
while [ $# -gt 2 ]; do
    case $1 in
    --seconds) seconds=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    *) echo "profile: unknown option $1" >&2; exit 2 ;;
    esac
done
[ $# -eq 2 ] || { sed -n '4s/^# \{0,1\}//p' "$0" >&2; exit 2; }
commit=$(git rev-parse --short=12 "$1^{commit}")
workload=$2
dir=${BENCH_DIR:-${TMPDIR:-/tmp}/eden-bench-pairs}
tree="$dir/prof-$commit"
bin="$tree/benchmark/target/release/eden-benchmark"

if [ ! -x "$bin" ]; then
    rm -rf "$tree" && mkdir -p "$tree"
    git archive "$commit" | tar -x -C "$tree"
    echo "building the benchmark of $commit in $tree" >&2
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only RUSTFLAGS='-C force-frame-pointers=yes' \
        cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
fi
sampler="$dir/libsampler.so"
rustc -O --edition 2021 --crate-type cdylib -o "$sampler" scripts/sampler.rs

out="$dir/prof-$commit-$workload"
rm -f "$out".*.samples "$out".*.maps
echo "sampling $workload on $commit for ${seconds} s" >&2
(cd "$tree" && EDEN_SAMPLER_OUT="$out" LD_PRELOAD="$sampler" "$bin" --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0) >"$out.run.txt" 2>&1 ||
    { echo "profile: the run failed (see $out.run.txt)" >&2; exit 1; }

real=$(readlink -f "$bin")
# Each process's samples as addresses in the binary (return addresses less
# one, so that they name the call), innermost first; "-" for a leaf outside
# the binary. One line a sample.
for samples in "$out".*.samples; do
    awk -v bin="$real" -v maps="${samples%.samples}.maps" '
        function hex(s,   n, i, c) {
            n = 0
            for (i = 1; i <= length(s); i++) {
                c = index("0123456789abcdef", substr(s, i, 1)) - 1
                n = n * 16 + c
            }
            return n
        }
        BEGIN {
            while ((getline line < maps) > 0) {
                split(line, f, " ")
                if (f[6] != bin) continue
                split(f[1], range, "-")
                lo[++n] = hex(range[1]); hi[n] = hex(range[2])
                if (hex(f[3]) == 0) bias = lo[n]
            }
        }
        {
            line = ""
            for (i = 1; i <= NF; i++) {
                a = hex($i) - (i > 1)
                inside = 0
                for (k = 1; k <= n; k++) if (a >= lo[k] && a < hi[k]) inside = 1
                if (inside) line = line " " sprintf("0x%x", a - bias)
                else if (i == 1) line = line " -"
            }
            print substr(line, 2)
        }' "$samples"
done >"$out.chains"

tr ' ' '\n' <"$out.chains" | grep '^0x' | sort -u >"$out.addrs"
symbolize=$(command -v llvm-addr2line || command -v addr2line)
"$symbolize" -e "$bin" -a -f -i -C <"$out.addrs" >"$out.frames"

awk -v frames="$out.frames" '
    BEGIN {
        # For each address, its inline frames innermost first: the first
        # eden one, and the innermost one of all.
        while ((getline line < frames) > 0) {
            if (line ~ /^0x/) { addr = line; sub(/^0x0*/, "0x", addr); state = 0; continue }
            if (state == 0) {
                fn = line; state = 1
                sub(/::h[0-9a-f]+( \(\.llvm\.[0-9]+\))?$/, "", fn)
                continue
            }
            state = 0
            if (!(addr in leaf)) leaf[addr] = fn
            if (!(addr in eden) && match(line, /crates\/eden-[a-z]+\/src\/[^:]*/)) {
                eden[addr] = substr(line, RSTART + 7, RLENGTH - 7)
                eden_fn[addr] = fn
            }
        }
    }
    {
        total++
        file = "(no eden frame)"; fn = file
        for (i = 1; i <= NF; i++) {
            a = $i; sub(/^0x0*/, "0x", a)
            if (a in eden) { file = eden[a]; fn = eden_fn[a]; break }
        }
        by_file[file]++; by_fn[file "\t" fn]++
        if (file ~ /sched\.rs$/) {
            # The leaf, or the innermost binary frame under a leaf outside.
            a = ($1 == "-") ? $2 : $1; sub(/^0x0*/, "0x", a)
            sched_leaf[($1 == "-" ? "(libc) " : "") leaf[a]]++; sched_total++
        }
    }
    END {
        printf "%d samples\n\nby file (innermost eden frame)\n", total
        for (k in by_file) printf "%6.1f %%  %s\n", 100 * by_file[k] / total, k | "sort -rn"
        close("sort -rn")
        printf "\nby function (innermost eden frame)\n"
        for (k in by_fn) { split(k, p, "\t"); printf "%6.1f %%  %s  (%s)\n", 100 * by_fn[k] / total, p[2], p[1] | "sort -rn | head -n 40" }
        close("sort -rn | head -n 40")
        printf "\nsched.rs samples (%.1f %%) by leaf function\n", 100 * sched_total / total
        for (k in sched_leaf) printf "%6.1f %%  %s\n", 100 * sched_leaf[k] / total, k | "sort -rn | head -n 15"
        close("sort -rn | head -n 15")
    }' "$out.chains"
