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
# taken in (a lock's slow path shows there). Two shares close the report:
# the samples whose leaf instruction follows a `lock`-prefixed or `xchg`
# instruction (where a locked read-modify-write's cost lands), read from
# `objdump -d` of the built binary and given by innermost eden function; and
# the samples whose leaf lies in libc (the allocator, mostly).
#
# The report opens with the cost stack: every innermost eden function goes
# to one layer of a datum's trip by the table below, and each layer's share
# is printed with its nanoseconds a record (the share times the run's
# cpu_us_per_record). Samples with no eden frame, and those whose function
# no row names, are the residual; the unmapped functions are listed by name.
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
# the binary, "-libc" for one in libc. One line a sample.
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
            close(maps)
            while ((getline line < maps) > 0) {
                split(line, f, " ")
                if (f[6] !~ /\/libc[.-][^\/]*$/) continue
                split(f[1], range, "-")
                libc_lo[++m] = hex(range[1]); libc_hi[m] = hex(range[2])
            }
        }
        {
            line = ""
            for (i = 1; i <= NF; i++) {
                a = hex($i) - (i > 1)
                inside = 0
                for (k = 1; k <= n; k++) if (a >= lo[k] && a < hi[k]) inside = 1
                if (inside) line = line " " sprintf("0x%x", a - bias)
                else if (i == 1) {
                    libc = 0
                    for (k = 1; k <= m; k++) if (a >= libc_lo[k] && a < libc_hi[k]) libc = 1
                    line = line (libc ? " -libc" : " -")
                }
            }
            print substr(line, 2)
        }' "$samples"
done >"$out.chains"

tr ' ' '\n' <"$out.chains" | grep '^0x' | sort -u >"$out.addrs"
symbolize=$(command -v llvm-addr2line || command -v addr2line)
"$symbolize" -e "$bin" -a -f -i -C <"$out.addrs" >"$out.frames"
# The address of every instruction that follows a locked one.
objdump -d --no-show-raw-insn "$bin" | awk -F'\t' '
    /^ *[0-9a-f]+:\t/ {
        addr = $1; sub(/^ */, "", addr); sub(/:$/, "", addr)
        if (locked) print "0x" addr
        # An `xchg` with memory is locked; one of two registers is a no-op.
        locked = ($2 ~ /^lock / || ($2 ~ /^xchg/ && $2 ~ /\(/))
    }' >"$out.locked"

# The layer map: one row a layer and file (under crates/) and the functions
# of that file it takes, a regular expression over the function's own name
# (no path, no generics: an inlined frame is named no more fully), the
# columns two or more spaces apart. The first row that matches a sample's
# innermost eden frame names its layer.
cat >"$out.layers" <<'MAP'
wire                   eden-core/src/wire.rs              .*
wire                   eden-transput/src/protocol.rs      .*
route lookup           eden-kernel/src/routes.rs          .*
route lookup           eden-kernel/src/kernel.rs          resolve_route|resolve_missed|shard|reactivate
mailbox push/pop/wake  eden-kernel/src/mailbox.rs         .*
mailbox push/pop/wake  eden-kernel/src/sched.rs           enqueue|push|pop|maybe_wake|wake_sleeper|pop_sleeper|note_wake|stamp_enqueue|now_ns|has_runnable|requeue
mailbox push/pop/wake  eden-kernel/src/context.rs         send|wake
dispatch               eden-kernel/src/sched.rs           run_as_call|run_task|resume|die|take_body|put_body|slot|worker_main|transition|resuming_depth|is_resuming|set_serving|note_wait|note_settled|local_metrics|blocking|[{]closure#[0-9]+[}]
dispatch               eden-kernel/src/kernel.rs          send|deliver|dispatch_route|apply_fault|invoke|invoke_with|call|call_routed
dispatch               eden-kernel/src/context.rs         .*
dispatch               eden-kernel/src/(runtime|behavior|options|fault).rs  .*
reply pair/settle      eden-kernel/src/invocation.rs      .*
reply pair/settle      eden-kernel/src/kernel.rs          reply_pair_for|settle_rejected
span record            eden-kernel/src/obs.rs             .*
span record            eden-core/src/span.rs              .*
span record            eden-kernel/src/kernel.rs          record_faulted_span
metering               eden-core/src/(metrics|payload).rs  .*
metering               eden-core/src/stream.rs            note_.*
stage and transform    eden-core/src/stream.rs            .*
stage and transform    eden-(transput|filters)/src/       .*
value                  eden-core/src/(value|uid|op|error).rs  .*
durable store/fsync    eden-kernel/src/stable/            .*
durable store/fsync    eden-kernel/src/kernel.rs          stable_write
durable store/fsync    eden-fs/src/                       .*
durable store/fsync    eden-core/src/hostfs.rs            .*
MAP
cpu_us=$(awk '$1 == "cpu_us_per_record" { print $3; exit }' "$out.run.txt")

awk -v frames="$out.frames" -v locked="$out.locked" -v layers="$out.layers" -v cpu_us="${cpu_us:-0}" '
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
        while ((getline line < locked) > 0) { sub(/^0x0*/, "0x", line); after_lock[line] = 1 }
        while ((getline line < layers) > 0) {
            split(line, f, /   */)
            rows++; row_layer[rows] = f[1]; row_file[rows] = "^" f[2]; row_fn[rows] = f[3]
        }
    }
    # The layer of an innermost eden frame, or "" if no row names it.
    function layer_of(file, fn,   r) {
        if (fn !~ /^</) sub(/<.*/, "", fn)
        sub(/.*::/, "", fn)
        for (r = 1; r <= rows; r++)
            if (file ~ row_file[r] && fn ~ "^(" row_fn[r] ")$") return row_layer[r]
        return ""
    }
    {
        total++
        file = "(no eden frame)"; fn = file
        for (i = 1; i <= NF; i++) {
            a = $i; sub(/^0x0*/, "0x", a)
            if (a in eden) { file = eden[a]; fn = eden_fn[a]; break }
        }
        by_file[file]++; by_fn[file "\t" fn]++
        if (file == "(no eden frame)") no_eden++
        else {
            k = file "\t" fn
            if (!(k in layer)) layer[k] = layer_of(file, fn)
            if (layer[k] == "") { unmapped++; unmapped_fn[k]++ } else by_layer[layer[k]]++
        }
        if (file ~ /sched\.rs$/) {
            # The leaf, or the innermost binary frame under a leaf outside.
            a = ($1 ~ /^-/) ? $2 : $1; sub(/^0x0*/, "0x", a)
            sched_leaf[($1 ~ /^-/ ? "(libc) " : "") leaf[a]]++; sched_total++
        }
        leaf_ip = $1; sub(/^0x0*/, "0x", leaf_ip)
        if (leaf_ip in after_lock) { locked_total++; locked_fn[file "\t" fn]++ }
        if ($1 == "-libc") libc_total++
    }
    END {
        printf "%d samples, cpu_us_per_record %.3f\n\n", total, cpu_us
        printf " share  ns/record  layer (of the innermost eden frame)\n"
        for (k in by_layer)
            printf "%6.1f %%  %8.1f  %s\n", 100 * by_layer[k] / total, 1000 * cpu_us * by_layer[k] / total, k | "sort -rn"
        close("sort -rn")
        printf "%6.1f %%  %8.1f  residual: no eden frame\n", 100 * no_eden / total, 1000 * cpu_us * no_eden / total
        printf "%6.1f %%  %8.1f  residual: unmapped\n", 100 * unmapped / total, 1000 * cpu_us * unmapped / total
        for (k in unmapped_fn) { split(k, p, "\t"); printf "%6.1f %%  unmapped  %s  (%s)\n", 100 * unmapped_fn[k] / total, p[2], p[1] | "sort -rn" }
        close("sort -rn")
        printf "\nby file (innermost eden frame)\n"
        for (k in by_file) printf "%6.1f %%  %s\n", 100 * by_file[k] / total, k | "sort -rn"
        close("sort -rn")
        printf "\nby function (innermost eden frame)\n"
        for (k in by_fn) { split(k, p, "\t"); printf "%6.1f %%  %s  (%s)\n", 100 * by_fn[k] / total, p[2], p[1] | "sort -rn | head -n 40" }
        close("sort -rn | head -n 40")
        printf "\nsched.rs samples (%.1f %%) by leaf function\n", 100 * sched_total / total
        for (k in sched_leaf) printf "%6.1f %%  %s\n", 100 * sched_leaf[k] / total, k | "sort -rn | head -n 15"
        close("sort -rn | head -n 15")
        printf "\nleaf after a lock-prefixed or xchg instruction (%.1f %%) by innermost eden frame\n", 100 * locked_total / total
        for (k in locked_fn) { split(k, p, "\t"); printf "%6.1f %%  %s  (%s)\n", 100 * locked_fn[k] / total, p[2], p[1] | "sort -rn | head -n 20" }
        close("sort -rn | head -n 20")
        printf "\nleaf in libc: %.1f %%\n", 100 * libc_total / total
    }' "$out.chains"
