#!/usr/bin/env bash
# Build the benchmark package (offline, default release profile) and run
# it, pinned to one CPU when `taskset` is available.
#
#   benchmark/run.sh                          every workload, end-to-end metrics
#   benchmark/run.sh --trace 1                every workload, per-layer metrics
#   benchmark/run.sh --workload join_wan --seed 11 --seconds 40 --trace 0
#   benchmark/run.sh --aa                     two full sets back to back, compared
#
# Flags: --workload NAME|all  --seed N  --seconds S | --reps N  --trace 0|1
#        --out DIR (default benchmark/out)  --aa
# Run from the repository root. Exits non-zero on any wrong answer, on an
# exact metric diverging between reps, on a committed figure not
# reproduced at seed 11, or (traced scaleup_10k run) on ShardedSim at one
# shard disagreeing with Sim's simulated outcomes.
set -euo pipefail

workload=all
out=benchmark/out
aa=0
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        --aa) aa=1; shift ;;
        --seed | --seconds | --reps | --trace) pass+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

target=${CARGO_TARGET_DIR:-benchmark/target}
# Cargo's own chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    --target-dir "$target" >&2
bin=$target/release/pier_benchmark

# One CPU for the whole run: every workload keeps one thread busy at a
# time, and a fixed CPU keeps its caches. Highest-numbered CPU, since
# CPU 0 tends to take the interrupts.
pin=()
if command -v taskset >/dev/null 2>&1; then
    cpu=$(($(nproc) - 1))
    if taskset -c "$cpu" true 2>/dev/null; then
        pin=(taskset -c "$cpu")
    fi
fi

if [ "$workload" = all ]; then
    workloads=(join_wan scaleup_10k standing_tenants)
else
    workloads=("$workload")
fi

# One process per workload, so peak_rss_mb is that workload's own.
run_set() {
    local dir=$1 w
    for w in "${workloads[@]}"; do
        ${pin[@]+"${pin[@]}"} "$bin" --workload "$w" --out "$dir" ${pass[@]+"${pass[@]}"}
    done
}

if [ "$aa" = 1 ]; then
    run_set "$out/aa_a"
    run_set "$out/aa_b"
    "$bin" --compare "$out/aa_a" "$out/aa_b"
else
    run_set "$out"
fi
