#!/usr/bin/env bash
# The whole `Verify:` chain, in order, stopping at the first failure —
# what every CHANGES.md entry asks to stay green and what CI runs split
# over its three parallel jobs (.github/workflows/ci.yml): tier-1 build
# and test (the pins and budgets CI re-runs by name are in it:
# cross_engine with the engine's delivery_pin, frontend_pin, agg_pin
# with harvest_props and alloc_budget's
# a_harvest_over_many_publishers_copies_nothing, raced_pin, the abandoned-get tests — `-p pier_dht --lib dht::tests`
# and `-p pier_core --test lifecycle abandoned_gets` —, store_pin,
# geom_pin with overlay_pin (the bootstrap and the churned overlay) and
# alloc_budget's keepalive, resting_overlay and small_join,
# registry_pin, result_log_pin with alloc_budget's
# a_drained_standing_query_keeps_the_initiator_flat, oracle_pin,
# expr_pin, publish_pin, dataflow_pin with
# pruning and pruning_props, wire_audit, alloc_budget with
# a_send_burst_holds_one_copy_per_message, pin_harness, and the query
# lifetimes: edge_cases' malformed descriptors, lifecycle and
# replication_failover), the lints, the
# four source guards (the pin guard: every tests/pins/<stem>/<name>.txt
# is named by `"<name>"` in its crate's tests/<stem>.rs, and git tracks
# no `.txt.new`; the layering guard's nine rules: the DHT provider
# names no overlay internals; no code under crates/core/src/node/ names
# `PipelineSchema::new` or calls `.check()` on a descriptor — a node
# reads the plan `QueryDesc::certified` compiled once per query; no
# non-test line there builds an upcall list by hand — a node calls its
# provider through `PierNode::dht_op`, whose lists come drained from a
# per-thread pool; crates/core/src/tenant.rs holds no per-query state —
# what is committed is the node's query registry; under node/ a row
# is encoded alone only at the three one-row sites, `rehash_one`,
# `advance` and `emit_result` — many rows go into one `RowBatch`;
# under node/ a row becomes a `Tuple` (`.to_tuple()`, `.decode()`) only
# in service.rs, the client surface — the initiator's log keeps rows
# encoded and an aggregate folds rows where they lie; and under
# node/ a stage bucket is walked by `next_in` only in `probe` — raced
# stage state and semi-join minis pair through it too; and under node/
# `set_timer(` appears only in `arm_timer` and `on_start`'s DHT tick —
# uninstall drops a query's timers and gets by owner; and under node/
# accumulators are copied on write (`make_mut`) only in agg.rs's `fold`
# and `merge` — a harvest merges stored partials where they lie), the
# performance ledger's own tests, its join smoke, its
# 10^4-node smoke and its traced standing-query smoke, the
# bench-trajectory gate, and every example.
# Run from anywhere; takes a few minutes.
set -euo pipefail

cd "$(dirname "$0")/.."

step() {
    echo "== $*" >&2
    "$@"
}

step cargo build --release
step cargo test -q
# The wall-clock suites once more on one CPU: the `Cluster`'s worker pool
# must not depend on having as many cores as workers.
if command -v taskset >/dev/null; then
    step taskset -c 0 cargo test -q -p pier_simnet --lib cluster::
    step taskset -c 0 cargo test -q -p pier_simnet --test deployment_conformance --test cluster_pin
fi
step cargo clippy --workspace --all-targets -- -D warnings
step cargo fmt --check
RUSTDOCFLAGS="-D warnings" step cargo doc --no-deps
step ci/determinism_guard.sh
step ci/sleep_guard.sh
step ci/layering_guard.sh
step ci/pin_guard.sh
step cargo test --offline --manifest-path benchmark/Cargo.toml
# The paper's R ⋈ S on 256 nodes: its continuity pins (582 413 events,
# 4 748 results) and its answer against the oracle.
step benchmark/run.sh --workload join_wan --seed 11 --reps 1
# The 10^4-node continuity pins (3 375 669 events, 1 181 results); exits
# non-zero on a wrong answer or a moved pin.
step benchmark/run.sh --workload scaleup_10k --seed 11 --reps 1
# The 1 000 standing aggregates, traced: the only run that reads the
# layer counters, so the only one that checks the `rejected installs =
# 1` / `shed publishes = 510` pins beside 1 427 173 events.
step benchmark/run.sh --workload standing_tenants --seed 11 --reps 1 --trace 1
# The gate: re-run the committed experiments; git is the comparator.
step cargo run --release -p pier_bench -- gated
step git diff --exit-code -- results/
for src in examples/*.rs; do
    step cargo run --release --example "$(basename "$src" .rs)"
done
echo "verify: OK" >&2
