#!/usr/bin/env bash
# The whole `Verify:` chain, in order, stopping at the first failure —
# what every CHANGES.md entry asks to stay green and what CI runs split
# over its three parallel jobs (.github/workflows/ci.yml): tier-1 build
# and test (the pins and budgets CI re-runs by name are in it:
# cross_engine with the engine's delivery_pin, frontend_pin, agg_pin
# with harvest_props and alloc_budget's
# a_harvest_over_many_publishers_copies_nothing, raced_pin, the arrivals —
# lifecycle's an_expired_arrival_enters_no_standing_query and
# alloc_budget's an_arriving_row_costs_what_it_did —, the abandoned-get and placement tests — `-p pier_dht --lib dht::tests`
# and `-p pier_core --test lifecycle abandoned_gets` —, the small
# tables — small_map's agrees_with_a_btree_map and alloc_budget's
# an_answered_lookup_and_a_seen_multicast_hold_nothing —, the shared
# strings — node::shared's unit tests and alloc_budget's
# tenants_of_one_fingerprint_share_the_group_key_they_fold —, store_pin,
# geom_pin with overlay_pin (the bootstrap and the churned overlay) and
# alloc_budget's keepalive, resting_overlay and small_join,
# registry_pin, result_log_pin with alloc_budget's
# a_drained_standing_query_keeps_the_initiator_flat, oracle_pin,
# expr_pin, publish_pin, dataflow_pin with
# pruning and pruning_props, wire_audit, alloc_budget with
# a_send_burst_holds_one_copy_per_message, pin_harness, and the query
# lifetimes: edge_cases' malformed descriptors, lifecycle and
# replication_failover, and the combine tree — pier_dht's tree_props,
# strategies' bloom_join_ignores_the_node_count_it_is_told,
# agg_continuous' a_dead_interior_node_loses_only_its_own_rows,
# an_interior_node_that_refuses_the_install_loses_only_its_own_rows and
# the_root_waits_for_what_a_parent_reports_at_its_deadline, and
# alloc_budget's building_a_stabilized_sim_holds_each_node_once), the
# lints, the
# four source guards (the pin guard: every tests/pins/<stem>/<name>.txt
# is named by `"<name>"` in its crate's tests/<stem>.rs, and git tracks
# no `.txt.new`; the layering guard's fifteen rules: the DHT provider
# names no overlay internals; no code under crates/core/src/node/ names
# `PipelineSchema::new` or calls `.check()` on a descriptor — a node
# reads the plan `QueryDesc::certified` compiled once per query; no
# non-test line there builds an upcall list by hand — a node calls its
# provider through `PierNode::dht_op`, whose lists come drained from a
# per-thread pool; crates/core/src/tenant.rs holds no per-query state —
# what is committed is the node's query registry; under node/ a row
# is encoded alone only at the two one-row sites, `advance` and
# `finish` — many rows go into one `RowBatch`;
# under node/ a row becomes a `Tuple` (`.to_tuple()`, `.decode()`) only
# in service.rs, the client surface — the initiator's log keeps rows
# encoded and an aggregate folds rows where they lie; and under
# node/ a stage bucket is walked by `next_in` only in `probe` — raced
# stage state and semi-join minis pair through it too; and under node/
# `set_timer(` appears only in `arm_timer` and `on_start`'s DHT tick —
# uninstall drops a query's timers and gets by owner; and under node/
# accumulators are copied on write (`make_mut`) only in agg.rs's `fold`
# and `merge` — a harvest merges stored partials where they lie; and
# under node/ `live_row(` appears only in `for_each_live` and fetch.rs's
# `fm_complete` and `semi_complete` — a base row enters a query, stored
# or arriving, through `for_each_live`, which tests its expiry; and
# under crates/simnet/src/ `Ctx::new(` appears only in
# `EngineCore::with_app` — every handler runs there and files its sends
# and timers into the engine as it makes them; and no field of
# `struct Dht` names `BTreeMap` — the provider's ops in flight and its
# multicast dedup records are `SmallMap`s, whose first two entries sit
# in place; and no non-comment line under node/ names `n_nodes`, and
# `AggUp` appears nowhere under crates/ — a Bloom join's filters and a
# hierarchical aggregate's groups gather along one combine tree, whose
# root knows a round is whole by its key-space shares; and
# crates/dht/src/dht.rs calls `store.extract_not_owned` only in `place`,
# the one placement reaction that a location-map change, or an item
# stored for a key the node does not own, marks due for the next tick;
# and under node/ `.to_value()` and a column's `.value(` appear only in
# shared.rs — a node holds each string and group key it copies out of a
# row once), the
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
