#!/usr/bin/env bash
# Layering guard, fourteen rules. Comment lines are not checked: prose may
# name what code may not.
#
# 1. The provider does not know its overlay. crates/dht/src/dht.rs is the
#    provider of §3.2.3: pending lookups, both stores, replication,
#    repair, re-homing, multicast dedup. What it asks of the routing
#    layer goes through the methods of `Overlay` (crates/dht/src/overlay.rs,
#    the paper's Table 1), each a two-arm delegation to CanState /
#    ChordState. The provider file therefore names no geometry type and
#    no overlay message, never matches on the overlay and needs no
#    `unreachable!` to hand a message to its own helper; the only place
#    it may name a variant is the `with_can` constructor.
# 2. A node reads the certified plan and never builds one. A query's
#    certificate and pruning plan are compiled once, beside the
#    descriptor (`QueryDesc::certified`, crates/core/src/plan.rs), and
#    shared by every node the descriptor is multicast to; no code under
#    crates/core/src/node/ names `PipelineSchema::new` or calls `.check()`
#    on a descriptor or its join.
# 3. A node's upcall lists are drained, not dropped. Every provider call
#    under crates/core/src/node/ goes through `PierNode::dht_op`, which
#    takes its list from a per-thread pool and gives it back drained; no
#    line above a file's test module builds one by hand
#    (`events = Vec::new()` / `vec![]`).
# 4. The tenant governor holds no per-query state. Quotas, table rates
#    and token buckets are its own; what is committed is the node's
#    query registry, which `TenantGovernor::check` is handed. No line of
#    crates/core/src/tenant.rs above its test module names `qid`.
# 5. Rows encoded together share one buffer. Under crates/core/src/node/
#    a row is encoded alone (`FlatRow::from_columns`) only where a
#    handler has one row to encode: `advance` and `finish`.
#    `FlatRow::from_columns` once had six sites here: `rehash_one` (a
#    standing join's arrival), `advance`, `emit_result`, `rehash_table`,
#    `install_query`'s scan ship and `fm_start`'s copy of a row it
#    already held; `publish_rows_from` encoded through
#    `FlatRow::from_tuple` and `emit_groups` through `emit_result`. The
#    bulk ones now encode into a `RowBatch`, `fm_start` shares the stored
#    row, and an arriving row takes its install's batch (`rehash_table`,
#    `ship_scan`). A new bulk encoder uses a `RowBatch`.
# 6. A node keeps no row as a tuple. Under crates/core/src/node/ a row
#    is built into a `Tuple` (`.to_tuple()`, `.decode()`) only in
#    service.rs, the client surface, where a client reads or drains the
#    initiator's result log. A windowed aggregate once buffered every
#    live contribution as a tuple and re-folded them all at each flush;
#    it now folds each row on arrival into the pane of the flush it
#    stops counting at. The initiator once decoded every result into its
#    log as it arrived; the log now keeps the row it received.
# 7. One probe walks a stage bucket. Under crates/core/src/node/ a
#    bucket is walked by `StorageManager::next_in` exactly once, in
#    `probe`, so the partner test exists once: a semi-join mini pairs
#    there as a stage row does, and stage state that raced the install
#    multicast is handed to the same probe.
# 8. A node arms a timer in one place. Under crates/core/src/node/
#    `set_timer(` appears exactly twice: in `arm_timer`, which files
#    every deferred action in `timer_actions`, where uninstall drops a
#    query's by owner, and in `on_start`, for the DHT's maintenance
#    tick. A query once kept its own list of timer tokens beside that
#    map, and the renewal loop armed its timer by a private copy of
#    `arm_timer`.
# 9. A harvest copies nothing. Under crates/core/src/node/ accumulators
#    are copied on write (`make_mut`) only in node/agg.rs's `fold` and
#    `merge`: where a row folds into a group that a partial still shares,
#    and where a report merges panes or a child's partials. An owner's
#    harvest reads the stored partials where they lie and merges a
#    group's into one reused accumulator (`agg::Harvest`); it once merged
#    them into a scratch map, copying each group's first partial.
# 10. A base row is tested on its way into a query in one place. Under
#    crates/core/src/node/ `live_row(` appears only in `for_each_live`,
#    which reads the rows stored at install (`Source::Stored`) and the
#    one row a `newData` upcall brings (`Source::Arrived`) alike, and in
#    fetch.rs's `fm_complete` and `semi_complete`, which check rows a
#    `get` fetched. An arrival once had a path of its own
#    (`on_base_new_data` into `rehash_one`), which skipped the expiry
#    test the install applied.
# 11. A handler runs in one place. Under crates/simnet/src/ `Ctx::new(`
#    appears exactly once, in `EngineCore::with_app`: every handler
#    (dispatched, started, revived, injected, or answering a request)
#    runs there, and its `Ctx` files each send and timer into the core's
#    events as it is made. A handler's effects were once buffered as
#    actions and applied after it returned, and same-instant deliveries
#    to one node were dispatched as a batch through one `Ctx`.
# 12. A table holds what it holds. No field of `struct Dht` in
#    crates/dht/src/dht.rs names `BTreeMap`: the ops in flight and the
#    multicast dedup records are `SmallMap`s (crates/dht/src/small_map.rs),
#    which keep their first two entries in place. Both were `BTreeMap`s,
#    and every node that had looked anything up or heard a multicast kept
#    an emptied leaf of each for the rest of the run.
# 13. One combine tree, and no node reads the network size. No non-comment
#    line under crates/core/src/node/ names `n_nodes`, and `AggUp`
#    appears nowhere under crates/: a Bloom join's filters and a
#    hierarchical aggregate's groups gather along the overlay toward the
#    query's root key (node/combine.rs), whose root knows a round is
#    whole by its shares of the key space. The Bloom collector counted
#    fragments against `QueryDesc::n_nodes` and extended its deadline up
#    to 60 times, and the aggregation tree was `(me - 1) / 2` over dense
#    ids, sending one `AggUp` message per group.
# 14. One placement reaction. Outside its test module, crates/dht/src/dht.rs
#    calls `store.extract_not_owned` exactly once, in `place`, which the
#    tick runs when a location-map change, or an item stored for a key
#    the node does not own, marked it due. The provider once walked its
#    whole store every fourth tick (`tick_count`), only with maintenance
#    on, while a separate repair reacted to the map change under a
#    throttle that dropped a second change within one tick.
set -euo pipefail

cd "$(dirname "$0")/.."

status=0

FILE=crates/dht/src/dht.rs
FORBIDDEN='CanMsg|ChordMsg|FindPurpose|ring_of_key|geom::|\bZone\b|\bPoint\b|unreachable!|match &(mut )?self\.overlay|let Overlay::'
VARIANT='Overlay::(Can|Chord)'

code=$(grep -nvE '^[[:space:]]*//' "$FILE")
hits=$(echo "$code" | grep -E "$FORBIDDEN" || true)
variants=$(echo "$code" | grep -E "$VARIANT" || true)

if [ -n "$hits" ]; then
    echo "layering guard: $FILE names overlay internals — that code belongs behind a method of Overlay (crates/dht/src/overlay.rs), implemented in can.rs / chord.rs" >&2
    echo "$hits" >&2
    status=1
fi
if [ "$(echo -n "$variants" | grep -c '')" -gt 1 ]; then
    echo "layering guard: $FILE names an Overlay variant outside with_can — add a method to Overlay (crates/dht/src/overlay.rs) instead of matching here" >&2
    echo "$variants" >&2
    status=1
fi

NODE=crates/core/src/node
builds=$(grep -rnE 'PipelineSchema::new|\.check\(\)' "$NODE" --include='*.rs' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$builds" ]; then
    echo "layering guard: $NODE builds or re-checks a plan — read QueryDesc::certified (crates/core/src/plan.rs), which compiles it once per query" >&2
    echo "$builds" >&2
    status=1
fi

lists=$(awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
    !test && !/^[[:space:]]*\/\// && /events[[:space:]]*=[[:space:]]*(&mut )?(Vec::(new|with_capacity)|vec!\[)/ {
        print FILENAME ":" FNR ":" $0
    }' "$NODE"/*.rs)
if [ -n "$lists" ]; then
    echo "layering guard: $NODE builds an upcall list by hand — call the provider through PierNode::dht_op, which lends a drained list from the per-thread pool" >&2
    echo "$lists" >&2
    status=1
fi

TENANT=crates/core/src/tenant.rs
ledger=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// && /qid/ {
        print FILENAME ":" FNR ":" $0
    }' "$TENANT")
if [ -n "$ledger" ]; then
    echo "layering guard: $TENANT keeps per-query state — what is committed is the node's query registry, passed to TenantGovernor::check" >&2
    echo "$ledger" >&2
    status=1
fi

ONE_ROW='advance|finish'
alone=$(awk -v allowed="^($ONE_ROW)\$" 'FNR == 1 { test = 0; fn = "" } /^#\[cfg\(test\)\]/ { test = 1 }
    !/^[[:space:]]*\/\// && match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    !test && !/^[[:space:]]*\/\// && /FlatRow::from_(columns|tuple)/ && fn !~ allowed {
        print FILENAME ":" FNR ": in " fn ": " $0
    }' "$NODE"/*.rs)
if [ -n "$alone" ]; then
    echo "layering guard: $NODE encodes a row alone outside the one-row sites ($ONE_ROW) — encode many rows into one RowBatch (crates/core/src/tuple.rs)" >&2
    echo "$alone" >&2
    status=1
fi

TUPLE_SITE=$NODE/service.rs
kept=$(awk -v allowed="$TUPLE_SITE" 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
    !test && !/^[[:space:]]*\/\// && /\.(to_tuple|decode)\(\)/ && FILENAME != allowed {
        print FILENAME ":" FNR ": " $0
    }' "$NODE"/*.rs)
if [ -n "$kept" ]; then
    echo "layering guard: $NODE builds a row into a Tuple outside $TUPLE_SITE — fold it where it lies (an aggregate's panes), or keep it encoded until a client reads it" >&2
    echo "$kept" >&2
    status=1
fi

PROBE_SITE='probe'
walks=$(awk 'FNR == 1 { test = 0; fn = "" } /^#\[cfg\(test\)\]/ { test = 1 }
    !/^[[:space:]]*\/\// && match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    !test && !/^[[:space:]]*\/\// && /next_in\(/ {
        print FILENAME ":" FNR ": in " fn ": " $0
    }' "$NODE"/*.rs)
if [ "$(echo -n "$walks" | grep -c '')" -ne 1 ] || ! echo "$walks" | grep -q ": in $PROBE_SITE: "; then
    echo "layering guard: $NODE walks a stage bucket outside $PROBE_SITE, or not exactly once — pair every arrival, raced state included, through PierNode::probe" >&2
    echo "$walks" >&2
    status=1
fi

TIMER_SITES='arm_timer on_start'
arms=$(awk 'FNR == 1 { test = 0; fn = "" } /^#\[cfg\(test\)\]/ { test = 1 }
    !/^[[:space:]]*\/\// && match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    !test && !/^[[:space:]]*\/\// && /set_timer\(/ {
        print FILENAME ":" FNR ": in " fn ": " $0
    }' "$NODE"/*.rs)
if [ "$(echo "$arms" | sed -n 's/.*: in \([a-z_0-9]*\): .*/\1/p' | sort | xargs)" != "$TIMER_SITES" ]; then
    echo "layering guard: $NODE arms a timer outside $TIMER_SITES, or not once in each — arm deferred work through PierNode::arm_timer, whose map uninstall drops by owner" >&2
    echo "$arms" >&2
    status=1
fi

COW_SITES='fold merge'
cows=$(awk 'FNR == 1 { test = 0; fn = "" } /^#\[cfg\(test\)\]/ { test = 1 }
    !/^[[:space:]]*\/\// && match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    !test && !/^[[:space:]]*\/\// && /make_mut/ {
        print FILENAME ":" FNR ": in " fn ": " $0
    }' "$NODE"/*.rs)
if [ "$(echo "$cows" | sed -n "s|^$NODE/agg.rs:[0-9]*: in \([a-z_0-9]*\): .*|\1|p" | sort -u | xargs)" != "$COW_SITES" ] ||
    [ -n "$(echo "$cows" | grep -v "^$NODE/agg.rs:" || true)" ]; then
    echo "layering guard: $NODE copies accumulators on write outside node/agg.rs's $COW_SITES, or not in each — a harvest merges partials where they lie (agg::Harvest)" >&2
    echo "$cows" >&2
    status=1
fi

ROW_TESTS="$NODE/fetch.rs:fm_complete $NODE/fetch.rs:semi_complete $NODE/mod.rs:for_each_live"
tests=$(awk 'FNR == 1 { test = 0; fn = "" } /^#\[cfg\(test\)\]/ { test = 1 }
    !/^[[:space:]]*\/\// && match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    !test && !/^[[:space:]]*\/\// && /live_row\(/ {
        print FILENAME ":" FNR ": in " fn ": " $0
    }' "$NODE"/*.rs)
if [ "$(echo "$tests" | sed -n 's/^\([^:]*\):[0-9]*: in \([a-z_0-9]*\): .*/\1:\2/p' | sort -u | xargs)" != "$ROW_TESTS" ]; then
    echo "layering guard: $NODE tests a base row outside for_each_live and fetch.rs's completions, or not in each — take rows into a query through for_each_live, from Source::Stored at install or Source::Arrived on newData" >&2
    echo "$tests" >&2
    status=1
fi

SIMNET=crates/simnet/src
ctxs=$(awk 'FNR == 1 { test = 0; fn = "" } /^#\[cfg\(test\)\]/ { test = 1 }
    !/^[[:space:]]*\/\// && match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    !test && !/^[[:space:]]*\/\// && /Ctx::new\(/ {
        print FILENAME ":" FNR ": in " fn ": " $0
    }' "$SIMNET"/*.rs)
if [ "$(echo -n "$ctxs" | grep -c '')" -ne 1 ] || ! echo "$ctxs" | grep -q "^$SIMNET/engine.rs:[0-9]*: in with_app: "; then
    echo "layering guard: $SIMNET builds a Ctx outside EngineCore::with_app, or not exactly once — run every handler through with_app, which files its sends and timers one way" >&2
    echo "$ctxs" >&2
    status=1
fi

maps=$(awk '/^pub struct Dht</ { inside = 1; next } inside && /^}/ { inside = 0 }
    inside && !/^[[:space:]]*\/\// && /BTreeMap/ { print FILENAME ":" FNR ": " $0 }' "$FILE")
if [ -n "$maps" ]; then
    echo "layering guard: a field of struct Dht in $FILE is a BTreeMap — keep a provider table in a SmallMap (crates/dht/src/small_map.rs), which holds no emptied leaf" >&2
    echo "$maps" >&2
    status=1
fi

rehomes=$(awk 'FNR == 1 { test = 0; fn = "" } /^#\[cfg\(test\)\]/ { test = 1 }
    !/^[[:space:]]*\/\// && match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    !test && !/^[[:space:]]*\/\// && /store\.extract_not_owned\(/ {
        print FILENAME ":" FNR ": in " fn ": " $0
    }' "$FILE")
if [ "$(echo -n "$rehomes" | grep -c '')" -ne 1 ] || ! echo "$rehomes" | grep -q ": in place: "; then
    echo "layering guard: $FILE re-homes stored items outside place, or not exactly once — mark placement due (a LocationMapChanged, an item stored for a key not owned) and let the tick run Dht::place" >&2
    echo "$rehomes" >&2
    status=1
fi

counts=$(grep -rnw 'n_nodes' "$NODE" --include='*.rs' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
aggups=$(grep -rnw 'AggUp' crates --include='*.rs' || true)
if [ -n "$counts$aggups" ]; then
    echo "layering guard: a node reads the network size, or a partial climbs the tree as AggUp — gather along the combine tree (node/combine.rs), whose root knows a round is whole by its key-space shares" >&2
    echo "$counts$aggups" >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "layering guard: OK ($FILE is overlay-agnostic and keeps its tables in SmallMaps; $NODE reads the certified plan, drains its upcall lists and encodes rows alone only at its one-row sites, builds a tuple only in $TUPLE_SITE, walks a bucket only in $PROBE_SITE and arms timers only in $TIMER_SITES, copies accumulators only in agg.rs's $COW_SITES, tests a base row only in for_each_live and fetch.rs's completions; $TENANT holds no per-query state; $SIMNET builds a Ctx only in with_app; no node reads n_nodes and no AggUp climbs a tree; $FILE re-homes only in place)"
fi
exit "$status"
