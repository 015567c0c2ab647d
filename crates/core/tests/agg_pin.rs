//! What a grouped aggregate puts, stores and emits, in order: on a
//! 16-node `Sim` at one seed, every aggregate shape runs three epochs
//! with a publish between them, and `tests/pins/agg_pin/<test>.txt`
//! holds the whole transcript — the engine totals in `dataflow_pin.rs`'s
//! format, the initiator's result log in arrival order, and what every
//! node stores in `qns::agg(qid)` after each flush, in `lscan` order. The
//! oracle suites compare answers as multisets; nothing else sees the
//! order of puts and emissions, or what a stored partial holds.
//!
//! Taken before group keys and accumulators were shared between the
//! fold, the store and the wire; that change left every line as it was.
//! The last four shapes (qids 7, 8, 9 and 11) were taken before a
//! windowed aggregate folded its rows into panes instead of buffering
//! them, and before child partials joined those panes.

#[macro_use]
#[path = "../../../tests/pin/mod.rs"]
mod pin;

use std::fmt::Write;

use pier_core::plan::{qns, QueryDesc, QueryOp};
use pier_core::sql::parse_continuous_query;
use pier_core::testkit::*;
use pier_core::tuple;
use pier_core::{parse_query, Catalog, JoinStrategy, PierNode, QpItem, Tuple};
use pier_dht::DhtConfig;
use pier_simnet::time::Dur;
use pier_simnet::{NetConfig, NodeId, Sim, Wire};

const N: usize = 16;
const SEED: u64 = 19;
const LIFE: Dur = Dur(100_000 * 1_000_000);

/// Rows `lo..hi` of `intrusions`: three fingerprints among the first
/// twelve, a fourth only among the later ones (a group that appears
/// between epochs), five addresses.
fn intrusions(lo: usize, hi: usize) -> Vec<Tuple> {
    (lo..hi)
        .map(|i| {
            let fp = format!("fp{}", if i < 12 { i % 3 } else { i % 4 });
            let addr = format!("10.0.0.{}", i % 5);
            tuple![i as i64, fp.as_str(), addr.as_str()]
        })
        .collect()
}

fn reputation() -> Vec<Tuple> {
    (0..5)
        .map(|i| tuple![format!("10.0.0.{i}").as_str(), (i % 3 + 1) as i64])
        .collect()
}

/// Every partial stored under `qns::agg(qid)`, node by node.
fn stored_partials(sim: &Sim<PierNode>, qid: u64, out: &mut String) {
    writeln!(out, "stored at {:?}", sim.now()).unwrap();
    for id in 0..N as NodeId {
        for e in sim.node(id).unwrap().dht.lscan(qns::agg(qid)) {
            let QpItem::Partial { group, accs, .. } = &e.val else {
                panic!("a non-partial in NA: {:?}", e.val);
            };
            let group: Vec<String> = group.iter().map(|v| v.to_string()).collect();
            let states: Vec<String> = accs.states.iter().map(|s| format!("{s:?}")).collect();
            let (group, states) = (group.join(", "), states.join(", "));
            let (size, expires) = (e.val.wire_size(), e.expires);
            writeln!(
                out,
                "  node {id} iid {}: ({group}) [{states}] {size} B, expires {expires:?}",
                e.iid
            )
            .unwrap();
        }
    }
}

/// Twelve rows before the install; the query submitted at node 0 (8 s on
/// the clock the transcript prints); four more rows published (from node
/// 3) 12 s and 32 s later; the stored partials read 8, 16, 28 and 48 s
/// after the install — after the install-time flush or the first epoch
/// flush (5 s), after a join-aggregate's halfway flush (10 s), and after
/// the second and third epoch flushes (25 s, 45 s), each time before the
/// harvest that follows.
fn transcript(mut desc: QueryDesc) -> String {
    let mut sim = stabilized_pier_sim(
        N,
        DhtConfig::static_network(),
        NetConfig::latency_only(SEED),
    );
    publish_round_robin(&mut sim, "intrusions", &intrusions(0, 12), 0, LIFE);
    publish_round_robin(&mut sim, "reputation", &reputation(), 0, LIFE);
    settle_publish(&mut sim);

    let qid = desc.qid;
    desc.n_nodes = N as u32;
    let t0 = sim.now();
    sim.with_node(0, |node, ctx| node.submit(ctx, desc));
    let mut out = String::new();
    let run_to = |sim: &mut Sim<PierNode>, secs: u64| {
        sim.run_for(Dur::from_secs(secs) - sim.now().since(t0));
    };
    let publish = |sim: &mut Sim<PierNode>, lo: usize| {
        let rows = intrusions(lo, lo + 4);
        sim.with_node(3, |node, ctx| {
            node.publish_rows(ctx, "intrusions", rows, 0, LIFE)
        });
    };
    run_to(&mut sim, 8);
    stored_partials(&sim, qid, &mut out);
    run_to(&mut sim, 12);
    publish(&mut sim, 12);
    run_to(&mut sim, 16);
    stored_partials(&sim, qid, &mut out);
    run_to(&mut sim, 28);
    stored_partials(&sim, qid, &mut out);
    run_to(&mut sim, 32);
    publish(&mut sim, 16);
    run_to(&mut sim, 48);
    stored_partials(&sim, qid, &mut out);
    run_to(&mut sim, 60);

    let results = sim.node(0).unwrap().query_results(qid);
    writeln!(out, "results").unwrap();
    for (at, row) in results {
        writeln!(out, "  {at:?} {row}").unwrap();
    }
    let stats = sim.stats();
    let pin = (
        sim.events_processed(),
        stats.messages,
        stats.bytes,
        results.len(),
    );
    writeln!(out, "pin {pin:?}").unwrap();
    out
}

fn one_shot(sql: &str, qid: u64) -> QueryDesc {
    let op = parse_query(sql, &Catalog::intrusion(), JoinStrategy::SymmetricHash).unwrap();
    QueryDesc::one_shot(qid, 0, op)
}

fn standing(sql: &str, qid: u64) -> QueryDesc {
    let catalog = Catalog::intrusion();
    parse_continuous_query(sql, &catalog, JoinStrategy::SymmetricHash, qid, 0).unwrap()
}

/// The aggregation spec of a descriptor, to set what SQL cannot say.
fn agg_of(desc: &mut QueryDesc) -> &mut pier_core::AggSpec {
    match &mut desc.op {
        QueryOp::Agg { agg, .. } | QueryOp::Join { agg: Some(agg), .. } => agg,
        _ => panic!("not an aggregate"),
    }
}

const FLAT_SQL: &str = "SELECT fingerprint, count(*), min(address), avg(id) \
                        FROM intrusions GROUP BY fingerprint";
const JOIN_SQL: &str = "SELECT I.fingerprint, count(*), sum(R.weight) \
                        FROM intrusions I, reputation R WHERE R.address = I.address \
                        GROUP BY I.fingerprint";
const HAVING_SQL: &str = "SELECT I.fingerprint, count(*) * sum(R.weight) AS wcnt \
                          FROM intrusions I, reputation R WHERE R.address = I.address \
                          GROUP BY I.fingerprint HAVING wcnt > 25";

/// One-shot: partials are put at install, harvested at 20 s, and the
/// query retires — its namespace is purged and later rows change nothing.
#[test]
fn flat_one_shot() {
    let mut desc = one_shot(FLAT_SQL, 1);
    agg_of(&mut desc).harvest = Dur::from_secs(20);
    pin!("flat_one_shot", transcript(desc));
}

/// Running totals: every epoch each node re-puts one partial per group
/// under its own instanceID (a renewal), changed or not.
#[test]
fn flat_unwindowed_epoch() {
    let desc = standing(&format!("{FLAT_SQL} EPOCH 20 SECONDS"), 2);
    pin!("flat_unwindowed_epoch", transcript(desc));
}

/// A 30 s window: the install-time rows have aged out by the third epoch.
#[test]
fn windowed_epoch() {
    let desc = standing(&format!("{FLAT_SQL} WINDOW 30 SECONDS EPOCH 20 SECONDS"), 3);
    pin!("windowed_epoch", transcript(desc));
}

/// Partials climb the tree as `AggUp` messages; nothing is stored in NA
/// and the root emits.
#[test]
fn hierarchical_epoch() {
    let mut desc = standing(&format!("{FLAT_SQL} EPOCH 20 SECONDS"), 4);
    agg_of(&mut desc).hierarchical = true;
    pin!("hierarchical_epoch", transcript(desc));
}

/// Join outputs accumulate at the NQ nodes and are flushed halfway to
/// the harvest.
#[test]
fn join_aggregate_with_halfway_flush() {
    let mut desc = one_shot(JOIN_SQL, 5);
    agg_of(&mut desc).harvest = Dur::from_secs(20);
    pin!("join_aggregate_with_halfway_flush", transcript(desc));
}

/// `HAVING` over a computed output column, standing: a group is emitted
/// from the epoch its product passes the threshold.
#[test]
fn having_and_computed_output_epoch() {
    let desc = standing(&format!("{HAVING_SQL} EPOCH 20 SECONDS"), 6);
    pin!("having_and_computed_output_epoch", transcript(desc));
}

/// A tree node's child partials under a window: each epoch's report
/// climbs the tree once, and the install-time rows age out of it.
#[test]
fn hierarchical_windowed_epoch() {
    let sql = format!("{FLAT_SQL} WINDOW 30 SECONDS EPOCH 20 SECONDS");
    let mut desc = standing(&sql, 7);
    agg_of(&mut desc).hierarchical = true;
    pin!("hierarchical_windowed_epoch", transcript(desc));
}

/// A windowed join aggregate: a join output counts as long as its
/// shortest-lived constituent is inside the window.
#[test]
fn windowed_join_aggregate_epoch() {
    let sql = format!("{JOIN_SQL} WINDOW 30 SECONDS EPOCH 20 SECONDS");
    pin!(
        "windowed_join_aggregate_epoch",
        transcript(standing(&sql, 8))
    );
}

/// A one-shot tree: partials climb as `AggUp` with no epoch, the root
/// emits once, and every node retires at its flush.
#[test]
fn hierarchical_one_shot() {
    let mut desc = one_shot(FLAT_SQL, 9);
    let agg = agg_of(&mut desc);
    agg.hierarchical = true;
    agg.harvest = Dur::from_secs(20);
    pin!("hierarchical_one_shot", transcript(desc));
}

/// A window shorter than the epoch: a row published between two flushes
/// ages out before the next one and is never reported.
#[test]
fn window_shorter_than_epoch() {
    let desc = standing(&format!("{FLAT_SQL} WINDOW 7 SECONDS EPOCH 20 SECONDS"), 11);
    pin!("window_shorter_than_epoch", transcript(desc));
}
