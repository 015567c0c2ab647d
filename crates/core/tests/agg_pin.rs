//! What a grouped aggregate puts, stores and emits, in order: on a
//! 16-node `Sim` at one seed, every aggregate shape runs three epochs
//! with a publish between them, and this file holds the whole transcript
//! — the engine totals in `dataflow_pin.rs`'s format, the initiator's
//! result log in arrival order, and what every node stores in
//! `qns::agg(qid)` after each flush, in `lscan` order. The oracle suites
//! compare answers as multisets; nothing else sees the order of puts and
//! emissions, or what a stored partial holds.
//!
//! Taken before group keys and accumulators were shared between the
//! fold, the store and the wire; that change left every line as it was.
//! The last four shapes (qids 7, 8, 9 and 11) were taken before a
//! windowed aggregate folded its rows into panes instead of buffering
//! them, and before child partials joined those panes.

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

#[track_caller]
fn assert_transcript(desc: QueryDesc, want: &str) {
    let got = transcript(desc);
    assert!(got == want, "the transcript moved; it now reads:\n{got}");
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
    assert_transcript(desc, FLAT_ONE_SHOT);
}

/// Running totals: every epoch each node re-puts one partial per group
/// under its own instanceID (a renewal), changed or not.
#[test]
fn flat_unwindowed_epoch() {
    let desc = standing(&format!("{FLAT_SQL} EPOCH 20 SECONDS"), 2);
    assert_transcript(desc, FLAT_EPOCH);
}

/// A 30 s window: the install-time rows have aged out by the third epoch.
#[test]
fn windowed_epoch() {
    let desc = standing(&format!("{FLAT_SQL} WINDOW 30 SECONDS EPOCH 20 SECONDS"), 3);
    assert_transcript(desc, WINDOWED_EPOCH);
}

/// Partials climb the tree as `AggUp` messages; nothing is stored in NA
/// and the root emits.
#[test]
fn hierarchical_epoch() {
    let mut desc = standing(&format!("{FLAT_SQL} EPOCH 20 SECONDS"), 4);
    agg_of(&mut desc).hierarchical = true;
    assert_transcript(desc, HIERARCHICAL_EPOCH);
}

/// Join outputs accumulate at the NQ nodes and are flushed halfway to
/// the harvest.
#[test]
fn join_aggregate_with_halfway_flush() {
    let mut desc = one_shot(JOIN_SQL, 5);
    agg_of(&mut desc).harvest = Dur::from_secs(20);
    assert_transcript(desc, JOIN_ONE_SHOT);
}

/// `HAVING` over a computed output column, standing: a group is emitted
/// from the epoch its product passes the threshold.
#[test]
fn having_and_computed_output_epoch() {
    let desc = standing(&format!("{HAVING_SQL} EPOCH 20 SECONDS"), 6);
    assert_transcript(desc, HAVING_EPOCH);
}

/// A tree node's child partials under a window: each epoch's report
/// climbs the tree once, and the install-time rows age out of it.
#[test]
fn hierarchical_windowed_epoch() {
    let sql = format!("{FLAT_SQL} WINDOW 30 SECONDS EPOCH 20 SECONDS");
    let mut desc = standing(&sql, 7);
    agg_of(&mut desc).hierarchical = true;
    assert_transcript(desc, HIERARCHICAL_WINDOWED_EPOCH);
}

/// A windowed join aggregate: a join output counts as long as its
/// shortest-lived constituent is inside the window.
#[test]
fn windowed_join_aggregate_epoch() {
    let sql = format!("{JOIN_SQL} WINDOW 30 SECONDS EPOCH 20 SECONDS");
    assert_transcript(standing(&sql, 8), WINDOWED_JOIN_EPOCH);
}

/// A one-shot tree: partials climb as `AggUp` with no epoch, the root
/// emits once, and every node retires at its flush.
#[test]
fn hierarchical_one_shot() {
    let mut desc = one_shot(FLAT_SQL, 9);
    let agg = agg_of(&mut desc);
    agg.hierarchical = true;
    agg.harvest = Dur::from_secs(20);
    assert_transcript(desc, HIERARCHICAL_ONE_SHOT);
}

/// A window shorter than the epoch: a row published between two flushes
/// ages out before the next one and is never reported.
#[test]
fn window_shorter_than_epoch() {
    let desc = standing(&format!("{FLAT_SQL} WINDOW 7 SECONDS EPOCH 20 SECONDS"), 11);
    assert_transcript(desc, SHORT_WINDOW_EPOCH);
}

const FLAT_ONE_SHOT: &str = r#"stored at t=16.000000s
  node 8 iid 10: ('fp0') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 6.0, n: 1 }] 56 B, expires t=88.600000s
  node 8 iid 4: ('fp0') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 9.0, n: 1 }] 56 B, expires t=88.700000s
  node 8 iid 5: ('fp0') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 3.0, n: 2 }] 56 B, expires t=88.600000s
  node 14 iid 14: ('fp1') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 1.0, n: 1 }] 56 B, expires t=88.500000s
  node 14 iid 10: ('fp1') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 7.0, n: 1 }] 56 B, expires t=88.600000s
  node 14 iid 8: ('fp1') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 14.0, n: 2 }] 56 B, expires t=88.700000s
  node 15 iid 11: ('fp2') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 11.0, n: 1 }] 56 B, expires t=88.500000s
  node 15 iid 5: ('fp2') [Count(1), Min(Some(Str("10.0.0.0"))), Avg { sum: 5.0, n: 1 }] 56 B, expires t=88.600000s
  node 15 iid 10: ('fp2') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 2.0, n: 1 }] 56 B, expires t=88.600000s
  node 15 iid 4: ('fp2') [Count(1), Min(Some(Str("10.0.0.3"))), Avg { sum: 8.0, n: 1 }] 56 B, expires t=88.700000s
stored at t=24.000000s
  node 8 iid 10: ('fp0') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 6.0, n: 1 }] 56 B, expires t=88.600000s
  node 8 iid 4: ('fp0') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 9.0, n: 1 }] 56 B, expires t=88.700000s
  node 8 iid 5: ('fp0') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 3.0, n: 2 }] 56 B, expires t=88.600000s
  node 14 iid 14: ('fp1') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 1.0, n: 1 }] 56 B, expires t=88.500000s
  node 14 iid 10: ('fp1') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 7.0, n: 1 }] 56 B, expires t=88.600000s
  node 14 iid 8: ('fp1') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 14.0, n: 2 }] 56 B, expires t=88.700000s
  node 15 iid 11: ('fp2') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 11.0, n: 1 }] 56 B, expires t=88.500000s
  node 15 iid 5: ('fp2') [Count(1), Min(Some(Str("10.0.0.0"))), Avg { sum: 5.0, n: 1 }] 56 B, expires t=88.600000s
  node 15 iid 10: ('fp2') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 2.0, n: 1 }] 56 B, expires t=88.600000s
  node 15 iid 4: ('fp2') [Count(1), Min(Some(Str("10.0.0.3"))), Avg { sum: 8.0, n: 1 }] 56 B, expires t=88.700000s
stored at t=36.000000s
stored at t=56.000000s
results
  t=28.500000s ('fp2', 4, '10.0.0.0', 6.5)
  t=28.600000s ('fp1', 4, '10.0.0.0', 5.5)
  t=28.800000s ('fp0', 4, '10.0.0.0', 4.5)
pin (2338, 146, 14837, 3)
"#;
const FLAT_EPOCH: &str = r#"stored at t=16.000000s
  node 0 iid 8: ('fp1') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 14.0, n: 2 }] 56 B, expires t=33.700000s
  node 0 iid 10: ('fp1') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 7.0, n: 1 }] 56 B, expires t=33.600000s
  node 0 iid 14: ('fp1') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 1.0, n: 1 }] 56 B, expires t=33.500000s
  node 3 iid 5: ('fp0') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 3.0, n: 2 }] 56 B, expires t=33.600000s
  node 3 iid 10: ('fp0') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 6.0, n: 1 }] 56 B, expires t=33.600000s
  node 3 iid 4: ('fp0') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 9.0, n: 1 }] 56 B, expires t=33.700000s
  node 14 iid 10: ('fp2') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 2.0, n: 1 }] 56 B, expires t=33.600000s
  node 14 iid 11: ('fp2') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 11.0, n: 1 }] 56 B, expires t=33.500000s
  node 14 iid 4: ('fp2') [Count(1), Min(Some(Str("10.0.0.3"))), Avg { sum: 8.0, n: 1 }] 56 B, expires t=33.700000s
  node 14 iid 5: ('fp2') [Count(1), Min(Some(Str("10.0.0.0"))), Avg { sum: 5.0, n: 1 }] 56 B, expires t=33.600000s
stored at t=24.000000s
  node 0 iid 8: ('fp1') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 14.0, n: 2 }] 56 B, expires t=33.700000s
  node 0 iid 10: ('fp1') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 7.0, n: 1 }] 56 B, expires t=33.600000s
  node 0 iid 14: ('fp1') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 1.0, n: 1 }] 56 B, expires t=33.500000s
  node 3 iid 5: ('fp0') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 3.0, n: 2 }] 56 B, expires t=33.600000s
  node 3 iid 10: ('fp0') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 6.0, n: 1 }] 56 B, expires t=33.600000s
  node 3 iid 4: ('fp0') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 9.0, n: 1 }] 56 B, expires t=33.700000s
  node 14 iid 10: ('fp2') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 2.0, n: 1 }] 56 B, expires t=33.600000s
  node 14 iid 11: ('fp2') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 11.0, n: 1 }] 56 B, expires t=33.500000s
  node 14 iid 4: ('fp2') [Count(1), Min(Some(Str("10.0.0.3"))), Avg { sum: 8.0, n: 1 }] 56 B, expires t=33.700000s
  node 14 iid 5: ('fp2') [Count(1), Min(Some(Str("10.0.0.0"))), Avg { sum: 5.0, n: 1 }] 56 B, expires t=33.600000s
stored at t=36.000000s
  node 0 iid 8: ('fp1') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 14.0, n: 2 }] 56 B, expires t=53.700000s
  node 0 iid 10: ('fp1') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 7.0, n: 1 }] 56 B, expires t=53.600000s
  node 0 iid 14: ('fp1') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 1.0, n: 1 }] 56 B, expires t=53.500000s
  node 0 iid 15: ('fp1') [Count(1), Min(Some(Str("10.0.0.3"))), Avg { sum: 13.0, n: 1 }] 56 B, expires t=53.400000s
  node 2 iid 5: ('fp3') [Count(1), Min(Some(Str("10.0.0.0"))), Avg { sum: 15.0, n: 1 }] 56 B, expires t=53.600000s
  node 3 iid 3: ('fp0') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 12.0, n: 1 }] 56 B, expires t=53.600000s
  node 3 iid 5: ('fp0') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 3.0, n: 2 }] 56 B, expires t=53.600000s
  node 3 iid 10: ('fp0') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 6.0, n: 1 }] 56 B, expires t=53.600000s
  node 3 iid 4: ('fp0') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 9.0, n: 1 }] 56 B, expires t=53.700000s
  node 14 iid 10: ('fp2') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 2.0, n: 1 }] 56 B, expires t=53.600000s
  node 14 iid 11: ('fp2') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 11.0, n: 1 }] 56 B, expires t=53.500000s
  node 14 iid 3: ('fp2') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 14.0, n: 1 }] 56 B, expires t=53.600000s
  node 14 iid 4: ('fp2') [Count(1), Min(Some(Str("10.0.0.3"))), Avg { sum: 8.0, n: 1 }] 56 B, expires t=53.700000s
  node 14 iid 5: ('fp2') [Count(1), Min(Some(Str("10.0.0.0"))), Avg { sum: 5.0, n: 1 }] 56 B, expires t=53.600000s
stored at t=56.000000s
  node 0 iid 8: ('fp1') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 14.0, n: 2 }] 56 B, expires t=73.700000s
  node 0 iid 10: ('fp1') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 7.0, n: 1 }] 56 B, expires t=73.600000s
  node 0 iid 14: ('fp1') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 1.0, n: 1 }] 56 B, expires t=73.500000s
  node 0 iid 15: ('fp1') [Count(2), Min(Some(Str("10.0.0.2"))), Avg { sum: 30.0, n: 2 }] 56 B, expires t=73.400000s
  node 2 iid 5: ('fp3') [Count(1), Min(Some(Str("10.0.0.0"))), Avg { sum: 15.0, n: 1 }] 56 B, expires t=73.600000s
  node 2 iid 12: ('fp3') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 19.0, n: 1 }] 56 B, expires t=73.600000s
  node 3 iid 3: ('fp0') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 12.0, n: 1 }] 56 B, expires t=73.600000s
  node 3 iid 11: ('fp0') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 16.0, n: 1 }] 56 B, expires t=73.500000s
  node 3 iid 5: ('fp0') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 3.0, n: 2 }] 56 B, expires t=73.600000s
  node 3 iid 10: ('fp0') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 6.0, n: 1 }] 56 B, expires t=73.600000s
  node 3 iid 4: ('fp0') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 9.0, n: 1 }] 56 B, expires t=73.700000s
  node 14 iid 10: ('fp2') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 2.0, n: 1 }] 56 B, expires t=73.600000s
  node 14 iid 11: ('fp2') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 11.0, n: 1 }] 56 B, expires t=73.500000s
  node 14 iid 3: ('fp2') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 14.0, n: 1 }] 56 B, expires t=73.600000s
  node 14 iid 4: ('fp2') [Count(1), Min(Some(Str("10.0.0.3"))), Avg { sum: 8.0, n: 1 }] 56 B, expires t=73.700000s
  node 14 iid 5: ('fp2') [Count(1), Min(Some(Str("10.0.0.0"))), Avg { sum: 5.0, n: 1 }] 56 B, expires t=73.600000s
  node 14 iid 1: ('fp2') [Count(1), Min(Some(Str("10.0.0.3"))), Avg { sum: 18.0, n: 1 }] 56 B, expires t=73.700000s
results
  t=18.600000s ('fp2', 4, '10.0.0.0', 6.5)
  t=18.700000s ('fp0', 4, '10.0.0.0', 4.5)
  t=18.800000s ('fp1', 4, '10.0.0.0', 5.5)
  t=38.600000s ('fp2', 5, '10.0.0.0', 8)
  t=38.700000s ('fp0', 5, '10.0.0.0', 6)
  t=38.800000s ('fp1', 5, '10.0.0.0', 7)
  t=38.800000s ('fp3', 1, '10.0.0.0', 15)
  t=58.600000s ('fp2', 6, '10.0.0.0', 9.666666666666666)
  t=58.700000s ('fp0', 6, '10.0.0.0', 7.666666666666667)
  t=58.800000s ('fp1', 6, '10.0.0.0', 8.666666666666666)
  t=58.800000s ('fp3', 2, '10.0.0.0', 17)
pin (2557, 285, 26804, 11)
"#;
const WINDOWED_EPOCH: &str = r#"stored at t=16.000000s
  node 1 iid 5: ('fp0') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 3.0, n: 2 }] 56 B, expires t=33.600000s
  node 1 iid 4: ('fp0') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 9.0, n: 1 }] 56 B, expires t=33.700000s
  node 1 iid 10: ('fp0') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 6.0, n: 1 }] 56 B, expires t=33.600000s
  node 1 iid 5: ('fp2') [Count(1), Min(Some(Str("10.0.0.0"))), Avg { sum: 5.0, n: 1 }] 56 B, expires t=33.600000s
  node 1 iid 11: ('fp2') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 11.0, n: 1 }] 56 B, expires t=33.500000s
  node 1 iid 4: ('fp2') [Count(1), Min(Some(Str("10.0.0.3"))), Avg { sum: 8.0, n: 1 }] 56 B, expires t=33.700000s
  node 1 iid 10: ('fp2') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 2.0, n: 1 }] 56 B, expires t=33.600000s
  node 14 iid 14: ('fp1') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 1.0, n: 1 }] 56 B, expires t=33.500000s
  node 14 iid 10: ('fp1') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 7.0, n: 1 }] 56 B, expires t=33.600000s
  node 14 iid 8: ('fp1') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 14.0, n: 2 }] 56 B, expires t=33.700000s
stored at t=24.000000s
  node 1 iid 5: ('fp0') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 3.0, n: 2 }] 56 B, expires t=33.600000s
  node 1 iid 4: ('fp0') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 9.0, n: 1 }] 56 B, expires t=33.700000s
  node 1 iid 10: ('fp0') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 6.0, n: 1 }] 56 B, expires t=33.600000s
  node 1 iid 5: ('fp2') [Count(1), Min(Some(Str("10.0.0.0"))), Avg { sum: 5.0, n: 1 }] 56 B, expires t=33.600000s
  node 1 iid 11: ('fp2') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 11.0, n: 1 }] 56 B, expires t=33.500000s
  node 1 iid 4: ('fp2') [Count(1), Min(Some(Str("10.0.0.3"))), Avg { sum: 8.0, n: 1 }] 56 B, expires t=33.700000s
  node 1 iid 10: ('fp2') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 2.0, n: 1 }] 56 B, expires t=33.600000s
  node 14 iid 14: ('fp1') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 1.0, n: 1 }] 56 B, expires t=33.500000s
  node 14 iid 10: ('fp1') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 7.0, n: 1 }] 56 B, expires t=33.600000s
  node 14 iid 8: ('fp1') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 14.0, n: 2 }] 56 B, expires t=33.700000s
stored at t=36.000000s
  node 1 iid 5: ('fp0') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 3.0, n: 2 }] 56 B, expires t=53.600000s
  node 1 iid 3: ('fp0') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 12.0, n: 1 }] 56 B, expires t=53.600000s
  node 1 iid 4: ('fp0') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 9.0, n: 1 }] 56 B, expires t=53.700000s
  node 1 iid 10: ('fp0') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 6.0, n: 1 }] 56 B, expires t=53.600000s
  node 1 iid 5: ('fp2') [Count(1), Min(Some(Str("10.0.0.0"))), Avg { sum: 5.0, n: 1 }] 56 B, expires t=53.600000s
  node 1 iid 3: ('fp2') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 14.0, n: 1 }] 56 B, expires t=53.600000s
  node 1 iid 11: ('fp2') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 11.0, n: 1 }] 56 B, expires t=53.500000s
  node 1 iid 4: ('fp2') [Count(1), Min(Some(Str("10.0.0.3"))), Avg { sum: 8.0, n: 1 }] 56 B, expires t=53.700000s
  node 1 iid 10: ('fp2') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 2.0, n: 1 }] 56 B, expires t=53.600000s
  node 10 iid 5: ('fp3') [Count(1), Min(Some(Str("10.0.0.0"))), Avg { sum: 15.0, n: 1 }] 56 B, expires t=53.600000s
  node 14 iid 14: ('fp1') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 1.0, n: 1 }] 56 B, expires t=53.500000s
  node 14 iid 10: ('fp1') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 7.0, n: 1 }] 56 B, expires t=53.600000s
  node 14 iid 15: ('fp1') [Count(1), Min(Some(Str("10.0.0.3"))), Avg { sum: 13.0, n: 1 }] 56 B, expires t=53.400000s
  node 14 iid 8: ('fp1') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 14.0, n: 2 }] 56 B, expires t=53.700000s
stored at t=56.000000s
  node 1 iid 11: ('fp0') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 16.0, n: 1 }] 56 B, expires t=73.500000s
  node 1 iid 1: ('fp2') [Count(1), Min(Some(Str("10.0.0.3"))), Avg { sum: 18.0, n: 1 }] 56 B, expires t=73.700000s
  node 10 iid 12: ('fp3') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 19.0, n: 1 }] 56 B, expires t=73.600000s
  node 14 iid 15: ('fp1') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 17.0, n: 1 }] 56 B, expires t=73.400000s
results
  t=18.600000s ('fp1', 4, '10.0.0.0', 5.5)
  t=18.800000s ('fp0', 4, '10.0.0.0', 4.5)
  t=18.800000s ('fp2', 4, '10.0.0.0', 6.5)
  t=38.600000s ('fp1', 5, '10.0.0.0', 7)
  t=38.700000s ('fp3', 1, '10.0.0.0', 15)
  t=38.800000s ('fp0', 5, '10.0.0.0', 6)
  t=38.800000s ('fp2', 5, '10.0.0.0', 8)
  t=58.600000s ('fp1', 1, '10.0.0.2', 17)
  t=58.700000s ('fp3', 1, '10.0.0.4', 19)
  t=58.800000s ('fp0', 1, '10.0.0.1', 16)
  t=58.800000s ('fp2', 1, '10.0.0.3', 18)
pin (2487, 215, 21107, 11)
"#;
const HIERARCHICAL_EPOCH: &str = r#"stored at t=16.000000s
stored at t=24.000000s
stored at t=36.000000s
stored at t=56.000000s
results
  t=23.085714s ('fp0', 4, '10.0.0.0', 4.5)
  t=23.085714s ('fp1', 4, '10.0.0.0', 5.5)
  t=23.085714s ('fp2', 4, '10.0.0.0', 6.5)
  t=43.085714s ('fp0', 5, '10.0.0.0', 6)
  t=43.085714s ('fp1', 5, '10.0.0.0', 7)
  t=43.085714s ('fp2', 5, '10.0.0.0', 8)
  t=43.085714s ('fp3', 1, '10.0.0.0', 15)
  t=63.085714s ('fp0', 6, '10.0.0.0', 7.666666666666667)
  t=63.085714s ('fp1', 6, '10.0.0.0', 8.666666666666666)
  t=63.085714s ('fp2', 6, '10.0.0.0', 9.666666666666666)
  t=63.085714s ('fp3', 2, '10.0.0.0', 17)
pin (2403, 179, 18896, 11)
"#;
const JOIN_ONE_SHOT: &str = r#"stored at t=16.000000s
stored at t=24.000000s
  node 5 iid 7: ('fp0') [Count(1), SumF(1.0)] 35 B, expires t=98.500000s
  node 5 iid 11: ('fp0') [Count(1), SumF(1.0)] 35 B, expires t=98.500000s
  node 5 iid 12: ('fp0') [Count(1), SumF(2.0)] 35 B, expires t=98.600000s
  node 5 iid 14: ('fp0') [Count(1), SumF(2.0)] 35 B, expires t=98.500000s
  node 9 iid 11: ('fp2') [Count(1), SumF(1.0)] 35 B, expires t=98.500000s
  node 9 iid 7: ('fp2') [Count(1), SumF(1.0)] 35 B, expires t=98.500000s
  node 9 iid 14: ('fp2') [Count(1), SumF(2.0)] 35 B, expires t=98.500000s
  node 9 iid 0: ('fp2') [Count(1), SumF(3.0)] 35 B, expires t=98.800000s
  node 11 iid 7: ('fp1') [Count(1), SumF(1.0)] 35 B, expires t=98.500000s
  node 11 iid 14: ('fp1') [Count(1), SumF(2.0)] 35 B, expires t=98.500000s
  node 11 iid 12: ('fp1') [Count(1), SumF(2.0)] 35 B, expires t=98.600000s
  node 11 iid 0: ('fp1') [Count(1), SumF(3.0)] 35 B, expires t=98.800000s
stored at t=36.000000s
stored at t=56.000000s
results
  t=28.600000s ('fp1', 4, 8)
  t=28.700000s ('fp0', 4, 6)
  t=28.700000s ('fp2', 4, 7)
pin (2434, 226, 22274, 3)
"#;
const HAVING_EPOCH: &str = r#"stored at t=16.000000s
  node 9 iid 13: ('fp1') [Count(1), SumF(2.0)] 35 B, expires t=33.500000s
  node 9 iid 3: ('fp1') [Count(2), SumF(4.0)] 35 B, expires t=33.600000s
  node 9 iid 6: ('fp1') [Count(1), SumF(2.0)] 35 B, expires t=33.600000s
  node 10 iid 3: ('fp2') [Count(2), SumF(4.0)] 35 B, expires t=33.600000s
  node 10 iid 6: ('fp2') [Count(1), SumF(2.0)] 35 B, expires t=33.600000s
  node 10 iid 4: ('fp2') [Count(1), SumF(1.0)] 35 B, expires t=33.700000s
  node 11 iid 3: ('fp0') [Count(1), SumF(1.0)] 35 B, expires t=33.600000s
  node 11 iid 13: ('fp0') [Count(1), SumF(2.0)] 35 B, expires t=33.500000s
  node 11 iid 6: ('fp0') [Count(1), SumF(2.0)] 35 B, expires t=33.600000s
  node 11 iid 4: ('fp0') [Count(1), SumF(1.0)] 35 B, expires t=33.700000s
stored at t=24.000000s
  node 9 iid 13: ('fp1') [Count(1), SumF(2.0)] 35 B, expires t=33.500000s
  node 9 iid 3: ('fp1') [Count(2), SumF(4.0)] 35 B, expires t=33.600000s
  node 9 iid 6: ('fp1') [Count(1), SumF(2.0)] 35 B, expires t=33.600000s
  node 10 iid 3: ('fp2') [Count(2), SumF(4.0)] 35 B, expires t=33.600000s
  node 10 iid 6: ('fp2') [Count(1), SumF(2.0)] 35 B, expires t=33.600000s
  node 10 iid 4: ('fp2') [Count(1), SumF(1.0)] 35 B, expires t=33.700000s
  node 11 iid 3: ('fp0') [Count(1), SumF(1.0)] 35 B, expires t=33.600000s
  node 11 iid 13: ('fp0') [Count(1), SumF(2.0)] 35 B, expires t=33.500000s
  node 11 iid 6: ('fp0') [Count(1), SumF(2.0)] 35 B, expires t=33.600000s
  node 11 iid 4: ('fp0') [Count(1), SumF(1.0)] 35 B, expires t=33.700000s
stored at t=36.000000s
  node 9 iid 3: ('fp1') [Count(2), SumF(4.0)] 35 B, expires t=53.600000s
  node 9 iid 13: ('fp1') [Count(1), SumF(2.0)] 35 B, expires t=53.500000s
  node 9 iid 4: ('fp1') [Count(1), SumF(1.0)] 35 B, expires t=53.700000s
  node 9 iid 6: ('fp1') [Count(1), SumF(2.0)] 35 B, expires t=53.600000s
  node 10 iid 3: ('fp2') [Count(2), SumF(4.0)] 35 B, expires t=53.600000s
  node 10 iid 6: ('fp2') [Count(1), SumF(2.0)] 35 B, expires t=53.600000s
  node 10 iid 13: ('fp2') [Count(1), SumF(2.0)] 35 B, expires t=53.500000s
  node 10 iid 4: ('fp2') [Count(1), SumF(1.0)] 35 B, expires t=53.700000s
  node 10 iid 3: ('fp3') [Count(1), SumF(1.0)] 35 B, expires t=53.600000s
  node 11 iid 3: ('fp0') [Count(2), SumF(4.0)] 35 B, expires t=53.600000s
  node 11 iid 13: ('fp0') [Count(1), SumF(2.0)] 35 B, expires t=53.500000s
  node 11 iid 6: ('fp0') [Count(1), SumF(2.0)] 35 B, expires t=53.600000s
  node 11 iid 4: ('fp0') [Count(1), SumF(1.0)] 35 B, expires t=53.700000s
stored at t=56.000000s
  node 9 iid 3: ('fp1') [Count(3), SumF(7.0)] 35 B, expires t=73.600000s
  node 9 iid 13: ('fp1') [Count(1), SumF(2.0)] 35 B, expires t=73.500000s
  node 9 iid 4: ('fp1') [Count(1), SumF(1.0)] 35 B, expires t=73.700000s
  node 9 iid 6: ('fp1') [Count(1), SumF(2.0)] 35 B, expires t=73.600000s
  node 10 iid 3: ('fp2') [Count(2), SumF(4.0)] 35 B, expires t=73.600000s
  node 10 iid 6: ('fp2') [Count(1), SumF(2.0)] 35 B, expires t=73.600000s
  node 10 iid 13: ('fp2') [Count(1), SumF(2.0)] 35 B, expires t=73.500000s
  node 10 iid 4: ('fp2') [Count(2), SumF(2.0)] 35 B, expires t=73.700000s
  node 10 iid 3: ('fp3') [Count(1), SumF(1.0)] 35 B, expires t=73.600000s
  node 10 iid 13: ('fp3') [Count(1), SumF(2.0)] 35 B, expires t=73.500000s
  node 11 iid 3: ('fp0') [Count(2), SumF(4.0)] 35 B, expires t=73.600000s
  node 11 iid 13: ('fp0') [Count(1), SumF(2.0)] 35 B, expires t=73.500000s
  node 11 iid 6: ('fp0') [Count(2), SumF(4.0)] 35 B, expires t=73.600000s
  node 11 iid 4: ('fp0') [Count(1), SumF(1.0)] 35 B, expires t=73.700000s
results
  t=18.700000s ('fp1', 32)
  t=18.700000s ('fp2', 28)
  t=38.600000s ('fp0', 45)
  t=38.700000s ('fp1', 45)
  t=38.700000s ('fp2', 45)
  t=58.600000s ('fp0', 66)
  t=58.700000s ('fp1', 72)
  t=58.700000s ('fp2', 60)
pin (2647, 375, 34749, 8)
"#;
const HIERARCHICAL_WINDOWED_EPOCH: &str = r#"stored at t=16.000000s
stored at t=24.000000s
stored at t=36.000000s
stored at t=56.000000s
results
  t=23.085714s ('fp0', 4, '10.0.0.0', 4.5)
  t=23.085714s ('fp1', 4, '10.0.0.0', 5.5)
  t=23.085714s ('fp2', 4, '10.0.0.0', 6.5)
  t=43.085714s ('fp0', 5, '10.0.0.0', 6)
  t=43.085714s ('fp1', 5, '10.0.0.0', 7)
  t=43.085714s ('fp2', 5, '10.0.0.0', 8)
  t=43.085714s ('fp3', 1, '10.0.0.0', 15)
  t=63.085714s ('fp0', 1, '10.0.0.1', 16)
  t=63.085714s ('fp1', 1, '10.0.0.2', 17)
  t=63.085714s ('fp2', 1, '10.0.0.3', 18)
  t=63.085714s ('fp3', 1, '10.0.0.4', 19)
pin (2387, 163, 17264, 11)
"#;
const WINDOWED_JOIN_EPOCH: &str = r#"stored at t=16.000000s
  node 4 iid 5: ('fp1') [Count(1), SumF(2.0)] 35 B, expires t=33.600000s
  node 4 iid 13: ('fp1') [Count(1), SumF(3.0)] 35 B, expires t=33.500000s
  node 4 iid 3: ('fp1') [Count(2), SumF(3.0)] 35 B, expires t=33.600000s
  node 12 iid 13: ('fp2') [Count(1), SumF(3.0)] 35 B, expires t=33.500000s
  node 12 iid 5: ('fp2') [Count(1), SumF(2.0)] 35 B, expires t=33.600000s
  node 12 iid 0: ('fp2') [Count(1), SumF(1.0)] 35 B, expires t=33.800000s
  node 12 iid 3: ('fp2') [Count(1), SumF(1.0)] 35 B, expires t=33.600000s
  node 13 iid 5: ('fp0') [Count(1), SumF(2.0)] 35 B, expires t=33.600000s
  node 13 iid 3: ('fp0') [Count(2), SumF(3.0)] 35 B, expires t=33.600000s
  node 13 iid 0: ('fp0') [Count(1), SumF(1.0)] 35 B, expires t=33.800000s
stored at t=24.000000s
  node 4 iid 5: ('fp1') [Count(1), SumF(2.0)] 35 B, expires t=33.600000s
  node 4 iid 13: ('fp1') [Count(1), SumF(3.0)] 35 B, expires t=33.500000s
  node 4 iid 3: ('fp1') [Count(2), SumF(3.0)] 35 B, expires t=33.600000s
  node 12 iid 13: ('fp2') [Count(1), SumF(3.0)] 35 B, expires t=33.500000s
  node 12 iid 5: ('fp2') [Count(1), SumF(2.0)] 35 B, expires t=33.600000s
  node 12 iid 0: ('fp2') [Count(1), SumF(1.0)] 35 B, expires t=33.800000s
  node 12 iid 3: ('fp2') [Count(1), SumF(1.0)] 35 B, expires t=33.600000s
  node 13 iid 5: ('fp0') [Count(1), SumF(2.0)] 35 B, expires t=33.600000s
  node 13 iid 3: ('fp0') [Count(2), SumF(3.0)] 35 B, expires t=33.600000s
  node 13 iid 0: ('fp0') [Count(1), SumF(1.0)] 35 B, expires t=33.800000s
stored at t=36.000000s
  node 3 iid 3: ('fp3') [Count(1), SumF(1.0)] 35 B, expires t=53.600000s
  node 4 iid 5: ('fp1') [Count(1), SumF(2.0)] 35 B, expires t=53.600000s
  node 4 iid 13: ('fp1') [Count(1), SumF(3.0)] 35 B, expires t=53.500000s
  node 4 iid 0: ('fp1') [Count(1), SumF(1.0)] 35 B, expires t=53.800000s
  node 4 iid 3: ('fp1') [Count(2), SumF(3.0)] 35 B, expires t=53.600000s
  node 12 iid 5: ('fp2') [Count(1), SumF(2.0)] 35 B, expires t=53.600000s
  node 12 iid 13: ('fp2') [Count(1), SumF(3.0)] 35 B, expires t=53.500000s
  node 12 iid 0: ('fp2') [Count(1), SumF(1.0)] 35 B, expires t=53.800000s
  node 12 iid 3: ('fp2') [Count(2), SumF(3.0)] 35 B, expires t=53.600000s
  node 13 iid 5: ('fp0') [Count(1), SumF(2.0)] 35 B, expires t=53.600000s
  node 13 iid 13: ('fp0') [Count(1), SumF(3.0)] 35 B, expires t=53.500000s
  node 13 iid 3: ('fp0') [Count(2), SumF(3.0)] 35 B, expires t=53.600000s
  node 13 iid 0: ('fp0') [Count(1), SumF(1.0)] 35 B, expires t=53.800000s
stored at t=56.000000s
results
  t=18.600000s ('fp0', 4, 6)
  t=18.700000s ('fp2', 4, 7)
  t=18.800000s ('fp1', 4, 8)
  t=38.600000s ('fp0', 5, 9)
  t=38.700000s ('fp3', 1, 1)
  t=38.700000s ('fp2', 5, 9)
  t=38.800000s ('fp1', 5, 9)
pin (2583, 311, 29279, 7)
"#;
const HIERARCHICAL_ONE_SHOT: &str = r#"stored at t=16.000000s
stored at t=24.000000s
stored at t=36.000000s
stored at t=56.000000s
results
  t=23.085714s ('fp0', 4, '10.0.0.0', 4.5)
  t=23.085714s ('fp1', 4, '10.0.0.0', 5.5)
  t=23.085714s ('fp2', 4, '10.0.0.0', 6.5)
pin (2319, 127, 13440, 3)
"#;
const SHORT_WINDOW_EPOCH: &str = r#"stored at t=16.000000s
  node 4 iid 4: ('fp0') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 9.0, n: 1 }] 56 B, expires t=33.700000s
  node 4 iid 5: ('fp0') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 3.0, n: 2 }] 56 B, expires t=33.600000s
  node 4 iid 10: ('fp0') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 6.0, n: 1 }] 56 B, expires t=33.600000s
  node 7 iid 14: ('fp1') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 1.0, n: 1 }] 56 B, expires t=33.500000s
  node 7 iid 10: ('fp1') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 7.0, n: 1 }] 56 B, expires t=33.600000s
  node 7 iid 8: ('fp1') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 14.0, n: 2 }] 56 B, expires t=33.700000s
  node 8 iid 10: ('fp2') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 2.0, n: 1 }] 56 B, expires t=33.600000s
  node 8 iid 11: ('fp2') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 11.0, n: 1 }] 56 B, expires t=33.500000s
  node 8 iid 4: ('fp2') [Count(1), Min(Some(Str("10.0.0.3"))), Avg { sum: 8.0, n: 1 }] 56 B, expires t=33.700000s
  node 8 iid 5: ('fp2') [Count(1), Min(Some(Str("10.0.0.0"))), Avg { sum: 5.0, n: 1 }] 56 B, expires t=33.600000s
stored at t=24.000000s
  node 4 iid 4: ('fp0') [Count(1), Min(Some(Str("10.0.0.4"))), Avg { sum: 9.0, n: 1 }] 56 B, expires t=33.700000s
  node 4 iid 5: ('fp0') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 3.0, n: 2 }] 56 B, expires t=33.600000s
  node 4 iid 10: ('fp0') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 6.0, n: 1 }] 56 B, expires t=33.600000s
  node 7 iid 14: ('fp1') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 1.0, n: 1 }] 56 B, expires t=33.500000s
  node 7 iid 10: ('fp1') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 7.0, n: 1 }] 56 B, expires t=33.600000s
  node 7 iid 8: ('fp1') [Count(2), Min(Some(Str("10.0.0.0"))), Avg { sum: 14.0, n: 2 }] 56 B, expires t=33.700000s
  node 8 iid 10: ('fp2') [Count(1), Min(Some(Str("10.0.0.2"))), Avg { sum: 2.0, n: 1 }] 56 B, expires t=33.600000s
  node 8 iid 11: ('fp2') [Count(1), Min(Some(Str("10.0.0.1"))), Avg { sum: 11.0, n: 1 }] 56 B, expires t=33.500000s
  node 8 iid 4: ('fp2') [Count(1), Min(Some(Str("10.0.0.3"))), Avg { sum: 8.0, n: 1 }] 56 B, expires t=33.700000s
  node 8 iid 5: ('fp2') [Count(1), Min(Some(Str("10.0.0.0"))), Avg { sum: 5.0, n: 1 }] 56 B, expires t=33.600000s
stored at t=36.000000s
stored at t=56.000000s
results
  t=18.600000s ('fp1', 4, '10.0.0.0', 5.5)
  t=18.800000s ('fp0', 4, '10.0.0.0', 4.5)
  t=18.800000s ('fp2', 4, '10.0.0.0', 6.5)
pin (2422, 150, 15269, 3)
"#;
