//! Absolute per-operator-shape pins: on a 16-node `Sim` at one seed,
//! every join dataflow shape must process exactly this many engine
//! events, move exactly this many messages and bytes, and deliver
//! exactly this many results, one `(events, messages, bytes, results)`
//! row per run under `tests/pins/dataflow_pin/`. The cross-engine suites
//! compare engines to each other and the `benchmark/` continuity pins
//! cover three workloads; these rows make a change to rehash, probe,
//! stage republish, the result sink or replica repair visible per shape.
//!
//! The numbers were taken before the binary and N-way executors were
//! merged into one pipeline; every `replication = 1` row held across
//! that merge without edits.

#[macro_use]
mod pin;

use pier::qp::expr::Expr;
use pier::qp::plan::{QueryDesc, QueryOp};
use pier::qp::sql::parse_continuous_query;
use pier::qp::testkit::*;
use pier::qp::{parse_query, Catalog, JoinStrategy, PierNode};
use pier::simnet::time::Dur;
use pier::simnet::{NetConfig, NodeId, Sim};
use pier::workload::{RsParams, RsWorkload};
use pier_dht::DhtConfig;

const N: usize = 16;
const SEED: u64 = 15;
const LIFE: Dur = Dur(100_000 * 1_000_000);

/// `(events_processed, NetStats.messages, NetStats.bytes, results)`.
type Pin = (u64, u64, u64, usize);

fn workload() -> RsWorkload {
    RsWorkload::generate(RsParams {
        s_rows: 24,
        t_rows: 60,
        seed: SEED,
        ..Default::default()
    })
}

fn sim_with(cfg: DhtConfig) -> Sim<PierNode> {
    stabilized_pier_sim(N, cfg, NetConfig::latency_only(SEED))
}

/// Publish the first `num / den` of every table (round-robin from the home
/// nodes) and let the puts land.
fn publish_head(sim: &mut Sim<PierNode>, wl: &RsWorkload, num: usize, den: usize) {
    for (name, rows) in [("R", &wl.r), ("S", &wl.s), ("T", &wl.t)] {
        publish_round_robin(sim, name, &rows[..rows.len() * num / den], 0, LIFE);
    }
    settle_publish(sim);
}

/// Publish the rest of every table from node 3 — after install, so each
/// row enters through its `newData` upcall (`Source::Arrived`).
fn publish_tail(sim: &mut Sim<PierNode>, wl: &RsWorkload, num: usize, den: usize) {
    for (name, rows) in [("R", &wl.r), ("S", &wl.s), ("T", &wl.t)] {
        let tail = rows[rows.len() * num / den..].to_vec();
        sim.with_node(3, |node, ctx| node.publish_rows(ctx, name, tail, 0, LIFE));
    }
}

fn read(sim: &Sim<PierNode>, qid: u64) -> Pin {
    let stats = sim.stats();
    (
        sim.events_processed(),
        stats.messages,
        stats.bytes,
        sim.node(0).unwrap().query_results(qid).len(),
    )
}

/// All data published up front, one query, run to quiescence.
fn one_shot(desc: QueryDesc) -> Pin {
    let wl = workload();
    let mut sim = sim_with(DhtConfig::static_network());
    publish_head(&mut sim, &wl, 1, 1);
    let qid = desc.qid;
    sim.with_node(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(90));
    read(&sim, qid)
}

/// Half the data before install, half published after it.
fn standing(desc: QueryDesc) -> Pin {
    let wl = workload();
    let mut sim = sim_with(DhtConfig::static_network());
    publish_head(&mut sim, &wl, 1, 2);
    let qid = desc.qid;
    sim.with_node(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(30));
    publish_tail(&mut sim, &wl, 1, 2);
    sim.run_for(Dur::from_secs(60));
    read(&sim, qid)
}

const JOIN_AGG_SQL: &str = "SELECT S.num2, count(*), sum(R.num3) FROM R, S \
                            WHERE R.num1 = S.pkey GROUP BY S.num2";
const MULTI_AGG_SQL: &str = "SELECT T.num2, count(*) FROM R, S, T \
                             WHERE R.num1 = S.pkey AND S.num3 = T.pkey GROUP BY T.num2";

fn sql_one_shot(sql: &str, qid: u64) -> QueryDesc {
    let op = parse_query(sql, &Catalog::workload(), JoinStrategy::SymmetricHash).unwrap();
    let mut desc = QueryDesc::one_shot(qid, 0, op);
    desc.n_nodes = N as u32;
    desc
}

#[test]
fn one_shot_join_per_strategy() {
    let wl = workload();
    let rows: Vec<String> = JoinStrategy::ALL
        .into_iter()
        .map(|strategy| {
            let mut desc = wl.query(1, 0, strategy);
            desc.n_nodes = N as u32;
            format!("{} {:?}", strategy.name(), one_shot(desc))
        })
        .collect();
    pin!("one_shot_join_per_strategy", rows.join("\n"));
}

#[test]
fn standing_join_rehashes_late_rows() {
    let wl = workload();
    let op = wl.query(2, 0, JoinStrategy::SymmetricHash).op;
    let got = standing(QueryDesc::standing(2, 0, op, None));
    pin!("standing_join_rehashes_late_rows", format!("{got:?}"));
}

/// The same join under `RENEW 30 SECONDS`: the run lasts past two of
/// its renewal rounds, which republish the rehashed state without
/// probing it again.
#[test]
fn renewed_standing_join() {
    let wl = workload();
    let op = wl.query(11, 0, JoinStrategy::SymmetricHash).op;
    let desc = QueryDesc::standing(11, 0, op, None).with_renewal(Dur::from_secs(30));
    let got = standing(desc);
    pin!("renewed_standing_join", format!("{got:?}"));
}

#[test]
fn windowed_standing_join() {
    let wl = workload();
    let op = wl.query(3, 0, JoinStrategy::SymmetricHash).op;
    // The window (20 s) is shorter than the run: state rehashed at
    // install has aged out by the time the last rows could meet it.
    let got = standing(QueryDesc::standing(3, 0, op, Some(Dur::from_secs(20))));
    pin!("windowed_standing_join", format!("{got:?}"));
}

#[test]
fn join_agg_one_shot_and_epoch() {
    let once = one_shot(sql_one_shot(JOIN_AGG_SQL, 4));
    let sql = format!("{JOIN_AGG_SQL} EPOCH 20 SECONDS");
    let mut desc = parse_continuous_query(
        &sql,
        &Catalog::workload(),
        JoinStrategy::SymmetricHash,
        5,
        0,
    )
    .unwrap();
    desc.n_nodes = N as u32;
    let epoch = standing(desc);
    pin!(
        "join_agg_one_shot_and_epoch",
        format!("one-shot {once:?}\nepoch {epoch:?}")
    );
}

/// The narrow 3-way pipeline, and the same query with a SELECT that
/// reads every column of R ++ S ++ T: nothing is left to prune, so it
/// runs the full-width layout (the §4.2 byte baseline).
#[test]
fn three_way_pipeline_pruned_and_full_width() {
    let wl = workload();
    let narrow = wl.multi_join_spec_narrow();
    let mut every_column = narrow.clone();
    every_column.project = (0..11).map(Expr::col).collect();
    let desc = |qid, join| QueryDesc::one_shot(qid, 0, QueryOp::Join { join, agg: None });
    let narrow = one_shot(desc(6, narrow));
    let every_column = one_shot(desc(7, every_column));
    pin!(
        "three_way_pipeline_pruned_and_full_width",
        format!("narrow {narrow:?}\nevery column {every_column:?}")
    );
}

#[test]
fn standing_three_way_pipeline_rehashes_late_rows() {
    let wl = workload();
    let op = wl.multi_query(10, 0).op;
    let got = standing(QueryDesc::standing(10, 0, op, None));
    pin!(
        "standing_three_way_pipeline_rehashes_late_rows",
        format!("{got:?}")
    );
}

#[test]
fn three_way_pipeline_with_aggregation() {
    let got = one_shot(sql_one_shot(MULTI_AGG_SQL, 8));
    pin!("three_way_pipeline_with_aggregation", format!("{got:?}"));
}

/// The 2-table join at `replication = 2`: the node holding the most
/// rehash state is killed once the initial dataflow completed, and
/// anti-entropy heals its share. Recall and zero-duplicate assertions
/// live in `replication_failover.rs`; this row pins the traffic.
#[test]
fn replicated_join_with_one_kill() {
    let wl = workload();
    let cfg = DhtConfig {
        keepalive: Dur::from_secs(1),
        fail_after: Dur::from_secs(5),
        ..DhtConfig::default()
    }
    .with_replication(2);
    let mut sim = sim_with(cfg);
    publish_head(&mut sim, &wl, 1, 1);
    let qid = 9;
    let op = wl.query(qid, 0, JoinStrategy::SymmetricHash).op;
    let desc = QueryDesc::standing(qid, 0, op, None);
    sim.with_node(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(30));
    let now = sim.now();
    let victim = (1..N as NodeId)
        .max_by_key(|&i| sim.node(i).unwrap().query_soft_state(now, qid, 0))
        .unwrap();
    sim.fail_node(victim);
    sim.run_for(Dur::from_secs(60));
    assert_eq!(wl.expected(JoinStrategy::SymmetricHash).len(), 30);
    let got = read(&sim, qid);
    pin!(
        "replicated_join_with_one_kill",
        format!("victim {victim} {got:?}")
    );
}
