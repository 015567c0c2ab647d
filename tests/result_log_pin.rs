//! What the initiator's result log reads back: every `(arrival, row)`
//! of a query, in arrival order, as `query_results` shows it and as the
//! `ResultCount` and `TimedResults` requests answer it, over three runs
//! on a `Sim` at one seed each. `tests/pins/result_log_pin/` holds one
//! transcript per run:
//!
//! - a symmetric-hash join whose initiator owns some join keys, so some
//!   results are made at the initiator and some arrive as messages;
//! - a standing epoch aggregate whose initiator owns some groups, so it
//!   harvests and emits part of every epoch itself;
//! - a join at `replication = 2` where a node holding rehash state is
//!   killed and a healed replica re-sends results the initiator already
//!   logged; the log drops them.
//!
//! Each transcript ends with every node's `results_shipped` for the
//! query. A nonzero count at node 0 shows that the initiator's local path
//! ran. A sum above the log's length shows that re-emissions were
//! dropped.

#[macro_use]
mod pin;

use std::fmt::Write;

use pier::qp::expr::Expr;
use pier::qp::plan::{AggCall, AggFunc, AggSpec, JoinSpec, QueryDesc, QueryOp, ScanSpec};
use pier::qp::testkit::*;
use pier::qp::{tuple, JoinStrategy, NodeRequest, PierNode, Tuple};
use pier::simnet::time::Dur;
use pier::simnet::{Deployment, NetConfig, NodeId, Sim};
use pier_dht::DhtConfig;

const N: usize = 8;
const LIFE: Dur = Dur(3600 * 1_000_000);

/// `A(pkey, jk)` and `B(pkey, jk)`: `a` rows and `b` rows over `keys`
/// join-key values.
fn tables(a: i64, b: i64, keys: i64) -> (Vec<Tuple>, Vec<Tuple>) {
    let a = (0..a).map(|i| tuple![i, i % keys]).collect();
    let b = (0..b).map(|i| tuple![100 + i, i % keys]).collect();
    (a, b)
}

/// `A ⋈ B` on `jk`, standing, under symmetric hash; output `(A.pkey,
/// B.pkey, jk)`.
fn standing_join(qid: u64) -> QueryDesc {
    let left = ScanSpec::new("A", 2, 0).with_join_col(1);
    let right = ScanSpec::new("B", 2, 0).with_join_col(1);
    let mut join = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
    join.project = vec![Expr::col(0), Expr::col(2), Expr::col(1)];
    QueryDesc::standing(qid, 0, QueryOp::Join { join, agg: None }, None)
}

/// The initiator's log of `qid`, its two request answers and every
/// node's `results_shipped`.
fn transcript(sim: &mut Sim<PierNode>, qid: u64) -> String {
    let mut out = String::new();
    let node = sim.node(0).unwrap();
    let log = node.query_results(qid);
    writeln!(out, "query_results q{qid}: {} rows", log.len()).unwrap();
    for (at, row) in log.iter() {
        writeln!(out, "  {at:?} {row}").unwrap();
    }
    let logged = log.len() as u64;
    let count = sim
        .request(0, NodeRequest::ResultCount(qid))
        .unwrap()
        .into_count();
    writeln!(out, "ResultCount q{qid}: {count}").unwrap();
    let timed = sim
        .request(0, NodeRequest::TimedResults(qid))
        .unwrap()
        .into_timed_results();
    writeln!(out, "TimedResults q{qid}: {} rows", timed.len()).unwrap();
    for (at, row) in &timed {
        writeln!(out, "  {at:?} {row}").unwrap();
    }
    let mut shipped = 0;
    write!(out, "results_shipped").unwrap();
    for id in 0..N as NodeId {
        let n = shipped_by(sim, id, qid);
        write!(out, " {n}").unwrap();
        shipped += n;
    }
    writeln!(out, " (sum {shipped}, logged {logged})").unwrap();
    out
}

/// How many results of `qid` node `id` made.
fn shipped_by(sim: &Sim<PierNode>, id: NodeId, qid: u64) -> u64 {
    sim.app(id)
        .and_then(|node| node.metrics.query(qid))
        .map_or(0, |m| m.results_shipped)
}

/// Rows published before and after the install: the initiator probes
/// both on arrival at the join keys it owns.
#[test]
fn join_probed_partly_at_the_initiator() {
    let qid = 1;
    let (a, b) = tables(24, 16, 12);
    let mut sim = stabilized_pier_sim(N, DhtConfig::static_network(), NetConfig::latency_only(7));
    publish_round_robin(&mut sim, "A", &a[..16], 0, LIFE);
    publish_round_robin(&mut sim, "B", &b, 0, LIFE);
    settle_publish(&mut sim);
    sim.with_app(0, |node, ctx| node.submit(ctx, standing_join(qid)));
    sim.run_for(Dur::from_secs(10));
    publish_round_robin(&mut sim, "A", &a[16..], 0, LIFE);
    sim.run_for(Dur::from_secs(20));
    assert!(shipped_by(&sim, 0, qid) > 0, "the initiator probes too");
    pin!(
        "join_probed_partly_at_the_initiator",
        transcript(&mut sim, qid)
    );
}

/// `SELECT g, count(*) FROM events GROUP BY g EPOCH 20 SECONDS` over
/// sixteen groups, three epochs, with a publish between the first two.
#[test]
fn epoch_aggregate_harvested_partly_at_the_initiator() {
    let qid = 2;
    let rows: Vec<Tuple> = (0..64i64).map(|i| tuple![i, i % 16]).collect();
    let scan = ScanSpec::new("events", 2, 0);
    let count = AggCall {
        func: AggFunc::Count,
        arg: None,
    };
    let agg = AggSpec::new(vec![1], vec![count]).with_epoch(Dur::from_secs(20));
    let mut desc = QueryDesc::standing(qid, 0, QueryOp::Agg { scan, agg }, None);
    desc.n_nodes = N as u32;
    let mut sim = stabilized_pier_sim(N, DhtConfig::static_network(), NetConfig::latency_only(9));
    publish_round_robin(&mut sim, "events", &rows[..48], 0, LIFE);
    settle_publish(&mut sim);
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(25));
    publish_round_robin(&mut sim, "events", &rows[48..], 0, LIFE);
    sim.run_for(Dur::from_secs(40));
    assert!(shipped_by(&sim, 0, qid) > 0, "the initiator harvests too");
    pin!(
        "epoch_aggregate_harvested_partly_at_the_initiator",
        transcript(&mut sim, qid)
    );
}

/// Replication 2: once the join has answered, the non-initiator node
/// holding the most query soft state is killed; anti-entropy heals its
/// rehash state onto the takeover node, whose probes re-send results
/// the initiator has logged.
#[test]
fn replicated_join_with_a_healed_re_send() {
    let qid = 3;
    let (a, b) = tables(18, 12, 6);
    let cfg = DhtConfig {
        keepalive: Dur::from_secs(1),
        fail_after: Dur::from_secs(5),
        ..DhtConfig::default()
    }
    .with_replication(2);
    let mut sim = stabilized_pier_sim(N, cfg, NetConfig::latency_only(31));
    publish_round_robin(&mut sim, "A", &a, 0, LIFE);
    publish_round_robin(&mut sim, "B", &b, 0, LIFE);
    settle_publish(&mut sim);
    sim.with_app(0, |node, ctx| node.submit(ctx, standing_join(qid)));
    sim.run_for(Dur::from_secs(30));
    let now = sim.now();
    let victim = (1..N as NodeId)
        .max_by_key(|&i| sim.app(i).unwrap().query_soft_state(now, qid, 0))
        .unwrap();
    sim.fail_node(victim);
    sim.run_for(Dur::from_secs(60));
    let shipped: u64 = (0..N as NodeId).map(|i| shipped_by(&sim, i, qid)).sum();
    let logged = sim.node(0).unwrap().query_results(qid).len() as u64;
    assert!(shipped > logged, "a healed replica re-sends a result");
    pin!(
        "replicated_join_with_a_healed_re_send",
        transcript(&mut sim, qid)
    );
}
