//! What a publish stores and reports, step by step: on a 4-node `Sim` at
//! one seed, with a standing join installed over the published table,
//! one script publishes an unmetered batch, a batch a tenant's publish
//! quota sheds part of (a wide row shed between narrow ones it admits),
//! a batch that quota sheds whole, and an empty batch, then runs a
//! renewal round. This file holds the whole transcript. After each step
//! it records:
//!
//! - the publish's `PublishReport`;
//! - every node's shed counters;
//! - every node's stored base items of both tables, in `lscan` order:
//!   namespace, resourceID, instanceID, expiry, wire bytes and the row
//!   decoded. The instanceIDs show the order in which a batch's puts
//!   and the rehashes they set off drew them.

use std::fmt::Write;

use pier::qp::expr::Expr;
use pier::qp::plan::{JoinSpec, QueryDesc, QueryOp, ScanSpec};
use pier::qp::testkit::*;
use pier::qp::{tuple, JoinStrategy, PierNode, QpItem, Quota, Tuple};
use pier::simnet::time::Dur;
use pier::simnet::{NetConfig, NodeId, Sim, Wire};
use pier_dht::{ns_of, DhtConfig};

const N: usize = 4;
const SEED: u64 = 31;
const LIFE: Dur = Dur(600 * 1_000_000);
/// The metered tenant.
const TENANT: u32 = 7;

/// Rows `lo..hi` of `L(k, j, note)`: the note is short, except on every
/// third row, whose note is wide enough that the quota below sheds it.
fn rows(lo: usize, hi: usize) -> Vec<Tuple> {
    (lo..hi)
        .map(|i| {
            let note = if i % 3 == 2 {
                format!("wide-{}", "x".repeat(40 + i))
            } else {
                format!("n{i}")
            };
            tuple![i as i64, (i % 4) as i64, note.as_str()]
        })
        .collect()
}

/// A standing join of `L(k, j, note)` with `Rt(k, j)` on `j`.
fn standing_join() -> QueryDesc {
    let left = ScanSpec::new("L", 3, 0).with_join_col(1);
    let right = ScanSpec::new("Rt", 2, 0).with_join_col(1);
    let mut join = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
    join.project = vec![Expr::col(0), Expr::col(3)];
    QueryDesc::standing(1, 0, QueryOp::Join { join, agg: None }, None)
}

struct Script {
    sim: Sim<PierNode>,
    out: String,
}

impl Script {
    fn new() -> Self {
        let mut sim = stabilized_pier_sim(
            N,
            DhtConfig::static_network(),
            NetConfig::latency_only(SEED),
        );
        let right: Vec<Tuple> = (0..4).map(|i| tuple![100 + i, i]).collect();
        publish_round_robin(&mut sim, "Rt", &right, 0, LIFE);
        settle_publish(&mut sim);
        sim.with_node(0, |node, ctx| node.submit(ctx, standing_join()));
        sim.run_for(Dur::from_secs(10));
        Script {
            sim,
            out: String::new(),
        }
    }

    /// Publish `rows` from node `from` as `tenant`, and record the report.
    fn publish(&mut self, from: NodeId, tenant: u32, rows: Vec<Tuple>) {
        let n = rows.len();
        let report = self
            .sim
            .with_node(from, |node, ctx| {
                node.publish_rows_from(ctx, tenant, "L", rows, 0, LIFE)
            })
            .unwrap();
        writeln!(
            self.out,
            "publish {n} rows from node {from} as tenant {tenant}: {report:?}"
        )
        .unwrap();
    }

    /// Run ten seconds, then record every node's shed counters and
    /// stored base items.
    fn step(&mut self, label: &str) {
        self.sim.run_for(Dur::from_secs(10));
        writeln!(self.out, "== {label} ({:?})", self.sim.now()).unwrap();
        for id in 0..N as NodeId {
            let node = self.sim.node(id).unwrap();
            let m = &node.metrics;
            writeln!(
                self.out,
                "node {id}: shed_publishes {}, shed_bytes {}",
                m.shed_publishes, m.shed_bytes
            )
            .unwrap();
            for table in ["L", "Rt"] {
                for e in node.dht.lscan(ns_of(table)) {
                    let QpItem::Row(row) = &e.val else {
                        panic!("a base namespace holds only rows");
                    };
                    writeln!(
                        self.out,
                        "  {table} ns {:016x} rid {:016x} iid {} expires {:?} wire {} {}",
                        e.ns,
                        e.rid,
                        e.iid,
                        e.expires,
                        e.val.wire_size(),
                        row.decode()
                    )
                    .unwrap();
                }
            }
        }
    }

    fn finish(mut self) -> String {
        let stats = self.sim.stats();
        let pin = (self.sim.events_processed(), stats.messages, stats.bytes);
        writeln!(self.out, "pin {pin:?}").unwrap();
        self.out
    }
}

fn transcript() -> String {
    let mut s = Script::new();
    s.publish(1, 0, rows(0, 6));
    s.step("unmetered");

    // Room for a few narrow rows of the next batch, not for the wide row
    // between them, and next to nothing refilled between batches.
    let quota = Quota {
        publish_bytes_per_sec: 0.5,
        publish_burst_bytes: 100.0,
        ..Quota::unlimited()
    };
    writeln!(s.out, "quota tenant {TENANT} at node 2: {quota:?}").unwrap();
    s.sim
        .with_node(2, |node, _| node.governor.set_quota(TENANT, quota));
    s.publish(2, TENANT, rows(6, 12));
    s.step("shed mid-way");
    s.publish(2, TENANT, rows(12, 15));
    s.step("shed whole");
    s.publish(3, 0, Vec::new());
    s.step("empty");

    writeln!(s.out, "renewals every 4 s").unwrap();
    for id in 0..N as NodeId {
        s.sim
            .with_node(id, |node, ctx| node.start_renewals(ctx, Dur::from_secs(4)));
    }
    s.step("renewal round");
    s.finish()
}

#[test]
fn publish_transcript() {
    let got = transcript();
    assert!(
        got == TRANSCRIPT,
        "the transcript moved; it now reads:\n{got}"
    );
}

const TRANSCRIPT: &str = r#"publish 6 rows from node 1 as tenant 0: PublishReport { accepted: 6, shed: 0 }
== unmetered (t=28.000000s)
node 0: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 31d421fcb662c30e iid 262147 expires t=618.000000s wire 28 (1, 1, 'n1')
  Rt ns 9f67d18cc44c2557 rid 49a3633e8855b77b iid 786433 expires t=600.000000s wire 22 (103, 3)
  Rt ns 9f67d18cc44c2557 rid 533e1142b7f7852c iid 524289 expires t=600.000000s wire 22 (102, 2)
node 1: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 40b972ae4fc6d263 iid 262148 expires t=618.000000s wire 73 (2, 2, 'wide-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')
  L ns a98e9e631c6a6d6b rid 64684c4f0fd784b4 iid 262146 expires t=618.000000s wire 28 (0, 0, 'n0')
node 2: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 3cdf996835138bda iid 262150 expires t=618.000000s wire 28 (4, 0, 'n4')
  Rt ns 9f67d18cc44c2557 rid 89644f7ebbb00d97 iid 262145 expires t=600.000000s wire 22 (101, 1)
node 3: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 0c389e93d048103a iid 262149 expires t=618.000000s wire 28 (3, 3, 'n3')
  L ns a98e9e631c6a6d6b rid 2431f0f3a9e32907 iid 262151 expires t=618.000000s wire 76 (5, 1, 'wide-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')
  Rt ns 9f67d18cc44c2557 rid a2afd9959d8346e4 iid 1 expires t=600.000000s wire 22 (100, 0)
quota tenant 7 at node 2: Quota { max_standing: 18446744073709551615, max_priced_bytes_per_sec: inf, publish_bytes_per_sec: 0.5, publish_burst_bytes: 100.0 }
publish 6 rows from node 2 as tenant 7: PublishReport { accepted: 3, shed: 3 }
== shed mid-way (t=38.000000s)
node 0: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 31d421fcb662c30e iid 262147 expires t=618.000000s wire 28 (1, 1, 'n1')
  L ns a98e9e631c6a6d6b rid 9fec93f3afd2ab24 iid 524292 expires t=628.000000s wire 28 (6, 2, 'n6')
  Rt ns 9f67d18cc44c2557 rid 49a3633e8855b77b iid 786433 expires t=600.000000s wire 22 (103, 3)
  Rt ns 9f67d18cc44c2557 rid 533e1142b7f7852c iid 524289 expires t=600.000000s wire 22 (102, 2)
node 1: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 40b972ae4fc6d263 iid 262148 expires t=618.000000s wire 73 (2, 2, 'wide-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')
  L ns a98e9e631c6a6d6b rid 64684c4f0fd784b4 iid 262146 expires t=618.000000s wire 28 (0, 0, 'n0')
node 2: shed_publishes 3, shed_bytes 190
  L ns a98e9e631c6a6d6b rid 3cdf996835138bda iid 262150 expires t=618.000000s wire 28 (4, 0, 'n4')
  Rt ns 9f67d18cc44c2557 rid 89644f7ebbb00d97 iid 262145 expires t=600.000000s wire 22 (101, 1)
node 3: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 0c389e93d048103a iid 262149 expires t=618.000000s wire 28 (3, 3, 'n3')
  L ns a98e9e631c6a6d6b rid 0c71eb6f808d16f0 iid 524293 expires t=628.000000s wire 28 (7, 3, 'n7')
  L ns a98e9e631c6a6d6b rid 2431f0f3a9e32907 iid 262151 expires t=618.000000s wire 76 (5, 1, 'wide-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')
  L ns a98e9e631c6a6d6b rid a6376d15925c2e5b iid 524294 expires t=628.000000s wire 28 (9, 1, 'n9')
  Rt ns 9f67d18cc44c2557 rid a2afd9959d8346e4 iid 1 expires t=600.000000s wire 22 (100, 0)
publish 3 rows from node 2 as tenant 7: PublishReport { accepted: 0, shed: 3 }
== shed whole (t=48.000000s)
node 0: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 31d421fcb662c30e iid 262147 expires t=618.000000s wire 28 (1, 1, 'n1')
  L ns a98e9e631c6a6d6b rid 9fec93f3afd2ab24 iid 524292 expires t=628.000000s wire 28 (6, 2, 'n6')
  Rt ns 9f67d18cc44c2557 rid 49a3633e8855b77b iid 786433 expires t=600.000000s wire 22 (103, 3)
  Rt ns 9f67d18cc44c2557 rid 533e1142b7f7852c iid 524289 expires t=600.000000s wire 22 (102, 2)
node 1: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 40b972ae4fc6d263 iid 262148 expires t=618.000000s wire 73 (2, 2, 'wide-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')
  L ns a98e9e631c6a6d6b rid 64684c4f0fd784b4 iid 262146 expires t=618.000000s wire 28 (0, 0, 'n0')
node 2: shed_publishes 6, shed_bytes 333
  L ns a98e9e631c6a6d6b rid 3cdf996835138bda iid 262150 expires t=618.000000s wire 28 (4, 0, 'n4')
  Rt ns 9f67d18cc44c2557 rid 89644f7ebbb00d97 iid 262145 expires t=600.000000s wire 22 (101, 1)
node 3: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 0c389e93d048103a iid 262149 expires t=618.000000s wire 28 (3, 3, 'n3')
  L ns a98e9e631c6a6d6b rid 0c71eb6f808d16f0 iid 524293 expires t=628.000000s wire 28 (7, 3, 'n7')
  L ns a98e9e631c6a6d6b rid 2431f0f3a9e32907 iid 262151 expires t=618.000000s wire 76 (5, 1, 'wide-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')
  L ns a98e9e631c6a6d6b rid a6376d15925c2e5b iid 524294 expires t=628.000000s wire 28 (9, 1, 'n9')
  Rt ns 9f67d18cc44c2557 rid a2afd9959d8346e4 iid 1 expires t=600.000000s wire 22 (100, 0)
publish 0 rows from node 3 as tenant 0: PublishReport { accepted: 0, shed: 0 }
== empty (t=58.000000s)
node 0: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 31d421fcb662c30e iid 262147 expires t=618.000000s wire 28 (1, 1, 'n1')
  L ns a98e9e631c6a6d6b rid 9fec93f3afd2ab24 iid 524292 expires t=628.000000s wire 28 (6, 2, 'n6')
  Rt ns 9f67d18cc44c2557 rid 49a3633e8855b77b iid 786433 expires t=600.000000s wire 22 (103, 3)
  Rt ns 9f67d18cc44c2557 rid 533e1142b7f7852c iid 524289 expires t=600.000000s wire 22 (102, 2)
node 1: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 40b972ae4fc6d263 iid 262148 expires t=618.000000s wire 73 (2, 2, 'wide-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')
  L ns a98e9e631c6a6d6b rid 64684c4f0fd784b4 iid 262146 expires t=618.000000s wire 28 (0, 0, 'n0')
node 2: shed_publishes 6, shed_bytes 333
  L ns a98e9e631c6a6d6b rid 3cdf996835138bda iid 262150 expires t=618.000000s wire 28 (4, 0, 'n4')
  Rt ns 9f67d18cc44c2557 rid 89644f7ebbb00d97 iid 262145 expires t=600.000000s wire 22 (101, 1)
node 3: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 0c389e93d048103a iid 262149 expires t=618.000000s wire 28 (3, 3, 'n3')
  L ns a98e9e631c6a6d6b rid 0c71eb6f808d16f0 iid 524293 expires t=628.000000s wire 28 (7, 3, 'n7')
  L ns a98e9e631c6a6d6b rid 2431f0f3a9e32907 iid 262151 expires t=618.000000s wire 76 (5, 1, 'wide-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')
  L ns a98e9e631c6a6d6b rid a6376d15925c2e5b iid 524294 expires t=628.000000s wire 28 (9, 1, 'n9')
  Rt ns 9f67d18cc44c2557 rid a2afd9959d8346e4 iid 1 expires t=600.000000s wire 22 (100, 0)
renewals every 4 s
== renewal round (t=68.000000s)
node 0: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 31d421fcb662c30e iid 262147 expires t=666.000000s wire 28 (1, 1, 'n1')
  L ns a98e9e631c6a6d6b rid 9fec93f3afd2ab24 iid 524292 expires t=666.000000s wire 28 (6, 2, 'n6')
  Rt ns 9f67d18cc44c2557 rid 49a3633e8855b77b iid 786433 expires t=666.000000s wire 22 (103, 3)
  Rt ns 9f67d18cc44c2557 rid 533e1142b7f7852c iid 524289 expires t=666.000000s wire 22 (102, 2)
node 1: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 40b972ae4fc6d263 iid 262148 expires t=666.000000s wire 73 (2, 2, 'wide-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')
  L ns a98e9e631c6a6d6b rid 64684c4f0fd784b4 iid 262146 expires t=666.000000s wire 28 (0, 0, 'n0')
node 2: shed_publishes 6, shed_bytes 333
  L ns a98e9e631c6a6d6b rid 3cdf996835138bda iid 262150 expires t=666.000000s wire 28 (4, 0, 'n4')
  Rt ns 9f67d18cc44c2557 rid 89644f7ebbb00d97 iid 262145 expires t=666.000000s wire 22 (101, 1)
node 3: shed_publishes 0, shed_bytes 0
  L ns a98e9e631c6a6d6b rid 0c389e93d048103a iid 262149 expires t=666.000000s wire 28 (3, 3, 'n3')
  L ns a98e9e631c6a6d6b rid 0c71eb6f808d16f0 iid 524293 expires t=666.000000s wire 28 (7, 3, 'n7')
  L ns a98e9e631c6a6d6b rid 2431f0f3a9e32907 iid 262151 expires t=666.000000s wire 76 (5, 1, 'wide-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')
  L ns a98e9e631c6a6d6b rid a6376d15925c2e5b iid 524294 expires t=666.000000s wire 28 (9, 1, 'n9')
  Rt ns 9f67d18cc44c2557 rid a2afd9959d8346e4 iid 1 expires t=666.000000s wire 22 (100, 0)
pin (707, 155, 13509)
"#;
