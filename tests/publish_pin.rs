//! What a publish stores and reports, step by step: on a 4-node `Sim` at
//! one seed, with a standing join installed over the published table,
//! one script publishes an unmetered batch, a batch a tenant's publish
//! quota sheds part of (a wide row shed between narrow ones it admits),
//! a batch that quota sheds whole, and an empty batch, then runs a
//! renewal round. `tests/pins/publish_pin/` holds the whole transcript.
//! After each step it records:
//!
//! - the publish's `PublishReport`;
//! - every node's shed counters;
//! - every node's stored base items of both tables, in `lscan` order:
//!   namespace, resourceID, instanceID, expiry, wire bytes and the row
//!   decoded. The instanceIDs show the order in which a batch's puts
//!   and the rehashes they set off drew them.

#[macro_use]
mod pin;

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
    pin!("publish_transcript", transcript());
}
