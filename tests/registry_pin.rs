//! What a node's query registry holds and answers, step by step: on a
//! 4-node `Sim` at one seed, one script installs a two-table join, a
//! three-table pipeline (under a smaller qid, so that install order is
//! not qid order), a Bloom join, a standing aggregate and two standing
//! scans of the same table; runs `try_submit` against a
//! standing-count quota and a priced-traffic quota, and a raw `submit`
//! past them; re-submits a descriptor already installed; cancels one
//! query and the Bloom join; and publishes rows between the steps.
//! `tests/pins/registry_pin/` holds the whole transcript. After each
//! step it records:
//!
//! - every node's installed-query count;
//! - every admission verdict, its floats as bits;
//! - every node's per-query metrics, as `to_json` renders them;
//! - the derived soft state each query left at each node, by
//!   instanceID in `lscan` order, where the order in which a `newData`
//!   upcall reached the queries routed on its namespace shows;
//! - the results each query's initiator logged since the step before,
//!   in arrival order.

#[macro_use]
mod pin;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

use pier::qp::plan::{qns, QueryDesc};
use pier::qp::sql::parse_continuous_query;
use pier::qp::testkit::*;
use pier::qp::{
    parse_query, tuple, AdmissionError, Catalog, JoinStrategy, PierNode, Quota, TableRate, Tuple,
};
use pier::simnet::time::Dur;
use pier::simnet::{NetConfig, NodeId, Sim};
use pier_dht::{ns_of, DhtConfig};

const N: usize = 4;
const SEED: u64 = 29;
const LIFE: Dur = Dur(100_000 * 1_000_000);
/// Every qid the script uses, submitted or refused.
const QIDS: [u64; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 9];

/// Rows `lo..hi` of `intrusions`: three fingerprints, four addresses.
fn intrusions(lo: usize, hi: usize) -> Vec<Tuple> {
    (lo..hi)
        .map(|i| {
            let (fp, addr) = (format!("fp{}", i % 3), format!("10.0.0.{}", i % 4));
            tuple![i as i64, fp.as_str(), addr.as_str()]
        })
        .collect()
}

fn advisories() -> Vec<Tuple> {
    (0..3)
        .map(|i| tuple![format!("fp{i}").as_str(), (i + 1) as i64])
        .collect()
}

fn reputation() -> Vec<Tuple> {
    (0..4)
        .map(|i| tuple![format!("10.0.0.{i}").as_str(), (i % 2 + 1) as i64])
        .collect()
}

fn standing(sql: &str, qid: u64, tenant: u32) -> QueryDesc {
    let catalog = Catalog::intrusion();
    let mut desc = parse_continuous_query(sql, &catalog, JoinStrategy::SymmetricHash, qid, 0)
        .unwrap()
        .with_tenant(tenant);
    desc.n_nodes = N as u32;
    desc
}

/// The script's descriptors, by qid.
fn desc(qid: u64) -> QueryDesc {
    const JOIN: &str = "SELECT I.address, A.severity FROM intrusions I, advisories A \
                        WHERE I.fingerprint = A.fingerprint";
    const PIPELINE: &str = "SELECT I.id, A.severity, R.weight \
                            FROM intrusions I, advisories A, reputation R \
                            WHERE I.fingerprint = A.fingerprint AND I.address = R.address";
    const AGG: &str = "SELECT fingerprint, count(*) FROM intrusions \
                       GROUP BY fingerprint EPOCH 10 SECONDS";
    const SCAN: &str = "SELECT id, address FROM intrusions";
    match qid {
        2 | 7 | 9 => standing(JOIN, qid, 1),
        1 => standing(PIPELINE, qid, 1),
        3 => {
            let sql = "SELECT I.id, A.severity FROM intrusions I, advisories A \
                       WHERE I.fingerprint = A.fingerprint";
            let op = parse_query(sql, &Catalog::intrusion(), JoinStrategy::BloomFilter).unwrap();
            let mut desc = QueryDesc::one_shot(qid, 0, op).with_tenant(2);
            desc.n_nodes = N as u32;
            desc
        }
        4 => standing(AGG, qid, 3),
        5 | 6 | 8 => standing(SCAN, qid, 4),
        _ => unreachable!("qid {qid} is not in the script"),
    }
}

fn verdict(v: &Result<f64, AdmissionError>) -> String {
    match v {
        Ok(priced) => format!("admitted, priced {:016x}", priced.to_bits()),
        Err(AdmissionError::StandingQueries {
            tenant,
            installed,
            limit,
        }) => format!("StandingQueries {{ tenant: {tenant}, installed: {installed}, limit: {limit} }}"),
        Err(AdmissionError::PricedTraffic {
            tenant,
            priced,
            committed,
            budget,
        }) => format!(
            "PricedTraffic {{ tenant: {tenant}, priced: {:016x}, committed: {:016x}, budget: {:016x} }}",
            priced.to_bits(),
            committed.to_bits(),
            budget.to_bits()
        ),
    }
}

struct Script {
    sim: Sim<PierNode>,
    out: String,
    /// How many results of each qid the transcript has shown.
    shown: [usize; QIDS.len()],
    /// What each line of the transcript last showed, by key.
    last: BTreeMap<String, String>,
}

impl Script {
    fn new() -> Self {
        let mut sim = stabilized_pier_sim(
            N,
            DhtConfig::static_network(),
            NetConfig::latency_only(SEED),
        );
        let rates = [
            ("intrusions", 10.0, 40.0),
            ("advisories", 1.0, 20.0),
            ("reputation", 2.0, 20.0),
        ];
        for id in 0..N as NodeId {
            sim.with_node(id, |node, _| {
                for (table, rows_per_sec, avg_tuple_bytes) in rates {
                    let rate = TableRate {
                        rows_per_sec,
                        avg_tuple_bytes,
                    };
                    node.governor.set_table_rate(ns_of(table), rate);
                }
            });
        }
        publish_round_robin(&mut sim, "intrusions", &intrusions(0, 8), 0, LIFE);
        publish_round_robin(&mut sim, "advisories", &advisories(), 0, LIFE);
        publish_round_robin(&mut sim, "reputation", &reputation(), 0, LIFE);
        settle_publish(&mut sim);
        Script {
            sim,
            out: String::new(),
            shown: [0; QIDS.len()],
            last: BTreeMap::new(),
        }
    }

    /// The priced bytes/sec, if admitted.
    fn try_submit(&mut self, qid: u64) -> Option<f64> {
        let v = self
            .sim
            .with_node(0, |node, ctx| node.try_submit(ctx, desc(qid)))
            .unwrap();
        writeln!(self.out, "try_submit {qid}: {}", verdict(&v)).unwrap();
        v.ok()
    }

    fn submit(&mut self, qid: u64) {
        writeln!(self.out, "submit {qid}").unwrap();
        self.sim
            .with_node(0, |node, ctx| node.submit(ctx, desc(qid)));
    }

    fn publish(&mut self, from: NodeId, lo: usize, hi: usize) {
        writeln!(self.out, "publish intrusions {lo}..{hi} from node {from}").unwrap();
        let rows = intrusions(lo, hi);
        self.sim.with_node(from, |node, ctx| {
            node.publish_rows(ctx, "intrusions", rows, 0, LIFE)
        });
    }

    fn set_quota(&mut self, tenant: u32, quota: Quota) {
        writeln!(self.out, "quota tenant {tenant}: {quota:?}").unwrap();
        for id in 0..N as NodeId {
            self.sim
                .with_node(id, |node, _| node.governor.set_quota(tenant, quota));
        }
    }

    /// Write `line` under `key` if it differs from what the key last
    /// showed, apart from anything after `settled`.
    fn show(&mut self, seen: &mut BTreeSet<String>, key: String, line: String, settled: &str) {
        let cmp = line.split(settled).next().unwrap_or_default().to_owned();
        if self.last.get(&key) != Some(&cmp) {
            writeln!(self.out, "  {key}: {line}").unwrap();
            self.last.insert(key.clone(), cmp);
        }
        seen.insert(key);
    }

    /// Run ten seconds, then record what changed: installed counts,
    /// node counters, per-query metrics (a renewal lag that only grew
    /// with the clock is not a change), stored soft state, new results.
    fn step(&mut self, label: &str) {
        self.sim.run_for(Dur::from_secs(10));
        writeln!(self.out, "== {label} ({:?})", self.sim.now()).unwrap();
        let installed: Vec<usize> = (0..N as NodeId)
            .map(|id| self.sim.node(id).unwrap().installed_query_count())
            .collect();
        writeln!(self.out, "installed {installed:?}").unwrap();
        let mut seen = BTreeSet::new();
        let json = metrics_snapshot(&self.sim).to_json();
        let mut node = String::new();
        for line in json.lines().map(str::trim) {
            if let Some(id) = line.strip_prefix("\"node\": ") {
                node = format!("node {}", id.trim_end_matches(','));
            } else if line.starts_with("\"admitted_installs\"") {
                self.show(&mut seen, node.clone(), line.to_owned(), "\n");
            } else if let Some(rest) = line.strip_prefix("{\"qid\": ") {
                let qid = &rest[..rest.find(',').unwrap()];
                let key = format!("{node} q{qid}");
                self.show(&mut seen, key, line.to_owned(), ", \"renewal_lag_s\"");
            }
        }
        for qid in QIDS {
            for id in 0..N as NodeId {
                let dht = &self.sim.node(id).unwrap().dht;
                let iids: Vec<String> = qns::all(qid, 2)
                    .flat_map(|ns| dht.lscan(ns).map(|e| e.iid.to_string()))
                    .collect();
                if !iids.is_empty() {
                    let key = format!("state q{qid} node {id}");
                    self.show(&mut seen, key, iids.join(" "), "\n");
                }
            }
        }
        let gone: Vec<String> = self
            .last
            .keys()
            .filter(|k| !seen.contains(*k))
            .cloned()
            .collect();
        for key in gone {
            writeln!(self.out, "  {key}: gone").unwrap();
            self.last.remove(&key);
        }
        let initiator = self.sim.node(0).unwrap();
        for (i, qid) in QIDS.into_iter().enumerate() {
            let log = initiator.query_results(qid);
            for (at, row) in log.iter().skip(self.shown[i]) {
                writeln!(self.out, "  result q{qid} {at:?} {row}").unwrap();
            }
            self.shown[i] = log.len();
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
    s.try_submit(2);
    s.step("two-table join");
    s.try_submit(1);
    s.step("three-table pipeline");
    s.try_submit(3);
    s.step("Bloom join");
    s.try_submit(4);
    s.step("standing aggregate");
    let first = s.try_submit(5).unwrap();
    let second = s.try_submit(6).unwrap();
    s.step("two scans of one table");
    s.publish(2, 8, 12);
    s.step("publish");

    s.set_quota(
        1,
        Quota {
            max_standing: 2,
            ..Quota::unlimited()
        },
    );
    s.set_quota(
        4,
        Quota {
            max_priced_bytes_per_sec: first + second + first / 2.0,
            ..Quota::unlimited()
        },
    );
    s.try_submit(7);
    s.try_submit(8);
    s.submit(9);
    s.step("quotas");

    s.try_submit(4);
    s.try_submit(5);
    s.submit(2);
    s.step("re-submitted");

    for qid in [5, 3] {
        writeln!(s.out, "cancel {qid}").unwrap();
        s.sim.with_node(0, |node, ctx| node.cancel(ctx, qid));
    }
    s.step("cancel");
    s.publish(1, 12, 16);
    s.step("publish after cancel");
    s.finish()
}

#[test]
fn registry_transcript() {
    pin!("registry_transcript", transcript());
}
