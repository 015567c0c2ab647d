//! What a node's query registry holds and answers, step by step: on a
//! 4-node `Sim` at one seed, one script installs a two-table join, a
//! three-table pipeline (under a smaller qid, so that install order is
//! not qid order), a Bloom join, a standing aggregate and two standing
//! scans of the same table; runs `try_submit` against a
//! standing-count quota and a priced-traffic quota, and a raw `submit`
//! past them; re-submits a descriptor already installed; cancels one
//! query and the Bloom join; and publishes rows between the steps. This file holds the
//! whole transcript. After each step it records:
//!
//! - every node's installed-query count;
//! - every admission verdict, its floats as bits;
//! - every node's per-query metrics, as `to_json` renders them;
//! - the derived soft state each query left at each node, by
//!   instanceID in `lscan` order, where the order in which a `newData`
//!   upcall reached the queries routed on its namespace shows;
//! - the results each query's initiator logged since the step before,
//!   in arrival order.

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
            for (at, row) in &log[self.shown[i]..] {
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
    let got = transcript();
    assert!(
        got == TRANSCRIPT,
        "the transcript moved; it now reads:\n{got}"
    );
}

const TRANSCRIPT: &str = r#"try_submit 2: admitted, priced 409cc00000000000
== two-table join (t=18.000000s)
installed [1, 1, 1, 1]
  node 0: "admitted_installs": 1, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 0 q2: {"qid": 2, "tenant": 1, "live": true, "priced_bytes_per_sec": 1840.0000, "rehash_bytes": 78, "rehash_puts": 2, "results_shipped": 3, "result_bytes": 72, "renewals": 0, "renewal_lag_s": 9.600}
  node 1: "admitted_installs": 1, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 1 q2: {"qid": 2, "tenant": 1, "live": true, "priced_bytes_per_sec": 1840.0000, "rehash_bytes": 160, "rehash_puts": 4, "results_shipped": 0, "result_bytes": 0, "renewals": 0, "renewal_lag_s": 9.700}
  node 2: "admitted_installs": 1, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 2 q2: {"qid": 2, "tenant": 1, "live": true, "priced_bytes_per_sec": 1840.0000, "rehash_bytes": 201, "rehash_puts": 5, "results_shipped": 2, "result_bytes": 48, "renewals": 0, "renewal_lag_s": 9.700}
  node 3: "admitted_installs": 1, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 3 q2: {"qid": 2, "tenant": 1, "live": true, "priced_bytes_per_sec": 1840.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 3, "result_bytes": 72, "renewals": 0, "renewal_lag_s": 9.800}
  state q2 node 0: 5 6 524293 524294
  state q2 node 2: 524295 262150 262152
  state q2 node 3: 262149 262151 524296 524297
  result q2 t=8.400000s ('10.0.0.0', 2)
  result q2 t=8.600000s ('10.0.0.3', 2)
  result q2 t=8.600000s ('10.0.0.1', 2)
  result q2 t=8.700000s ('10.0.0.3', 1)
  result q2 t=8.700000s ('10.0.0.0', 1)
  result q2 t=8.700000s ('10.0.0.2', 1)
  result q2 t=8.800000s ('10.0.0.2', 3)
  result q2 t=8.800000s ('10.0.0.1', 3)
try_submit 1: admitted, priced 40aed80000000000
== three-table pipeline (t=28.000000s)
installed [2, 2, 2, 2]
  node 0: "admitted_installs": 2, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 0 q1: {"qid": 1, "tenant": 1, "live": true, "priced_bytes_per_sec": 3948.0000, "rehash_bytes": 180, "rehash_puts": 4, "results_shipped": 2, "result_bytes": 56, "renewals": 0, "renewal_lag_s": 9.600},
  node 1: "admitted_installs": 2, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 1 q1: {"qid": 1, "tenant": 1, "live": true, "priced_bytes_per_sec": 3948.0000, "rehash_bytes": 184, "rehash_puts": 4, "results_shipped": 0, "result_bytes": 0, "renewals": 0, "renewal_lag_s": 9.700},
  node 2: "admitted_installs": 2, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 2 q1: {"qid": 1, "tenant": 1, "live": true, "priced_bytes_per_sec": 3948.0000, "rehash_bytes": 657, "rehash_puts": 13, "results_shipped": 0, "result_bytes": 0, "renewals": 0, "renewal_lag_s": 9.700},
  node 3: "admitted_installs": 2, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 3 q1: {"qid": 1, "tenant": 1, "live": true, "priced_bytes_per_sec": 3948.0000, "rehash_bytes": 110, "rehash_puts": 2, "results_shipped": 6, "result_bytes": 168, "renewals": 0, "renewal_lag_s": 9.800},
  state q1 node 0: 9 524306 524309
  state q1 node 2: 524301 524302 262153 262155 524298 524299 7 8
  state q1 node 3: 262154 262156 524300 786436 524304 524307 786437 524303 10 524305 524308 524310
  result q1 t=18.700000s (5, 3, 2)
  result q1 t=18.900000s (2, 3, 1)
  result q1 t=18.900000s (6, 1, 1)
  result q1 t=19.000000s (7, 2, 2)
  result q1 t=19.000000s (3, 1, 2)
  result q1 t=19.100000s (1, 2, 2)
  result q1 t=19.100000s (4, 2, 1)
  result q1 t=19.100000s (0, 1, 1)
try_submit 3: admitted, priced 40e0db8000000000
== Bloom join (t=38.000000s)
installed [3, 3, 3, 3]
  node 0: "admitted_installs": 3, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 0 q3: {"qid": 3, "tenant": 2, "live": true, "priced_bytes_per_sec": 34524.0000, "rehash_bytes": 74, "rehash_puts": 2, "results_shipped": 0, "result_bytes": 0, "renewals": 0, "renewal_lag_s": 9.600}
  node 1: "admitted_installs": 3, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 1 q3: {"qid": 3, "tenant": 2, "live": true, "priced_bytes_per_sec": 34524.0000, "rehash_bytes": 148, "rehash_puts": 4, "results_shipped": 0, "result_bytes": 0, "renewals": 0, "renewal_lag_s": 9.700}
  node 2: "admitted_installs": 3, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 2 q3: {"qid": 3, "tenant": 2, "live": true, "priced_bytes_per_sec": 34524.0000, "rehash_bytes": 185, "rehash_puts": 5, "results_shipped": 2, "result_bytes": 40, "renewals": 0, "renewal_lag_s": 9.700}
  node 3: "admitted_installs": 3, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 3 q3: {"qid": 3, "tenant": 2, "live": true, "priced_bytes_per_sec": 34524.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 6, "result_bytes": 120, "renewals": 0, "renewal_lag_s": 9.800}
  state q3 node 2: 524314 262157 262159 2 3 0 1 2 3 0 1
  state q3 node 3: 262158 262160 524311 524315 524312 524313 11 12
  result q3 t=29.300000s (3, 1)
  result q3 t=29.300000s (0, 1)
  result q3 t=29.300000s (6, 1)
  result q3 t=29.400000s (2, 3)
  result q3 t=29.400000s (5, 3)
  result q3 t=29.500000s (7, 2)
  result q3 t=29.500000s (1, 2)
  result q3 t=29.500000s (4, 2)
try_submit 4: admitted, priced 4079000000000000
== standing aggregate (t=48.000000s)
installed [4, 4, 4, 4]
  node 0: "admitted_installs": 4, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 0 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 1, "result_bytes": 19, "renewals": 0, "renewal_lag_s": 9.600}
  node 1: "admitted_installs": 4, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 1 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 1, "result_bytes": 19, "renewals": 0, "renewal_lag_s": 9.700}
  node 2: "admitted_installs": 4, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 2 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 0, "result_bytes": 0, "renewals": 0, "renewal_lag_s": 9.700}
  node 3: "admitted_installs": 4, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 3 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 1, "result_bytes": 19, "renewals": 0, "renewal_lag_s": 9.800}
  state q4 node 0: 1 2
  state q4 node 1: 1 2
  state q4 node 3: 2 0
  result q4 t=43.300000s ('fp1', 3)
  result q4 t=43.400000s ('fp0', 3)
  result q4 t=43.400000s ('fp2', 2)
try_submit 5: admitted, priced 4079000000000000
try_submit 6: admitted, priced 4079000000000000
== two scans of one table (t=58.000000s)
installed [6, 6, 6, 6]
  node 0: "admitted_installs": 6, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 0 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 2, "result_bytes": 38, "renewals": 0, "renewal_lag_s": 19.600},
  node 0 q5: {"qid": 5, "tenant": 4, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 1, "result_bytes": 24, "renewals": 0, "renewal_lag_s": 9.600},
  node 0 q6: {"qid": 6, "tenant": 4, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 1, "result_bytes": 24, "renewals": 0, "renewal_lag_s": 9.600}
  node 1: "admitted_installs": 6, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 1 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 2, "result_bytes": 38, "renewals": 0, "renewal_lag_s": 19.700},
  node 1 q5: {"qid": 5, "tenant": 4, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 3, "result_bytes": 72, "renewals": 0, "renewal_lag_s": 9.700},
  node 1 q6: {"qid": 6, "tenant": 4, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 3, "result_bytes": 72, "renewals": 0, "renewal_lag_s": 9.700}
  node 2: "admitted_installs": 6, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 2 q5: {"qid": 5, "tenant": 4, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 4, "result_bytes": 96, "renewals": 0, "renewal_lag_s": 9.700},
  node 2 q6: {"qid": 6, "tenant": 4, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 4, "result_bytes": 96, "renewals": 0, "renewal_lag_s": 9.700}
  node 3: "admitted_installs": 6, "rejected_installs": 0, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 3 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 2, "result_bytes": 38, "renewals": 0, "renewal_lag_s": 19.800},
  node 3 q5: {"qid": 5, "tenant": 4, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 0, "result_bytes": 0, "renewals": 0, "renewal_lag_s": 9.800},
  node 3 q6: {"qid": 6, "tenant": 4, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 0, "result_bytes": 0, "renewals": 0, "renewal_lag_s": 9.800}
  result q4 t=53.300000s ('fp1', 3)
  result q4 t=53.400000s ('fp0', 3)
  result q4 t=53.400000s ('fp2', 2)
  result q5 t=48.400000s (3, '10.0.0.3')
  result q5 t=48.400000s (5, '10.0.0.1')
  result q5 t=48.400000s (0, '10.0.0.0')
  result q5 t=48.400000s (4, '10.0.0.0')
  result q5 t=48.400000s (7, '10.0.0.3')
  result q5 t=48.400000s (1, '10.0.0.1')
  result q5 t=48.400000s (2, '10.0.0.2')
  result q5 t=48.400000s (6, '10.0.0.2')
  result q6 t=48.400000s (3, '10.0.0.3')
  result q6 t=48.400000s (5, '10.0.0.1')
  result q6 t=48.400000s (0, '10.0.0.0')
  result q6 t=48.400000s (4, '10.0.0.0')
  result q6 t=48.400000s (7, '10.0.0.3')
  result q6 t=48.400000s (1, '10.0.0.1')
  result q6 t=48.400000s (2, '10.0.0.2')
  result q6 t=48.400000s (6, '10.0.0.2')
publish intrusions 8..12 from node 2
== publish (t=68.000000s)
installed [6, 6, 6, 6]
  node 0 q1: {"qid": 1, "tenant": 1, "live": true, "priced_bytes_per_sec": 3948.0000, "rehash_bytes": 327, "rehash_puts": 7, "results_shipped": 3, "result_bytes": 84, "renewals": 0, "renewal_lag_s": 49.600},
  node 0 q2: {"qid": 2, "tenant": 1, "live": true, "priced_bytes_per_sec": 1840.0000, "rehash_bytes": 201, "rehash_puts": 5, "results_shipped": 4, "result_bytes": 96, "renewals": 0, "renewal_lag_s": 59.600},
  node 0 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 3, "result_bytes": 57, "renewals": 0, "renewal_lag_s": 29.600},
  node 0 q5: {"qid": 5, "tenant": 4, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 4, "result_bytes": 96, "renewals": 0, "renewal_lag_s": 19.600},
  node 0 q6: {"qid": 6, "tenant": 4, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 4, "result_bytes": 96, "renewals": 0, "renewal_lag_s": 19.600}
  node 1 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 3, "result_bytes": 57, "renewals": 0, "renewal_lag_s": 29.700},
  node 2 q1: {"qid": 1, "tenant": 1, "live": true, "priced_bytes_per_sec": 3948.0000, "rehash_bytes": 767, "rehash_puts": 15, "results_shipped": 0, "result_bytes": 0, "renewals": 0, "renewal_lag_s": 49.700},
  node 2 q2: {"qid": 2, "tenant": 1, "live": true, "priced_bytes_per_sec": 1840.0000, "rehash_bytes": 201, "rehash_puts": 5, "results_shipped": 4, "result_bytes": 96, "renewals": 0, "renewal_lag_s": 59.700},
  node 3 q1: {"qid": 1, "tenant": 1, "live": true, "priced_bytes_per_sec": 3948.0000, "rehash_bytes": 269, "rehash_puts": 5, "results_shipped": 9, "result_bytes": 252, "renewals": 0, "renewal_lag_s": 49.800},
  node 3 q2: {"qid": 2, "tenant": 1, "live": true, "priced_bytes_per_sec": 1840.0000, "rehash_bytes": 41, "rehash_puts": 1, "results_shipped": 4, "result_bytes": 96, "renewals": 0, "renewal_lag_s": 59.800},
  node 3 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 3, "result_bytes": 57, "renewals": 0, "renewal_lag_s": 29.800},
  node 3 q5: {"qid": 5, "tenant": 4, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 1, "result_bytes": 24, "renewals": 0, "renewal_lag_s": 19.800},
  node 3 q6: {"qid": 6, "tenant": 4, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 1, "result_bytes": 24, "renewals": 0, "renewal_lag_s": 19.800}
  state q1 node 0: 9 524306 524309 786440
  state q1 node 2: 524301 524302 262153 262155 16 524298 524299 7 8 18
  state q1 node 3: 262154 262156 524300 786439 14 786436 524304 524307 524320 786437 524303 10 524321 524305 524308 524310 786441
  state q2 node 0: 5 6 524293 524294 17
  state q2 node 2: 524295 262150 262152 13 786438
  state q2 node 3: 262149 262151 524296 524297 15
  state q4 node 0: 0 1 2
  state q4 node 1: 1 3 0 2
  result q1 t=58.700000s (11, 3, 2)
  result q1 t=58.800000s (8, 3, 1)
  result q1 t=59.000000s (9, 1, 2)
  result q1 t=59.000000s (10, 2, 1)
  result q2 t=58.300000s ('10.0.0.2', 2)
  result q2 t=58.700000s ('10.0.0.0', 3)
  result q2 t=58.700000s ('10.0.0.3', 3)
  result q2 t=58.800000s ('10.0.0.1', 1)
  result q4 t=63.300000s ('fp1', 4)
  result q4 t=63.400000s ('fp0', 4)
  result q4 t=63.400000s ('fp2', 4)
  result q5 t=58.300000s (8, '10.0.0.0')
  result q5 t=58.300000s (9, '10.0.0.1')
  result q5 t=58.300000s (10, '10.0.0.2')
  result q5 t=58.400000s (11, '10.0.0.3')
  result q6 t=58.300000s (8, '10.0.0.0')
  result q6 t=58.300000s (9, '10.0.0.1')
  result q6 t=58.300000s (10, '10.0.0.2')
  result q6 t=58.400000s (11, '10.0.0.3')
quota tenant 1: Quota { max_standing: 2, max_priced_bytes_per_sec: inf, publish_bytes_per_sec: inf, publish_burst_bytes: inf }
quota tenant 4: Quota { max_standing: 18446744073709551615, max_priced_bytes_per_sec: 1000.0, publish_bytes_per_sec: inf, publish_burst_bytes: inf }
try_submit 7: StandingQueries { tenant: 1, installed: 2, limit: 2 }
try_submit 8: PricedTraffic { tenant: 4, priced: 4079000000000000, committed: 4089000000000000, budget: 408f400000000000 }
submit 9
== quotas (t=78.000000s)
installed [6, 6, 6, 6]
  node 0: "admitted_installs": 6, "rejected_installs": 3, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 0 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 4, "result_bytes": 76, "renewals": 0, "renewal_lag_s": 39.600},
  node 1: "admitted_installs": 6, "rejected_installs": 1, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 1 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 4, "result_bytes": 76, "renewals": 0, "renewal_lag_s": 39.700},
  node 2: "admitted_installs": 6, "rejected_installs": 1, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 3: "admitted_installs": 6, "rejected_installs": 1, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 3 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 4, "result_bytes": 76, "renewals": 0, "renewal_lag_s": 39.800},
  result q4 t=73.300000s ('fp1', 4)
  result q4 t=73.400000s ('fp0', 4)
  result q4 t=73.400000s ('fp2', 4)
try_submit 4: admitted, priced 4079000000000000
try_submit 5: PricedTraffic { tenant: 4, priced: 4079000000000000, committed: 4089000000000000, budget: 408f400000000000 }
submit 2
== re-submitted (t=88.000000s)
installed [6, 6, 6, 6]
  node 0: "admitted_installs": 6, "rejected_installs": 4, "malformed_installs": 0, "shed_publishes": 0, "shed_bytes": 0,
  node 0 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 5, "result_bytes": 95, "renewals": 0, "renewal_lag_s": 49.600},
  node 1 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 5, "result_bytes": 95, "renewals": 0, "renewal_lag_s": 49.700},
  node 3 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 5, "result_bytes": 95, "renewals": 0, "renewal_lag_s": 49.800},
  result q4 t=83.300000s ('fp1', 4)
  result q4 t=83.400000s ('fp0', 4)
  result q4 t=83.400000s ('fp2', 4)
cancel 5
cancel 3
== cancel (t=98.000000s)
installed [4, 4, 4, 4]
  node 0 q3: {"qid": 3, "tenant": 2, "live": false, "priced_bytes_per_sec": 34524.0000, "rehash_bytes": 74, "rehash_puts": 2, "results_shipped": 0, "result_bytes": 0, "renewals": 0, "renewal_lag_s": 69.600},
  node 0 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 6, "result_bytes": 114, "renewals": 0, "renewal_lag_s": 59.600},
  node 0 q5: {"qid": 5, "tenant": 4, "live": false, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 4, "result_bytes": 96, "renewals": 0, "renewal_lag_s": 49.600},
  node 1 q3: {"qid": 3, "tenant": 2, "live": false, "priced_bytes_per_sec": 34524.0000, "rehash_bytes": 148, "rehash_puts": 4, "results_shipped": 0, "result_bytes": 0, "renewals": 0, "renewal_lag_s": 69.700},
  node 1 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 6, "result_bytes": 114, "renewals": 0, "renewal_lag_s": 59.700},
  node 1 q5: {"qid": 5, "tenant": 4, "live": false, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 3, "result_bytes": 72, "renewals": 0, "renewal_lag_s": 49.700},
  node 2 q3: {"qid": 3, "tenant": 2, "live": false, "priced_bytes_per_sec": 34524.0000, "rehash_bytes": 185, "rehash_puts": 5, "results_shipped": 2, "result_bytes": 40, "renewals": 0, "renewal_lag_s": 69.700},
  node 2 q5: {"qid": 5, "tenant": 4, "live": false, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 4, "result_bytes": 96, "renewals": 0, "renewal_lag_s": 49.700},
  node 3 q3: {"qid": 3, "tenant": 2, "live": false, "priced_bytes_per_sec": 34524.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 6, "result_bytes": 120, "renewals": 0, "renewal_lag_s": 69.800},
  node 3 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 6, "result_bytes": 114, "renewals": 0, "renewal_lag_s": 59.800},
  node 3 q5: {"qid": 5, "tenant": 4, "live": false, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 1, "result_bytes": 24, "renewals": 0, "renewal_lag_s": 49.800},
  state q3 node 2: gone
  state q3 node 3: gone
  result q4 t=93.300000s ('fp1', 4)
  result q4 t=93.400000s ('fp0', 4)
  result q4 t=93.400000s ('fp2', 4)
publish intrusions 12..16 from node 1
== publish after cancel (t=108.000000s)
installed [4, 4, 4, 4]
  node 0 q1: {"qid": 1, "tenant": 1, "live": true, "priced_bytes_per_sec": 3948.0000, "rehash_bytes": 327, "rehash_puts": 7, "results_shipped": 4, "result_bytes": 112, "renewals": 0, "renewal_lag_s": 89.600},
  node 0 q2: {"qid": 2, "tenant": 1, "live": true, "priced_bytes_per_sec": 1840.0000, "rehash_bytes": 201, "rehash_puts": 5, "results_shipped": 5, "result_bytes": 120, "renewals": 0, "renewal_lag_s": 99.600},
  node 0 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 7, "result_bytes": 133, "renewals": 0, "renewal_lag_s": 69.600},
  node 1 q1: {"qid": 1, "tenant": 1, "live": true, "priced_bytes_per_sec": 3948.0000, "rehash_bytes": 233, "rehash_puts": 5, "results_shipped": 0, "result_bytes": 0, "renewals": 0, "renewal_lag_s": 89.700},
  node 1 q2: {"qid": 2, "tenant": 1, "live": true, "priced_bytes_per_sec": 1840.0000, "rehash_bytes": 201, "rehash_puts": 5, "results_shipped": 0, "result_bytes": 0, "renewals": 0, "renewal_lag_s": 99.700},
  node 1 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 7, "result_bytes": 133, "renewals": 0, "renewal_lag_s": 69.700},
  node 1 q6: {"qid": 6, "tenant": 4, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 4, "result_bytes": 96, "renewals": 0, "renewal_lag_s": 59.700}
  node 2 q1: {"qid": 1, "tenant": 1, "live": true, "priced_bytes_per_sec": 3948.0000, "rehash_bytes": 932, "rehash_puts": 18, "results_shipped": 0, "result_bytes": 0, "renewals": 0, "renewal_lag_s": 89.700},
  node 2 q2: {"qid": 2, "tenant": 1, "live": true, "priced_bytes_per_sec": 1840.0000, "rehash_bytes": 201, "rehash_puts": 5, "results_shipped": 5, "result_bytes": 120, "renewals": 0, "renewal_lag_s": 99.700},
  node 3 q1: {"qid": 1, "tenant": 1, "live": true, "priced_bytes_per_sec": 3948.0000, "rehash_bytes": 471, "rehash_puts": 9, "results_shipped": 12, "result_bytes": 336, "renewals": 0, "renewal_lag_s": 89.800},
  node 3 q2: {"qid": 2, "tenant": 1, "live": true, "priced_bytes_per_sec": 1840.0000, "rehash_bytes": 164, "rehash_puts": 4, "results_shipped": 6, "result_bytes": 144, "renewals": 0, "renewal_lag_s": 99.800},
  node 3 q4: {"qid": 4, "tenant": 3, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 7, "result_bytes": 133, "renewals": 0, "renewal_lag_s": 69.800},
  node 3 q6: {"qid": 6, "tenant": 4, "live": true, "priced_bytes_per_sec": 400.0000, "rehash_bytes": 0, "rehash_puts": 0, "results_shipped": 4, "result_bytes": 96, "renewals": 0, "renewal_lag_s": 59.800}
  state q1 node 0: 9 524306 524309 786440 524322
  state q1 node 2: 524301 524302 262153 262155 16 262166 786443 524298 524299 7 8 18 786445
  state q1 node 3: 262154 262156 524300 786439 14 786447 786436 524304 524307 524320 524324 786437 524303 10 524321 786448 524305 524308 524310 786441 524323
  state q2 node 0: 5 6 524293 524294 17 786444
  state q2 node 2: 524295 262150 262152 13 786438 786446
  state q2 node 3: 262149 262151 524296 524297 15 786442 262165
  state q4 node 0: 0 1 2 3
  state q4 node 3: 3 2 0
  result q1 t=98.400000s (14, 3, 1)
  result q1 t=98.700000s (15, 1, 2)
  result q1 t=99.000000s (12, 1, 1)
  result q1 t=99.000000s (13, 2, 2)
  result q2 t=98.400000s ('10.0.0.0', 1)
  result q2 t=98.400000s ('10.0.0.3', 1)
  result q2 t=98.700000s ('10.0.0.2', 3)
  result q2 t=98.700000s ('10.0.0.1', 2)
  result q4 t=103.300000s ('fp1', 5)
  result q4 t=103.400000s ('fp0', 6)
  result q4 t=103.400000s ('fp2', 5)
  result q6 t=98.100000s (15, '10.0.0.3')
  result q6 t=98.400000s (12, '10.0.0.0')
  result q6 t=98.400000s (13, '10.0.0.1')
  result q6 t=98.400000s (14, '10.0.0.2')
pin (1451, 529, 167055)
"#;
