//! The metrics registry: PIER's self-reported health surface.
//!
//! The paper's deployment target — "querying the internet" with no DBA
//! in the loop (§1, §3.2) — makes self-monitoring part of the design:
//! an operator can only reason about a planetary-scale query processor
//! through what the nodes themselves export. This module is that
//! export, in three layers:
//!
//! * [`QueryMetrics`] — per-query counters and gauges kept by every
//!   node's [`MetricsRegistry`]: rehash bytes and puts, results
//!   shipped (the recall proxy), renewal counts and the renewal-lag
//!   gauge that predicts soft-state expiry before it costs recall.
//! * [`NodeMetrics`] — one node's snapshot: its registry plus
//!   point-in-time gauges (installed queries, soft-state occupancy by
//!   namespace from [`pier_dht`]'s storage manager, actor mailbox
//!   depth under the wall-clock runtime).
//! * [`MetricsSnapshot`] — the whole-deployment view: every node's
//!   [`NodeMetrics`] plus the engine's [`NetStats`], renderable as a
//!   typed struct or as JSON ([`MetricsSnapshot::to_json`]). The
//!   `net` section is rendered by [`net_stats_json`] — the *same*
//!   function a harness can apply to the engine's own counters, so
//!   "snapshot matches ground truth" is checkable byte-for-byte.
//!
//! The experiments read this surface instead of keeping ad-hoc tallies
//! (`pier_bench multitenant`, `pier_bench continuous`), so the numbers
//! CI gates on and the numbers an operator sees cannot drift apart. The
//! operator-facing catalogue of every metric here lives in
//! `MONITORING.md` at the repository root.

use std::fmt::Write as _;

use pier_dht::Ns;
use pier_simnet::time::{Dur, Time};
use pier_simnet::{NetStats, NodeId};

/// Per-query counters and gauges, maintained by the node executing the
/// query's share of the dataflow (every node keeps its own view; the
/// deployment-wide truth is the sum over a [`MetricsSnapshot`]).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryMetrics {
    /// Tenant that owns the query ([`crate::plan::QueryDesc::tenant`]).
    pub tenant: u32,
    /// Admission price charged against the tenant's quota, in modeled
    /// steady-state bytes/sec ([`crate::optimizer::price_query`]).
    pub priced_bytes_per_sec: f64,
    /// When this node installed the query.
    pub installed_at: Time,
    /// Bytes of rehash / stage / semi-join / aggregation soft state
    /// this node has put into the query's derived namespaces.
    pub rehash_bytes: u64,
    /// Number of those puts.
    pub rehash_puts: u64,
    /// Result tuples this node emitted toward the initiator — the
    /// *recall proxy*: a live standing query whose counter stalls
    /// while co-tenants keep shipping is being starved.
    pub results_shipped: u64,
    /// Wire bytes of those result tuples.
    pub result_bytes: u64,
    /// Completed renewal rounds for the query's soft state.
    pub renewals: u64,
    /// Instant of the last renewal round (install time before the
    /// first round) — the base of the renewal-lag gauge.
    pub last_renewal: Time,
    /// Still installed? Uninstalled queries keep their counters (the
    /// registry is an audit log, not just a live view).
    pub live: bool,
}

impl QueryMetrics {
    fn new(tenant: u32, priced_bytes_per_sec: f64, now: Time) -> Self {
        QueryMetrics {
            tenant,
            priced_bytes_per_sec,
            installed_at: now,
            rehash_bytes: 0,
            rehash_puts: 0,
            results_shipped: 0,
            result_bytes: 0,
            renewals: 0,
            last_renewal: now,
            live: true,
        }
    }

    /// Renewal-lag gauge: time since the last completed renewal round.
    /// A lag past 3× the query's renewal period means its soft state
    /// may already have aged out — recall loss follows.
    pub fn renewal_lag(&self, now: Time) -> Dur {
        now.since(self.last_renewal)
    }
}

/// One node's metric store: per-query counters plus the node-level
/// admission/backpressure totals. Owned by `PierNode`; hooks are called
/// from the query-processor paths, snapshots are read by harnesses and
/// the typed `NodeRequest::Metrics` client surface.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    /// Every query ever installed here, sorted by qid: an audit log that
    /// outlives uninstall.
    queries: Vec<(u64, QueryMetrics)>,
    /// Installs admitted by the tenant governor on this node.
    pub admitted_installs: u64,
    /// Installs rejected by quota (admission control) on this node.
    pub rejected_installs: u64,
    /// Install multicasts dropped because the descriptor failed its
    /// certificate (`QueryDesc::certified`): an index out of range, a
    /// join shape that cannot run, or a lifetime its operator cannot run
    /// for. Run, it would have panicked an operator or answered wrong.
    pub malformed_installs: u64,
    /// Publishes shed by per-tenant token-bucket backpressure.
    pub shed_publishes: u64,
    /// Wire bytes of those shed publishes (traffic that never entered
    /// the DHT — the backpressure savings gauge).
    pub shed_bytes: u64,
}

impl MetricsRegistry {
    fn find(&self, qid: u64) -> Result<usize, usize> {
        self.queries.binary_search_by_key(&qid, |&(q, _)| q)
    }

    fn get_mut(&mut self, qid: u64) -> Option<&mut QueryMetrics> {
        self.find(qid).ok().map(|at| &mut self.queries[at].1)
    }

    /// Record an admitted install.
    pub fn on_install(&mut self, qid: u64, tenant: u32, priced_bytes_per_sec: f64, now: Time) {
        self.admitted_installs += 1;
        let q = QueryMetrics::new(tenant, priced_bytes_per_sec, now);
        match self.find(qid) {
            Ok(at) => self.queries[at].1 = q,
            Err(at) => self.queries.insert(at, (qid, q)),
        }
    }

    /// Record an uninstall — counters survive, `live` flips.
    pub fn on_uninstall(&mut self, qid: u64) {
        if let Some(q) = self.get_mut(qid) {
            q.live = false;
        }
    }

    /// Record one put of derived (rehash-layer) soft state.
    pub fn on_rehash(&mut self, qid: u64, bytes: usize) {
        if let Some(q) = self.get_mut(qid) {
            q.rehash_puts += 1;
            q.rehash_bytes += bytes as u64;
        }
    }

    /// Record one result tuple emitted toward the initiator.
    pub fn on_result(&mut self, qid: u64, bytes: usize) {
        if let Some(q) = self.get_mut(qid) {
            q.results_shipped += 1;
            q.result_bytes += bytes as u64;
        }
    }

    /// Record a completed renewal round.
    pub fn on_renewal(&mut self, qid: u64, now: Time) {
        if let Some(q) = self.get_mut(qid) {
            q.renewals += 1;
            q.last_renewal = now;
        }
    }

    /// Record a token-bucket shed of one publish.
    pub fn on_shed(&mut self, bytes: usize) {
        self.shed_publishes += 1;
        self.shed_bytes += bytes as u64;
    }

    /// One query's counters, if it was ever installed here.
    pub fn query(&self, qid: u64) -> Option<&QueryMetrics> {
        self.find(qid).ok().map(|at| &self.queries[at].1)
    }

    /// All per-query counters, ordered by qid.
    pub fn queries(&self) -> impl Iterator<Item = (&u64, &QueryMetrics)> {
        self.queries.iter().map(|(qid, q)| (qid, q))
    }
}

/// Point-in-time snapshot of one node: its registry plus the gauges
/// that only exist as live state (installed count, storage occupancy,
/// actor mailbox depth).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeMetrics {
    pub node: NodeId,
    /// Queries currently installed here.
    pub installed_queries: usize,
    /// Pending network messages in this node's actor mailbox, as the
    /// node itself reports it: 0, because an actor cannot see its own
    /// mailbox and the simulator has a global event queue instead. The
    /// live gauge of a wall-clock deployment is `Cluster::mailbox_depth`.
    pub mailbox_depth: usize,
    /// Live soft-state items per namespace
    /// ([`pier_dht::storage::StorageManager::occupancy`]) — base
    /// tables and every query's derived `qns::*` namespaces.
    pub occupancy: Vec<(Ns, usize)>,
    /// The node's counter registry.
    pub registry: MetricsRegistry,
}

/// Whole-deployment snapshot: every node's [`NodeMetrics`] plus the
/// engine's traffic counters — the one struct an operator (or an
/// experiment binary) reads instead of keeping private tallies.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Engine time of the snapshot.
    pub at: Time,
    pub nodes: Vec<NodeMetrics>,
    /// Engine traffic ground truth ([`NetStats`]); by construction
    /// identical to what `Sim::stats` / `Cluster::stats` report at the
    /// snapshot instant.
    pub net: NetStats,
}

/// Canonical JSON rendering of [`NetStats`] — used for the snapshot's
/// `net` section *and* directly applicable to an engine's own counters,
/// so snapshot-vs-ground-truth comparisons are byte-for-byte.
pub fn net_stats_json(s: &NetStats) -> String {
    let inbound: Vec<String> = s.inbound_bytes.iter().map(|b| b.to_string()).collect();
    format!(
        "{{\"messages\": {}, \"bytes\": {}, \"dropped_to_failed\": {}, \
         \"dropped_in_window\": {}, \"max_inbound\": {}, \"inbound_bytes\": [{}]}}",
        s.messages,
        s.bytes,
        s.dropped_to_failed,
        s.dropped_in_window,
        s.max_inbound(),
        inbound.join(", ")
    )
}

impl MetricsSnapshot {
    /// Total per-query counter across every node's registry.
    pub fn total<F: Fn(&QueryMetrics) -> u64>(&self, f: F) -> u64 {
        self.nodes
            .iter()
            .flat_map(|n| n.registry.queries().map(|(_, q)| f(q)))
            .sum()
    }

    /// Deployment-wide shed publishes (backpressure activity).
    pub fn shed_publishes(&self) -> u64 {
        self.nodes.iter().map(|n| n.registry.shed_publishes).sum()
    }

    /// Deployment-wide quota rejections (admission activity).
    pub fn rejected_installs(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.registry.rejected_installs)
            .sum()
    }

    /// Render the snapshot as hand-formatted JSON (the container is
    /// offline — no serde). Keys are emitted in a fixed order and
    /// collections in deterministic (sorted / node-id) order, so two
    /// snapshots of identical state render identically.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(
            out,
            "  \"at_us\": {},",
            self.at.since(Time::ZERO).as_micros()
        );
        let _ = writeln!(out, "  \"net\": {},", net_stats_json(&self.net));
        let _ = writeln!(out, "  \"nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            let occ: Vec<String> = n
                .occupancy
                .iter()
                .map(|(ns, live)| format!("{{\"ns\": \"{ns:#018x}\", \"live\": {live}}}"))
                .collect();
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"node\": {},", n.node);
            let _ = writeln!(out, "      \"installed_queries\": {},", n.installed_queries);
            let _ = writeln!(out, "      \"mailbox_depth\": {},", n.mailbox_depth);
            let r = &n.registry;
            let _ = writeln!(
                out,
                "      \"admitted_installs\": {}, \"rejected_installs\": {}, \
                 \"malformed_installs\": {}, \"shed_publishes\": {}, \"shed_bytes\": {},",
                r.admitted_installs,
                r.rejected_installs,
                r.malformed_installs,
                r.shed_publishes,
                r.shed_bytes
            );
            let _ = writeln!(out, "      \"occupancy\": [{}],", occ.join(", "));
            let _ = writeln!(out, "      \"queries\": [");
            let qn = r.queries.len();
            for (j, (qid, q)) in r.queries().enumerate() {
                let _ = writeln!(
                    out,
                    "        {{\"qid\": {qid}, \"tenant\": {}, \"live\": {}, \
                     \"priced_bytes_per_sec\": {:.4}, \"rehash_bytes\": {}, \
                     \"rehash_puts\": {}, \"results_shipped\": {}, \"result_bytes\": {}, \
                     \"renewals\": {}, \"renewal_lag_s\": {:.3}}}{}",
                    q.tenant,
                    q.live,
                    q.priced_bytes_per_sec,
                    q.rehash_bytes,
                    q.rehash_puts,
                    q.results_shipped,
                    q.result_bytes,
                    q.renewals,
                    q.renewal_lag(self.at).as_secs_f64(),
                    if j + 1 < qn { "," } else { "" }
                );
            }
            let _ = writeln!(out, "      ]");
            let _ = writeln!(
                out,
                "    }}{}",
                if i + 1 < self.nodes.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ]");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counts_per_query() {
        let mut r = MetricsRegistry::default();
        let t = Time::ZERO + Dur::from_secs(5);
        r.on_install(7, 3, 120.5, t);
        r.on_rehash(7, 100);
        r.on_rehash(7, 50);
        r.on_result(7, 64);
        r.on_renewal(7, t + Dur::from_secs(40));
        let q = r.query(7).unwrap();
        assert_eq!(q.tenant, 3);
        assert_eq!(q.rehash_bytes, 150);
        assert_eq!(q.rehash_puts, 2);
        assert_eq!(q.results_shipped, 1);
        assert_eq!(q.renewals, 1);
        assert_eq!(
            q.renewal_lag(t + Dur::from_secs(100)),
            Dur::from_secs(60),
            "lag measures from the last renewal"
        );
        assert!(q.live);
        r.on_uninstall(7);
        assert!(!r.query(7).unwrap().live, "counters survive uninstall");
        // Hooks for unknown qids are ignored, not panics (a late result
        // can race an uninstalled registry entry only if never
        // installed here).
        r.on_rehash(99, 10);
        assert!(r.query(99).is_none());
    }

    #[test]
    fn net_stats_json_is_canonical() {
        let s = NetStats {
            messages: 2,
            bytes: 100,
            inbound_bytes: vec![0, 100],
            ..Default::default()
        };
        let j = net_stats_json(&s);
        assert_eq!(
            j,
            "{\"messages\": 2, \"bytes\": 100, \"dropped_to_failed\": 0, \
             \"dropped_in_window\": 0, \"max_inbound\": 100, \"inbound_bytes\": [0, 100]}"
        );
        // Byte-for-byte: equal stats render to equal strings.
        assert_eq!(j, net_stats_json(&s.clone()));
    }

    #[test]
    fn snapshot_json_embeds_the_net_section_verbatim() {
        let net = NetStats {
            messages: 1,
            bytes: 10,
            inbound_bytes: vec![10],
            ..Default::default()
        };
        let snap = MetricsSnapshot {
            at: Time::ZERO,
            nodes: vec![NodeMetrics {
                node: 0,
                installed_queries: 0,
                mailbox_depth: 0,
                occupancy: vec![],
                registry: MetricsRegistry::default(),
            }],
            net: net.clone(),
        };
        assert!(
            snap.to_json().contains(&net_stats_json(&net)),
            "the snapshot's net section must be the canonical rendering"
        );
    }
}
