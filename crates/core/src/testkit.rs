//! Harness helpers shared by tests, examples, and the experiment bins:
//! building stabilized PIER networks, publishing partitioned tables, and
//! running queries to completion.
//!
//! Two families. The `*_by_request` helpers and [`deployment_snapshot`]
//! drive any [`Deployment`] — [`Sim`] at any shard count or the
//! wall-clock [`Cluster`] — through typed [`NodeRequest`]s only, so a
//! cross-backend suite is one generic body. The [`PierEngine`] helpers
//! reach into a [`Sim`] by closure injection and read node state in
//! place; they predate the first family and stay because the read-only
//! performance ledger (`benchmark/`) is written against them.

use pier_dht::{Dht, DhtConfig};
use pier_simnet::time::{Dur, Time};
use pier_simnet::{Cluster, Deployment, NetConfig, NetStats, NodeId, ShardMap, ShardedSim, Sim};

use crate::item::PierMsg;
use crate::metrics::MetricsSnapshot;
use crate::node::{NodeRequest, PierNode};
use crate::plan::QueryDesc;
use crate::tuple::Tuple;

/// Convenience for Msg type naming in closures.
pub type PierCtx<'a> = pier_simnet::app::Ctx<'a, PierMsg>;

/// The closure-injection surface of a simulator hosting PIER nodes.
pub trait PierEngine {
    fn node_count(&self) -> usize;
    fn now(&self) -> Time;
    fn run_for(&mut self, d: Dur);
    /// Inject a call into node `id`; `None` if it has failed.
    fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut PierNode, &mut PierCtx) -> R,
    ) -> Option<R>;
    /// Read-only access to a live node.
    fn node(&self, id: NodeId) -> Option<&PierNode>;
    /// Engine traffic counters.
    fn net_stats(&self) -> NetStats;
    fn events_processed(&self) -> u64;
}

impl PierEngine for Sim<PierNode> {
    fn node_count(&self) -> usize {
        Sim::node_count(self)
    }
    fn now(&self) -> Time {
        Sim::now(self)
    }
    fn run_for(&mut self, d: Dur) {
        Sim::run_for(self, d)
    }
    fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut PierNode, &mut PierCtx) -> R,
    ) -> Option<R> {
        self.with_app(id, f)
    }
    fn node(&self, id: NodeId) -> Option<&PierNode> {
        self.app(id)
    }
    fn net_stats(&self) -> NetStats {
        self.stats()
    }
    fn events_processed(&self) -> u64 {
        Sim::events_processed(self)
    }
}

/// Pre-stabilized PIER automata for ids `0..n` on the configured
/// overlay — the common substrate of every engine builder here.
pub fn stabilized_pier_nodes(n: usize, cfg: &DhtConfig) -> Vec<PierNode> {
    Dht::stabilized(n, cfg)
        .into_iter()
        .map(|dht| PierNode::with_dht(dht, None))
        .collect()
}

fn seated(mut sim: Sim<PierNode>, n: usize, cfg: &DhtConfig) -> Sim<PierNode> {
    for node in stabilized_pier_nodes(n, cfg) {
        sim.add_node(node);
    }
    sim
}

/// Build a simulator of `n` PIER nodes on a pre-stabilized overlay.
pub fn stabilized_pier_sim(n: usize, cfg: DhtConfig, net: NetConfig) -> Sim<PierNode> {
    seated(Sim::new(net), n, &cfg)
}

/// [`stabilized_pier_sim`] partitioned across `map.shards()` cores —
/// same nodes, same seed derivation, same results.
pub fn stabilized_pier_sharded(
    n: usize,
    cfg: DhtConfig,
    net: NetConfig,
    map: ShardMap,
) -> Sim<PierNode> {
    seated(ShardedSim::new(net, map), n, &cfg)
}

/// Spawn a wall-clock cluster of `n` PIER nodes on a pre-stabilized
/// overlay — the same automata [`stabilized_pier_sim`] seats.
pub fn stabilized_pier_cluster(n: usize, cfg: DhtConfig, seed: u64) -> Cluster<PierNode> {
    Cluster::spawn(stabilized_pier_nodes(n, &cfg), seed)
}

/// Round-robin partitioning of a table over `n` home nodes: row `i`
/// belongs to node `i % n` (data in its "natural habitat"). Yields each
/// home that got any rows, with its fragment.
pub fn fragments(rows: &[Tuple], n: usize) -> impl Iterator<Item = (NodeId, Vec<Tuple>)> {
    let mut per_node: Vec<Vec<Tuple>> = vec![Vec::new(); n];
    for (i, row) in rows.iter().enumerate() {
        per_node[i % n].push(row.clone());
    }
    let homes = per_node.into_iter().enumerate();
    homes.filter_map(|(i, batch)| (!batch.is_empty()).then_some((i as NodeId, batch)))
}

/// Publish `rows` from their home nodes ([`fragments`]), copying each
/// fragment into the DHT by closure injection.
pub fn publish_round_robin(
    sim: &mut impl PierEngine,
    table: &str,
    rows: &[Tuple],
    pkey_col: usize,
    lifetime: Dur,
) {
    for (home, batch) in fragments(rows, sim.node_count()) {
        sim.with_node(home, |node, ctx| {
            node.publish_rows(ctx, table, batch, pkey_col, lifetime);
        });
    }
}

/// [`publish_round_robin`] on any backend: each home node is *asked* to
/// publish its fragment.
pub fn publish_by_request(
    net: &mut impl Deployment<PierNode>,
    table: &str,
    rows: &[Tuple],
    pkey_col: usize,
    lifetime: Dur,
) {
    for (home, rows) in fragments(rows, net.node_count()) {
        let table = table.to_string();
        net.request(
            home,
            NodeRequest::PublishRowsFor {
                tenant: 0,
                table,
                rows,
                pkey_col,
                lifetime,
            },
        );
    }
}

/// Submit `desc` at `initiator` by request and let the deployment run
/// until the answer stops growing: the result count is polled once per
/// `tick` of the backend's own clock (virtual or wall) and the query
/// counts as finished after ten ticks without a new row, or after 200
/// regardless. Returns the timed results, relative to submission.
pub fn run_query_by_request(
    net: &mut impl Deployment<PierNode>,
    initiator: NodeId,
    desc: QueryDesc,
    tick: Dur,
) -> Vec<(Dur, Tuple)> {
    let qid = desc.qid;
    let t0 = net.now();
    net.request(initiator, NodeRequest::Submit(Box::new(desc)));
    let (mut last, mut quiet) = (0, 0);
    for _ in 0..200 {
        net.settle(tick);
        let count = net
            .request(initiator, NodeRequest::ResultCount(qid))
            .map_or(0, |r| r.into_count());
        quiet = if count == last && count > 0 {
            quiet + 1
        } else {
            0
        };
        if quiet > 10 {
            break;
        }
        last = count;
    }
    net.request(initiator, NodeRequest::TimedResults(qid))
        .map(|r| r.into_timed_results())
        .unwrap_or_default()
        .into_iter()
        .map(|(t, row)| (t.since(t0), row))
        .collect()
}

/// Submit a query at `initiator` and run the simulation for `settle`.
/// Returns the timed results collected at the initiator (relative to the
/// submission instant).
pub fn run_query(
    sim: &mut impl PierEngine,
    initiator: NodeId,
    desc: QueryDesc,
    settle: Dur,
) -> Vec<(Dur, Tuple)> {
    let qid = desc.qid;
    let t0 = sim.now();
    sim.with_node(initiator, |node, ctx| node.submit(ctx, desc));
    sim.run_for(settle);
    sim.node(initiator)
        .map(|node| {
            node.query_results(qid)
                .iter()
                .map(|(t, row)| (t.since(t0), row))
                .collect()
        })
        .unwrap_or_default()
}

/// Time to the k-th result tuple, if at least k arrived (Fig. 3 metric).
pub fn time_to_kth(results: &[(Dur, Tuple)], k: usize) -> Option<Dur> {
    let mut times: Vec<Dur> = results.iter().map(|(t, _)| *t).collect();
    times.sort_unstable();
    times.get(k.saturating_sub(1)).copied()
}

/// Time to the last result tuple (Fig. 5 metric).
pub fn time_to_last(results: &[(Dur, Tuple)]) -> Option<Dur> {
    results.iter().map(|(t, _)| *t).max()
}

/// Bare result tuples, dropping arrival times.
pub fn rows_of(results: &[(Dur, Tuple)]) -> Vec<Tuple> {
    results.iter().map(|(_, r)| r.clone()).collect()
}

/// Let publications settle: run until puts have landed (a few seconds of
/// virtual time covers lookup + direct delivery at paper latencies).
pub fn settle_publish(sim: &mut impl PierEngine) {
    sim.run_for(Dur::from_secs(8));
}

/// Deployment-wide [`MetricsSnapshot`] of a simulator, read in place:
/// every live node's [`crate::metrics::NodeMetrics`] plus the engine's
/// own [`NetStats`] — so the snapshot's `net` section *is* the ground
/// truth, checkable byte-for-byte via
/// [`crate::metrics::net_stats_json`]. Failed nodes are skipped (their
/// state is frozen mid-failure, not observable health).
pub fn metrics_snapshot(sim: &impl PierEngine) -> MetricsSnapshot {
    let now = sim.now();
    MetricsSnapshot {
        at: now,
        nodes: (0..sim.node_count() as NodeId)
            .filter_map(|id| sim.node(id))
            .map(|node| node.node_metrics(now))
            .collect(),
        net: sim.net_stats(),
    }
}

/// [`metrics_snapshot`] of any backend, gathered through the typed
/// request surface ([`NodeRequest::Metrics`]); killed nodes answer
/// nothing and are skipped. A node cannot see its own mailbox from
/// inside its loop, so `mailbox_depth` is 0 as reported; on a
/// [`Cluster`] read that gauge from `Cluster::mailbox_depth`.
pub fn deployment_snapshot(net: &mut impl Deployment<PierNode>) -> MetricsSnapshot {
    let nodes = (0..net.node_count() as NodeId)
        .filter_map(|id| net.request(id, NodeRequest::Metrics))
        .map(|resp| resp.into_metrics())
        .collect();
    MetricsSnapshot {
        at: net.now(),
        nodes,
        net: net.stats(),
    }
}
