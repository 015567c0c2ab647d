//! What a client does with a node: submit and cancel queries, read and
//! drain their results, audit a node's lifecycle state, and the typed
//! request surface the actor runtime executes those through.
//!
//! This is the client boundary: the one place under `node/` where a
//! row becomes a [`Tuple`]. The initiator keeps each result as it
//! arrived ([`FlatRow`]); [`Results`] and [`PierNode::drain_results`]
//! decode it as it is read.

use std::slice;
use std::sync::Arc;

use pier_simnet::app::Ctx;
use pier_simnet::time::{Dur, Time};

use super::PierNode;
use crate::item::{PierMsg, QpItem};
use crate::metrics::NodeMetrics;
use crate::plan::{qns, QueryDesc};
use crate::tenant::AdmissionError;
use crate::tuple::{FlatRow, Tuple};

impl PierNode {
    /// Submit a query: multicast the descriptor to all nodes (§3.3).
    pub fn submit(&mut self, ctx: &mut Ctx<PierMsg>, desc: QueryDesc) {
        self.results.entry(desc.qid).or_default();
        self.multicast(ctx, QpItem::Query(Arc::new(desc)));
    }

    /// Quota-governed submission: price the descriptor with the PR 3
    /// cost model and dry-run it against the owning tenant's
    /// [`crate::tenant::Quota`] *before* anything reaches the wire. An
    /// over-budget query is rejected with a typed
    /// [`AdmissionError`] — no multicast, no partial install — and
    /// counted in this node's `rejected_installs`. On admission the
    /// multicast proceeds; each receiving node (this one included, via
    /// its own multicast delivery) re-checks at install time against its
    /// own registry, so the verdict is the same overlay-wide.
    /// Returns the priced bytes/sec charged against the quota.
    pub fn try_submit(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        desc: QueryDesc,
    ) -> Result<f64, AdmissionError> {
        match self.governor.check(&desc, self.reg.committed()) {
            Ok(priced) => {
                self.submit(ctx, desc);
                Ok(priced)
            }
            Err(e) => {
                self.metrics.rejected_installs += 1;
                Err(e)
            }
        }
    }

    /// Tear a query down: multicast a best-effort [`QpItem::Cancel`] so
    /// every node (this one included, via its own multicast delivery)
    /// uninstalls the query. There is no distributed delete — peers stop
    /// renewing and probing, and the query's DHT soft state ages out
    /// within one lifetime (§3.2.3 reclamation-by-expiry). Results
    /// already collected at the initiator stay readable until drained
    /// ([`Self::drain_results`]).
    pub fn cancel(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64) {
        self.multicast(ctx, QpItem::Cancel { qid });
    }

    /// Results received so far for a query this node initiated, in
    /// arrival order; each row is decoded as it is read.
    pub fn query_results(&self, qid: u64) -> Results<'_> {
        let log = self.results.get(&qid).map_or(&[][..], Vec::as_slice);
        Results { log }
    }

    /// Hand over the results received so far for a query, decoded, in
    /// arrival order, and free them: the log holds nothing for the query
    /// until its next result. The identities of results already logged
    /// are kept, so a re-emission of a drained result (`replication > 1`)
    /// is still dropped.
    pub fn drain_results(&mut self, qid: u64) -> Vec<(Time, Tuple)> {
        let log = self.results.get_mut(&qid).map(std::mem::take);
        let log = log.unwrap_or_default().into_iter();
        log.map(|(at, row)| (at, row.decode())).collect()
    }

    // ------------------------------------------------------------------
    // Lifecycle introspection (tests, benches, storage audits)
    // ------------------------------------------------------------------

    /// Number of queries currently installed at this node.
    pub fn installed_query_count(&self) -> usize {
        self.reg.queries.len()
    }

    /// This node's [`NodeMetrics`] at `now`: registry counters plus the
    /// live gauges (installed queries, soft-state occupancy by
    /// namespace). `mailbox_depth` is a gauge of the actor runtime that
    /// the node cannot see from inside its own loop; it is reported as
    /// 0 here, and read from `Cluster::mailbox_depth` where a real
    /// mailbox exists (the simulator has a global event queue instead).
    pub fn node_metrics(&self, now: Time) -> NodeMetrics {
        NodeMetrics {
            node: self.dht.me(),
            installed_queries: self.reg.queries.len(),
            mailbox_depth: 0,
            occupancy: self.dht.store.occupancy(now),
            registry: self.metrics.clone(),
        }
    }

    /// Is a query currently installed here?
    pub fn has_query(&self, qid: u64) -> bool {
        self.reg.get(qid).is_some()
    }

    /// Outstanding requests: deferred-work timers (renewal loop
    /// included) and `get`s awaiting their answer — what the lifecycle
    /// tests pin to baseline.
    pub fn outstanding_requests(&self) -> usize {
        self.timer_actions.len() + self.get_purpose.len()
    }

    /// Rehash publications this node would renew for a query.
    pub fn rehash_pub_count(&self, qid: u64) -> usize {
        self.reg.get(qid).map_or(0, |i| i.rehash_pubs.len())
    }

    /// Storage audit: items still stored here under any of the query's
    /// derived namespaces ([`qns`]) that are live at `now` — rehash,
    /// per-stage and aggregation partials. Zero
    /// one lifetime after uninstall is the reclamation invariant.
    pub fn query_soft_state(&self, now: Time, qid: u64, max_stages: usize) -> usize {
        qns::all(qid, max_stages)
            .map(|ns| self.dht.store.ns_len_live(ns, now))
            .sum()
    }
}

/// A query's result log as its initiator holds it — each row as it
/// arrived, encoded — read as `(arrival, tuple)` pairs: every read
/// decodes the row it reads and allocates nothing else.
#[derive(Clone, Copy)]
pub struct Results<'a> {
    log: &'a [(Time, FlatRow)],
}

impl<'a> Results<'a> {
    /// How many results are logged.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Is nothing logged?
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Each result in arrival order, decoded as it is reached.
    pub fn iter(&self) -> ResultsIter<'a> {
        ResultsIter(self.log.iter())
    }

    /// Every result, decoded.
    pub fn to_vec(&self) -> Vec<(Time, Tuple)> {
        self.iter().map(|(at, row)| (*at, row)).collect()
    }
}

impl<'a> IntoIterator for Results<'a> {
    type Item = (&'a Time, Tuple);
    type IntoIter = ResultsIter<'a>;
    fn into_iter(self) -> ResultsIter<'a> {
        self.iter()
    }
}

/// [`Results::iter`]: arrival time and the row, decoded.
pub struct ResultsIter<'a>(slice::Iter<'a, (Time, FlatRow)>);

impl<'a> Iterator for ResultsIter<'a> {
    type Item = (&'a Time, Tuple);
    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(at, row)| (at, row.decode()))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
    /// Skips `n` rows without decoding them.
    fn nth(&mut self, n: usize) -> Option<Self::Item> {
        self.0.nth(n).map(|(at, row)| (at, row.decode()))
    }
}

/// Outcome of a tenant-attributed publish: how many rows entered the
/// DHT and how many the tenant's token bucket shed at ingress.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PublishReport {
    /// Rows admitted into the overlay.
    pub accepted: usize,
    /// Rows refused by backpressure (never reached the wire).
    pub shed: usize,
}

/// Typed requests a client handle may send to a running PIER node
/// actor — the replacement for the retired closure-injection API.
/// Every operation benches, tests, and co-resident apps perform on a
/// deployed node goes through one of these, executed on the actor
/// thread with a full `Ctx` (so submit/publish emit network traffic
/// exactly like any internal callback).
#[derive(Clone, Debug)]
pub enum NodeRequest {
    /// Install and start a query at this node (§3.3 query multicast).
    /// Boxed: a descriptor is large relative to every other variant.
    Submit(Box<QueryDesc>),
    /// Quota-governed submission ([`PierNode::try_submit`]): priced by
    /// the cost model, rejected with a typed [`AdmissionError`] when
    /// the owning tenant is over budget.
    TrySubmit(Box<QueryDesc>),
    /// Publish rows of a table into the DHT, resourceID = `pkey_col`,
    /// attributed to `tenant` (0 for untenanted rows) and clipped by its
    /// token bucket ([`PierNode::publish_rows_from`]); answers with the
    /// accepted/shed split.
    PublishRowsFor {
        tenant: u32,
        table: String,
        rows: Vec<Tuple>,
        pkey_col: usize,
        lifetime: Dur,
    },
    /// Register (or replace) a tenant's quota on this node.
    SetQuota {
        tenant: u32,
        quota: crate::tenant::Quota,
    },
    /// Register a base table's arrival rate for admission pricing.
    SetTableRate {
        table: String,
        rate: crate::optimizer::TableRate,
    },
    /// This node's metrics snapshot ([`PierNode::node_metrics`]).
    Metrics,
    /// Uninstall a query and reclaim its distributed state.
    Cancel(u64),
    /// How many result tuples has this node collected for a query?
    ResultCount(u64),
    /// The collected result tuples with their arrival times.
    TimedResults(u64),
    /// The collected result tuples with their arrival times, handed
    /// over and freed at the node ([`PierNode::drain_results`]); answered
    /// as [`NodeResponse::TimedResults`].
    Drain(u64),
    /// Lifecycle audit: installed queries, outstanding timers, and the
    /// per-query soft-state residual over `max_stages` join stages.
    LifecycleAudit { qids: Vec<u64>, max_stages: usize },
}

/// Typed responses to [`NodeRequest`]s.
#[derive(Clone, Debug)]
pub enum NodeResponse {
    /// Acknowledgement of a fire-and-forget style mutation.
    Done,
    Count(usize),
    TimedResults(Vec<(Time, Tuple)>),
    Audit {
        installed: usize,
        requests: usize,
        residuals: Vec<usize>,
    },
    /// Admission verdict for a [`NodeRequest::TrySubmit`]: the priced
    /// bytes/sec on success, the typed rejection otherwise.
    Admission(Result<f64, AdmissionError>),
    /// Accepted/shed split of a [`NodeRequest::PublishRowsFor`].
    Publish(PublishReport),
    /// Snapshot for a [`NodeRequest::Metrics`]. Boxed: far larger than
    /// every other variant.
    Metrics(Box<NodeMetrics>),
}

impl NodeResponse {
    /// Unwrap a [`NodeResponse::Count`]; panics on a variant mismatch
    /// (harness misuse, not a runtime condition).
    pub fn into_count(self) -> usize {
        match self {
            NodeResponse::Count(c) => c,
            other => panic!("expected Count, got {other:?}"),
        }
    }

    /// Unwrap a [`NodeResponse::TimedResults`].
    pub fn into_timed_results(self) -> Vec<(Time, Tuple)> {
        match self {
            NodeResponse::TimedResults(r) => r,
            other => panic!("expected TimedResults, got {other:?}"),
        }
    }

    /// Unwrap a [`NodeResponse::Audit`] as `(installed, requests, residuals)`.
    pub fn into_audit(self) -> (usize, usize, Vec<usize>) {
        match self {
            NodeResponse::Audit {
                installed,
                requests,
                residuals,
            } => (installed, requests, residuals),
            other => panic!("expected Audit, got {other:?}"),
        }
    }

    /// Unwrap a [`NodeResponse::Metrics`].
    pub fn into_metrics(self) -> NodeMetrics {
        match self {
            NodeResponse::Metrics(m) => *m,
            other => panic!("expected Metrics, got {other:?}"),
        }
    }
}

impl pier_simnet::Service for PierNode {
    type Req = NodeRequest;
    type Resp = NodeResponse;

    fn on_request(&mut self, ctx: &mut Ctx<PierMsg>, req: NodeRequest) -> NodeResponse {
        match req {
            NodeRequest::Submit(desc) => {
                self.submit(ctx, *desc);
                NodeResponse::Done
            }
            NodeRequest::TrySubmit(desc) => NodeResponse::Admission(self.try_submit(ctx, *desc)),
            NodeRequest::PublishRowsFor {
                tenant,
                table,
                rows,
                pkey_col,
                lifetime,
            } => NodeResponse::Publish(
                self.publish_rows_from(ctx, tenant, &table, rows, pkey_col, lifetime),
            ),
            NodeRequest::SetQuota { tenant, quota } => {
                self.governor.set_quota(tenant, quota);
                NodeResponse::Done
            }
            NodeRequest::SetTableRate { table, rate } => {
                self.governor.set_table_rate(pier_dht::ns_of(&table), rate);
                NodeResponse::Done
            }
            NodeRequest::Metrics => NodeResponse::Metrics(Box::new(self.node_metrics(ctx.now))),
            NodeRequest::Cancel(qid) => {
                self.cancel(ctx, qid);
                NodeResponse::Done
            }
            NodeRequest::ResultCount(qid) => NodeResponse::Count(self.query_results(qid).len()),
            NodeRequest::TimedResults(qid) => {
                NodeResponse::TimedResults(self.query_results(qid).to_vec())
            }
            NodeRequest::Drain(qid) => NodeResponse::TimedResults(self.drain_results(qid)),
            NodeRequest::LifecycleAudit { qids, max_stages } => NodeResponse::Audit {
                installed: self.installed_query_count(),
                requests: self.outstanding_requests(),
                residuals: qids
                    .iter()
                    .map(|&qid| self.query_soft_state(ctx.now, qid, max_stages))
                    .collect(),
            },
        }
    }
}
