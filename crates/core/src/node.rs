//! The PIER node: DHT stack + query processor in one automaton (Fig. 1).
//!
//! The query processor is push-based (§3.3): there is no iterator loop,
//! only reactions to DHT upcalls — a query multicast installs operator
//! state, `newData` callbacks drive probing, `get` completions drive
//! fetching, timers drive Bloom collection and aggregate harvests, and
//! result tuples flow directly to the initiating node.

use std::collections::BTreeMap;
use std::sync::Arc;

use pier_dht::env::DhtEnv;
use pier_dht::event::DhtEvent;
use pier_dht::msg::Entry;
use pier_dht::{Dht, DhtConfig, Ns, Rid, DHT_TICK_TOKEN};
use pier_simnet::app::{App, Ctx};
use pier_simnet::time::{Dur, Time};
use pier_simnet::NodeId;
use rand::Rng;

use crate::agg::GroupAccs;
use crate::bloom::BloomFilter;
use crate::item::{PierMsg, QpItem, Side};
use crate::metrics::{MetricsRegistry, NodeMetrics};
use crate::plan::{
    qns, AggSpec, JoinSpec, JoinStrategy, MultiJoinSpec, PipelineSchema, QueryDesc, QueryOp,
    ScanSpec,
};
use crate::tenant::{AdmissionError, TenantGovernor};
use crate::tuple::{FlatRow, Tuple};
use crate::value::Value;
use pier_simnet::Wire;

/// Adapter: the DHT sublayer speaks `DhtMsg<QpItem>`, wrapped in
/// [`PierMsg::Dht`] on the wire.
struct PierEnv<'a, 'b> {
    ctx: &'a mut Ctx<'b, PierMsg>,
}

impl<'a, 'b> DhtEnv<QpItem> for PierEnv<'a, 'b> {
    fn now(&self) -> Time {
        self.ctx.now
    }
    fn me(&self) -> NodeId {
        self.ctx.me
    }
    fn send(&mut self, to: NodeId, msg: pier_dht::msg::DhtMsg<QpItem>) {
        self.ctx.send(to, PierMsg::Dht(msg));
    }
    fn timer(&mut self, after: Dur, token: u64) {
        self.ctx.set_timer(after, token);
    }
    fn rand64(&mut self) -> u64 {
        self.ctx.rng.gen()
    }
}

/// What an outstanding DHT `get` was issued for.
enum GetPurpose {
    /// Fetch Matches: probing the right table for one left tuple
    /// (`left_iid` is the probing tuple's instanceID, kept so the
    /// result identity can name both constituents).
    FmProbe {
        qid: u64,
        left_iid: u32,
        left_row: Tuple,
    },
    /// Symmetric semi-join: fetching one side of a matched pair.
    SemiFetch { qid: u64, pair: u64, side: Side },
}

impl GetPurpose {
    /// The query this fetch belongs to (uninstall drops its fetches).
    fn qid(&self) -> u64 {
        match self {
            GetPurpose::FmProbe { qid, .. } | GetPurpose::SemiFetch { qid, .. } => *qid,
        }
    }
}

/// Deferred work bound to a timer token.
enum TimerAction {
    /// Bloom collector: OR the collected fragments and multicast.
    BloomFlush { qid: u64, side: Side },
    /// Flat aggregation: finalize locally-owned groups, emit results.
    /// Re-armed every epoch for continuous aggregation.
    AggHarvest { qid: u64 },
    /// Push locally accumulated partials into `NA` (join-aggregation
    /// halfway flush; epoch-boundary flush for continuous aggregates).
    PartialFlush { qid: u64 },
    /// Hierarchical aggregation: send merged partials to the tree
    /// parent. Re-armed every epoch for continuous aggregation.
    HierFlush { qid: u64 },
    /// Republish all soft state (the renewal loop of §3.2.3 / Fig. 6).
    Renew,
    /// Per-query renewal loop: republish one standing query's rehash
    /// soft state every [`QueryDesc::renew_every`], independent of the
    /// node-global loop. Cancelled by uninstall, so renewal stops and
    /// the query's DHT state ages out within one horizon.
    RenewQuery { qid: u64 },
}

impl TimerAction {
    /// The query a timer action belongs to, if any — uninstall cancels
    /// exactly these.
    fn qid(&self) -> Option<u64> {
        match self {
            TimerAction::BloomFlush { qid, .. }
            | TimerAction::AggHarvest { qid }
            | TimerAction::PartialFlush { qid }
            | TimerAction::HierFlush { qid }
            | TimerAction::RenewQuery { qid } => Some(*qid),
            TimerAction::Renew => None,
        }
    }
}

/// Per-query operator state at one node.
struct QueryInstance {
    /// The multicast descriptor itself, shared with every other node's
    /// instance: handlers clone the `Arc` and borrow operator specs from
    /// it instead of copying them out per event.
    desc: Arc<QueryDesc>,
    /// Schema-aware projection plan: what every rehash, stage republish,
    /// and initiator ship carries, with expressions remapped onto the
    /// pruned layouts (binary joins and pipelines alike).
    view: Option<Arc<PipelineSchema>>,
    /// OR-ed Bloom filters received per summarized side.
    filters: [Option<BloomFilter>; 2],
    /// Whether each local side has been rehashed (Bloom strategy gates
    /// rehash on the opposite filter's arrival).
    rehashed: [bool; 2],
    /// Whether this node (as collector) already multicast each OR-ed
    /// filter — set by the early count-based flush or the timer.
    bloom_flushed: [bool; 2],
    /// How often the collector deadline has been extended while waiting
    /// for slow fragments.
    bloom_waits: [u8; 2],
    /// Semi-join pair assembly.
    pairs: BTreeMap<u64, PairFetch>,
    /// Local pre-aggregation (join-agg at NQ nodes, hierarchical agg).
    local_groups: BTreeMap<Vec<Value>, GroupAccs>,
    /// Epoch-driven *windowed* aggregation: every input contribution (a
    /// base row or a join output) with the instant it ages out of the
    /// sliding window. The per-epoch flush re-aggregates the still-live
    /// contributions, so expired ones fall out of the window between
    /// epochs. Bounded by the window length.
    win_rows: Vec<(Time, Tuple)>,
    /// Epoch-driven *unwindowed* aggregation: persistent running
    /// accumulators, folded incrementally and snapshotted (not drained)
    /// at each epoch flush — O(groups) state, O(new rows) per epoch,
    /// where a contribution buffer would grow forever.
    run_groups: BTreeMap<Vec<Value>, GroupAccs>,
    /// Rehash / stage soft state this node published for the query and
    /// must renew ([`PierNode::record_rehash`]). Dropped at uninstall,
    /// so renewal stops and the state ages out within one horizon.
    rehash_pubs: Vec<SoftPub>,
    /// Contribution identities already folded into this query's
    /// aggregation state (`replication > 1` only): a probe re-run by a
    /// healed replica must not double-count a join output or base row
    /// the dead primary's probe already accumulated here.
    acc_seen: std::collections::BTreeSet<u64>,
    /// Outstanding timer tokens of this query. Uninstall cancels them
    /// all (removes their [`TimerAction`]s), so a torn-down query holds
    /// no entry in any node-level map.
    timers: Vec<u64>,
}

impl QueryInstance {
    fn new(desc: Arc<QueryDesc>, view: Option<Arc<PipelineSchema>>) -> Self {
        QueryInstance {
            desc,
            view,
            filters: [None, None],
            rehashed: [false, false],
            bloom_flushed: [false, false],
            bloom_waits: [0, 0],
            pairs: BTreeMap::new(),
            local_groups: BTreeMap::new(),
            win_rows: Vec::new(),
            run_groups: BTreeMap::new(),
            rehash_pubs: Vec::new(),
            acc_seen: std::collections::BTreeSet::new(),
            timers: Vec::new(),
        }
    }

    /// Fold one input row into the query's aggregation state. One-shot
    /// aggregates fold directly into the (drained-at-flush) group
    /// accumulators. Windowed epoch queries buffer `(valid_until, row)`
    /// so each epoch flush can re-aggregate exactly the contributions
    /// still inside the window; unwindowed epoch queries fold into
    /// persistent running accumulators snapshotted at each flush.
    fn accumulate(
        &mut self,
        replicated: bool,
        agg: &AggSpec,
        row: &Tuple,
        valid_until: Time,
        ident: u64,
    ) {
        // Under replication, anti-entropy can re-fire a probe whose
        // output this node already folded in (a healed copy re-stored
        // after a sweep): contributions are identity-deduplicated.
        // `ident == 0` (never issued) is exempt.
        if replicated && ident != 0 && !self.acc_seen.insert(ident) {
            return;
        }
        let groups = if agg.epoch.is_some() {
            if self.desc.window.is_some() {
                self.win_rows.push((valid_until, row.clone()));
                return;
            }
            &mut self.run_groups
        } else {
            &mut self.local_groups
        };
        let group: Vec<Value> = agg.group_cols.iter().map(|&c| row.get(c).clone()).collect();
        groups
            .entry(group)
            .or_insert_with(|| GroupAccs::new(&agg.aggs))
            .update(&agg.aggs, row);
    }
}

struct PairFetch {
    left: Option<Vec<Tuple>>,
    right: Option<Vec<Tuple>>,
    pkey_left: Value,
    pkey_right: Value,
    /// Identity of the mini pair that triggered the fetches — the
    /// emitted results inherit it for initiator-side dedup.
    ident: u64,
}

/// Why a namespace is interesting to a query at this node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NsRole {
    RehashNq,
    BaseLeft,
    BaseRight,
    /// Bloom collector for one side (true = right).
    BloomCollector(bool),
    /// Stage-k rehash namespace of a multi-way pipeline.
    MStage(u16),
    /// Base table `t` of a multi-way pipeline (0 = pipeline head;
    /// `t >= 1` is stage `t - 1`'s right input).
    MBase(u16),
}

/// A published item retained for renewal.
struct PubRecord {
    ns: Ns,
    rid: Rid,
    iid: u32,
    item: QpItem,
    lifetime: Dur,
}

/// Rehash / stage-namespace soft state this node published on behalf of
/// a continuous, unwindowed query — republished by the renewal loop so
/// a standing join outlives the fallback horizon (lifetime is derived
/// at renewal time from the renewal period).
struct SoftPub {
    ns: Ns,
    rid: Rid,
    iid: u32,
    item: QpItem,
}

/// The node's ledger of installed queries: every per-query structure —
/// operator state, rehash publications, timer tokens (inside each
/// [`QueryInstance`]) and the namespace routing table — lives here, so
/// install and uninstall are single entry points and a torn-down query
/// leaves nothing behind. Before this registry the same state was
/// scattered across per-qid maps on [`PierNode`] with no removal path
/// at all. Teardown is driven by [`PierNode::cancel`] (any shape) or by
/// one-shot aggregates retiring at their terminal harvest; a one-shot
/// *join* has no terminal event — its results trickle until the soft
/// state ages out — so it stays installed until explicitly cancelled.
#[derive(Default)]
struct QueryRegistry {
    queries: BTreeMap<u64, QueryInstance>,
    /// Why each namespace is interesting, and to which queries: drives
    /// `newData` dispatch; stripped per query at uninstall.
    ns_routes: BTreeMap<Ns, Vec<(u64, NsRole)>>,
}

impl QueryRegistry {
    fn install(&mut self, qid: u64, inst: QueryInstance) {
        self.queries.insert(qid, inst);
    }

    fn route(&mut self, ns: Ns, qid: u64, role: NsRole) {
        let routes = self.ns_routes.entry(ns).or_default();
        if !routes.contains(&(qid, role)) {
            routes.push((qid, role));
        }
    }

    /// Remove a query and every route pointing at it. Returns the
    /// instance so the caller can cancel its timers.
    fn uninstall(&mut self, qid: u64) -> Option<QueryInstance> {
        let inst = self.queries.remove(&qid)?;
        self.ns_routes.retain(|_, routes| {
            routes.retain(|&(q, _)| q != qid);
            !routes.is_empty()
        });
        Some(inst)
    }
}

/// One PIER node.
pub struct PierNode {
    pub dht: Dht<QpItem>,
    bootstrap: Option<NodeId>,
    /// Every installed query's state, owned in one place.
    reg: QueryRegistry,
    /// Result log at the initiator: arrival time and tuple, per query.
    /// Survives uninstall, so an initiator can tear a query down and
    /// still read what it produced.
    pub results: BTreeMap<u64, Vec<(Time, Tuple)>>,
    /// Result identities already logged, per query (`replication > 1`
    /// only — see [`PierMsg::Result`]). A healed replica re-running a
    /// probe the dead primary already answered re-sends the same
    /// logical result; the initiator drops the re-emission here.
    results_seen: BTreeMap<u64, std::collections::BTreeSet<u64>>,
    get_purpose: BTreeMap<u64, GetPurpose>,
    timer_actions: BTreeMap<u64, TimerAction>,
    /// Recently cancelled qids (bounded FIFO): a `Cancel` that overtakes
    /// its query's still-in-flight install multicast must not let the
    /// late-arriving descriptor resurrect the query and renew forever.
    cancelled: std::collections::VecDeque<u64>,
    next_token: u64,
    published: Vec<PubRecord>,
    renew_every: Option<Dur>,
    iid_seq: u32,
    /// Tenancy governance: admission control at install time and
    /// publish-side token buckets ([`crate::tenant`]). Harnesses
    /// configure quotas/rates directly (Sim) or via
    /// [`NodeRequest::SetQuota`] / [`NodeRequest::SetTableRate`].
    pub governor: TenantGovernor,
    /// Per-query counters and node-level admission/backpressure totals
    /// ([`crate::metrics`]); snapshot with [`Self::node_metrics`].
    pub metrics: MetricsRegistry,
}

/// How many cancelled qids the tombstone FIFO remembers.
const CANCEL_TOMBSTONES: usize = 512;

impl PierNode {
    /// A node that creates (`bootstrap = None`) or joins an overlay.
    pub fn new(cfg: DhtConfig, me: NodeId, bootstrap: Option<NodeId>) -> Self {
        Self::with_dht(Dht::new(cfg, me), bootstrap)
    }

    /// A node with a pre-built DHT stack (balanced bootstrap).
    pub fn with_dht(dht: Dht<QpItem>, bootstrap: Option<NodeId>) -> Self {
        PierNode {
            dht,
            bootstrap,
            reg: QueryRegistry::default(),
            results: BTreeMap::new(),
            results_seen: BTreeMap::new(),
            get_purpose: BTreeMap::new(),
            timer_actions: BTreeMap::new(),
            cancelled: std::collections::VecDeque::new(),
            next_token: 1,
            published: Vec::new(),
            renew_every: None,
            iid_seq: 0,
            governor: TenantGovernor::new(),
            metrics: MetricsRegistry::default(),
        }
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// Globally unique instanceID: publisher id in the high bits, local
    /// sequence in the low bits. Two publishers must never collide on
    /// (ns, rid, iid) or their puts would overwrite each other.
    fn fresh_iid(&mut self) -> u32 {
        self.iid_seq = (self.iid_seq + 1) & 0x3_FFFF;
        (self.dht.me() << 18) | self.iid_seq
    }

    /// Is the exactly-once machinery for churn active? Under the paper's
    /// `replication = 1` every identity below stays a fresh instanceID
    /// and no dedup set is consulted, bit-for-bit the old behavior.
    fn replicated(&self) -> bool {
        self.dht.cfg.replication > 1
    }

    /// InstanceID of a derived publication (rehash, mini, stage tuple)
    /// under replication: a deterministic function of the *source*
    /// entry's globally-unique instanceID and a salt naming the role
    /// (side / pipeline table / stage). When anti-entropy heals a base
    /// row onto a new owner, its re-rehash then lands on the SAME
    /// (ns, rid, iid) as the dead owner's publication — a renewal, not
    /// new data — so downstream probes do not fire twice. The salt keeps
    /// a self-join's two sides from colliding on one instanceID.
    fn derived_iid(&mut self, source_iid: u32, salt: u64) -> u32 {
        if self.replicated() {
            pier_dht::geom::hash2(source_iid as u64, 0x5eed_0000 | salt) as u32
        } else {
            self.fresh_iid()
        }
    }

    /// Identity of a two-constituent result: the constituent instanceIDs
    /// packed order-independently (probe direction must not matter).
    /// Exact — two results collide only if built from the same pair.
    fn pair_ident(a: u32, b: u32) -> u64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        ((lo as u64) << 32) | hi as u64
    }

    /// Results received so far for a query this node initiated.
    pub fn query_results(&self, qid: u64) -> &[(Time, Tuple)] {
        self.results.get(&qid).map_or(&[], |v| v.as_slice())
    }

    // ------------------------------------------------------------------
    // Publishing (wrappers pushing data into the DHT, §2.2 / §3.3)
    // ------------------------------------------------------------------

    /// Publish rows of a table into the DHT, resourceID = primary key.
    /// Retains the rows so the renewal loop can republish them.
    /// Unmetered (tenant 0 — backpressure never sheds the default
    /// tenant unless a quota is registered for it).
    pub fn publish_rows(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        table: &str,
        rows: Vec<Tuple>,
        pkey_col: usize,
        lifetime: Dur,
    ) {
        self.publish_rows_from(ctx, 0, table, rows, pkey_col, lifetime);
    }

    /// Tenant-attributed publish with token-bucket backpressure: each
    /// row's wire bytes are charged against `tenant`'s bucket
    /// ([`crate::tenant::TenantGovernor::try_publish`]); rows the
    /// bucket refuses are *shed* — they never enter the DHT, never
    /// join the renewal ledger, and are tallied in the node's
    /// [`MetricsRegistry`] (`shed_publishes` / `shed_bytes`). This is
    /// the slow-tenant isolation boundary: a hot tenant's flood is
    /// clipped here, at ingress, before it can occupy the overlay.
    pub fn publish_rows_from(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        tenant: u32,
        table: &str,
        rows: Vec<Tuple>,
        pkey_col: usize,
        lifetime: Dur,
    ) -> PublishReport {
        let ns = pier_dht::ns_of(table);
        let mut report = PublishReport::default();
        let mut env = PierEnv { ctx };
        let mut events = Vec::new();
        for row in rows {
            let rid = row.get(pkey_col).hash64();
            let item = QpItem::Row(FlatRow::from_tuple(&row));
            let bytes = item.wire_size();
            if !self.governor.try_publish(tenant, env.ctx.now, bytes as f64) {
                self.metrics.on_shed(bytes);
                report.shed += 1;
                continue;
            }
            let iid = self.fresh_iid();
            self.dht
                .put(&mut env, ns, rid, iid, item.clone(), lifetime, &mut events);
            self.published.push(PubRecord {
                ns,
                rid,
                iid,
                item,
                lifetime,
            });
            report.accepted += 1;
        }
        self.pump(ctx, events);
        report
    }

    /// Start the renewal loop: republish everything every `every`.
    pub fn start_renewals(&mut self, ctx: &mut Ctx<PierMsg>, every: Dur) {
        self.renew_every = Some(every);
        let token = self.token();
        self.timer_actions.insert(token, TimerAction::Renew);
        ctx.set_timer(every, token);
    }

    fn renew_all(&mut self, ctx: &mut Ctx<PierMsg>) {
        let mut env = PierEnv { ctx };
        let mut events = Vec::new();
        for rec in &self.published {
            self.dht.renew(
                &mut env,
                rec.ns,
                rec.rid,
                rec.iid,
                rec.item.clone(),
                rec.lifetime,
                &mut events,
            );
        }
        // Continuous unwindowed queries: rehash and stage-namespace soft
        // state is renewed alongside base publications, so standing
        // joins keep full recall past the fallback horizon. Renewal
        // replaces the same (ns, rid, iid) without re-firing `newData`,
        // so no probe runs twice. Queries carrying their own renewal
        // period ([`QueryDesc::renew_every`]) run a dedicated loop
        // instead ([`Self::renew_query`]) and are skipped here.
        let horizon = self.fallback_horizon();
        for (&qid, inst) in self.reg.queries.iter() {
            if inst.desc.renew_every.is_some() {
                continue;
            }
            for rec in &inst.rehash_pubs {
                self.dht.renew(
                    &mut env,
                    rec.ns,
                    rec.rid,
                    rec.iid,
                    rec.item.clone(),
                    horizon,
                    &mut events,
                );
            }
            self.metrics.on_renewal(qid, env.ctx.now);
        }
        if let Some(every) = self.renew_every {
            let token = self.token();
            self.timer_actions.insert(token, TimerAction::Renew);
            ctx.set_timer(every, token);
        }
        self.pump(ctx, events);
    }

    /// Number of rows this node has published (for harness assertions).
    pub fn published_count(&self) -> usize {
        self.published.len()
    }

    /// Soft-state horizon for rehashed tuples when no window applies:
    /// three renewal periods when the renewal loop runs (state must
    /// comfortably outlive the gap between renewals), else the legacy
    /// 600 s for nodes that never renew.
    fn fallback_horizon(&self) -> Dur {
        self.renew_every
            .map_or(Dur::from_secs(600), |every| every.saturating_mul(3))
    }

    /// Soft-state horizon of one query: three of its *own* renewal
    /// periods when the descriptor carries one ([`QueryDesc::renew_every`]
    /// — per-query renewal replaced the single node-global period), else
    /// the node-global fallback.
    fn query_horizon(&self, qid: u64) -> Dur {
        self.reg
            .queries
            .get(&qid)
            .and_then(|i| i.desc.renew_every)
            .map_or_else(|| self.fallback_horizon(), |every| every.saturating_mul(3))
    }

    /// Lifetime of rehash / stage / semi-join soft state for a query:
    /// the sliding window when set (windowed state must age out), else
    /// the renewal-derived per-query horizon.
    fn soft_lifetime(&self, qid: u64) -> Dur {
        self.reg
            .queries
            .get(&qid)
            .and_then(|i| i.desc.window)
            .unwrap_or_else(|| self.query_horizon(qid))
    }

    /// Does this query's rehash-layer state get renewed? Continuous and
    /// unwindowed only: windowed state must age out, and one-shot
    /// queries complete well inside the horizon.
    fn renews_rehash_state(&self, qid: u64) -> bool {
        self.reg
            .queries
            .get(&qid)
            .is_some_and(|i| i.desc.continuous && i.desc.window.is_none())
    }

    /// Retain a rehash-layer put for the renewal loop (see
    /// [`Self::renews_rehash_state`]).
    fn record_rehash(&mut self, qid: u64, ns: Ns, rid: Rid, iid: u32, item: &QpItem) {
        self.metrics.on_rehash(qid, item.wire_size());
        if self.renews_rehash_state(qid) {
            if let Some(inst) = self.reg.queries.get_mut(&qid) {
                inst.rehash_pubs.push(SoftPub {
                    ns,
                    rid,
                    iid,
                    item: item.clone(),
                });
            }
        }
    }

    /// Per-query renewal ([`TimerAction::RenewQuery`]): republish this
    /// standing query's rehash soft state with its own 3× horizon and
    /// re-arm. Runs even on nodes that never started the node-global
    /// loop — a descriptor's renewal period is self-contained.
    fn renew_query(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64) {
        let Some(inst) = self.reg.queries.get(&qid) else {
            return; // uninstalled between arm and fire
        };
        let Some(every) = inst.desc.renew_every else {
            return;
        };
        let horizon = every.saturating_mul(3);
        let mut env = PierEnv { ctx };
        let mut events = Vec::new();
        for rec in &inst.rehash_pubs {
            self.dht.renew(
                &mut env,
                rec.ns,
                rec.rid,
                rec.iid,
                rec.item.clone(),
                horizon,
                &mut events,
            );
        }
        self.metrics.on_renewal(qid, ctx.now);
        self.arm_timer(ctx, qid, every, TimerAction::RenewQuery { qid });
        self.pump(ctx, events);
    }

    // ------------------------------------------------------------------
    // Query submission (initiator side)
    // ------------------------------------------------------------------

    /// Submit a query: multicast the descriptor to all nodes (§3.3).
    pub fn submit(&mut self, ctx: &mut Ctx<PierMsg>, desc: QueryDesc) {
        self.results.entry(desc.qid).or_default();
        let mut env = PierEnv { ctx };
        let mut events = Vec::new();
        self.dht
            .multicast(&mut env, QpItem::Query(Arc::new(desc)), &mut events);
        self.pump(ctx, events);
    }

    /// Quota-governed submission: price the descriptor with the PR 3
    /// cost model and dry-run it against the owning tenant's
    /// [`crate::tenant::Quota`] *before* anything reaches the wire. An
    /// over-budget query is rejected with a typed
    /// [`AdmissionError`] — no multicast, no partial install — and
    /// counted in this node's `rejected_installs`. On admission the
    /// multicast proceeds; each receiving node (this one included, via
    /// its own multicast delivery) re-checks and commits the budget at
    /// install time, so the ledger converges overlay-wide.
    /// Returns the priced bytes/sec charged against the quota.
    pub fn try_submit(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        desc: QueryDesc,
    ) -> Result<f64, AdmissionError> {
        match self.governor.check(&desc) {
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
    /// already collected at the initiator stay readable.
    pub fn cancel(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64) {
        let mut env = PierEnv { ctx };
        let mut events = Vec::new();
        self.dht
            .multicast(&mut env, QpItem::Cancel { qid }, &mut events);
        self.pump(ctx, events);
    }

    /// Local uninstall: remove the query from the registry (dropping its
    /// operator state and rehash-renewal ledger, so renewal stops),
    /// cancel its outstanding timers, forget its in-flight fetches, and
    /// purge the local store's share of the query's derived namespaces.
    /// Shares held by peers that missed the cancel still age out within
    /// one [`Self::soft_lifetime`] — expiry is the reclamation fallback,
    /// not the only path. A bounded tombstone guards against a `Cancel`
    /// overtaking its query's still-in-flight install multicast.
    fn uninstall_query(&mut self, qid: u64) {
        self.governor.release(qid);
        self.metrics.on_uninstall(qid);
        if self.cancelled.len() == CANCEL_TOMBSTONES {
            self.cancelled.pop_front();
        }
        if !self.cancelled.contains(&qid) {
            self.cancelled.push_back(qid);
        }
        let stages = self
            .reg
            .queries
            .get(&qid)
            .and_then(|i| i.desc.op.multi_join())
            .map_or(0, |m| m.stages.len());
        if let Some(inst) = self.reg.uninstall(qid) {
            for token in inst.timers {
                self.timer_actions.remove(&token);
            }
            let mut nss = vec![
                qns::rehash(qid),
                qns::agg(qid),
                qns::bloom(qid, false),
                qns::bloom(qid, true),
            ];
            nss.extend((0..stages).map(|k| qns::stage(qid, k)));
            for ns in nss {
                self.dht.store.remove_ns(ns);
            }
        }
        self.get_purpose.retain(|_, p| p.qid() != qid);
    }

    /// One-shot queries complete at their terminal harvest; retire them
    /// so `timer_actions`, the registry, and the routing table return to
    /// baseline instead of growing for the process lifetime.
    fn retire_if_one_shot(&mut self, qid: u64) {
        if self
            .reg
            .queries
            .get(&qid)
            .is_some_and(|i| !i.desc.continuous)
        {
            self.uninstall_query(qid);
        }
    }

    /// Arm a timer owned by one query: the token is recorded on the
    /// instance so uninstall can cancel it.
    fn arm_timer(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, after: Dur, action: TimerAction) {
        let token = self.token();
        self.timer_actions.insert(token, action);
        if let Some(inst) = self.reg.queries.get_mut(&qid) {
            inst.timers.push(token);
        }
        ctx.set_timer(after, token);
    }

    /// Forget a fired token on its owning query (the timer no longer
    /// needs cancelling at uninstall).
    fn release_timer(&mut self, qid: u64, token: u64) {
        if let Some(inst) = self.reg.queries.get_mut(&qid) {
            inst.timers.retain(|&t| t != token);
        }
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
    /// namespace). `mailbox_depth` is a *transport* gauge the node
    /// cannot see from inside its own loop; it is reported as 0 here
    /// and overlaid by the harness where a real mailbox exists
    /// (`Cluster::mailbox_depth` — the simulators have a global event
    /// queue instead and legitimately report 0).
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
        self.reg.queries.contains_key(&qid)
    }

    /// Outstanding deferred-work timers (renewal loop included) — the
    /// map the one-shot-timer regression pins to baseline.
    pub fn timer_action_count(&self) -> usize {
        self.timer_actions.len()
    }

    /// Rehash publications this node would renew for a query.
    pub fn rehash_pub_count(&self, qid: u64) -> usize {
        self.reg
            .queries
            .get(&qid)
            .map_or(0, |i| i.rehash_pubs.len())
    }

    /// Storage audit: items still stored here under any of the query's
    /// derived namespaces ([`qns`]) that are live at `now` — rehash,
    /// per-stage, both Bloom collectors, and aggregation partials. Zero
    /// one lifetime after uninstall is the reclamation invariant.
    pub fn query_soft_state(&self, now: Time, qid: u64, max_stages: usize) -> usize {
        let mut nss = vec![
            qns::rehash(qid),
            qns::agg(qid),
            qns::bloom(qid, false),
            qns::bloom(qid, true),
        ];
        nss.extend((0..max_stages).map(|k| qns::stage(qid, k)));
        nss.iter()
            .map(|&ns| self.dht.store.ns_len_live(ns, now))
            .sum()
    }

    // ------------------------------------------------------------------
    // Event pump
    // ------------------------------------------------------------------

    fn pump(&mut self, ctx: &mut Ctx<PierMsg>, events: Vec<DhtEvent<QpItem>>) {
        for ev in events {
            match ev {
                DhtEvent::Multicast { origin: _, payload } => match payload {
                    QpItem::Query(desc) => self.install_query(ctx, desc),
                    QpItem::Cancel { qid } => self.uninstall_query(qid),
                    QpItem::Bloom { qid, side, filter } => {
                        self.on_bloom_filter(ctx, qid, side, filter)
                    }
                    _ => {}
                },
                DhtEvent::NewData { entry } => self.on_new_data(ctx, entry),
                DhtEvent::GetResult { token, items } => self.on_get_result(ctx, token, items),
                DhtEvent::Joined | DhtEvent::LocationMapChanged => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Query installation
    // ------------------------------------------------------------------

    fn install_query(&mut self, ctx: &mut Ctx<PierMsg>, desc: Arc<QueryDesc>) {
        let qid = desc.qid;
        if self.reg.queries.contains_key(&qid) || self.cancelled.contains(&qid) {
            // Duplicate multicast delivery, or a descriptor whose Cancel
            // (or one-shot retirement) already happened here — a late
            // install must not resurrect a torn-down query.
            return;
        }
        // Admission control: commit the query's priced budget against
        // its tenant's quota, or refuse the install outright. Every node
        // runs the same check on the same descriptor against the same
        // quota table, so the overlay-wide verdict is uniform; the
        // initiator's `try_submit` dry-run means a rejection here is
        // only reachable when quotas changed mid-flight or the submitter
        // bypassed governance with a raw `submit`.
        let priced = match self.governor.admit(&desc) {
            Ok(priced) => priced,
            Err(_) => {
                self.metrics.rejected_installs += 1;
                return;
            }
        };
        self.metrics.on_install(qid, desc.tenant, priced, ctx.now);
        let view = match &desc.op {
            QueryOp::Join(j) | QueryOp::JoinAgg { join: j, .. } => {
                Some(Arc::new(PipelineSchema::binary(j, desc.prune)))
            }
            QueryOp::MultiJoin(m) | QueryOp::MultiJoinAgg { join: m, .. } => {
                Some(Arc::new(PipelineSchema::build(m, desc.prune)))
            }
            _ => None,
        };
        self.reg
            .install(qid, QueryInstance::new(Arc::clone(&desc), view));
        // A standing unwindowed query carrying its own renewal period
        // runs a per-query renewal loop from install on — no node-global
        // `start_renewals` required.
        if desc.continuous && desc.window.is_none() {
            if let Some(every) = desc.renew_every {
                self.arm_timer(ctx, qid, every, TimerAction::RenewQuery { qid });
            }
        }

        match &desc.op {
            QueryOp::Scan { scan, project } => {
                self.route_ns(scan.ns, qid, NsRole::BaseLeft);
                let mut outs = Vec::new();
                for_each_live(&self.dht, scan, ctx.now, |iid, _, row| {
                    let out = Tuple::new(project.iter().map(|e| e.eval(row)).collect());
                    outs.push((iid, out));
                });
                for (iid, out) in outs {
                    self.emit_result(ctx, qid, desc.initiator, iid as u64, out);
                }
            }
            QueryOp::Join(j) | QueryOp::JoinAgg { join: j, .. } => {
                self.route_ns(qns::rehash(qid), qid, NsRole::RehashNq);
                self.route_ns(j.left.ns, qid, NsRole::BaseLeft);
                self.route_ns(j.right.ns, qid, NsRole::BaseRight);
                // Snapshot rehash state that raced ahead of the query
                // multicast, *before* our own rehash adds to it.
                let pre_installed: Vec<Entry<QpItem>> =
                    self.dht.store.lscan(qns::rehash(qid)).cloned().collect();
                match j.strategy {
                    JoinStrategy::SymmetricHash => {
                        self.rehash_side(ctx, qid, Side::Left, None);
                        self.rehash_side(ctx, qid, Side::Right, None);
                    }
                    JoinStrategy::FetchMatches => self.fm_start(ctx, qid),
                    JoinStrategy::SymmetricSemiJoin => {
                        self.semi_rehash(ctx, qid, Side::Left);
                        self.semi_rehash(ctx, qid, Side::Right);
                    }
                    JoinStrategy::BloomFilter => self.bloom_start(ctx, qid, j),
                }
                // Replay rehash state that arrived before installation.
                self.replay_rehash_ns(ctx, qid, pre_installed);
                if let QueryOp::JoinAgg { agg, .. } = &desc.op {
                    self.schedule_agg_timers(ctx, qid, agg, true);
                }
            }
            QueryOp::MultiJoin(m) | QueryOp::MultiJoinAgg { join: m, .. } => {
                for k in 0..m.stages.len() {
                    self.route_ns(qns::stage(qid, k), qid, NsRole::MStage(k as u16));
                }
                self.route_ns(m.base.ns, qid, NsRole::MBase(0));
                for (k, st) in m.stages.iter().enumerate() {
                    self.route_ns(st.right.ns, qid, NsRole::MBase(k as u16 + 1));
                }
                // Snapshot per-stage rehash state that raced ahead of the
                // query multicast, *before* our own rehash adds to it.
                let snapshots: Vec<Vec<Entry<QpItem>>> = (0..m.stages.len())
                    .map(|k| self.dht.store.lscan(qns::stage(qid, k)).cloned().collect())
                    .collect();
                for t in 0..m.n_tables() {
                    self.mj_rehash_table(ctx, qid, m, t);
                }
                // Replay stage state that arrived before installation.
                for (k, snap) in snapshots.into_iter().enumerate() {
                    self.mj_replay(ctx, qid, m, k, snap);
                }
                if let QueryOp::MultiJoinAgg { agg, .. } = &desc.op {
                    self.schedule_agg_timers(ctx, qid, agg, true);
                }
            }
            QueryOp::Agg { scan, agg } => {
                self.route_ns(scan.ns, qid, NsRole::BaseLeft);
                let now = ctx.now;
                let window = desc.window;
                let replicated = self.replicated();
                if let Some(inst) = self.reg.queries.get_mut(&qid) {
                    for_each_live(&self.dht, scan, now, |iid, expires, row| {
                        // A windowed contribution ages out `window` after
                        // it is first seen, and never outlives its base row.
                        let valid = match window {
                            Some(w) => expires.min(now + w),
                            None => Time::MAX,
                        };
                        inst.accumulate(replicated, agg, row, valid, iid as u64);
                    });
                }
                if agg.hierarchical {
                    self.schedule_hier_flush(ctx, qid, agg);
                } else {
                    if agg.epoch.is_none() {
                        // Epoch queries flush on their timer instead.
                        self.flush_partials(ctx, qid, agg);
                    }
                    self.schedule_agg_timers(ctx, qid, agg, false);
                }
            }
        }
    }

    fn route_ns(&mut self, ns: Ns, qid: u64, role: NsRole) {
        self.reg.route(ns, qid, role);
    }

    /// The installed descriptor of a query — the very allocation its
    /// submitter multicast, shared by every node's instance. Handlers
    /// hold this clone (a refcount bump) and borrow the operator specs
    /// from it, which keeps `self` free for the `&mut` calls the
    /// dataflow makes.
    pub fn query_desc(&self, qid: u64) -> Option<Arc<QueryDesc>> {
        self.reg.queries.get(&qid).map(|i| Arc::clone(&i.desc))
    }

    /// Rehash resourceID for a join value: either the value hash, or one
    /// of `m` buckets when the computation is confined to m nodes.
    fn rehash_rid(join: &Value, computation_nodes: Option<u32>) -> Rid {
        let h = join.hash64();
        match computation_nodes {
            Some(m) => h % m.max(1) as u64,
            None => h,
        }
    }

    // ------------------------------------------------------------------
    // Symmetric hash join (+ the rehash half of Bloom join)
    // ------------------------------------------------------------------

    /// Rehash the local fragment of one side into NQ, optionally gated
    /// by a Bloom filter over the opposite table's keys.
    fn rehash_side(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        side: Side,
        filter: Option<&BloomFilter>,
    ) {
        let Some(inst) = self.reg.queries.get_mut(&qid) else {
            return;
        };
        let desc = Arc::clone(&inst.desc);
        let Some(j) = desc.op.join() else { return };
        if inst.rehashed[side as usize] {
            return;
        }
        inst.rehashed[side as usize] = true;
        let view = inst.view.clone().expect("join view");
        let stage = &view.stages[0];
        let (scan, keep, join_idx) = match side {
            Side::Left => (&j.left, &view.keep_base, stage.join_idx_left),
            Side::Right => (&j.right, &stage.keep_right, stage.join_idx_right),
        };
        let nq = qns::rehash(qid);
        let lifetime = self.soft_lifetime(qid);
        let join_col = scan.join_col.unwrap();
        // The store cannot be scanned and put into at once: pass one
        // builds the items, `put_rehashed` names and puts them.
        let mut puts: Vec<(Rid, u32, QpItem)> = Vec::new();
        for_each_live(&self.dht, scan, ctx.now, |base_iid, _, row| {
            let join = row.get(join_col);
            if filter.is_some_and(|f| !f.contains(join.hash64())) {
                return;
            }
            let projected = row.project(keep);
            debug_assert_eq!(projected.get(join_idx), join);
            let rid = Self::rehash_rid(join, j.computation_nodes);
            let item = QpItem::Tagged {
                qid,
                side,
                join: join.clone(),
                row: FlatRow::from_tuple(&projected),
            };
            puts.push((rid, base_iid, item));
        });
        self.put_rehashed(ctx, qid, nq, side as u64, lifetime, puts);
    }

    /// Second pass of a bulk rehash: give each item the scan built its
    /// instanceID — derived from the *base* row's, which is what `puts`
    /// carries — and put it into `ns`, in scan order.
    fn put_rehashed(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        ns: Ns,
        salt: u64,
        lifetime: Dur,
        puts: Vec<(Rid, u32, QpItem)>,
    ) {
        let mut env = PierEnv { ctx };
        let mut events = Vec::new();
        for (rid, base_iid, item) in puts {
            let iid = self.derived_iid(base_iid, salt);
            self.record_rehash(qid, ns, rid, iid, &item);
            self.dht
                .put(&mut env, ns, rid, iid, item, lifetime, &mut events);
        }
        self.pump(ctx, events);
    }

    /// Probe arriving NQ state against the opposite side (§4.1): "each
    /// node registers ... a newData callback; when a tuple arrives, a get
    /// is issued to find matches in the other table; this get is expected
    /// to stay local."
    fn probe_nq(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, entry: &Entry<QpItem>) {
        match &entry.val {
            QpItem::Tagged {
                side, join, row, ..
            } => {
                let (side, join, row) = (*side, join.clone(), row.decode());
                self.probe_tagged(
                    ctx,
                    qid,
                    entry.ns,
                    entry.rid,
                    entry.iid,
                    entry.expires,
                    side,
                    &join,
                    &row,
                );
            }
            QpItem::Mini {
                side, pkey, join, ..
            } => {
                let (side, pkey, join) = (*side, pkey.clone(), join.clone());
                self.probe_mini(ctx, qid, entry.ns, entry.rid, entry.iid, side, &pkey, &join);
            }
            _ => {}
        }
    }

    #[allow(clippy::too_many_arguments)] // one newData probe: storage coords + tagged payload
    fn probe_tagged(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        ns: Ns,
        rid: Rid,
        my_iid: u32,
        my_expires: Time,
        side: Side,
        join: &Value,
        row: &Tuple,
    ) {
        let Some(inst) = self.reg.queries.get(&qid) else {
            return;
        };
        let view = inst.view.clone().expect("join view");
        let desc = Arc::clone(&inst.desc);
        let agg = match &desc.op {
            QueryOp::JoinAgg { agg, .. } => Some(agg),
            _ => None,
        };
        let now = ctx.now;
        // Local probe of the opposite hash-table partition. The same
        // shortest-lived-constituent rule as `mj_probe` applies: a
        // partner whose window state already aged out (but is not yet
        // swept — the sweep runs on the maintenance tick) must not join.
        let matches: Vec<(u32, Tuple, Time)> = self
            .dht
            .store
            .get(ns, rid)
            .iter()
            .filter(|e| e.iid != my_iid && e.expires > now)
            .filter_map(|e| match &e.val {
                QpItem::Tagged {
                    side: s,
                    join: jv,
                    row: r,
                    ..
                } if *s == side.opposite() && jv == join => Some((e.iid, r.decode(), e.expires)),
                _ => None,
            })
            .collect();
        for (other_iid, other, other_expires) in matches {
            let joined = match side {
                Side::Left => row.concat(&other),
                Side::Right => other.concat(row),
            };
            let stage = &view.stages[0];
            if stage.pred.as_ref().is_none_or(|p| p.matches(&joined)) {
                // The initiator ship goes through the projected schema:
                // emit the surviving columns, then evaluate the output
                // expressions over that pruned basis.
                let shipped = joined.project(&stage.emit);
                let out = Tuple::new(view.project.iter().map(|e| e.eval(&shipped)).collect());
                let ident = Self::pair_ident(my_iid, other_iid);
                if let Some(a) = agg {
                    let valid = self.window_valid(qid, my_expires.min(other_expires));
                    self.accumulate(qid, a, &out, valid, ident);
                } else {
                    self.emit_result(ctx, qid, desc.initiator, ident, out);
                }
            }
        }
    }

    /// Window validity of an aggregate contribution: joined tuples live
    /// only as long as their shortest-lived constituent when the query
    /// is windowed; unwindowed continuous aggregates are running totals.
    fn window_valid(&self, qid: u64, until: Time) -> Time {
        match self.reg.queries.get(&qid).and_then(|i| i.desc.window) {
            Some(_) => until,
            None => Time::MAX,
        }
    }

    // ------------------------------------------------------------------
    // Multi-way join pipelines (left-deep chains of §4.1 stages)
    // ------------------------------------------------------------------

    /// [`Self::derived_iid`] salt of pipeline table `t` — the bulk and
    /// the incremental rehash of the same base row must coincide.
    fn mj_salt(t: usize) -> u64 {
        0x100 + t as u64
    }

    /// Which stage namespace table `t` feeds, on which side, and via
    /// which of its own columns.
    fn mj_table_role(m: &MultiJoinSpec, t: usize) -> (&ScanSpec, usize, Side, usize) {
        if t == 0 {
            (&m.base, 0, Side::Left, m.stages[0].left_col)
        } else {
            let st = &m.stages[t - 1];
            let col = st.right.join_col.expect("stage join col");
            (&st.right, t - 1, Side::Right, col)
        }
    }

    /// Rehash this node's local fragment of pipeline table `t` into its
    /// stage namespace (the bulk, install-time analogue of
    /// [`Self::mj_rehash_one`]), projected onto the stage schema: only
    /// the columns some later stage or the final SELECT reads ship.
    fn mj_rehash_table(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, m: &MultiJoinSpec, t: usize) {
        let Some(view) = self.reg.queries.get(&qid).and_then(|i| i.view.clone()) else {
            return;
        };
        let (scan, stage_k, side, join_col) = Self::mj_table_role(m, t);
        let keep = view.keep_for_table(t);
        let ns = qns::stage(qid, stage_k);
        let lifetime = self.soft_lifetime(qid);
        // Two passes, as in `rehash_side`.
        let mut puts: Vec<(Rid, u32, QpItem)> = Vec::new();
        for_each_live(&self.dht, scan, ctx.now, |base_iid, _, row| {
            let join = row.get(join_col);
            let item = QpItem::Tagged {
                qid,
                side,
                join: join.clone(),
                row: FlatRow::from_tuple(&row.project(keep)),
            };
            puts.push((join.hash64(), base_iid, item));
        });
        self.put_rehashed(ctx, qid, ns, Self::mj_salt(t), lifetime, puts);
    }

    /// Continuous pipelines: one newly published base tuple of table `t`
    /// flows into its stage namespace.
    fn mj_rehash_one(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        m: &MultiJoinSpec,
        t: usize,
        base_iid: u32,
        row: Tuple,
    ) {
        let Some(view) = self.reg.queries.get(&qid).and_then(|i| i.view.clone()) else {
            return;
        };
        let (scan, stage_k, side, join_col) = Self::mj_table_role(m, t);
        if !scan.pred.as_ref().is_none_or(|p| p.matches(&row)) {
            return;
        }
        let join = row.get(join_col).clone();
        let ns = qns::stage(qid, stage_k);
        let lifetime = self.soft_lifetime(qid);
        let iid = self.derived_iid(base_iid, Self::mj_salt(t));
        let item = QpItem::Tagged {
            qid,
            side,
            join: join.clone(),
            row: FlatRow::from_tuple(&row.project(view.keep_for_table(t))),
        };
        let rid = join.hash64();
        self.record_rehash(qid, ns, rid, iid, &item);
        let mut env = PierEnv { ctx };
        let mut events = Vec::new();
        self.dht
            .put(&mut env, ns, rid, iid, item, lifetime, &mut events);
        self.pump(ctx, events);
    }

    /// Probe an arriving stage-k entry against the opposite side — the
    /// §4.1 newData callback, once per pipeline stage.
    fn mj_probe(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, k: usize, entry: &Entry<QpItem>) {
        let QpItem::Tagged {
            side, join, row, ..
        } = &entry.val
        else {
            return;
        };
        let (side, join, row) = (*side, join.clone(), row.decode());
        let Some(inst) = self.reg.queries.get(&qid) else {
            return;
        };
        let desc = Arc::clone(&inst.desc);
        let (Some(m), Some(view)) = (desc.op.multi_join(), inst.view.clone()) else {
            return;
        };
        let matches: Vec<(u32, Tuple, Time)> = self
            .dht
            .store
            .get(entry.ns, entry.rid)
            .iter()
            .filter(|e| e.iid != entry.iid)
            .filter_map(|e| match &e.val {
                QpItem::Tagged {
                    side: s,
                    join: jv,
                    row: r,
                    ..
                } if *s == side.opposite() && jv == &join => Some((e.iid, r.decode(), e.expires)),
                _ => None,
            })
            .collect();
        for (other_iid, other, other_expires) in matches {
            // The accumulated intermediate is always the left operand.
            // Both operands are already projected onto the stage schema.
            let joined = match side {
                Side::Left => row.concat(&other),
                Side::Right => other.concat(&row),
            };
            let stage = &view.stages[k];
            if stage.pred.as_ref().is_none_or(|p| p.matches(&joined)) {
                // A joined tuple lives only as long as its shortest-lived
                // constituent: restarting the window here would let late
                // arrivals join state that already aged out.
                let lifetime = entry.expires.min(other_expires).since(ctx.now);
                self.mj_advance(
                    ctx,
                    qid,
                    m,
                    &view,
                    k,
                    joined.project(&stage.emit),
                    lifetime,
                    Self::pair_ident(entry.iid, other_iid),
                );
            }
        }
    }

    /// A stage-k match (already projected onto the stage's outgoing
    /// schema): feed the next stage, or finalize. `lifetime` is the
    /// remaining life of the shortest-lived constituent, so windowed
    /// pipelines never resurrect aged-out state downstream. `ident`
    /// names the match by its constituent instanceIDs: under
    /// replication the republished intermediate's iid and the final
    /// result's dedup identity both derive from it, so a probe re-run
    /// by a healed stage replica renews rather than duplicates.
    #[allow(clippy::too_many_arguments)]
    fn mj_advance(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        m: &MultiJoinSpec,
        view: &PipelineSchema,
        k: usize,
        row: Tuple,
        lifetime: Dur,
        ident: u64,
    ) {
        if lifetime == Dur::ZERO {
            // A constituent already aged out (expired-but-unswept soft
            // state): neither republish nor emit — a last-stage match
            // against expired state would be a phantom result.
            return;
        }
        if k + 1 < m.stages.len() {
            // Publish the intermediate as soft state in the next stage's
            // namespace, keyed by its join value there.
            let join = row.get(view.stages[k + 1].join_idx_left).clone();
            let iid = if self.replicated() {
                pier_dht::geom::hash2(ident, 0x6d6a_0000 | k as u64) as u32
            } else {
                self.fresh_iid()
            };
            let item = QpItem::Tagged {
                qid,
                side: Side::Left,
                join: join.clone(),
                row: FlatRow::from_tuple(&row),
            };
            let ns = qns::stage(qid, k + 1);
            let rid = join.hash64();
            self.record_rehash(qid, ns, rid, iid, &item);
            let mut env = PierEnv { ctx };
            let mut events = Vec::new();
            self.dht
                .put(&mut env, ns, rid, iid, item, lifetime, &mut events);
            self.pump(ctx, events);
        } else {
            let Some(desc) = self.query_desc(qid) else {
                return;
            };
            let out = Tuple::new(view.project.iter().map(|e| e.eval(&row)).collect());
            match &desc.op {
                QueryOp::MultiJoinAgg { agg, .. } => {
                    let valid = self.window_valid(qid, ctx.now + lifetime);
                    self.accumulate(qid, agg, &out, valid, ident);
                }
                _ => self.emit_result(ctx, qid, desc.initiator, ident, out),
            }
        }
    }

    /// Probe stage-k entries stored before this node learned about the
    /// query, pairwise against predecessors only (cf.
    /// [`Self::replay_rehash_ns`]).
    fn mj_replay(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        m: &MultiJoinSpec,
        k: usize,
        mut entries: Vec<Entry<QpItem>>,
    ) {
        if entries.is_empty() {
            return;
        }
        let Some(view) = self.reg.queries.get(&qid).and_then(|i| i.view.clone()) else {
            return;
        };
        entries.sort_by_key(|e| (e.rid, e.iid));
        for i in 0..entries.len() {
            for j in 0..i {
                if entries[i].rid != entries[j].rid {
                    continue;
                }
                let (
                    QpItem::Tagged {
                        side: sa,
                        join: ja,
                        row: ra,
                        ..
                    },
                    QpItem::Tagged {
                        side: sb,
                        join: jb,
                        row: rb,
                        ..
                    },
                ) = (&entries[i].val, &entries[j].val)
                else {
                    continue;
                };
                if sa == sb || ja != jb {
                    continue;
                }
                let (l, r) = if *sa == Side::Left {
                    (ra, rb)
                } else {
                    (rb, ra)
                };
                let joined = l.decode().concat(&r.decode());
                let stage = &view.stages[k];
                if stage.pred.as_ref().is_none_or(|p| p.matches(&joined)) {
                    let lifetime = entries[i].expires.min(entries[j].expires).since(ctx.now);
                    let ident = Self::pair_ident(entries[i].iid, entries[j].iid);
                    self.mj_advance(
                        ctx,
                        qid,
                        m,
                        &view,
                        k,
                        joined.project(&stage.emit),
                        lifetime,
                        ident,
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Fetch Matches (§4.1)
    // ------------------------------------------------------------------

    fn fm_start(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64) {
        let Some(desc) = self.query_desc(qid) else {
            return;
        };
        let Some(j) = desc.op.join() else { return };
        // The right table must already be hashed on the join attribute.
        debug_assert_eq!(
            j.right.join_col,
            Some(j.right.pkey_col),
            "Fetch Matches requires the fetched table hashed on the join key"
        );
        // Each probing row is kept until its fetch completes.
        let mut rows = Vec::new();
        for_each_live(&self.dht, &j.left, ctx.now, |iid, _, row| {
            rows.push((iid, row.clone()));
        });
        let mut work = Vec::new();
        for (left_iid, left_row) in rows {
            let join = left_row.get(j.left.join_col.unwrap()).clone();
            let token = self.token();
            self.get_purpose.insert(
                token,
                GetPurpose::FmProbe {
                    qid,
                    left_iid,
                    left_row,
                },
            );
            work.push((j.right.ns, join.hash64(), token));
        }
        let mut env = PierEnv { ctx };
        let mut events = Vec::new();
        for (ns, rid, token) in work {
            self.dht.get(&mut env, ns, rid, token, &mut events);
        }
        self.pump(ctx, events);
    }

    fn fm_complete(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        left_iid: u32,
        left_row: Tuple,
        items: Vec<Entry<QpItem>>,
    ) {
        let Some(desc) = self.query_desc(qid) else {
            return;
        };
        let Some(j) = desc.op.join() else { return };
        let initiator = desc.initiator;
        let join = left_row.get(j.left.join_col.unwrap()).clone();
        for e in items {
            let QpItem::Row(right_flat) = &e.val else {
                continue;
            };
            let right_row = &right_flat.decode();
            // "Selections on non-DHT attributes cannot be pushed into the
            // DHT": the right-side predicate is evaluated here, after the
            // fetch (§4.1).
            if right_row.get(j.right.join_col.unwrap()) != &join {
                continue; // resourceID hash collision
            }
            if !j.right.pred.as_ref().is_none_or(|p| p.matches(right_row)) {
                continue;
            }
            let joined = left_row.concat(right_row);
            if j.post_pred.as_ref().is_none_or(|p| p.matches(&joined)) {
                let out = Tuple::new(j.project.iter().map(|e| e.eval(&joined)).collect());
                let ident = Self::pair_ident(left_iid, e.iid);
                self.emit_result(ctx, qid, initiator, ident, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Symmetric semi-join rewrite (§4.2)
    // ------------------------------------------------------------------

    fn semi_rehash(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, side: Side) {
        let Some(inst) = self.reg.queries.get_mut(&qid) else {
            return;
        };
        let desc = Arc::clone(&inst.desc);
        let Some(j) = desc.op.join() else { return };
        if inst.rehashed[side as usize] {
            return;
        }
        inst.rehashed[side as usize] = true;
        let scan = match side {
            Side::Left => &j.left,
            Side::Right => &j.right,
        };
        let nq = qns::rehash(qid);
        let lifetime = self.soft_lifetime(qid);
        let join_col = scan.join_col.unwrap();
        let pkey_col = scan.pkey_col;
        // Two passes, as in `rehash_side`.
        let mut puts: Vec<(Rid, u32, QpItem)> = Vec::new();
        for_each_live(&self.dht, scan, ctx.now, |base_iid, _, row| {
            let join = row.get(join_col).clone();
            let pkey = row.get(pkey_col).clone();
            let rid = Self::rehash_rid(&join, j.computation_nodes);
            let item = QpItem::Mini {
                qid,
                side,
                pkey,
                join,
            };
            puts.push((rid, base_iid, item));
        });
        self.put_rehashed(ctx, qid, nq, side as u64, lifetime, puts);
    }

    #[allow(clippy::too_many_arguments)]
    fn probe_mini(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        ns: Ns,
        rid: Rid,
        my_iid: u32,
        side: Side,
        pkey: &Value,
        join: &Value,
    ) {
        let is_join = |i: &QueryInstance| i.desc.op.join().is_some();
        if !self.reg.queries.get(&qid).is_some_and(is_join) {
            return;
        }
        // Find live opposite-side minis with the same join value
        // (expired-but-unswept projections must not pair, same as
        // `probe_tagged`).
        let now = ctx.now;
        let partners: Vec<(u32, Value)> = self
            .dht
            .store
            .get(ns, rid)
            .iter()
            .filter(|e| e.iid != my_iid && e.expires > now)
            .filter_map(|e| match &e.val {
                QpItem::Mini {
                    side: s,
                    pkey: pk,
                    join: jv,
                    ..
                } if *s == side.opposite() && jv == join => Some((e.iid, pk.clone())),
                _ => None,
            })
            .collect();
        if partners.is_empty() {
            return;
        }
        for (partner_iid, partner) in partners {
            let (pk_l, pk_r) = match side {
                Side::Left => (pkey.clone(), partner),
                Side::Right => (partner, pkey.clone()),
            };
            let ident = Self::pair_ident(my_iid, partner_iid);
            self.semi_pair(ctx, qid, pk_l, pk_r, ident);
        }
    }

    /// Issue the two parallel full-tuple fetches for a matched mini pair
    /// ("we issue the two joins' fetches in parallel since we know both
    /// fetches will succeed", §4.2).
    fn semi_pair(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        pk_l: Value,
        pk_r: Value,
        ident: u64,
    ) {
        let Some(desc) = self.query_desc(qid) else {
            return;
        };
        let Some(j) = desc.op.join() else { return };
        let pair = self.token();
        let Some(inst) = self.reg.queries.get_mut(&qid) else {
            return;
        };
        // A healed replica can re-run the mini probe a dead primary
        // already answered: the re-probed pair carries the same
        // identity, so skipping it here saves the two full-tuple
        // fetches, not just the duplicate emission.
        if self.dht.cfg.replication > 1 && !inst.acc_seen.insert(ident) {
            return;
        }
        inst.pairs.insert(
            pair,
            PairFetch {
                left: None,
                right: None,
                pkey_left: pk_l.clone(),
                pkey_right: pk_r.clone(),
                ident,
            },
        );
        let tl = self.token();
        self.get_purpose.insert(
            tl,
            GetPurpose::SemiFetch {
                qid,
                pair,
                side: Side::Left,
            },
        );
        let tr = self.token();
        self.get_purpose.insert(
            tr,
            GetPurpose::SemiFetch {
                qid,
                pair,
                side: Side::Right,
            },
        );
        let mut env = PierEnv { ctx };
        let mut events = Vec::new();
        self.dht
            .get(&mut env, j.left.ns, pk_l.hash64(), tl, &mut events);
        self.dht
            .get(&mut env, j.right.ns, pk_r.hash64(), tr, &mut events);
        self.pump(ctx, events);
    }

    fn semi_complete(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        pair: u64,
        side: Side,
        items: Vec<Entry<QpItem>>,
    ) {
        let Some(inst) = self.reg.queries.get_mut(&qid) else {
            return;
        };
        let desc = Arc::clone(&inst.desc);
        let Some(j) = desc.op.join() else { return };
        let Some(p) = inst.pairs.get_mut(&pair) else {
            return;
        };
        let rows: Vec<Tuple> = items
            .iter()
            .filter_map(|e| match &e.val {
                QpItem::Row(t) => Some(t.decode()),
                _ => None,
            })
            .collect();
        match side {
            Side::Left => p.left = Some(rows),
            Side::Right => p.right = Some(rows),
        }
        if p.left.is_none() || p.right.is_none() {
            return;
        }
        let p = inst.pairs.remove(&pair).unwrap();
        let initiator = desc.initiator;
        let lefts: Vec<Tuple> = p
            .left
            .unwrap()
            .into_iter()
            .filter(|t| t.get(j.left.pkey_col) == &p.pkey_left)
            .collect();
        let rights: Vec<Tuple> = p
            .right
            .unwrap()
            .into_iter()
            .filter(|t| t.get(j.right.pkey_col) == &p.pkey_right)
            .collect();
        for (li, l) in lefts.iter().enumerate() {
            for (ri, r) in rights.iter().enumerate() {
                let joined = l.concat(r);
                if j.post_pred.as_ref().is_none_or(|pp| pp.matches(&joined)) {
                    let out = Tuple::new(j.project.iter().map(|e| e.eval(&joined)).collect());
                    // One mini pair normally yields one row per side
                    // (resourceID = primary key); the index mix only
                    // disambiguates pkey-collision multiplicities.
                    let ident = pier_dht::geom::hash2(p.ident, ((li as u64) << 32) | ri as u64);
                    self.emit_result(ctx, qid, initiator, ident, out);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Bloom-filter rewrite (§4.2)
    // ------------------------------------------------------------------

    fn bloom_start(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, j: &JoinSpec) {
        // Publish a filter fragment per local side. Fragments are
        // collector metadata, not window or renewal state: whatever the
        // query's horizon, they must outlive the collector's flush
        // deadline — including every congestion extension (≤ 60 ×
        // bloom_wait) — so a slow collector never ORs an
        // already-expired fragment set.
        let lifetime = self.query_horizon(qid).max(j.bloom_wait.saturating_mul(64));
        let mut work = Vec::new();
        for (side, scan) in [(Side::Left, &j.left), (Side::Right, &j.right)] {
            let mut filter = BloomFilter::new(j.bloom_bits, 4);
            let join_col = scan.join_col.unwrap();
            for_each_live(&self.dht, scan, ctx.now, |_, _, row| {
                filter.insert(row.get(join_col).hash64());
            });
            work.push((side, filter));
        }
        let mut env = PierEnv { ctx };
        let mut events = Vec::new();
        for (side, filter) in work {
            let ns = qns::bloom(qid, side == Side::Right);
            let me = env.me();
            self.dht.put(
                &mut env,
                ns,
                0,
                me,
                QpItem::Bloom { qid, side, filter },
                lifetime,
                &mut events,
            );
        }
        // If we own a collector key, schedule the OR-and-multicast: a
        // deadline as fallback, plus an early flush once fragments from
        // every node have arrived (see `on_new_data`).
        for side in [Side::Left, Side::Right] {
            let ns = qns::bloom(qid, side == Side::Right);
            if self.dht.owns_key(pier_dht::key_of(ns, 0)) {
                self.arm_timer(
                    ctx,
                    qid,
                    j.bloom_wait,
                    TimerAction::BloomFlush { qid, side },
                );
            }
        }
        for side in [false, true] {
            self.route_ns(qns::bloom(qid, side), qid, NsRole::BloomCollector(side));
        }
        self.pump(ctx, events);
    }

    fn bloom_flush(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, side: Side) {
        let Some(inst) = self.reg.queries.get_mut(&qid) else {
            return;
        };
        let Some(bloom_bits) = inst.desc.op.join().map(|j| j.bloom_bits) else {
            return;
        };
        if inst.bloom_flushed[side as usize] {
            return;
        }
        inst.bloom_flushed[side as usize] = true;
        let ns = qns::bloom(qid, side == Side::Right);
        let mut merged = BloomFilter::new(bloom_bits, 4);
        for e in self.dht.store.lscan(ns) {
            if let QpItem::Bloom { filter, .. } = &e.val {
                merged.union(filter);
            }
        }
        // "The filters are OR-ed together and then multicast to all nodes
        // storing the opposite table" — our multicast reaches all nodes;
        // non-holders simply have nothing to rehash.
        let mut env = PierEnv { ctx };
        let mut events = Vec::new();
        self.dht.multicast(
            &mut env,
            QpItem::Bloom {
                qid,
                side,
                filter: merged,
            },
            &mut events,
        );
        self.pump(ctx, events);
    }

    fn on_bloom_filter(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, side: Side, f: BloomFilter) {
        let Some(inst) = self.reg.queries.get_mut(&qid) else {
            return;
        };
        if inst.filters[side as usize].is_some() {
            return;
        }
        inst.filters[side as usize] = Some(f.clone());
        // A filter over side X gates the rehash of the *opposite* table.
        self.rehash_side(ctx, qid, side.opposite(), Some(&f));
    }

    // ------------------------------------------------------------------
    // Aggregation (flat DHT grouping + hierarchical extension)
    // ------------------------------------------------------------------

    /// [`QueryInstance::accumulate`] on an installed query.
    fn accumulate(&mut self, qid: u64, agg: &AggSpec, row: &Tuple, valid_until: Time, ident: u64) {
        let replicated = self.replicated();
        if let Some(inst) = self.reg.queries.get_mut(&qid) {
            inst.accumulate(replicated, agg, row, valid_until, ident);
        }
    }

    /// Groups to report at a flush instant: the transient accumulators
    /// drained (one-shot inputs; received hierarchical child partials),
    /// plus — for epoch queries — either a fresh aggregation of every
    /// window contribution still alive (expired contributions thereby
    /// age out of the window between epochs) or a snapshot of the
    /// running totals.
    fn harvest_groups(
        &mut self,
        qid: u64,
        agg: &AggSpec,
        now: Time,
    ) -> Vec<(Vec<Value>, GroupAccs)> {
        let Some(inst) = self.reg.queries.get_mut(&qid) else {
            return Vec::new();
        };
        let mut groups: BTreeMap<Vec<Value>, GroupAccs> = std::mem::take(&mut inst.local_groups);
        if agg.epoch.is_some() {
            inst.win_rows.retain(|(valid, _)| *valid > now);
            for (_, row) in &inst.win_rows {
                let group: Vec<Value> =
                    agg.group_cols.iter().map(|&c| row.get(c).clone()).collect();
                groups
                    .entry(group)
                    .or_insert_with(|| GroupAccs::new(&agg.aggs))
                    .update(&agg.aggs, row);
            }
            for (group, accs) in &inst.run_groups {
                groups
                    .entry(group.clone())
                    .and_modify(|g| g.merge(accs))
                    .or_insert_with(|| accs.clone());
            }
        }
        groups.into_iter().collect()
    }

    /// Push local partials into the NA namespace (flat aggregation).
    /// Epoch queries re-publish under the same instanceID every epoch —
    /// a renewal — with a one-epoch lifetime, so a group that ages out
    /// of this node's window stops contributing by the next harvest.
    fn flush_partials(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, agg: &AggSpec) {
        let groups = self.harvest_groups(qid, agg, ctx.now);
        let na = qns::agg(qid);
        let lifetime = agg.epoch.unwrap_or_else(|| agg.harvest.saturating_mul(4));
        let mut env = PierEnv { ctx };
        let mut events = Vec::new();
        for (group, accs) in groups {
            let rid = group_rid(&group);
            let me = env.me();
            self.dht.put(
                &mut env,
                na,
                rid,
                me,
                QpItem::Partial { qid, group, accs },
                lifetime,
                &mut events,
            );
        }
        self.pump(ctx, events);
    }

    fn schedule_agg_timers(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        agg: &AggSpec,
        joinagg: bool,
    ) {
        if let Some(epoch) = agg.epoch {
            // Epoch-driven continuous aggregation: partials flush just
            // after each epoch boundary (the short lag lets the join
            // outputs probed right after the query multicast — rehash
            // puts are still in flight at install — make epoch 0), and
            // every surviving group is harvested and re-emitted half an
            // epoch later. Both timers re-arm on fire, so the standing
            // query never tears down.
            let lag = Dur::from_micros((epoch.as_micros() / 4).min(5_000_000));
            self.arm_timer(ctx, qid, lag, TimerAction::PartialFlush { qid });
            let half = Dur::from_micros(epoch.as_micros() / 2);
            self.arm_timer(ctx, qid, half, TimerAction::AggHarvest { qid });
            return;
        }
        if joinagg {
            // NQ nodes accumulate join outputs, then flush halfway.
            let half = Dur::from_micros(agg.harvest.as_micros() / 2);
            self.arm_timer(ctx, qid, half, TimerAction::PartialFlush { qid });
        }
        self.arm_timer(ctx, qid, agg.harvest, TimerAction::AggHarvest { qid });
    }

    /// Continuous aggregation re-arms its timers every epoch instead of
    /// tearing the query down after one harvest. An epoch spec inside a
    /// non-continuous descriptor does not re-arm: the query emits one
    /// round and falls silent like any other one-shot.
    fn rearm_epoch(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, action: TimerAction) {
        let Some(inst) = self.reg.queries.get(&qid) else {
            return;
        };
        if !inst.desc.continuous {
            return;
        }
        if let Some(epoch) = inst.desc.op.agg().and_then(|a| a.epoch) {
            self.arm_timer(ctx, qid, epoch, action);
        }
    }

    /// Finalize every group whose partials landed here; apply HAVING;
    /// ship results to the initiator.
    fn agg_harvest(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64) {
        let Some(desc) = self.query_desc(qid) else {
            return;
        };
        let Some(agg) = desc.op.agg() else { return };
        let initiator = desc.initiator;
        let na = qns::agg(qid);
        let now = ctx.now;
        let mut merged: BTreeMap<Vec<Value>, GroupAccs> = BTreeMap::new();
        // Expired partials (a publisher whose group aged out of its
        // window, or a dead node) are skipped even before the sweep
        // collects them.
        for e in self.dht.store.lscan(na).filter(|e| e.expires > now) {
            if let QpItem::Partial {
                group,
                accs,
                qid: q,
            } = &e.val
            {
                if *q != qid {
                    continue;
                }
                merged
                    .entry(group.clone())
                    .and_modify(|m| m.merge(accs))
                    .or_insert_with(|| accs.clone());
            }
        }
        for (group, accs) in merged {
            let virt = accs.output_row(&group);
            if agg.having.as_ref().is_none_or(|h| h.matches(&virt)) {
                let out = Tuple::new(agg.output.iter().map(|e| e.eval(&virt)).collect());
                // Aggregate emissions legitimately repeat every epoch:
                // ident 0 exempts them from initiator-side dedup.
                self.emit_result(ctx, qid, initiator, 0, out);
            }
        }
    }

    /// Hierarchical aggregation: stagger flushes so deeper nodes send
    /// before their parents, merging along a binary tree over node ids.
    /// Epoch queries stagger within each epoch and re-arm every epoch.
    fn schedule_hier_flush(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, agg: &AggSpec) {
        let n = self.reg.queries[&qid].desc.n_nodes.max(1);
        let max_depth = 64 - (n as u64).leading_zeros() as u64;
        let me = self.dht.me() as u64;
        let depth = 64 - (me + 1).leading_zeros() as u64;
        // Deeper levels flush earlier.
        let slot = max_depth.saturating_sub(depth) + 1;
        let span = agg.epoch.unwrap_or(agg.harvest);
        let delay = Dur::from_micros(span.as_micros() * slot / (max_depth + 2));
        self.arm_timer(ctx, qid, delay, TimerAction::HierFlush { qid });
    }

    fn hier_flush(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64) {
        let Some(desc) = self.query_desc(qid) else {
            return;
        };
        let QueryOp::Agg { agg, .. } = &desc.op else {
            return;
        };
        let initiator = desc.initiator;
        let groups = self.harvest_groups(qid, agg, ctx.now);
        let me = self.dht.me();
        if me == 0 {
            // Root: finalize.
            for (group, accs) in groups {
                let virt = accs.output_row(&group);
                if agg.having.as_ref().is_none_or(|h| h.matches(&virt)) {
                    let out = Tuple::new(agg.output.iter().map(|e| e.eval(&virt)).collect());
                    self.emit_result(ctx, qid, initiator, 0, out);
                }
            }
        } else {
            let parent = (me - 1) / 2;
            for (group, accs) in groups {
                ctx.send(parent, PierMsg::AggUp { qid, group, accs });
            }
        }
    }

    fn on_agg_up(&mut self, qid: u64, group: Vec<Value>, accs: GroupAccs) {
        let Some(inst) = self.reg.queries.get_mut(&qid) else {
            return;
        };
        inst.local_groups
            .entry(group)
            .and_modify(|m| m.merge(&accs))
            .or_insert(accs);
    }

    // ------------------------------------------------------------------
    // Dispatch plumbing
    // ------------------------------------------------------------------

    fn on_new_data(&mut self, ctx: &mut Ctx<PierMsg>, entry: Entry<QpItem>) {
        let Some(routes) = self.reg.ns_routes.get(&entry.ns) else {
            return;
        };
        let routes = routes.clone();
        for (qid, role) in routes {
            match role {
                NsRole::RehashNq => self.probe_nq(ctx, qid, &entry),
                NsRole::MStage(k) => self.mj_probe(ctx, qid, k as usize, &entry),
                NsRole::BaseLeft | NsRole::BaseRight | NsRole::MBase(_) => {
                    self.on_base_new_data(ctx, qid, role, &entry)
                }
                NsRole::BloomCollector(right) => {
                    // Early flush once every participant's fragment is in.
                    let n_expected = self
                        .reg
                        .queries
                        .get(&qid)
                        .map_or(0, |i| i.desc.n_nodes as usize);
                    if n_expected > 0 && self.dht.store.ns_len(entry.ns) >= n_expected {
                        let side = if right { Side::Right } else { Side::Left };
                        self.bloom_flush(ctx, qid, side);
                    }
                }
            }
        }
    }

    /// Continuous queries: a newly published base tuple flows through the
    /// installed pipeline incrementally.
    fn on_base_new_data(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        role: NsRole,
        entry: &Entry<QpItem>,
    ) {
        let Some(inst) = self.reg.queries.get(&qid) else {
            return;
        };
        if !inst.desc.continuous {
            return;
        }
        let QpItem::Row(row) = &entry.val else { return };
        let row = row.decode();
        let desc = Arc::clone(&inst.desc);
        match &desc.op {
            QueryOp::Scan { scan, project } => {
                if scan.pred.as_ref().is_none_or(|p| p.matches(&row)) {
                    let out = Tuple::new(project.iter().map(|e| e.eval(&row)).collect());
                    self.emit_result(ctx, qid, desc.initiator, entry.iid as u64, out);
                }
            }
            QueryOp::Join(j) | QueryOp::JoinAgg { join: j, .. } => {
                let side = if role == NsRole::BaseLeft {
                    Side::Left
                } else {
                    Side::Right
                };
                self.rehash_one(ctx, qid, j, side, entry.iid, row);
            }
            QueryOp::MultiJoin(m) | QueryOp::MultiJoinAgg { join: m, .. } => {
                if let NsRole::MBase(t) = role {
                    self.mj_rehash_one(ctx, qid, m, t as usize, entry.iid, row);
                }
            }
            QueryOp::Agg { scan, agg } => {
                // Epoch-driven continuous aggregation: a newly published
                // base row joins the window and is (re-)reported at the
                // next epoch flush. Without an epoch the aggregate stays
                // one-shot — there is no re-emission to carry the update.
                if agg.epoch.is_none() {
                    return;
                }
                if !scan.pred.as_ref().is_none_or(|p| p.matches(&row)) {
                    return;
                }
                let valid = match desc.window {
                    Some(w) => entry.expires.min(ctx.now + w),
                    None => Time::MAX,
                };
                self.accumulate(qid, agg, &row, valid, entry.iid as u64);
            }
        }
    }

    /// Rehash a single (newly arrived) tuple for a continuous join.
    fn rehash_one(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        j: &JoinSpec,
        side: Side,
        base_iid: u32,
        row: Tuple,
    ) {
        let Some(inst) = self.reg.queries.get(&qid) else {
            return;
        };
        let view = inst.view.clone().expect("join view");
        let (scan, keep) = match side {
            Side::Left => (&j.left, &view.keep_base),
            Side::Right => (&j.right, &view.stages[0].keep_right),
        };
        if !scan.pred.as_ref().is_none_or(|p| p.matches(&row)) {
            return;
        }
        let join = row.get(scan.join_col.unwrap()).clone();
        let rid = Self::rehash_rid(&join, j.computation_nodes);
        let lifetime = self.soft_lifetime(qid);
        let iid = self.derived_iid(base_iid, side as u64);
        let item = QpItem::Tagged {
            qid,
            side,
            join,
            row: FlatRow::from_tuple(&row.project(keep)),
        };
        let ns = qns::rehash(qid);
        self.record_rehash(qid, ns, rid, iid, &item);
        let mut env = PierEnv { ctx };
        let mut events = Vec::new();
        self.dht
            .put(&mut env, ns, rid, iid, item, lifetime, &mut events);
        self.pump(ctx, events);
    }

    /// Probe NQ entries that were stored before this node learned about
    /// the query (multicast races the first rehash puts). Entries are
    /// replayed in a fixed order, each probing only its predecessors, so
    /// no pair is produced twice.
    fn replay_rehash_ns(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        mut entries: Vec<Entry<QpItem>>,
    ) {
        if entries.is_empty() {
            return;
        }
        entries.sort_by_key(|e| (e.rid, e.iid));
        // Probe pairs directly: replaying the k-th entry against a store
        // containing all of them would double-count.
        for i in 0..entries.len() {
            for k in 0..i {
                if entries[i].rid == entries[k].rid {
                    self.probe_pairwise(ctx, qid, &entries[i], &entries[k]);
                }
            }
        }
    }

    fn probe_pairwise(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        a: &Entry<QpItem>,
        b: &Entry<QpItem>,
    ) {
        let Some(inst) = self.reg.queries.get(&qid) else {
            return;
        };
        // Replay happens at install time: state stored before the query
        // arrived may have already aged out of its window.
        if a.expires <= ctx.now || b.expires <= ctx.now {
            return;
        }
        match (&a.val, &b.val) {
            (
                QpItem::Tagged {
                    side: sa,
                    join: ja,
                    row: ra,
                    ..
                },
                QpItem::Tagged {
                    side: sb,
                    join: jb,
                    row: rb,
                    ..
                },
            ) => {
                if sa == sb || ja != jb {
                    return;
                }
                let view = inst.view.clone().expect("join view");
                let desc = Arc::clone(&inst.desc);
                let agg = match &desc.op {
                    QueryOp::JoinAgg { agg, .. } => Some(agg),
                    _ => None,
                };
                let (l, r) = if *sa == Side::Left {
                    (ra, rb)
                } else {
                    (rb, ra)
                };
                let joined = l.decode().concat(&r.decode());
                let stage = &view.stages[0];
                if stage.pred.as_ref().is_none_or(|p| p.matches(&joined)) {
                    let shipped = joined.project(&stage.emit);
                    let out = Tuple::new(view.project.iter().map(|e| e.eval(&shipped)).collect());
                    let ident = Self::pair_ident(a.iid, b.iid);
                    if let Some(ag) = agg {
                        let valid = self.window_valid(qid, a.expires.min(b.expires));
                        self.accumulate(qid, ag, &out, valid, ident);
                    } else {
                        self.emit_result(ctx, qid, desc.initiator, ident, out);
                    }
                }
            }
            (
                QpItem::Mini {
                    side: sa,
                    pkey: pa,
                    join: ja,
                    ..
                },
                QpItem::Mini {
                    side: sb,
                    pkey: pb,
                    join: jb,
                    ..
                },
            ) => {
                if sa == sb || ja != jb {
                    return;
                }
                let (pk_l, pk_r) = if *sa == Side::Left {
                    (pa.clone(), pb.clone())
                } else {
                    (pb.clone(), pa.clone())
                };
                let ident = Self::pair_ident(a.iid, b.iid);
                self.semi_pair(ctx, qid, pk_l, pk_r, ident);
            }
            _ => {}
        }
    }

    fn on_get_result(&mut self, ctx: &mut Ctx<PierMsg>, token: u64, items: Vec<Entry<QpItem>>) {
        match self.get_purpose.remove(&token) {
            Some(GetPurpose::FmProbe {
                qid,
                left_iid,
                left_row,
            }) => self.fm_complete(ctx, qid, left_iid, left_row, items),
            Some(GetPurpose::SemiFetch { qid, pair, side }) => {
                self.semi_complete(ctx, qid, pair, side, items)
            }
            None => {}
        }
    }

    fn emit_result(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        initiator: NodeId,
        ident: u64,
        row: Tuple,
    ) {
        self.metrics.on_result(qid, row.wire_size());
        if initiator == ctx.me {
            if self.record_result(qid, ident) {
                self.results.entry(qid).or_default().push((ctx.now, row));
            }
        } else {
            let row = FlatRow::from_tuple(&row);
            ctx.send(initiator, PierMsg::Result { qid, ident, row });
        }
    }

    /// Initiator-side admission of one result: `false` when it is a
    /// replication-era duplicate (same logical identity already logged —
    /// a healed replica re-ran a probe the dead primary had answered).
    /// At `replication = 1` every result is admitted, unconditionally.
    fn record_result(&mut self, qid: u64, ident: u64) -> bool {
        if !self.replicated() || ident == 0 {
            return true;
        }
        self.results_seen.entry(qid).or_default().insert(ident)
    }
}

/// Stream the locally stored, live, selection-passing rows of a base
/// table to `f` as `(instanceID, expiry, row)`, in `lscan` order. Every
/// row is decoded into one scratch tuple, so a consumer that keeps none
/// of them costs no allocation per row. Expired-but-unswept rows (the
/// sweep runs on the maintenance tick) never enter a dataflow.
fn for_each_live(
    dht: &Dht<QpItem>,
    scan: &ScanSpec,
    now: Time,
    mut f: impl FnMut(u32, Time, &Tuple),
) {
    let mut row = Tuple::new(Vec::new());
    for e in dht.lscan(scan.ns) {
        let QpItem::Row(flat) = &e.val else { continue };
        if e.expires <= now {
            continue;
        }
        flat.decode_into(&mut row);
        if scan.pred.as_ref().is_none_or(|p| p.matches(&row)) {
            f(e.iid, e.expires, &row);
        }
    }
}

/// resourceID of a group's partials: hash of the group values.
fn group_rid(group: &[Value]) -> Rid {
    let mut h: u64 = 0x67_72_6f_75_70;
    for v in group {
        h = pier_dht::geom::hash2(h, v.hash64());
    }
    h
}

impl App for PierNode {
    type Msg = PierMsg;

    fn on_start(&mut self, ctx: &mut Ctx<PierMsg>) {
        let bootstrap = self.bootstrap;
        if self.dht.is_joined() {
            ctx.set_timer(self.dht.cfg.tick, DHT_TICK_TOKEN);
        } else {
            let mut env = PierEnv { ctx };
            self.dht.start(&mut env, bootstrap);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<PierMsg>, from: NodeId, msg: PierMsg) {
        match msg {
            PierMsg::Dht(m) => {
                let mut env = PierEnv { ctx };
                let mut events = Vec::new();
                self.dht.handle_message(&mut env, from, m, &mut events);
                self.pump(ctx, events);
            }
            PierMsg::Result { qid, ident, row } => {
                if self.record_result(qid, ident) {
                    self.results
                        .entry(qid)
                        .or_default()
                        .push((ctx.now, row.decode()));
                }
            }
            PierMsg::AggUp { qid, group, accs } => self.on_agg_up(qid, group, accs),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<PierMsg>, token: u64) {
        if token == DHT_TICK_TOKEN {
            let mut env = PierEnv { ctx };
            let mut events = Vec::new();
            self.dht.handle_timer(&mut env, token, &mut events);
            self.pump(ctx, events);
            return;
        }
        let fired = self.timer_actions.remove(&token);
        if let Some(qid) = fired.as_ref().and_then(TimerAction::qid) {
            self.release_timer(qid, token);
        }
        match fired {
            Some(TimerAction::BloomFlush { qid, side }) => {
                // A collector's deadline: if we know how many fragments to
                // expect and they are still in flight (congestion), extend
                // the window instead of multicasting a truncated filter.
                let extend = if let Some(inst) = self.reg.queries.get_mut(&qid) {
                    let expecting = inst.desc.n_nodes as usize;
                    let ns = qns::bloom(qid, side == Side::Right);
                    let have = self.dht.store.ns_len(ns);
                    if expecting > 0
                        && have < expecting
                        && inst.bloom_waits[side as usize] < 60
                        && !inst.bloom_flushed[side as usize]
                    {
                        inst.bloom_waits[side as usize] += 1;
                        true
                    } else {
                        false
                    }
                } else {
                    false
                };
                if extend {
                    let wait = self.reg.queries[&qid]
                        .desc
                        .op
                        .join()
                        .map_or(Dur::from_secs(10), |j| j.bloom_wait);
                    self.arm_timer(ctx, qid, wait, TimerAction::BloomFlush { qid, side });
                } else {
                    self.bloom_flush(ctx, qid, side);
                }
            }
            Some(TimerAction::AggHarvest { qid }) => {
                self.agg_harvest(ctx, qid);
                self.rearm_epoch(ctx, qid, TimerAction::AggHarvest { qid });
                // The harvest is a one-shot aggregate's terminal event.
                self.retire_if_one_shot(qid);
            }
            Some(TimerAction::PartialFlush { qid }) => {
                if let Some(desc) = self.query_desc(qid) {
                    if let Some(agg) = desc.op.agg() {
                        self.flush_partials(ctx, qid, agg);
                    }
                }
                self.rearm_epoch(ctx, qid, TimerAction::PartialFlush { qid });
            }
            Some(TimerAction::HierFlush { qid }) => {
                self.hier_flush(ctx, qid);
                self.rearm_epoch(ctx, qid, TimerAction::HierFlush { qid });
                // A one-shot tree flush is this node's terminal event
                // (parents flush after their children sent partials up).
                self.retire_if_one_shot(qid);
            }
            Some(TimerAction::Renew) => self.renew_all(ctx),
            Some(TimerAction::RenewQuery { qid }) => self.renew_query(ctx, qid),
            None => {}
        }
    }
}

// ---------------------------------------------------------------------
// The typed client surface (actor runtime)
// ---------------------------------------------------------------------

/// Typed requests a client handle may send to a running PIER node
/// actor — the replacement for the retired closure-injection API.
/// Every operation benches, tests, and co-resident apps perform on a
/// deployed node goes through one of these, executed on the actor
/// thread with a full `Ctx` (so submit/publish emit network traffic
/// exactly like any internal callback).
/// Outcome of a tenant-attributed publish: how many rows entered the
/// DHT and how many the tenant's token bucket shed at ingress.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PublishReport {
    /// Rows admitted into the overlay.
    pub accepted: usize,
    /// Rows refused by backpressure (never reached the wire).
    pub shed: usize,
}

#[derive(Clone, Debug)]
pub enum NodeRequest {
    /// Install and start a query at this node (§3.3 query multicast).
    /// Boxed: a descriptor is large relative to every other variant.
    Submit(Box<QueryDesc>),
    /// Quota-governed submission ([`PierNode::try_submit`]): priced by
    /// the cost model, rejected with a typed [`AdmissionError`] when
    /// the owning tenant is over budget.
    TrySubmit(Box<QueryDesc>),
    /// Publish rows of a table into the DHT, resourceID = `pkey_col`.
    PublishRows {
        table: String,
        rows: Vec<Tuple>,
        pkey_col: usize,
        lifetime: Dur,
    },
    /// Tenant-attributed publish with token-bucket backpressure
    /// ([`PierNode::publish_rows_from`]); answers with the
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
        timers: usize,
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

    /// Unwrap a [`NodeResponse::Audit`] as `(installed, timers, residuals)`.
    pub fn into_audit(self) -> (usize, usize, Vec<usize>) {
        match self {
            NodeResponse::Audit {
                installed,
                timers,
                residuals,
            } => (installed, timers, residuals),
            other => panic!("expected Audit, got {other:?}"),
        }
    }

    /// Unwrap a [`NodeResponse::Admission`].
    pub fn into_admission(self) -> Result<f64, AdmissionError> {
        match self {
            NodeResponse::Admission(r) => r,
            other => panic!("expected Admission, got {other:?}"),
        }
    }

    /// Unwrap a [`NodeResponse::Publish`].
    pub fn into_publish_report(self) -> PublishReport {
        match self {
            NodeResponse::Publish(r) => r,
            other => panic!("expected Publish, got {other:?}"),
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
            NodeRequest::PublishRows {
                table,
                rows,
                pkey_col,
                lifetime,
            } => {
                self.publish_rows(ctx, &table, rows, pkey_col, lifetime);
                NodeResponse::Done
            }
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
            NodeRequest::LifecycleAudit { qids, max_stages } => NodeResponse::Audit {
                installed: self.installed_query_count(),
                timers: self.timer_action_count(),
                residuals: qids
                    .iter()
                    .map(|&qid| self.query_soft_state(ctx.now, qid, max_stages))
                    .collect(),
            },
        }
    }
}
