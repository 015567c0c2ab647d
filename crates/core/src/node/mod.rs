//! The PIER node: DHT stack + query processor in one automaton (Fig. 1).
//!
//! The query processor is push-based (§3.3): there is no iterator loop,
//! only reactions to DHT upcalls — a query multicast installs operator
//! state, `newData` callbacks drive probing, `get` completions drive
//! fetching, timers drive aggregate flushes and harvests, reports climb
//! a query's combine tree, and result tuples flow directly to the
//! initiating node.
//!
//! This module holds the node's state, the query lifecycle (install,
//! uninstall, timers) and the upcall dispatch; the operators live in
//! plain `impl PierNode` blocks beside it: `pipeline` (the one join
//! dataflow), `fetch` and `bloom` (the three other strategies of a
//! two-table join), `agg`, `combine` (the one tree a Bloom join's
//! filters and a hierarchical aggregate's groups gather along),
//! `renewal`, and the typed client surface in `service`.

mod agg;
mod bloom;
mod combine;
mod fetch;
mod pipeline;
mod renewal;
mod service;

use renewal::SoftPub;

pub use service::{NodeRequest, NodeResponse, PublishReport, Results, ResultsIter};

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::mem::size_of;
use std::sync::Arc;
use std::thread::LocalKey;

use pier_dht::event::DhtEvent;
use pier_dht::msg::{DhtMsg, Entry};
use pier_dht::{CtxEnv, Dht, DhtConfig, DhtEnv, Ns, Rid, DHT_TICK_TOKEN};
use pier_simnet::app::{App, Ctx};
use pier_simnet::time::{Dur, Time};
use pier_simnet::NodeId;

use crate::expr::{Expr, Projection};
use crate::item::{PierMsg, QpItem, Side};
use crate::metrics::MetricsRegistry;
use crate::plan::{qns, JoinStrategy, PipelineSchema, QueryDesc, QueryOp, ScanSpec, Tenure};
use crate::tenant::{TenantGovernor, TenantId};
use crate::tuple::{Columns, FlatRow, RowBatch, RowRef, Rows, Slot};
use crate::value::Value;

/// What an outstanding DHT `get` was issued for.
enum GetPurpose {
    /// Fetch Matches: probing the right table for one left tuple, kept
    /// with its instanceID so the result identity can name both
    /// constituents.
    FmProbe { qid: u64, left: (u32, FlatRow) },
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
    /// A combine tree's deadline (a Bloom join's; a one-shot
    /// hierarchical aggregate's harvest): report what the round holds.
    TreeDue { qid: u64 },
    /// Flat aggregation: finalize locally-owned groups, emit results.
    /// Re-armed every epoch for continuous aggregation.
    AggHarvest { qid: u64 },
    /// Report the local aggregation state: put it into `NA`, or up the
    /// combine tree under hierarchical aggregation (a join
    /// aggregate's halfway flush; every epoch for a continuous one).
    Flush { qid: u64 },
    /// Republish this node's published base rows, every `every` (the
    /// renewal loop of §3.2.3 / Fig. 6).
    Renew { every: Dur },
    /// Republish one standing query's rehash soft state every
    /// [`Tenure::Unwindowed`] period. Cancelled by uninstall, so renewal
    /// stops and the query's DHT state ages out within one horizon.
    RenewQuery { qid: u64 },
}

impl TimerAction {
    /// The query a timer action belongs to, if any — uninstall cancels
    /// exactly these.
    fn qid(&self) -> Option<u64> {
        match self {
            TimerAction::TreeDue { qid }
            | TimerAction::AggHarvest { qid }
            | TimerAction::Flush { qid }
            | TimerAction::RenewQuery { qid } => Some(*qid),
            TimerAction::Renew { .. } => None,
        }
    }
}

/// What a join handler works from: the multicast descriptor and the
/// plan certified beside it ([`QueryDesc::certified`]), both shared by
/// every node running the query (two refcount bumps).
type JoinPlan = (Arc<QueryDesc>, Arc<PipelineSchema>);

/// The upcalls one DHT operation raised, in order.
type Upcalls = Vec<DhtEvent<QpItem>>;

/// A bulk put (rehash, publish) staged while its rows are encoded:
/// resourceID, instanceID (a rehash's base row's) and the item.
type BulkPut = (Rid, u32, Pending);

/// A staged item, its row still a slot of the batch: a base row, a stage
/// row (qid, side, join value) or an item without a row (a mini).
enum Pending {
    Row(Slot),
    Tagged(u64, Side, Value, Slot),
    Item(QpItem),
}

impl Pending {
    fn item(self, rows: &Rows) -> QpItem {
        match self {
            Pending::Row(slot) => QpItem::Row(rows.row(slot)),
            Pending::Tagged(qid, side, join, slot) => {
                let row = rows.row(slot);
                QpItem::Tagged {
                    qid,
                    side,
                    join,
                    row,
                }
            }
            Pending::Item(item) => item,
        }
    }
}

/// A per-thread stack of emptied buffers: an operation [`take`]s one and
/// gives it back drained, and one nested inside it takes the next, so
/// the buffer at each depth is the same one every time and allocates
/// only until it holds what its depth asks of it. A node carries none.
type Pool<T> = LocalKey<RefCell<Vec<Vec<T>>>>;

thread_local! {
    /// Upcall lists ([`PierNode::dht_op`]).
    static UPCALLS: RefCell<Vec<Upcalls>> = RefCell::default();
    /// Bulk put lists ([`PierNode::put_rehashed`], publish).
    static BULK_PUTS: RefCell<Vec<Vec<BulkPut>>> = RefCell::default();
    /// The instanceIDs of the rows a scan ships ([`PierNode::ship_scan`]).
    static SHIPPED_IIDS: RefCell<Vec<Vec<u32>>> = RefCell::default();
}

fn take<T>(pool: &'static Pool<T>) -> Vec<T> {
    pool.with_borrow_mut(Vec::pop).unwrap_or_default()
}

fn give_back<T>(pool: &'static Pool<T>, mut buf: Vec<T>) {
    buf.clear();
    pool.with_borrow_mut(|bufs| bufs.push(buf));
}

/// Per-query operator state at one node.
struct QueryInstance {
    /// The multicast descriptor itself, shared with every other node's
    /// instance: handlers clone the `Arc` and borrow operator specs from
    /// it instead of copying them out per event.
    desc: Arc<QueryDesc>,
    /// Joins only: the schema-aware projection plan — what every
    /// rehash, stage republish, and initiator ship carries, with
    /// expressions remapped onto the pruned layouts. The descriptor's
    /// certified plan itself, built once per query by the first node to
    /// install it and shared, like `desc`, by every node's instance.
    view: Option<Arc<PipelineSchema>>,
    /// A Bloom join's or hierarchical aggregate's combine tree: its open
    /// rounds and the filters that arrived.
    tree: Option<Box<combine::Tree>>,
    /// Semi-join pair assembly.
    pairs: BTreeMap<u64, PairFetch>,
    /// The aggregation state, under one rule: a contribution counts at
    /// every flush before its `valid_until`. Those that never stop
    /// counting fold into `run_groups`, snapshotted (not drained) at each
    /// flush: the snapshot shares a group's key and accumulators, and the
    /// group's next row copies the accumulators before it writes.
    run_groups: agg::Groups,
    /// Those that stop at a known flush (windowed contributions) fold on
    /// arrival into the pane that closes
    /// at that flush, sorted by closing flush. A flush drops the closed
    /// panes and merges the rest with `run_groups`: O(groups) state per
    /// pane, at most a window's worth of panes.
    panes: Vec<(Time, agg::Groups)>,
    /// The next flush armed for the query: where the pane grid starts.
    next_flush: Time,
    /// Rehash / stage soft state this node published for the query and
    /// renews ([`PierNode::record_rehash`]; empty unless the query
    /// carries a renewal period). Dropped at uninstall, so renewal
    /// stops and the state ages out within one horizon.
    rehash_pubs: Vec<SoftPub>,
    /// Contribution identities already folded into this query's
    /// aggregation state (`replication > 1` only): a probe re-run by a
    /// healed replica must not double-count a join output or base row
    /// the dead primary's probe already accumulated here.
    acc_seen: BTreeSet<u64>,
    /// The bytes/sec admission charged against the query's tenant: what
    /// [`TenantGovernor::check`] reads as committed while it stays.
    priced: f64,
}

impl QueryInstance {
    fn new(desc: Arc<QueryDesc>, view: Option<Arc<PipelineSchema>>, priced: f64) -> Self {
        QueryInstance {
            desc,
            view,
            priced,
            tree: None,
            pairs: BTreeMap::new(),
            run_groups: BTreeMap::new(),
            panes: Vec::new(),
            next_flush: Time::ZERO,
            rehash_pubs: Vec::new(),
            acc_seen: BTreeSet::new(),
        }
    }
}

/// Semi-join: the two full-tuple fetches of one matched mini pair,
/// indexed by [`Side`].
struct PairFetch {
    /// Fetched rows that the side's scan selects, under the primary key
    /// the mini named, as stored; `None` until that side's fetch
    /// completes.
    rows: [Option<Vec<FlatRow>>; 2],
    pkeys: [Value; 2],
    /// Identity of the mini pair that triggered the fetches — the
    /// emitted results inherit it for initiator-side dedup.
    ident: u64,
}

/// Why a namespace is interesting to a query at this node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NsRole {
    /// Rehash namespace of join stage `k`: arrivals probe.
    Stage(u16),
    /// Base table `t` of the query (0 = scan input / pipeline head;
    /// `t >= 1` is join stage `t - 1`'s right input): arrivals flow into
    /// a standing query incrementally.
    Base(u16),
}

/// The node's ledger of installed queries: every per-query structure —
/// operator state, rehash publications, admission's committed budget and
/// the namespace routing table — lives here, so install and uninstall
/// are single entry points and a torn-down query leaves nothing behind
/// (each entry of the node's two request maps names its query, and
/// uninstall drops them by qid). Teardown is driven by
/// [`PierNode::cancel`] (any shape) or by one-shot aggregates retiring
/// at their terminal harvest; a one-shot *join* has no terminal event —
/// its results trickle until the soft state ages out — so it stays
/// installed until explicitly cancelled.
///
/// An installed query is one slot in each of two sorted lists, so a node
/// holding one query holds two small allocations, not a map node each.
#[derive(Default)]
struct QueryRegistry {
    /// Sorted by qid. Grows one slot at a time, never shrinks: a node's
    /// capacity is its installed peak.
    queries: Vec<QueryInstance>,
    /// Why each namespace is interesting, and to which queries: drives
    /// `newData` dispatch. Sorted by namespace, and within a namespace in
    /// the order routed; stripped per query at uninstall.
    routes: Vec<(Ns, u64, NsRole)>,
}

impl QueryRegistry {
    fn find(&self, qid: u64) -> Result<usize, usize> {
        self.queries.binary_search_by_key(&qid, |i| i.desc.qid)
    }

    fn get(&self, qid: u64) -> Option<&QueryInstance> {
        self.find(qid).ok().map(|at| &self.queries[at])
    }

    fn get_mut(&mut self, qid: u64) -> Option<&mut QueryInstance> {
        self.find(qid).ok().map(|at| &mut self.queries[at])
    }

    /// Install a query not installed yet.
    fn install(&mut self, inst: QueryInstance) {
        let (Ok(at) | Err(at)) = self.find(inst.desc.qid);
        if self.queries.len() == self.queries.capacity() {
            self.queries.reserve_exact(1);
        }
        self.queries.insert(at, inst);
    }

    /// What admission has committed: every installed query's tenant and
    /// priced bytes/sec, in qid order.
    fn committed(&self) -> impl Iterator<Item = (TenantId, f64)> + '_ {
        self.queries.iter().map(|i| (i.desc.tenant, i.priced))
    }

    /// The routes of `ns`, as indices into `routes`.
    fn run(&self, ns: Ns) -> std::ops::Range<usize> {
        let lo = self.routes.partition_point(|r| r.0 < ns);
        lo..lo + self.routes[lo..].partition_point(|r| r.0 == ns)
    }

    fn route(&mut self, ns: Ns, qid: u64, role: NsRole) {
        let run = self.run(ns);
        if !self.routes[run.clone()].contains(&(ns, qid, role)) {
            self.routes.insert(run.end, (ns, qid, role));
        }
    }

    /// The host for one provider call: the engine context, with the
    /// routing table as the list of `newData` registrations. Borrows
    /// only the registry, so the call can borrow `PierNode::dht` beside
    /// it.
    fn env<'a, 'b>(&'a self, ctx: &'a mut Ctx<'b, PierMsg>) -> NodeEnv<'a, 'b> {
        NodeEnv {
            host: CtxEnv { ctx },
            reg: self,
        }
    }

    /// Remove a query and every route pointing at it. Returns the
    /// instance so the caller can purge its derived namespaces.
    fn uninstall(&mut self, qid: u64) -> Option<QueryInstance> {
        let inst = self.queries.remove(self.find(qid).ok()?);
        self.routes.retain(|r| r.1 != qid);
        Some(inst)
    }
}

/// What the provider sees of a PIER node: [`CtxEnv`], plus the answer to
/// "did anyone register `newData` for this namespace?" read off the
/// registry's routing table — the very map [`PierNode`] dispatches the
/// upcall by, so the node keeps no second list to fall out of step. The
/// provider reads it as it stores, the dispatch after the operation
/// returns: a handler must [`QueryRegistry::route`] a namespace *before*
/// it puts into it, or the upcall for an item stored locally inside that
/// `put` is never built.
struct NodeEnv<'a, 'b> {
    host: CtxEnv<'a, 'b, PierMsg>,
    reg: &'a QueryRegistry,
}

impl DhtEnv<QpItem> for NodeEnv<'_, '_> {
    fn now(&self) -> Time {
        DhtEnv::<QpItem>::now(&self.host)
    }
    fn me(&self) -> NodeId {
        DhtEnv::<QpItem>::me(&self.host)
    }
    fn send(&mut self, to: NodeId, msg: DhtMsg<QpItem>) {
        self.host.send(to, msg);
    }
    fn timer(&mut self, after: Dur, token: u64) {
        DhtEnv::<QpItem>::timer(&mut self.host, after, token);
    }
    fn rand64(&mut self) -> u64 {
        DhtEnv::<QpItem>::rand64(&mut self.host)
    }
    fn wants_new_data(&self, ns: Ns) -> bool {
        !self.reg.run(ns).is_empty()
    }
}

/// One PIER node.
pub struct PierNode {
    pub dht: Dht<QpItem>,
    /// Every installed query's state, owned in one place.
    reg: QueryRegistry,
    /// Result log at the initiator: arrival time and the row as it
    /// arrived, encoded, per query; decoded only when a client reads it
    /// ([`Self::query_results`], [`Self::drain_results`]). Survives
    /// uninstall, so an initiator can tear a query down and still read
    /// what it produced; a drain frees what it hands over.
    results: BTreeMap<u64, Vec<(Time, FlatRow)>>,
    /// Result identities already logged, per query (`replication > 1`
    /// only — see [`PierMsg::Result`]). A healed replica re-running a
    /// probe the dead primary already answered re-sends the same
    /// logical result; the initiator drops the re-emission here.
    results_seen: BTreeMap<u64, BTreeSet<u64>>,
    /// The node's requests in flight, by token: DHT `get`s awaiting
    /// their answer (the DHT answers every one, an abandoned one empty)
    /// and armed timers. Each names its query; uninstall drops a
    /// query's by qid.
    get_purpose: BTreeMap<u64, GetPurpose>,
    timer_actions: BTreeMap<u64, TimerAction>,
    /// Recently cancelled qids, and combine trees refused here (bounded
    /// FIFO): a `Cancel` that overtakes its query's still-in-flight
    /// install multicast must not let the late-arriving descriptor
    /// resurrect the query and renew forever.
    cancelled: VecDeque<u64>,
    /// Combine-tree reports that arrived before their query's install.
    early: Option<Box<combine::Early>>,
    next_token: u64,
    published: Vec<(Dur, SoftPub)>,
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

// Held per node, per query and per timer: a field that widens them is paid 10^4 times.
const _: () = assert!(size_of::<PierNode>() == 1008);
const _: () = assert!(size_of::<QueryInstance>() == 160);
const _: () = assert!(size_of::<TimerAction>() == 16);

impl PierNode {
    /// A node that creates (`bootstrap = None`) or joins an overlay.
    pub fn new(cfg: DhtConfig, me: NodeId, bootstrap: Option<NodeId>) -> Self {
        Self::with_dht(Dht::new(cfg, me), bootstrap)
    }

    /// A node with a pre-built DHT stack (balanced bootstrap). An id of
    /// 2^14 or more would alias another node's instanceIDs.
    pub fn with_dht(mut dht: Dht<QpItem>, bootstrap: Option<NodeId>) -> Self {
        assert!(dht.me() < 1 << 14, "node id {} aliases fresh_iid", dht.me());
        dht.bootstrap = bootstrap;
        PierNode {
            dht,
            reg: QueryRegistry::default(),
            results: BTreeMap::new(),
            results_seen: BTreeMap::new(),
            get_purpose: BTreeMap::new(),
            timer_actions: BTreeMap::new(),
            cancelled: VecDeque::new(),
            early: None,
            next_token: 1,
            published: Vec::new(),
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
    /// and no dedup set is consulted.
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

    /// Local uninstall: remove the query from the registry (dropping its
    /// operator state and rehash-renewal ledger, so renewal stops),
    /// cancel its outstanding timers, forget its in-flight fetches, and
    /// purge the local store's share of the query's derived namespaces.
    /// Shares held by peers that missed the cancel still age out within
    /// one soft-state lifetime — expiry is the reclamation fallback,
    /// not the only path. A bounded tombstone guards against a `Cancel`
    /// overtaking its query's still-in-flight install multicast.
    fn uninstall_query(&mut self, qid: u64) {
        self.metrics.on_uninstall(qid);
        self.tombstone(qid);
        if let Some(early) = &mut self.early {
            early.retain(|(_, r)| r.qid != qid);
        }
        if let Some(inst) = self.reg.uninstall(qid) {
            let stages = inst.desc.op.join().map_or(0, |j| j.stages.len());
            for ns in qns::all(qid, stages) {
                self.dht.store.remove_ns(ns);
            }
        }
        self.timer_actions.retain(|_, a| a.qid() != Some(qid));
        self.get_purpose.retain(|_, p| p.qid() != qid);
    }

    /// Remember `qid` as gone here: a late install does not resurrect
    /// it, and a report for it goes on to the parent.
    fn tombstone(&mut self, qid: u64) {
        if self.cancelled.len() == CANCEL_TOMBSTONES {
            self.cancelled.pop_front();
        }
        if !self.cancelled.contains(&qid) {
            self.cancelled.push_back(qid);
        }
    }

    /// One-shot queries complete at their terminal harvest; retire them
    /// so `timer_actions`, the registry, and the routing table return to
    /// baseline instead of growing for the process lifetime.
    fn retire_if_one_shot(&mut self, qid: u64) {
        if let Some(Tenure::OneShot) = self.reg.get(qid).map(|i| i.desc.tenure) {
            self.uninstall_query(qid);
        }
    }

    /// Arm a timer for `action`, and record a flush's instant as its
    /// query's next flush. Uninstall drops the query's actions.
    fn arm_timer(&mut self, ctx: &mut Ctx<PierMsg>, after: Dur, action: TimerAction) {
        let token = self.token();
        if let TimerAction::Flush { qid } = action {
            if let Some(inst) = self.reg.get_mut(qid) {
                inst.next_flush = ctx.now + after;
            }
        }
        self.timer_actions.insert(token, action);
        ctx.set_timer(after, token);
    }

    /// The one way a node calls its provider: run one DHT operation, or a
    /// batch with node state in between, with an upcall list from this
    /// thread's pool, and [`Self::pump`] what it raised.
    fn dht_op(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        op: impl FnOnce(&mut Self, &mut Ctx<PierMsg>, &mut Upcalls),
    ) {
        let mut events = take(&UPCALLS);
        op(self, ctx, &mut events);
        self.pump(ctx, events);
    }

    /// Multicast `item` to every node, this one included.
    fn multicast(&mut self, ctx: &mut Ctx<PierMsg>, item: QpItem) {
        self.dht_op(ctx, |node, ctx, events| {
            node.dht.multicast(&mut node.reg.env(ctx), item, events)
        });
    }

    /// React to the upcalls, in order (a reaction that calls the provider
    /// takes a list of its own), and give the drained list back.
    fn pump(&mut self, ctx: &mut Ctx<PierMsg>, mut events: Upcalls) {
        for ev in events.drain(..) {
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
                DhtEvent::LocationMapChanged => {}
            }
        }
        give_back(&UPCALLS, events);
    }

    fn install_query(&mut self, ctx: &mut Ctx<PierMsg>, desc: Arc<QueryDesc>) {
        let qid = desc.qid;
        if self.reg.get(qid).is_some() || self.cancelled.contains(&qid) {
            // Duplicate multicast delivery, or a descriptor whose Cancel
            // (or one-shot retirement) already happened here — a late
            // install must not resurrect a torn-down query.
            return;
        }
        // A descriptor comes from the network: it is certified once per
        // query — every index it carries against the arity it is
        // evaluated over, and a join's plan built — by whichever node
        // installs the shared multicast `Arc` first; this node reads the
        // cached verdict and refuses a malformed one as its own counted
        // drop. Everything downstream reads the checked descriptor (a
        // join, through its plan) instead of re-validating or unwrapping
        // per event.
        let Ok(view) = desc.certified() else {
            self.metrics.malformed_installs += 1;
            return self.refuse(ctx, &desc);
        };
        // Admission control: charge the query's priced budget against
        // its tenant's quota — what the registry already holds for the
        // tenant — or refuse the install outright. Every node runs the
        // same check on the same descriptor against the same quota table,
        // so the overlay-wide verdict is uniform; the initiator's
        // `try_submit` dry-run means a rejection here is only reachable
        // when quotas changed mid-flight or the submitter bypassed
        // governance with a raw `submit`.
        let priced = match self.governor.check(&desc, self.reg.committed()) {
            Ok(priced) => priced,
            Err(_) => {
                self.metrics.rejected_installs += 1;
                return self.refuse(ctx, &desc);
            }
        };
        self.metrics.on_install(qid, desc.tenant, priced, ctx.now);
        self.reg
            .install(QueryInstance::new(Arc::clone(&desc), view, priced));
        self.take_early(ctx, qid);
        // A standing unwindowed query carrying a renewal period renews
        // its own rehash state from install on.
        if let Some(every) = desc.tenure.renew_every() {
            self.arm_timer(ctx, every, TimerAction::RenewQuery { qid });
        }

        match &desc.op {
            QueryOp::Scan { scan, project } => {
                self.reg.route(scan.ns, qid, NsRole::Base(0));
                self.ship_scan(ctx, &desc, scan, project, Source::Stored);
            }
            QueryOp::Join { join: j, agg } => {
                // Flush timers first: the pane grid is known before the
                // dataflow below folds its first output.
                if let Some(agg) = agg {
                    self.schedule_agg_timers(ctx, &desc, agg);
                }
                let n = j.stages.len();
                for k in 0..n {
                    self.reg
                        .route(qns::stage_of(qid, n, k), qid, NsRole::Stage(k as u16));
                }
                for t in 0..=n {
                    self.reg.route(j.table(t).ns, qid, NsRole::Base(t as u16));
                }
                // Stage state that raced ahead of the query multicast is
                // probed before this node's own rehash, as if every raced
                // `Left` entry had arrived first: each live raced `Right`
                // entry probes, so a raced pair is found once, from its
                // right row. Last stage first: a match republished into
                // stage k + 1 meets only state already probed there.
                for k in (0..n).rev() {
                    let ns = qns::stage_of(qid, n, k);
                    let raced: Vec<Entry<QpItem>> = self
                        .dht
                        .lscan(ns)
                        .filter(|e| e.expires > ctx.now)
                        .filter(|e| matches!(e.val.join_key(), Some((Side::Right, _))))
                        .cloned()
                        .collect();
                    for entry in &raced {
                        self.probe(ctx, qid, k, entry);
                    }
                }
                match j.strategy {
                    JoinStrategy::SymmetricHash => {
                        for t in 0..=n {
                            self.rehash_table(ctx, qid, t, Source::Stored, None);
                        }
                    }
                    JoinStrategy::FetchMatches => self.fm_start(ctx, qid),
                    JoinStrategy::SymmetricSemiJoin => {
                        self.semi_rehash(ctx, qid, Side::Left);
                        self.semi_rehash(ctx, qid, Side::Right);
                    }
                    JoinStrategy::BloomFilter => self.bloom_start(ctx, qid),
                }
            }
            QueryOp::Agg { scan, agg } => {
                self.reg.route(scan.ns, qid, NsRole::Base(0));
                self.agg_start(ctx, &desc, scan, agg);
            }
        }
    }

    /// The installed descriptor of a query — the very allocation its
    /// submitter multicast, shared by every node's instance. Handlers
    /// hold this clone (a refcount bump) and borrow the operator specs
    /// from it, which keeps `self` free for the `&mut` calls the
    /// dataflow makes.
    pub fn query_desc(&self, qid: u64) -> Option<Arc<QueryDesc>> {
        self.reg.get(qid).map(|i| Arc::clone(&i.desc))
    }

    /// The plan of an installed join — `None` for a query that is gone
    /// or not a join.
    fn join_plan(&self, qid: u64) -> Option<JoinPlan> {
        let inst = self.reg.get(qid)?;
        Some((Arc::clone(&inst.desc), Arc::clone(inst.view.as_ref()?)))
    }

    fn on_new_data(&mut self, ctx: &mut Ctx<PierMsg>, entry: Entry<QpItem>) {
        // The namespace's routes are re-read at every step, not copied:
        // nothing below routes, installs or uninstalls a query (only a
        // multicast or a timer does), so they stand still while they are
        // walked.
        let mut at = self.reg.routes.partition_point(|r| r.0 < entry.ns);
        while let Some(&(ns, qid, role)) = self.reg.routes.get(at) {
            if ns != entry.ns {
                break;
            }
            at += 1;
            match role {
                NsRole::Stage(k) => self.probe(ctx, qid, k as usize, &entry),
                NsRole::Base(t) => self.on_base_new_data(ctx, qid, t as usize, &entry),
            }
        }
    }

    /// Standing queries: a base row just stored enters the query by the
    /// function its install took the stored rows by, as
    /// [`Source::Arrived`].
    fn on_base_new_data(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        t: usize,
        entry: &Entry<QpItem>,
    ) {
        let Some(desc) = self.query_desc(qid) else {
            return;
        };
        if desc.tenure == Tenure::OneShot {
            return;
        }
        let from = Source::Arrived(entry);
        match &desc.op {
            QueryOp::Scan { scan, project } => self.ship_scan(ctx, &desc, scan, project, from),
            QueryOp::Join { .. } => self.rehash_table(ctx, qid, t, from, None),
            // Without an epoch the aggregate stays one-shot: there is no
            // re-emission to carry the update.
            QueryOp::Agg { scan, agg } if agg.epoch.is_some() => {
                self.agg_fold(ctx.now, &desc, scan, agg, from)
            }
            QueryOp::Agg { .. } => {}
        }
    }

    fn on_get_result(&mut self, ctx: &mut Ctx<PierMsg>, token: u64, items: Vec<Entry<QpItem>>) {
        match self.get_purpose.remove(&token) {
            Some(GetPurpose::FmProbe { qid, left }) => self.fm_complete(ctx, qid, left, items),
            Some(GetPurpose::SemiFetch { qid, pair, side }) => {
                self.semi_complete(ctx, qid, pair, side, items)
            }
            None => {}
        }
    }

    /// The one sink of every join strategy: a match, still as the
    /// strategy holds it (two stored rows side by side, or the columns
    /// that leave the last stage), and the `project` that makes it an
    /// output row. The output row either folds into the query's
    /// aggregation, read where it lies, or is encoded once and ships to
    /// the initiator. `ident` names the result by its constituents
    /// (exactly-once under replication); `valid_until` is the expiry of
    /// its shortest-lived constituent — how long a *windowed* aggregate
    /// keeps counting it (unwindowed continuous aggregates are running
    /// totals).
    fn finish<R: Columns + ?Sized>(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        desc: &QueryDesc,
        row: &R,
        project: &[Expr],
        ident: u64,
        valid_until: Time,
    ) {
        let out = Projection::new(project, row);
        match desc.op.agg() {
            Some(agg) => {
                let valid = desc.tenure.window().map_or(Time::MAX, |_| valid_until);
                let replicated = self.replicated();
                if let Some(inst) = self.reg.get_mut(desc.qid) {
                    inst.accumulate(replicated, agg, &out, valid, ident);
                }
            }
            None => {
                let out = FlatRow::from_columns(&out);
                self.emit_encoded(ctx, desc.qid, desc.initiator, ident, out);
            }
        }
    }

    /// A scan's rows from `from`, projected and shipped to the initiator:
    /// encoded into one batch while the store is borrowed, their
    /// instanceIDs staged in a list from this thread's pool, and shipped
    /// (or logged, at the initiator) after.
    fn ship_scan(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        desc: &QueryDesc,
        scan: &ScanSpec,
        project: &[Expr],
        from: Source<'_>,
    ) {
        let (mut batch, mut iids) = (RowBatch::default(), take(&SHIPPED_IIDS));
        for_each_live(&self.dht, scan, from, ctx.now, |iid, _, _, row| {
            batch.push(&Projection::new(project, &row));
            iids.push(iid);
        });
        for (&iid, out) in iids.iter().zip(batch.seal().iter()) {
            self.emit_encoded(ctx, desc.qid, desc.initiator, iid as u64, out);
        }
        give_back(&SHIPPED_IIDS, iids);
    }

    /// Deliver one result row, already in its shipped form, to the
    /// initiator: shipped or — when this node is the initiator — logged
    /// as it would arrive.
    fn emit_encoded(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        initiator: NodeId,
        ident: u64,
        row: FlatRow,
    ) {
        self.metrics.on_result(qid, row.wire());
        if initiator == ctx.me {
            self.log_result(ctx.now, qid, ident, row);
        } else {
            ctx.send(initiator, PierMsg::Result { qid, ident, row });
        }
    }

    /// The initiator's result log: a result is kept as it arrived, in
    /// its wire form, once it is admitted — whether it was made here or
    /// arrived. It becomes a tuple only when a client reads it.
    fn log_result(&mut self, now: Time, qid: u64, ident: u64, row: FlatRow) {
        if self.record_result(qid, ident) {
            self.results.entry(qid).or_default().push((now, row));
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

/// A stored base row as `scan` reads it: viewed in place, and `None`
/// unless it has the scan's arity and passes its selection. A row of
/// another width (another table's rows under a colliding name, a
/// publisher with another schema) is skipped here, where it is first
/// viewed — read further, its missing columns would be NULLs — and
/// uncounted until the node has a dropped-row counter.
fn live_row<'a>(scan: &ScanSpec, flat: &'a FlatRow) -> Option<RowRef<'a>> {
    let row = flat.view();
    let wanted = row.arity() == scan.arity && scan.pred.as_ref().is_none_or(|p| p.matches(&row));
    wanted.then_some(row)
}

/// Where a query takes base rows from ([`for_each_live`]).
enum Source<'a> {
    /// Every row stored in the table's namespace: the query's install.
    Stored,
    /// The one row just stored there: its `newData` upcall.
    Arrived(&'a Entry<QpItem>),
}

/// Stream the live base rows of `from` that `scan` selects
/// ([`live_row`]) to `f` as `(instanceID, expiry, stored row, its
/// view)`, in `lscan` order, each read where it lies: nothing is
/// decoded, so a consumer allocates only what it keeps. The one place a
/// base row is tested on its way into a query: an expired one — unswept
/// (the sweep runs on the maintenance tick), or one whose lifetime ended
/// while its put was in flight — enters nothing, whether it was stored
/// before the install or arrives after.
fn for_each_live<'a>(
    dht: &'a Dht<QpItem>,
    scan: &ScanSpec,
    from: Source<'a>,
    now: Time,
    mut f: impl FnMut(u32, Time, &'a FlatRow, RowRef<'a>),
) {
    let mut offer = |e: &'a Entry<QpItem>| {
        let QpItem::Row(flat) = &e.val else { return };
        if e.expires <= now {
            return;
        }
        if let Some(row) = live_row(scan, flat) {
            f(e.iid, e.expires, flat, row);
        }
    };
    match from {
        Source::Stored => dht.lscan(scan.ns).for_each(offer),
        Source::Arrived(e) => offer(e),
    }
}

impl App for PierNode {
    type Msg = PierMsg;

    fn on_start(&mut self, ctx: &mut Ctx<PierMsg>) {
        let bootstrap = self.dht.bootstrap;
        if self.dht.is_joined() {
            ctx.set_timer(self.dht.cfg.tick, DHT_TICK_TOKEN);
        } else {
            self.dht.start(&mut self.reg.env(ctx), bootstrap);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<PierMsg>, from: NodeId, msg: PierMsg) {
        match msg {
            PierMsg::Dht(m) => self.dht_op(ctx, |node, ctx, events| {
                node.dht
                    .handle_message(&mut node.reg.env(ctx), from, m, events)
            }),
            PierMsg::Result { qid, ident, row } => self.log_result(ctx.now, qid, ident, row),
            PierMsg::Report(report) => self.on_report(ctx, from, report),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<PierMsg>, token: u64) {
        if token == DHT_TICK_TOKEN {
            return self.dht_op(ctx, |node, ctx, events| {
                node.dht.handle_timer(&mut node.reg.env(ctx), token, events);
            });
        }
        match self.timer_actions.remove(&token) {
            Some(TimerAction::TreeDue { qid }) => self.tree_due(ctx, qid),
            Some(TimerAction::AggHarvest { qid }) => {
                self.agg_harvest(ctx, qid);
                self.rearm_epoch(ctx, qid, TimerAction::AggHarvest { qid });
                // The harvest is a one-shot aggregate's terminal event.
                self.retire_if_one_shot(qid);
            }
            Some(TimerAction::Flush { qid }) => self.flush(ctx, qid),
            Some(TimerAction::Renew { every }) => self.renew_all(ctx, every),
            Some(TimerAction::RenewQuery { qid }) => self.renew_query(ctx, qid),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::GroupAccs;
    use crate::plan::JoinSpec;
    use crate::testkit::stabilized_pier_sim;
    use crate::tuple::Tuple;
    use pier_simnet::NetConfig;

    /// One group's partial, as `flush_partials` puts it.
    fn partial(qid: u64) -> QpItem {
        QpItem::Partial {
            qid,
            group: [Value::str("sig-0001")].into(),
            accs: GroupAccs::new(&[]).into(),
        }
    }

    /// A put of `item` into `ns` stores it and builds no upcall: the
    /// `events` list is not even allocated.
    fn assert_no_upcall(node: &mut PierNode, ctx: &mut Ctx<PierMsg>, ns: Ns, item: QpItem) {
        let mut events = Vec::new();
        let env = &mut node.reg.env(ctx);
        assert!(!env.wants_new_data(ns));
        let stored = node.dht.lscan(ns).count();
        let life = Dur::from_secs(60);
        node.dht.put(env, ns, 1, 0, item, life, &mut events);
        assert!(events.is_empty());
        assert_eq!(events.capacity(), 0);
        assert_eq!(
            node.dht.lscan(ns).count(),
            stored + 1,
            "stored all the same"
        );
    }

    /// `newData` is a subscription: a put into a namespace no installed
    /// query routed stores the item and builds no upcall, while the same
    /// put into a routed namespace raises it.
    #[test]
    fn new_data_is_raised_only_for_a_routed_namespace() {
        let mut sim =
            stabilized_pier_sim(1, DhtConfig::static_network(), NetConfig::latency_only(3));
        let (unrouted, routed) = (qns::agg(7), qns::agg(8));
        sim.with_app(0, |node, ctx| {
            assert_eq!(node.installed_query_count(), 0);
            assert_no_upcall(node, ctx, unrouted, partial(7));

            node.reg.route(routed, 8, NsRole::Stage(0));
            let mut events = Vec::new();
            let env = &mut node.reg.env(ctx);
            let life = Dur::from_secs(60);
            node.dht
                .put(env, routed, 1, 0, partial(8), life, &mut events);
            assert!(matches!(
                events.as_slice(),
                [DhtEvent::NewData { entry }] if entry.ns == routed
            ));
        });
    }

    /// A standing join of `L(k, j)` with `Rt(k, j)` on `j`.
    fn standing_join(qid: u64) -> QueryDesc {
        let left = ScanSpec::new("L", 2, 0).with_join_col(1);
        let right = ScanSpec::new("Rt", 2, 0).with_join_col(1);
        let mut join = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
        join.project = vec![Expr::col(0), Expr::col(2)];
        QueryDesc::standing(qid, 0, QueryOp::Join { join, agg: None }, None)
    }

    /// Two standing queries routed on one namespace receive its `newData`
    /// in the order they were installed, not in qid order — the first
    /// rehashes a new row before the second, so its copy has the smaller
    /// instanceID; once the first is uninstalled the second still receives
    /// it; and once both are, the namespace raises no upcall at all.
    #[test]
    fn new_data_reaches_routed_queries_in_install_order() {
        let mut sim =
            stabilized_pier_sim(1, DhtConfig::static_network(), NetConfig::latency_only(3));
        let table = pier_dht::ns_of("L");
        let rehashed = |node: &PierNode, qid: u64| -> Vec<u32> {
            let stage = qns::stage_of(qid, 1, 0);
            node.dht.lscan(stage).map(|e| e.iid).collect()
        };
        sim.with_app(0, |node, ctx| {
            let life = Dur::from_secs(600);
            for qid in [2, 1] {
                node.submit(ctx, standing_join(qid));
            }
            let firsts = [(table, 2, NsRole::Base(0)), (table, 1, NsRole::Base(0))];
            let run = node.reg.run(table);
            assert_eq!(node.reg.routes[run], firsts);

            node.publish_rows(
                ctx,
                "L",
                vec![Tuple::new(vec![Value::I64(0), Value::I64(7)])],
                0,
                life,
            );
            let (by_2, by_1) = (rehashed(node, 2), rehashed(node, 1));
            assert!(by_2.len() == 1 && by_1.len() == 1);
            assert!(
                by_2[0] < by_1[0],
                "query 2, installed first, rehashed first"
            );

            node.uninstall_query(2);
            node.publish_rows(
                ctx,
                "L",
                vec![Tuple::new(vec![Value::I64(1), Value::I64(7)])],
                0,
                life,
            );
            assert_eq!(rehashed(node, 1).len(), 2, "query 1 still receives newData");

            node.uninstall_query(1);
            assert!(node.reg.routes.is_empty());
            assert_no_upcall(node, ctx, table, partial(1));
        });
    }

    /// A node id of 2^14 or more would share `fresh_iid`'s instanceIDs
    /// with a smaller one: refused where the node is built.
    #[test]
    #[should_panic(expected = "aliases fresh_iid")]
    fn a_node_id_past_the_instance_id_space_is_refused() {
        let _ = PierNode::new(DhtConfig::static_network(), 1 << 14, None);
    }

    /// Routing a query on a namespace it is already routed on, in the
    /// same role, adds nothing; another role or query is another route.
    #[test]
    fn a_duplicate_route_adds_nothing() {
        let mut reg = QueryRegistry::default();
        let ns = qns::agg(8);
        reg.route(ns, 8, NsRole::Stage(0));
        reg.route(ns, 8, NsRole::Stage(0));
        assert_eq!(reg.routes, [(ns, 8, NsRole::Stage(0))]);
        reg.route(ns, 8, NsRole::Base(0));
        reg.route(ns, 3, NsRole::Stage(0));
        let routed = [
            (8, NsRole::Stage(0)),
            (8, NsRole::Base(0)),
            (3, NsRole::Stage(0)),
        ];
        assert_eq!(reg.routes, routed.map(|(q, role)| (ns, q, role)));
    }
}
