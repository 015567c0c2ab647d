//! Aggregation (flat DHT grouping + hierarchical extension): the
//! accumulate half of the join sink, the flush/harvest timers, and the
//! tree variant's flushes.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

use pier_dht::Rid;
use pier_simnet::app::Ctx;
use pier_simnet::time::{Dur, Time};

use super::{for_each_live, PierNode, QueryInstance, TimerAction};
use crate::agg::{Accs, AggState, Harvest};
use crate::expr::Projection;
use crate::item::{PierMsg, QpItem};
use crate::plan::{qns, AggSpec, QueryDesc, QueryOp, ScanSpec};
use crate::tuple::{Columns, RowBatch, Select, Tuple};
use crate::value::{ValRef, Value};

/// resourceID of a group's partials: hash of the group values.
fn group_rid(group: &[Value]) -> Rid {
    let mut h: u64 = 0x67_72_6f_75_70;
    for v in group {
        h = pier_dht::geom::hash2(h, v.hash64());
    }
    h
}

/// Accumulators by group key, in key order. The key is allocated once,
/// when the node first sees the group, and shared from there on: by the
/// scratch map a flush's report builds, by every partial put or sent for
/// the group, by the owner's store and its harvest. The accumulators are
/// one allocation, shared the same way and copied on write
/// (`Arc::make_mut`): a flush's snapshot is a refcount bump, what is
/// stored or in flight never changes, and only a group that received a
/// row since its last flush copies its accumulators, once, at that row.
pub(super) type Groups = BTreeMap<Arc<[Value]>, Arc<[AggState]>>;

/// A group key the map can be probed with: a stored key, or the group
/// columns of the row being folded, read where they lie. Ordered as
/// `[Value]` orders itself — element by element with `Scalar::cmp`, then
/// by length — so a borrowed probe finds exactly the group an owned key
/// would, and the map's order (put order, emission order) is the keys'.
trait GroupKey {
    fn len(&self) -> usize;
    fn at(&self, i: usize) -> ValRef<'_>;
}

impl GroupKey for Arc<[Value]> {
    fn len(&self) -> usize {
        <[Value]>::len(self)
    }
    fn at(&self, i: usize) -> ValRef<'_> {
        self[i].as_ref()
    }
}

impl<R: Columns + ?Sized> GroupKey for Select<'_, R> {
    fn len(&self) -> usize {
        self.arity()
    }
    fn at(&self, i: usize) -> ValRef<'_> {
        self.col(i)
    }
}

impl Ord for dyn GroupKey + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        let n = self.len().min(other.len());
        (0..n)
            .map(|i| self.at(i).cmp(&other.at(i)))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| self.len().cmp(&other.len()))
    }
}

impl PartialOrd for dyn GroupKey + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for dyn GroupKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for dyn GroupKey + '_ {}

impl<'a> Borrow<dyn GroupKey + 'a> for Arc<[Value]> {
    fn borrow(&self) -> &(dyn GroupKey + 'a) {
        self
    }
}

thread_local! {
    /// The virtual row `[group values..., finalized aggs...]` every
    /// emitted group is finalized into: per thread, so a node carries
    /// none. It keeps the last group's values until it is next filled.
    static VIRT: RefCell<Tuple> = RefCell::default();
    /// The partials a harvest merges: per thread and reused, like `VIRT`,
    /// and empty between harvests, so it holds no partial alive.
    static HARVEST: RefCell<Harvest> = RefCell::default();
}

/// Fold one input row, read where it lies, into its group's
/// accumulators. The group is found by its columns as they lie; only a
/// group seen for the first time allocates its (from then on shared)
/// key.
fn fold<R: Columns + ?Sized>(groups: &mut Groups, agg: &AggSpec, row: &R) {
    let key = Select::new(row, &agg.group_cols);
    match groups.get_mut(&key as &dyn GroupKey) {
        Some(accs) => Arc::make_mut(accs).update(&agg.aggs, row),
        None => {
            // Fresh, so unique: `make_mut` writes in place.
            let mut accs: Arc<[AggState]> =
                agg.aggs.iter().map(|c| AggState::new(c.func)).collect();
            Arc::make_mut(&mut accs).update(&agg.aggs, row);
            let key = (0..key.arity()).map(|i| key.value(i)).collect();
            groups.insert(key, accs);
        }
    }
}

/// Merge one group's partial accumulators into `groups`. A group not
/// there yet shares the partial's key and accumulators; the first merge
/// into it afterwards copies them, once.
fn merge(groups: &mut Groups, group: &Arc<[Value]>, accs: &Arc<[AggState]>) {
    match groups.get_mut(&**group) {
        Some(g) => Arc::make_mut(g).merge(accs),
        None => {
            groups.insert(Arc::clone(group), Arc::clone(accs));
        }
    }
}

/// Does a partial that arrived from the network have the shape the
/// installed spec gives its own? One that does not (another query's
/// arity under a colliding namespace, a peer running another plan) is
/// skipped where it would be merged: zipped against states of other
/// kinds it would be silently truncated or mis-added.
fn fits(agg: &AggSpec, group: &[Value], accs: &[AggState]) -> bool {
    group.len() == agg.group_cols.len() && accs.fits(&agg.aggs)
}

impl QueryInstance {
    /// Fold one input row, counted at every flush before `valid_until`,
    /// into the query's aggregation state: under an epoch, a row that
    /// stops counting folds into the pane of the flush it stops at;
    /// every other row (one-shot inputs included) into the running
    /// totals.
    pub(super) fn accumulate<R: Columns + ?Sized>(
        &mut self,
        replicated: bool,
        agg: &AggSpec,
        row: &R,
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
        match agg.epoch {
            Some(epoch) if valid_until < Time::MAX => fold(self.pane(epoch, valid_until), agg, row),
            _ => fold(&mut self.run_groups, agg, row),
        }
    }

    /// The pane closing at the first flush at or after `until`, on the
    /// grid of flushes every `epoch` from the next one.
    fn pane(&mut self, epoch: Dur, until: Time) -> &mut Groups {
        let late = until.since(self.next_flush).as_micros();
        let epochs = late.div_ceil(epoch.as_micros().max(1));
        let closes = self.next_flush + epoch.saturating_mul(epochs);
        let at = match self.panes.binary_search_by_key(&closes, |p| p.0) {
            Ok(at) => at,
            Err(at) => {
                self.panes.insert(at, (closes, Groups::new()));
                at
            }
        };
        &mut self.panes[at].1
    }

    /// Groups to report at a flush instant: the closed panes dropped, and
    /// the open ones merged with the running totals. `None` when no pane
    /// is open: the running totals are the report as they stand.
    fn build_report(&mut self, now: Time) -> Option<Groups> {
        let closed = self.panes.partition_point(|p| p.0 <= now);
        self.panes.drain(..closed);
        if self.panes.is_empty() {
            return None;
        }
        let mut groups = Groups::new();
        for pane in self.panes.iter().map(|p| &p.1).chain([&self.run_groups]) {
            for (group, accs) in pane {
                merge(&mut groups, group, accs);
            }
        }
        Some(groups)
    }
}

/// How long a base row counts toward a windowed aggregate: `window`
/// after it is first seen, and never past its own expiry.
pub(super) fn base_valid(window: Option<Dur>, now: Time, expires: Time) -> Time {
    window.map_or(Time::MAX, |w| expires.min(now + w))
}

impl PierNode {
    /// Install-time half of a single-table aggregation: schedule the
    /// flushes, fold the local fragment, and flush a flat one-shot.
    pub(super) fn agg_start(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        desc: &QueryDesc,
        scan: &ScanSpec,
        agg: &AggSpec,
    ) {
        let (qid, now) = (desc.qid, ctx.now);
        self.schedule_agg_timers(ctx, desc, agg);
        let replicated = self.replicated();
        if let Some(inst) = self.reg.get_mut(qid) {
            for_each_live(&self.dht, scan, now, |iid, expires, _, row| {
                let valid = base_valid(desc.tenure.window(), now, expires);
                inst.accumulate(replicated, agg, &row, valid, iid as u64);
            });
        }
        if !agg.hierarchical && agg.epoch.is_none() {
            // Epoch queries and trees flush on their timer instead.
            self.flush_partials(ctx, qid, agg);
        }
    }

    /// [`QueryInstance::accumulate`] on an installed query.
    pub(super) fn accumulate<R: Columns + ?Sized>(
        &mut self,
        qid: u64,
        agg: &AggSpec,
        row: &R,
        valid_until: Time,
        ident: u64,
    ) {
        let replicated = self.replicated();
        if let Some(inst) = self.reg.get_mut(qid) {
            inst.accumulate(replicated, agg, row, valid_until, ident);
        }
    }

    /// Finalize groups, given in emission order with their accumulators:
    /// apply HAVING, evaluate the output expressions, ship to the
    /// initiator (or log, at the initiator) — each group finalized into
    /// one reused virtual row and the output evaluated over it as it is
    /// encoded into one batch, so the results cost the one buffer that
    /// leaves. Aggregate emissions legitimately repeat every epoch:
    /// ident 0 exempts them from initiator-side dedup.
    fn emit_groups<'g>(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        desc: &QueryDesc,
        agg: &AggSpec,
        groups: impl Iterator<Item = (&'g [Value], &'g [AggState])>,
    ) {
        // Taken out for the duration: nothing on the way re-enters (if
        // something did, it would find an empty row and allocate its own).
        let mut virt = VIRT.take();
        let mut batch = RowBatch::default();
        for (group, accs) in groups {
            accs.output_row(group, &mut virt);
            if agg.having.as_ref().is_none_or(|h| h.matches(&virt)) {
                batch.push(&Projection::new(&agg.output, &virt));
            }
        }
        VIRT.set(virt);
        for row in batch.seal().iter() {
            self.emit_encoded(ctx, desc.qid, desc.initiator, 0, row);
        }
    }

    /// Push local partials into the NA namespace (flat aggregation).
    /// Epoch queries re-publish under the same instanceID every epoch —
    /// a renewal — with a one-epoch lifetime, so a group that ages out
    /// of this node's window stops contributing by the next harvest.
    /// A put shares the group's key and its accumulators as they stand:
    /// renewing a group that received no row since the last flush costs
    /// the put and nothing else.
    pub(super) fn flush_partials(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, agg: &AggSpec) {
        let na = qns::agg(qid);
        let lifetime = agg.epoch.unwrap_or_else(|| agg.harvest.saturating_mul(4));
        self.dht_op(ctx, |node, ctx, events| {
            let inst = node.reg.get_mut(qid);
            let built = inst.and_then(|inst| inst.build_report(ctx.now));
            let Some(inst) = node.reg.get(qid) else {
                return;
            };
            let groups = built.as_ref().unwrap_or(&inst.run_groups);
            let (env, me) = (&mut node.reg.env(ctx), node.dht.me());
            for (group, accs) in groups {
                let partial = QpItem::Partial {
                    qid,
                    group: Arc::clone(group),
                    accs: Arc::clone(accs),
                };
                let rid = group_rid(group);
                node.dht.put(env, na, rid, me, partial, lifetime, events);
            }
        });
    }

    /// Arm an aggregate's flush and harvest timers. A tree staggers its
    /// flushes so deeper nodes send before their parents, merging along a
    /// binary tree over node ids, within each epoch; it has no harvest.
    pub(super) fn schedule_agg_timers(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        desc: &QueryDesc,
        agg: &AggSpec,
    ) {
        let qid = desc.qid;
        let joinagg = matches!(desc.op, QueryOp::Join { .. });
        if agg.hierarchical && !joinagg {
            let n = desc.n_nodes.max(1);
            let max_depth = 64 - (n as u64).leading_zeros() as u64;
            let me = self.dht.me() as u64;
            let depth = 64 - (me + 1).leading_zeros() as u64;
            // Deeper levels flush earlier.
            let slot = max_depth.saturating_sub(depth) + 1;
            let span = agg.epoch.unwrap_or(agg.harvest);
            let delay = Dur::from_micros(span.as_micros() * slot / (max_depth + 2));
            self.arm_timer(ctx, delay, TimerAction::Flush { qid });
            return;
        }
        if let Some(epoch) = agg.epoch {
            // Epoch-driven continuous aggregation: partials flush just
            // after each epoch boundary (the short lag lets the join
            // outputs probed right after the query multicast — rehash
            // puts are still in flight at install — make epoch 0), and
            // every surviving group is harvested and re-emitted half an
            // epoch later. Both timers re-arm on fire, so the standing
            // query never tears down.
            let lag = Dur::from_micros((epoch.as_micros() / 4).min(5_000_000));
            self.arm_timer(ctx, lag, TimerAction::Flush { qid });
            let half = Dur::from_micros(epoch.as_micros() / 2);
            self.arm_timer(ctx, half, TimerAction::AggHarvest { qid });
            return;
        }
        if joinagg {
            // NQ nodes accumulate join outputs, then flush halfway.
            let half = Dur::from_micros(agg.harvest.as_micros() / 2);
            self.arm_timer(ctx, half, TimerAction::Flush { qid });
        }
        self.arm_timer(ctx, agg.harvest, TimerAction::AggHarvest { qid });
    }

    /// Continuous aggregation re-arms its timers every epoch instead of
    /// tearing the query down after one harvest (an epoch is certified
    /// standing, [`crate::plan::Tenure::check`]).
    pub(super) fn rearm_epoch(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, action: TimerAction) {
        let epoch = self.reg.get(qid).and_then(|i| i.desc.op.agg()?.epoch);
        if let Some(epoch) = epoch {
            self.arm_timer(ctx, epoch, action);
        }
    }

    /// Finalize every group whose partials landed here; apply HAVING;
    /// ship results to the initiator. The partials are merged where they
    /// lie, in `lscan` order, and none is copied: a group with one
    /// partial is finalized from it, one with more from its merge in a
    /// reused buffer ([`Harvest`]).
    pub(super) fn agg_harvest(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64) {
        let Some(desc) = self.query_desc(qid) else {
            return;
        };
        let Some(agg) = desc.op.agg() else { return };
        let now = ctx.now;
        let mut harvest = HARVEST.take();
        // Expired partials (a publisher whose group aged out of its
        // window, or a dead node) are skipped even before the sweep
        // collects them; so is one that is not shaped like this query's.
        for e in self.dht.store.lscan(qns::agg(qid)) {
            match &e.val {
                QpItem::Partial {
                    group,
                    accs,
                    qid: q,
                } if *q == qid && e.expires > now && fits(agg, group, accs) => {
                    harvest.push(group, accs)
                }
                _ => {}
            }
        }
        self.emit_groups(ctx, &desc, agg, harvest.groups());
        harvest.clear();
        HARVEST.set(harvest);
    }

    /// A flush timer fired: report the aggregation state to the tree
    /// parent or into `NA`, and re-arm. A one-shot tree flush is this
    /// node's terminal event (parents flush after their children sent
    /// partials up).
    pub(super) fn flush(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64) {
        let Some(desc) = self.query_desc(qid) else {
            return;
        };
        match &desc.op {
            QueryOp::Agg { agg, .. } if agg.hierarchical => {
                self.hier_flush(ctx, &desc, agg);
                self.rearm_epoch(ctx, qid, TimerAction::Flush { qid });
                self.retire_if_one_shot(qid);
            }
            QueryOp::Agg { agg, .. } | QueryOp::Join { agg: Some(agg), .. } => {
                self.flush_partials(ctx, qid, agg);
                self.rearm_epoch(ctx, qid, TimerAction::Flush { qid });
            }
            _ => {}
        }
    }

    fn hier_flush(&mut self, ctx: &mut Ctx<PierMsg>, desc: &QueryDesc, agg: &AggSpec) {
        let qid = desc.qid;
        let Some(inst) = self.reg.get_mut(qid) else {
            return;
        };
        // Sent or emitted, the report leaves this node: with no pane open
        // it is the running totals, shared.
        let built = inst.build_report(ctx.now);
        let groups = built.unwrap_or_else(|| inst.run_groups.clone());
        let me = self.dht.me();
        if me == 0 {
            // Root: finalize.
            let pairs = groups.iter().map(|(group, accs)| (&group[..], &accs[..]));
            self.emit_groups(ctx, desc, agg, pairs);
        } else {
            let parent = (me - 1) / 2;
            for (group, accs) in groups {
                ctx.send(parent, PierMsg::AggUp { qid, group, accs });
            }
        }
    }

    /// A child's partial, counted at this node's next tree flush only —
    /// under an epoch, in the pane closing one epoch after it — unless it
    /// is not shaped like this query's ([`fits`]).
    pub(super) fn on_agg_up(&mut self, qid: u64, group: Arc<[Value]>, accs: Arc<[AggState]>) {
        let Some(inst) = self.reg.get_mut(qid) else {
            return;
        };
        let agg = inst.desc.op.agg().filter(|agg| fits(agg, &group, &accs));
        let Some(epoch) = agg.map(|agg| agg.epoch) else {
            return;
        };
        let groups = match epoch {
            Some(epoch) => inst.pane(epoch, inst.next_flush + epoch),
            None => &mut inst.run_groups,
        };
        merge(groups, &group, &accs);
    }
}
