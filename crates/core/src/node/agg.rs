//! Aggregation (flat DHT grouping + hierarchical extension): the
//! accumulate half of the join sink, the flush/harvest timers, and the
//! tree variant's parts (gathered by `combine`).

use std::borrow::Borrow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::sync::Arc;

use pier_dht::Rid;
use pier_simnet::app::Ctx;
use pier_simnet::time::{Dur, Time};

use super::shared::SharedValues;
use super::{for_each_live, PierNode, QueryInstance, Source, TimerAction};
pub(super) use crate::agg::Groups;
use crate::agg::{Accs, AggState, Harvest};
use crate::expr::Projection;
use crate::item::{Part, PierMsg, QpItem};
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

/// A group key the map can be probed with: a stored key, or the group
/// columns of the row being folded, read where they lie. Ordered as
/// `[Value]` orders itself — element by element with `Scalar::cmp`, then
/// by length — so a borrowed probe finds exactly the group an owned key
/// would, and the map's order (put order, emission order) is the keys'.
pub(super) trait GroupKey {
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
/// accumulators. The group is found by its columns as they lie; a group
/// seen for the first time takes its key from the node's shared values,
/// where every other query that folded the same group finds it too.
fn fold<R: Columns + ?Sized>(
    groups: &mut Groups,
    values: &mut SharedValues,
    agg: &AggSpec,
    row: &R,
) {
    let key = Select::new(row, &agg.group_cols);
    match groups.get_mut(&key as &dyn GroupKey) {
        Some(accs) => Arc::make_mut(accs).update(&agg.aggs, row),
        None => {
            // Fresh, so unique: `make_mut` writes in place.
            let mut accs: Arc<[AggState]> =
                agg.aggs.iter().map(|c| AggState::new(c.func)).collect();
            Arc::make_mut(&mut accs).update(&agg.aggs, row);
            groups.insert(values.share_key(&key), accs);
        }
    }
}

/// Merge one group's partial accumulators into `groups`. A group not
/// there yet shares the partial's key and accumulators; the first merge
/// into it afterwards copies them, once.
pub(super) fn merge(groups: &mut Groups, group: &Arc<[Value]>, accs: &Arc<[AggState]>) {
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
pub(super) fn fits(agg: &AggSpec, group: &[Value], accs: &[AggState]) -> bool {
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
        values: &mut SharedValues,
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
            Some(epoch) if valid_until < Time::MAX => {
                fold(self.pane(epoch, valid_until), values, agg, row)
            }
            _ => fold(&mut self.run_groups, values, agg, row),
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
fn base_valid(window: Option<Dur>, now: Time, expires: Time) -> Time {
    window.map_or(Time::MAX, |w| expires.min(now + w))
}

impl PierNode {
    /// Install-time half of a single-table aggregation: schedule the
    /// flushes, fold the local fragment, and report a one-shot: a flat
    /// one into `NA`, a tree's up the tree.
    pub(super) fn agg_start(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        desc: &QueryDesc,
        scan: &ScanSpec,
        agg: &AggSpec,
    ) {
        self.schedule_agg_timers(ctx, desc, agg);
        self.agg_fold(ctx.now, desc, scan, agg, Source::Stored);
        if agg.epoch.is_none() {
            // Epoch queries flush on their timer instead.
            self.flush(ctx, desc.qid);
        }
    }

    /// Fold the rows of a single-table aggregation's input from `from`
    /// into the query's aggregation state, each counted while it lives
    /// ([`base_valid`]).
    pub(super) fn agg_fold(
        &mut self,
        now: Time,
        desc: &QueryDesc,
        scan: &ScanSpec,
        agg: &AggSpec,
        from: Source<'_>,
    ) {
        let replicated = self.replicated();
        let Some(inst) = self.reg.get_mut(desc.qid) else {
            return;
        };
        let values = &mut self.values;
        for_each_live(&self.dht, scan, from, now, |iid, expires, _, row| {
            let valid = base_valid(desc.tenure.window(), now, expires);
            inst.accumulate(values, replicated, agg, &row, valid, iid as u64);
        });
    }

    /// Finalize groups, given in emission order with their accumulators:
    /// apply HAVING, evaluate the output expressions, ship to the
    /// initiator (or log, at the initiator) — each group finalized into
    /// one reused virtual row and the output evaluated over it as it is
    /// encoded into one batch, so the results cost the one buffer that
    /// leaves. Aggregate emissions legitimately repeat every epoch:
    /// ident 0 exempts them from initiator-side dedup.
    pub(super) fn emit_groups<'g>(
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

    /// Arm an aggregate's flush and harvest timers. A tree has no
    /// harvest under an epoch: its root emits each epoch's groups as they
    /// come in whole; a one-shot tree's harvest is its deadline.
    pub(super) fn schedule_agg_timers(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        desc: &QueryDesc,
        agg: &AggSpec,
    ) {
        let qid = desc.qid;
        let joinagg = matches!(desc.op, QueryOp::Join { .. });
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
            if !agg.hierarchical || joinagg {
                let half = Dur::from_micros(epoch.as_micros() / 2);
                self.arm_timer(ctx, half, TimerAction::AggHarvest { qid });
            }
            return;
        }
        if joinagg {
            // NQ nodes accumulate join outputs, then flush halfway.
            let half = Dur::from_micros(agg.harvest.as_micros() / 2);
            self.arm_timer(ctx, half, TimerAction::Flush { qid });
        }
        // A one-shot tree's harvest is its deadline: report what it has.
        let due = if agg.hierarchical && !joinagg {
            TimerAction::TreeDue { qid }
        } else {
            TimerAction::AggHarvest { qid }
        };
        self.arm_timer(ctx, agg.harvest, due);
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

    /// A flush timer fired: report the aggregation state up the tree or
    /// into `NA`, and re-arm.
    pub(super) fn flush(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64) {
        let Some(desc) = self.query_desc(qid) else {
            return;
        };
        match &desc.op {
            QueryOp::Agg { agg, .. } if agg.hierarchical => {
                let Some(inst) = self.reg.get_mut(qid) else {
                    return;
                };
                // With no pane open: the running totals, shared.
                let built = inst.build_report(ctx.now);
                let groups = built.unwrap_or_else(|| inst.run_groups.clone());
                self.contribute(ctx, qid, Part::Groups(groups));
            }
            QueryOp::Agg { agg, .. } | QueryOp::Join { agg: Some(agg), .. } => {
                self.flush_partials(ctx, qid, agg);
            }
            _ => return,
        }
        self.rearm_epoch(ctx, qid, TimerAction::Flush { qid });
    }
}
