//! The one join dataflow: a left-deep pipeline of §4.1 symmetric hash
//! join stages. Every base table is rehashed into its stage's namespace,
//! arriving state probes the opposite side (`newData`), and a match
//! either feeds the next stage or reaches the sink
//! ([`PierNode::finish`]). A two-table join is the one-stage case.

use pier_dht::msg::Entry;
use pier_dht::{Ns, Rid};
use pier_simnet::app::Ctx;
use pier_simnet::time::{Dur, Time};

use super::{
    for_each_live, give_back, take, BulkPut, JoinPlan, Pending, PierNode, Source, BULK_PUTS,
};
use crate::bloom::BloomFilter;
use crate::item::{PierMsg, QpItem, Side};
use crate::plan::{qns, PipelineSchema};
use crate::tuple::{Columns, Concat, FlatRow, RowBatch, RowRef, Rows, Select};
use crate::value::Scalar;

impl PierNode {
    /// Rehash resourceID for a join value: either the value hash, or one
    /// of `m` buckets when the computation is confined to m nodes.
    pub(super) fn rehash_rid<S: AsRef<str>>(
        join: &Scalar<S>,
        computation_nodes: Option<u32>,
    ) -> Rid {
        let h = join.hash64();
        match computation_nodes {
            Some(m) => h % m.max(1) as u64,
            None => h,
        }
    }

    /// Rehash the rows of pipeline table `t` from `from` — this node's
    /// local fragment at install, or the one row just stored, for a
    /// standing query — into its stage namespace, projected onto the
    /// stage schema: only the columns some later stage or the final
    /// SELECT reads ship, encoded straight from the stored row. The Bloom
    /// strategy gates the rehash by a filter over the opposite table's
    /// keys.
    pub(super) fn rehash_table(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        t: usize,
        from: Source<'_>,
        filter: Option<&BloomFilter>,
    ) {
        let Some((desc, view)) = self.join_plan(qid) else {
            return;
        };
        let Some(j) = desc.op.join() else { return };
        let (k, side, join_col) = view.table_role(t);
        let keep = view.keep_for_table(t);
        // The store cannot be scanned and put into at once: pass one
        // stages the items, their rows encoded into one batch, and
        // `put_rehashed` names and puts them.
        let (mut batch, mut puts) = (RowBatch::default(), take(&BULK_PUTS));
        let values = &mut self.values;
        for_each_live(&self.dht, j.table(t), from, ctx.now, |iid, _, _, row| {
            let join = row.col(join_col);
            if filter.is_some_and(|f| !f.contains(join.hash64())) {
                return;
            }
            let rid = Self::rehash_rid(&join, j.computation_nodes);
            let row = batch.push(&Select::new(&row, keep));
            let item = Pending::Tagged(qid, side, values.share(join), row);
            puts.push((rid, iid, item));
        });
        let ns = qns::stage_of(qid, j.stages.len(), k);
        let lifetime = Self::soft_lifetime(&desc);
        self.put_rehashed(ctx, qid, ns, t as u64, lifetime, puts, &batch.seal());
    }

    /// Second pass of a bulk rehash: give each item the scan staged its
    /// instanceID — derived from the *base* row's, which is what `puts`
    /// carries — and its row out of `rows`, and put it into `ns`, in scan
    /// order. The list goes back to its pool drained.
    #[allow(clippy::too_many_arguments)] // Table 3's put, in bulk, plus the owning query
    pub(super) fn put_rehashed(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        ns: Ns,
        salt: u64,
        lifetime: Dur,
        mut puts: Vec<BulkPut>,
        rows: &Rows,
    ) {
        self.dht_op(ctx, |node, ctx, events| {
            for (rid, base_iid, item) in puts.drain(..) {
                let iid = node.derived_iid(base_iid, salt);
                let item = item.item(rows);
                node.record_rehash(qid, ns, rid, iid, &item);
                let env = &mut node.reg.env(ctx);
                node.dht.put(env, ns, rid, iid, item, lifetime, events);
            }
            give_back(&BULK_PUTS, puts);
        });
    }

    /// Probe an arriving stage-`k` entry against the opposite side
    /// (§4.1): "each node registers ... a newData callback; when a tuple
    /// arrives, a get is issued to find matches in the other table; this
    /// get is expected to stay local." Each pair is joined where both
    /// rows lie, or, for a semi-join's minis, sets off the fetch of both
    /// full tuples.
    pub(super) fn probe(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        k: usize,
        entry: &Entry<QpItem>,
    ) {
        let Some((side, join)) = entry.val.join_key() else {
            return;
        };
        let Some(plan) = self.join_plan(qid) else {
            return;
        };
        let (_, view) = &plan;
        // The arriving row, viewed once: a stage row not as wide as its
        // side's layout probes nothing. A mini carries no row.
        let mine = match &entry.val {
            QpItem::Tagged { row, .. } => match stage_row(view, k, side, row) {
                None => return,
                row => row,
            },
            _ => None,
        };
        // Expired-but-unswept partners (the sweep runs on the
        // maintenance tick) must not join. The bucket is walked by a
        // cursor, not copied: each partner found costs one descent of the
        // store, and the items between partners are passed over where
        // they lie. Nothing below a probe puts into stage k's namespace
        // (a match republishes into stage k + 1, reaches the sink or only
        // fetches) and only the tick sweeps, so the bucket stands still
        // while it is walked. The store cannot be read while a match is
        // put: the partner is held by refcount.
        let now = ctx.now;
        let partner = |e: &Entry<QpItem>| match e.val.join_key() {
            Some((s, jv)) if e.iid != entry.iid && e.expires > now && s != side && jv == join => {
                Some((e.iid, e.expires, e.val.clone()))
            }
            _ => None,
        };
        let mut cursor = 0;
        while let Some((next, (other_iid, other_expires, other))) =
            self.dht.store.next_in(entry.ns, entry.rid, cursor, partner)
        {
            cursor = next;
            let ident = Self::pair_ident(entry.iid, other_iid);
            match (&entry.val, mine, other) {
                (_, Some(mine), QpItem::Tagged { row, .. }) => {
                    let Some(theirs) = stage_row(view, k, side.opposite(), &row) else {
                        continue;
                    };
                    // The accumulated intermediate is always the left operand.
                    let joined = match side {
                        Side::Left => Concat::new(mine, theirs),
                        Side::Right => Concat::new(theirs, mine),
                    };
                    let until = entry.expires.min(other_expires);
                    self.join_pair(ctx, &plan, k, &joined, until, ident);
                }
                (QpItem::Mini { pkey, .. }, _, QpItem::Mini { pkey: theirs, .. }) => {
                    let (pk_l, pk_r) = match side {
                        Side::Left => (pkey.clone(), theirs),
                        Side::Right => (theirs, pkey.clone()),
                    };
                    self.semi_pair(ctx, qid, pk_l, pk_r, ident);
                }
                _ => {}
            }
        }
    }

    /// One pair of stage-`k` rows whose join values matched, side by
    /// side: if the stage predicate passes it, the columns that leave
    /// [`Self::advance`].
    fn join_pair(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        plan: &JoinPlan,
        k: usize,
        joined: &Concat<'_>,
        until: Time,
        ident: u64,
    ) {
        let (_, view) = plan;
        if let Some(emit) = view.stages[k].pass(joined) {
            self.advance(ctx, plan, k, &Select::new(joined, emit), until, ident);
        }
    }

    /// A stage-`k` match (the columns that leave the stage, read in
    /// place): feed the next stage, encoded once as the row republished
    /// there, or finish. `until` is the expiry of the shortest-lived
    /// constituent: restarting the window here would let late arrivals
    /// join state that already aged out. `ident` names the match by its
    /// constituent instanceIDs: under replication the republished
    /// intermediate's iid and the final result's dedup identity both
    /// derive from it, so a probe re-run by a healed stage replica
    /// renews rather than duplicates.
    fn advance<R: Columns + ?Sized>(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        (desc, view): &JoinPlan,
        k: usize,
        row: &R,
        until: Time,
        ident: u64,
    ) {
        if until <= ctx.now {
            // A constituent already aged out (expired-but-unswept soft
            // state): neither republish nor emit — a last-stage match
            // against expired state would be a phantom result.
            return;
        }
        let Some(j) = desc.op.join() else { return };
        let Some(next) = view.stages.get(k + 1) else {
            return self.finish(ctx, desc, row, &view.project, ident, until);
        };
        let qid = desc.qid;
        // Publish the intermediate as soft state in the next stage's
        // namespace, keyed by its join value there.
        let join = row.col(next.join_idx_left);
        let rid = Self::rehash_rid(&join, j.computation_nodes);
        let iid = if self.replicated() {
            pier_dht::geom::hash2(ident, 0x6d6a_0000 | k as u64) as u32
        } else {
            self.fresh_iid()
        };
        let item = QpItem::Tagged {
            qid,
            side: Side::Left,
            join: self.values.share(join),
            row: FlatRow::from_columns(row),
        };
        let ns = qns::stage_of(qid, j.stages.len(), k + 1);
        let lifetime = until.since(ctx.now);
        self.record_rehash(qid, ns, rid, iid, &item);
        self.dht_op(ctx, |node, ctx, events| {
            let env = &mut node.reg.env(ctx);
            node.dht.put(env, ns, rid, iid, item, lifetime, events);
        });
    }
}

/// A stored stage-`k` row tagged `side`, viewed in place — or `None` if
/// it is not as wide as the stage's pruned layout for that side says
/// (another plan's row under a colliding namespace): read on, its
/// missing columns would join as NULLs. Skipped where it is first viewed,
/// and uncounted until the node has a dropped-row counter.
fn stage_row<'a>(
    view: &PipelineSchema,
    k: usize,
    side: Side,
    row: &'a FlatRow,
) -> Option<RowRef<'a>> {
    let row = row.view();
    (row.arity() == view.width(k, side)).then_some(row)
}
