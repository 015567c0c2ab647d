//! The two fetch-based strategies of a two-table join. Fetch Matches
//! (§4.1) probes the right table in place, one DHT `get` per left row;
//! the symmetric semi-join rewrite (§4.2) rehashes only `(pkey, join)`
//! minis and fetches the full tuples of matched pairs. Both evaluate
//! over full-width base rows (a fetch cannot be pruned), read side by
//! side where they lie, and end in [`PierNode::finish`], like the
//! pipeline's last stage.

use pier_dht::msg::Entry;
use pier_simnet::app::Ctx;
use pier_simnet::time::Time;

use super::{
    for_each_live, live_row, take, GetPurpose, PairFetch, Pending, PierNode, Source, BULK_PUTS,
};
use crate::item::{PierMsg, QpItem, Side};
use crate::plan::qns;
use crate::tuple::{Columns, Concat, FlatRow, Rows};
use crate::value::Value;

impl PierNode {
    // ------------------------------------------------------------------
    // Fetch Matches (§4.1)
    // ------------------------------------------------------------------

    pub(super) fn fm_start(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64) {
        let Some((desc, view)) = self.join_plan(qid) else {
            return;
        };
        let Some(j) = desc.op.join() else { return };
        let (_, _, join_col) = view.table_role(0);
        // Each probing row is kept, as stored, until its fetch completes.
        let (left, mut rows, now) = (&j.left, Vec::new(), ctx.now);
        for_each_live(&self.dht, left, Source::Stored, now, |iid, _, flat, row| {
            let rid = row.col(join_col).hash64();
            rows.push((rid, (iid, flat.clone())));
        });
        let right_ns = j.stages[0].right.ns;
        self.dht_op(ctx, |node, ctx, events| {
            for (rid, left) in rows {
                let token = node.token();
                node.get_purpose
                    .insert(token, GetPurpose::FmProbe { qid, left });
                node.dht
                    .get(&mut node.reg.env(ctx), right_ns, rid, token, events);
            }
        });
    }

    pub(super) fn fm_complete(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        (left_iid, left_row): (u32, FlatRow),
        items: Vec<Entry<QpItem>>,
    ) {
        let Some((desc, view)) = self.join_plan(qid) else {
            return;
        };
        let Some(j) = desc.op.join() else { return };
        let stage = &j.stages[0];
        let (_, _, left_col) = view.table_role(0);
        let (_, _, right_col) = view.table_role(1);
        let left_row = left_row.view();
        let join = left_row.get(left_col);
        for e in items {
            let QpItem::Row(right_flat) = &e.val else {
                continue;
            };
            // "Selections on non-DHT attributes cannot be pushed into the
            // DHT": the right-side predicate is evaluated here, after the
            // fetch (§4.1).
            let Some(right_row) = live_row(&stage.right, right_flat) else {
                continue;
            };
            if right_row.get(right_col) != join {
                continue; // resourceID hash collision
            }
            let joined = Concat::new(left_row, right_row);
            if stage.stage_pred.as_ref().is_none_or(|p| p.matches(&joined)) {
                let ident = Self::pair_ident(left_iid, e.iid);
                self.finish(ctx, &desc, &joined, &j.project, ident, Time::MAX);
            }
        }
    }

    // ------------------------------------------------------------------
    // Symmetric semi-join rewrite (§4.2)
    // ------------------------------------------------------------------

    /// Rehash `(pkey, join)` minis of one side into the join's namespace.
    pub(super) fn semi_rehash(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, side: Side) {
        let Some((desc, view)) = self.join_plan(qid) else {
            return;
        };
        let Some(j) = desc.op.join() else { return };
        let t = side as usize;
        let scan = j.table(t);
        let (_, _, join_col) = view.table_role(t);
        // Two passes, as in `rehash_table`.
        let (mut puts, now) = (take(&BULK_PUTS), ctx.now);
        for_each_live(&self.dht, scan, Source::Stored, now, |iid, _, _, row| {
            let join = row.get(join_col).to_value();
            let pkey = row.get(scan.pkey_col).to_value();
            let rid = Self::rehash_rid(&join, j.computation_nodes);
            let item = QpItem::Mini {
                qid,
                side,
                pkey,
                join,
            };
            puts.push((rid, iid, Pending::Item(item)));
        });
        let (ns, lifetime) = (qns::rehash(qid), Self::soft_lifetime(&desc));
        self.put_rehashed(ctx, qid, ns, t as u64, lifetime, puts, &Rows::default());
    }

    /// Issue the two parallel full-tuple fetches for a matched mini pair
    /// ("we issue the two joins' fetches in parallel since we know both
    /// fetches will succeed", §4.2).
    pub(super) fn semi_pair(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        pk_l: Value,
        pk_r: Value,
        ident: u64,
    ) {
        let replicated = self.replicated();
        let pair = self.token();
        let Some(inst) = self.reg.get_mut(qid) else {
            return;
        };
        let Some(j) = inst.desc.op.join() else { return };
        let (left_ns, right_ns) = (j.left.ns, j.stages[0].right.ns);
        // A healed replica can re-run the mini probe a dead primary
        // already answered: the re-probed pair carries the same
        // identity, so skipping it here saves the two full-tuple
        // fetches, not just the duplicate emission.
        if replicated && !inst.acc_seen.insert(ident) {
            return;
        }
        let (rid_l, rid_r) = (pk_l.hash64(), pk_r.hash64());
        inst.pairs.insert(
            pair,
            PairFetch {
                rows: [None, None],
                pkeys: [pk_l, pk_r],
                ident,
            },
        );
        self.dht_op(ctx, |node, ctx, events| {
            for (side, ns, rid) in [(Side::Left, left_ns, rid_l), (Side::Right, right_ns, rid_r)] {
                let token = node.token();
                node.get_purpose
                    .insert(token, GetPurpose::SemiFetch { qid, pair, side });
                let env = &mut node.reg.env(ctx);
                node.dht.get(env, ns, rid, token, events);
            }
        });
    }

    pub(super) fn semi_complete(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        pair: u64,
        side: Side,
        items: Vec<Entry<QpItem>>,
    ) {
        let Some((desc, view)) = self.join_plan(qid) else {
            return;
        };
        let Some(j) = desc.op.join() else { return };
        let Some(inst) = self.reg.get_mut(qid) else {
            return;
        };
        let Some(p) = inst.pairs.get_mut(&pair) else {
            return;
        };
        // Only the rows the mini named (a resourceID may collide) that
        // the scan selects (§4.1: selections on non-DHT attributes are
        // evaluated after the fetch).
        let scan = j.table(side as usize);
        let pkey = p.pkeys[side as usize].as_ref();
        p.rows[side as usize] = Some(
            items
                .into_iter()
                .filter_map(|e| match e.val {
                    QpItem::Row(t) => Some(t),
                    _ => None,
                })
                .filter(|t| live_row(scan, t).is_some_and(|r| r.get(scan.pkey_col) == pkey))
                .collect(),
        );
        if p.rows.iter().any(Option::is_none) {
            return;
        }
        let Some(PairFetch {
            rows: [Some(lefts), Some(rights)],
            ident,
            ..
        }) = inst.pairs.remove(&pair)
        else {
            return;
        };
        let post = &j.stages[0].stage_pred;
        let (_, _, left_col) = view.table_role(0);
        let (_, _, right_col) = view.table_role(1);
        for (li, l) in lefts.iter().enumerate() {
            let l = l.view();
            for (ri, r) in rights.iter().enumerate() {
                let r = r.view();
                if l.get(left_col) != r.get(right_col) {
                    continue; // another row under the same primary key
                }
                let joined = Concat::new(l, r);
                if post.as_ref().is_none_or(|pp| pp.matches(&joined)) {
                    // One mini pair normally yields one row per side
                    // (resourceID = primary key); the index mix only
                    // disambiguates pkey-collision multiplicities.
                    let ident = pier_dht::geom::hash2(ident, ((li as u64) << 32) | ri as u64);
                    self.finish(ctx, &desc, &joined, &j.project, ident, Time::MAX);
                }
            }
        }
    }
}
