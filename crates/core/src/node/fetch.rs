//! The two fetch-based strategies of a two-table join. Fetch Matches
//! (§4.1) probes the right table in place, one DHT `get` per left row;
//! the symmetric semi-join rewrite (§4.2) rehashes only `(pkey, join)`
//! minis and fetches the full tuples of matched pairs. Both evaluate
//! over full-width base rows (a fetch cannot be pruned) and end in
//! [`PierNode::finish`], like the pipeline's last stage.

use pier_dht::msg::Entry;
use pier_dht::Rid;
use pier_simnet::app::Ctx;
use pier_simnet::time::Time;

use super::{for_each_live, GetPurpose, PairFetch, PierNode};
use crate::item::{PierMsg, QpItem, Side};
use crate::plan::qns;
use crate::tuple::Tuple;
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
        // Each probing row is kept until its fetch completes.
        let mut rows = Vec::new();
        for_each_live(&self.dht, &j.left, ctx.now, |iid, expires, row| {
            rows.push((iid, expires, row.clone()));
        });
        let right_ns = j.stages[0].right.ns;
        let mut work = Vec::new();
        for (left_iid, left_expires, left_row) in rows {
            let rid = left_row.get(join_col).hash64();
            let token = self.token();
            self.get_purpose.insert(
                token,
                GetPurpose::FmProbe {
                    qid,
                    left_iid,
                    left_expires,
                    left_row,
                },
            );
            work.push((rid, token));
        }
        let mut env = self.reg.env(ctx);
        let mut events = Vec::new();
        for (rid, token) in work {
            self.dht.get(&mut env, right_ns, rid, token, &mut events);
        }
        self.pump(ctx, events);
    }

    pub(super) fn fm_complete(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        (left_iid, left_expires, left_row): (u32, Time, Tuple),
        items: Vec<Entry<QpItem>>,
    ) {
        let Some((desc, view)) = self.join_plan(qid) else {
            return;
        };
        let Some(j) = desc.op.join() else { return };
        let stage = &j.stages[0];
        let (_, _, left_col) = view.table_role(0);
        let (_, _, right_col) = view.table_role(1);
        let join = left_row.get(left_col);
        for e in items {
            let QpItem::Row(right_flat) = &e.val else {
                continue;
            };
            let right_row = &right_flat.decode();
            // "Selections on non-DHT attributes cannot be pushed into the
            // DHT": the right-side predicate is evaluated here, after the
            // fetch (§4.1).
            if right_row.get(right_col) != join {
                continue; // resourceID hash collision
            }
            if !stage
                .right
                .pred
                .as_ref()
                .is_none_or(|p| p.matches(right_row))
            {
                continue;
            }
            let joined = left_row.concat(right_row);
            if stage.stage_pred.as_ref().is_none_or(|p| p.matches(&joined)) {
                let out = Tuple::new(j.project.iter().map(|e| e.eval(&joined)).collect());
                let ident = Self::pair_ident(left_iid, e.iid);
                self.finish(ctx, &desc, out, ident, left_expires.min(e.expires));
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
        let mut puts: Vec<(Rid, u32, QpItem)> = Vec::new();
        for_each_live(&self.dht, scan, ctx.now, |base_iid, _, row| {
            let join = row.get(join_col).clone();
            let pkey = row.get(scan.pkey_col).clone();
            let rid = Self::rehash_rid(&join, j.computation_nodes);
            let item = QpItem::Mini {
                qid,
                side,
                pkey,
                join,
            };
            puts.push((rid, base_iid, item));
        });
        let lifetime = Self::soft_lifetime(&desc);
        self.put_rehashed(ctx, qid, qns::rehash(qid), t as u64, lifetime, puts);
    }

    /// Pair an arriving mini with the live opposite-side minis of the
    /// same join value (expired-but-unswept projections must not pair,
    /// same as [`Self::probe`]).
    pub(super) fn probe_mini(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        entry: &Entry<QpItem>,
        side: Side,
        pkey: &Value,
        join: &Value,
    ) {
        let now = ctx.now;
        let partners: Vec<(u32, Value)> = self
            .dht
            .store
            .get(entry.ns, entry.rid)
            .iter()
            .filter(|e| e.iid != entry.iid && e.expires > now)
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
        for (partner_iid, partner) in partners {
            let (pk_l, pk_r) = match side {
                Side::Left => (pkey.clone(), partner),
                Side::Right => (partner, pkey.clone()),
            };
            let ident = Self::pair_ident(entry.iid, partner_iid);
            self.semi_pair(ctx, qid, pk_l, pk_r, ident);
        }
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
        let Some(inst) = self.reg.queries.get_mut(&qid) else {
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
        let mut events = Vec::new();
        for (side, ns, rid) in [(Side::Left, left_ns, rid_l), (Side::Right, right_ns, rid_r)] {
            let token = self.token();
            self.get_purpose
                .insert(token, GetPurpose::SemiFetch { qid, pair, side });
            let env = &mut self.reg.env(ctx);
            self.dht.get(env, ns, rid, token, &mut events);
        }
        self.pump(ctx, events);
    }

    pub(super) fn semi_complete(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        pair: u64,
        side: Side,
        items: Vec<Entry<QpItem>>,
    ) {
        let Some((desc, _)) = self.join_plan(qid) else {
            return;
        };
        let Some(j) = desc.op.join() else { return };
        let Some(inst) = self.reg.queries.get_mut(&qid) else {
            return;
        };
        let Some(p) = inst.pairs.get_mut(&pair) else {
            return;
        };
        // Only the rows the mini named: a resourceID may collide.
        let pkey_col = j.table(side as usize).pkey_col;
        let pkey = &p.pkeys[side as usize];
        p.rows[side as usize] = Some(
            items
                .iter()
                .filter_map(|e| match &e.val {
                    QpItem::Row(t) => Some((e.expires, t.decode())),
                    _ => None,
                })
                .filter(|(_, t)| t.get(pkey_col) == pkey)
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
        for (li, (l_expires, l)) in lefts.iter().enumerate() {
            for (ri, (r_expires, r)) in rights.iter().enumerate() {
                let joined = l.concat(r);
                if post.as_ref().is_none_or(|pp| pp.matches(&joined)) {
                    let out = Tuple::new(j.project.iter().map(|e| e.eval(&joined)).collect());
                    // One mini pair normally yields one row per side
                    // (resourceID = primary key); the index mix only
                    // disambiguates pkey-collision multiplicities.
                    let ident = pier_dht::geom::hash2(ident, ((li as u64) << 32) | ri as u64);
                    self.finish(ctx, &desc, out, ident, *l_expires.min(r_expires));
                }
            }
        }
    }
}
