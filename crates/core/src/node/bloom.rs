//! The Bloom-filter rewrite of a two-table join (§4.2): every node
//! publishes a filter fragment per side, collectors OR and multicast
//! them, and each side's rehash ([`PierNode::rehash_table`]) is gated by
//! the filter over the opposite table's keys.

use pier_simnet::app::Ctx;
use pier_simnet::time::Dur;

use super::{for_each_live, NsRole, PierNode, Source, TimerAction};
use crate::bloom::BloomFilter;
use crate::item::{PierMsg, QpItem, Side};
use crate::plan::qns;

/// How long a collector gathers fragment filters before OR-ing and
/// multicasting them — a fallback: it flushes early once every node's
/// fragment has arrived (count-based).
const BLOOM_WAIT: Dur = Dur(10 * 1_000_000);

/// How many times a collector extends its deadline for slow fragments.
const MAX_DEADLINE_EXTENSIONS: u8 = 60;

/// Hash functions per filter; with `JoinSpec::bloom_bits`, the shape
/// every fragment of a query shares.
const BLOOM_HASHES: u32 = 4;

impl PierNode {
    pub(super) fn bloom_start(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64) {
        let Some((desc, view)) = self.join_plan(qid) else {
            return;
        };
        let Some(j) = desc.op.join() else { return };
        // Publish a filter fragment per local side. Fragments are
        // collector metadata: they must outlive the collector's flush
        // deadline — including every congestion extension (≤ 60 ×
        // `BLOOM_WAIT`) — so a slow collector never ORs an
        // already-expired fragment set.
        let lifetime = BLOOM_WAIT.saturating_mul(64);
        let filters = [Side::Left, Side::Right].map(|side| {
            let mut filter = BloomFilter::new(j.bloom_bits, BLOOM_HASHES);
            let (_, _, join_col) = view.table_role(side as usize);
            let scan = j.table(side as usize);
            for_each_live(&self.dht, scan, Source::Stored, ctx.now, |_, _, _, row| {
                filter.insert(row.get(join_col).hash64());
            });
            (side, filter)
        });
        // Register for the collector namespaces before anything is put
        // into them: `newData` is raised only for a routed namespace, and
        // where this node is the collector its own fragment is stored
        // inside the `put` below — it may be the one that completes the
        // count.
        let bloom_ns = |side| qns::bloom(qid, side == Side::Right);
        for side in [Side::Left, Side::Right] {
            self.reg
                .route(bloom_ns(side), qid, NsRole::BloomCollector(side));
        }
        self.dht_op(ctx, |node, ctx, events| {
            let (env, me) = (&mut node.reg.env(ctx), node.dht.me());
            for (side, filter) in filters {
                let item = QpItem::Bloom { qid, side, filter };
                node.dht
                    .put(env, bloom_ns(side), 0, me, item, lifetime, events);
            }
            // If we own a collector key, schedule the OR-and-multicast: a
            // deadline as fallback, plus an early flush once fragments
            // from every node have arrived (see `on_bloom_fragment`).
            for side in [Side::Left, Side::Right] {
                if node.dht.owns_key(pier_dht::key_of(bloom_ns(side), 0)) {
                    let action = TimerAction::BloomFlush { qid, side };
                    node.arm_timer(ctx, BLOOM_WAIT, action);
                }
            }
        });
    }

    /// A fragment landed at this collector: flush early once every
    /// participant's is in.
    pub(super) fn on_bloom_fragment(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, side: Side) {
        if self.fragments_missing(qid, side) == Some(false) {
            self.bloom_flush(ctx, qid, side);
        }
    }

    /// Is this collector still waiting for fragments of `side`? `None`
    /// when it cannot tell (query gone, or participant count unknown).
    fn fragments_missing(&self, qid: u64, side: Side) -> Option<bool> {
        let desc = &self.reg.get(qid)?.desc;
        let expecting = desc.n_nodes as usize;
        let have = self
            .fragments(qid, side, desc.op.join()?.bloom_bits)
            .count();
        (expecting > 0).then_some(have < expecting)
    }

    /// The stored fragments of `side` that can be OR-ed into the query's
    /// filter. A fragment of another shape is skipped where it would be
    /// counted or merged — OR-ed in, it tripped `BloomFilter::union`'s
    /// shape assertion — and uncounted until the node has a
    /// dropped-row counter (`foreign_fragment`).
    fn fragments(
        &self,
        qid: u64,
        side: Side,
        bloom_bits: u32,
    ) -> impl Iterator<Item = &BloomFilter> {
        let ns = qns::bloom(qid, side == Side::Right);
        self.dht.store.lscan(ns).filter_map(move |e| match &e.val {
            QpItem::Bloom { filter, .. } if filter.has_shape(bloom_bits, BLOOM_HASHES) => {
                Some(filter)
            }
            _ => None,
        })
    }

    /// A collector's deadline: if fragments are known to be still in
    /// flight (congestion), extend the window instead of multicasting a
    /// truncated filter.
    pub(super) fn bloom_deadline(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, side: Side) {
        let missing = self.fragments_missing(qid, side) == Some(true);
        let Some(inst) = self.reg.get_mut(qid) else {
            return;
        };
        let s = side as usize;
        if missing && inst.bloom_waits[s] < MAX_DEADLINE_EXTENSIONS && !inst.bloom_flushed[s] {
            inst.bloom_waits[s] += 1;
            self.arm_timer(ctx, BLOOM_WAIT, TimerAction::BloomFlush { qid, side });
        } else {
            self.bloom_flush(ctx, qid, side);
        }
    }

    /// OR the collected fragments of `side` and multicast the result.
    fn bloom_flush(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, side: Side) {
        let Some(inst) = self.reg.get_mut(qid) else {
            return;
        };
        let Some(bloom_bits) = inst.desc.op.join().map(|j| j.bloom_bits) else {
            return;
        };
        if std::mem::replace(&mut inst.bloom_flushed[side as usize], true) {
            return;
        }
        let mut filter = BloomFilter::new(bloom_bits, BLOOM_HASHES);
        for fragment in self.fragments(qid, side, bloom_bits) {
            filter.union(fragment);
        }
        // "The filters are OR-ed together and then multicast to all nodes
        // storing the opposite table" — our multicast reaches all nodes;
        // non-holders simply have nothing to rehash.
        self.multicast(ctx, QpItem::Bloom { qid, side, filter });
    }

    /// The OR-ed filter over `side`'s keys arrived: it gates the rehash
    /// of the *opposite* table.
    pub(super) fn on_bloom_filter(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        qid: u64,
        side: Side,
        filter: BloomFilter,
    ) {
        let Some(inst) = self.reg.get_mut(qid) else {
            return;
        };
        if std::mem::replace(&mut inst.got_filter[side as usize], true) {
            return;
        }
        let t = side.opposite() as usize;
        self.rehash_table(ctx, qid, t, Source::Stored, Some(&filter));
    }
}
