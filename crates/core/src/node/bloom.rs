//! The Bloom-filter rewrite of a two-table join (§4.2): every node
//! builds a filter per side over its local rows, the combine tree ORs
//! them on their way to its root, which multicasts the result
//! (`combine`), and each side's rehash ([`PierNode::rehash_table`]) is
//! gated by the filter over the opposite table's keys.

use pier_simnet::app::Ctx;
use pier_simnet::time::Dur;

use super::{for_each_live, PierNode, Source, TimerAction};
use crate::bloom::BloomFilter;
use crate::item::{Part, PierMsg, Side};

/// How long a node waits for its children's filters before it reports
/// what it has: the 60 × 10 s a collector once extended its deadline to.
const BLOOM_DEADLINE: Dur = Dur(600 * 1_000_000);

/// Hash functions per filter; with `JoinSpec::bloom_bits`, the shape
/// every node's filters of a query share.
pub(super) const BLOOM_HASHES: u32 = 4;

impl PierNode {
    pub(super) fn bloom_start(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64) {
        let Some((desc, view)) = self.join_plan(qid) else {
            return;
        };
        let Some(j) = desc.op.join() else { return };
        let filters = [Side::Left, Side::Right].map(|side| {
            let mut filter = BloomFilter::new(j.bloom_bits, BLOOM_HASHES);
            let (_, _, join_col) = view.table_role(side as usize);
            let scan = j.table(side as usize);
            for_each_live(&self.dht, scan, Source::Stored, ctx.now, |_, _, _, row| {
                filter.insert(row.get(join_col).hash64());
            });
            filter
        });
        self.arm_timer(ctx, BLOOM_DEADLINE, TimerAction::TreeDue { qid });
        self.contribute(ctx, qid, Part::Bloom(filters));
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
        let Some(tree) = self.tree(qid) else { return };
        if std::mem::replace(&mut tree.got_filter[side as usize], true) {
            return;
        }
        let t = side.opposite() as usize;
        self.rehash_table(ctx, qid, t, Source::Stored, Some(&filter));
    }
}
