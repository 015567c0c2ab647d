//! DHT payloads and node-to-node messages of the query processor.

use std::mem::size_of;
use std::sync::Arc;

use pier_dht::msg::{DhtMsg, Entry};
use pier_simnet::Wire;

use crate::agg::{Accs, AggState, Groups};
use crate::bloom::BloomFilter;
use crate::plan::QueryDesc;
use crate::tuple::FlatRow;
use crate::value::Value;

/// Which input of a binary join a fragment belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

impl Side {
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// Everything PIER stores in or ships through the DHT.
///
/// One `QpItem` sits inline in every store slot, queued event and
/// pending DHT op, so its size is paid per item *held*, whatever the
/// variant. The hot variants (`Row`, `Tagged`, `Mini`, `Partial`) fit 64
/// bytes, so an `Entry` is 104 and a `PierMsg` 144 (its largest variant
/// is CAN's multicast, with its 64-byte zone); anything cold and fat goes
/// behind an `Arc` — see the guards below the message types.
#[derive(Clone, Debug)]
pub enum QpItem {
    /// A base-table tuple published by a wrapper (§2.2's "natural
    /// habitat" data, copied into the DHT as soft state). Stored and
    /// shipped in flat wire form: renewal, replication, and re-homing
    /// clone a refcounted byte buffer, not a `Vec<Value>`.
    Row(FlatRow),
    /// A rehashed join tuple in `NQ`: tagged with source table (§4.1)
    /// and carrying the join value to guard against resourceID hash
    /// collisions.
    Tagged {
        qid: u64,
        side: Side,
        join: Value,
        row: FlatRow,
    },
    /// Symmetric semi-join projection: (resourceID, join key) only.
    Mini {
        qid: u64,
        side: Side,
        pkey: Value,
        join: Value,
    },
    /// The OR-ed Bloom filter over one side's join keys, multicast by the
    /// root of the query's combine tree.
    Bloom {
        qid: u64,
        side: Side,
        filter: BloomFilter,
    },
    /// A partial aggregate for one group. Both halves are shared, not
    /// copied: `group` is the one allocation made when the publishing
    /// node first saw the group — its running totals are keyed by it,
    /// every epoch's put carries it, and the owner's store and harvest
    /// hold it — and `accs` is the publisher's accumulators as they stood
    /// at the flush, one allocation. A stored partial is an immutable
    /// snapshot: the publisher's next row copies the accumulators before
    /// it writes (`Arc::make_mut` where it folds), and an owner's harvest
    /// reads the stored partials where they lie, merging a group's into
    /// one accumulator of its own.
    Partial {
        qid: u64,
        group: Arc<[Value]>,
        accs: Arc<[AggState]>,
    },
    /// A query descriptor (multicast payload). One per query install
    /// and ~0.5 KB, so it is shared: the multicast to N nodes and the N
    /// installed instances all hold the submitter's one allocation.
    Query(Arc<QueryDesc>),
    /// Best-effort uninstall notice (multicast payload): receivers tear
    /// the query down — cancel timers, stop renewing, drop operator
    /// state — and its DHT soft state then ages out within one lifetime
    /// (§3.2.3 reclamation-by-expiry; there is no distributed delete).
    Cancel { qid: u64 },
}

impl QpItem {
    /// The side and join value of a rehashed join item, `Tagged` or
    /// `Mini`: what a probe matches partners by.
    pub fn join_key(&self) -> Option<(Side, &Value)> {
        match self {
            QpItem::Tagged { side, join, .. } | QpItem::Mini { side, join, .. } => {
                Some((*side, join))
            }
            _ => None,
        }
    }
}

impl Wire for QpItem {
    fn wire_size(&self) -> usize {
        match self {
            QpItem::Row(t) => row_item_wire(t.wire()),
            QpItem::Tagged { join, row, .. } => 11 + join.wire_size() + row.wire(),
            QpItem::Mini { pkey, join, .. } => 11 + pkey.wire_size() + join.wire_size(),
            QpItem::Bloom { filter, .. } => 11 + filter.wire_size(),
            QpItem::Partial { group, accs, .. } => 10 + group_wire(group) + accs.wire_size(),
            QpItem::Query(d) => d.wire_size(),
            QpItem::Cancel { .. } => 10,
        }
    }
}

/// Wire bytes of a group's key.
fn group_wire(group: &[Value]) -> usize {
    group.iter().map(Value::wire_size).sum()
}

/// Wire bytes of a [`QpItem::Row`] whose row is `row` wire bytes: what a
/// publish charges its tenant before the item is built.
pub(crate) fn row_item_wire(row: usize) -> usize {
    2 + row
}

/// The complete message type of a PIER node: the DHT sublayer's protocol
/// plus the query processor's direct (IP) messages.
#[derive(Clone, Debug)]
pub enum PierMsg {
    Dht(DhtMsg<QpItem>),
    /// A result tuple delivered directly to the query initiator (§4.1:
    /// "sent to ... the initiating site of the query").
    Result {
        qid: u64,
        /// Logical identity of the result (derived from the constituent
        /// instanceIDs). Under `replication > 1` a healed replica can
        /// re-run a probe a dead primary already answered; the initiator
        /// drops re-emissions by this identity. `0` = never deduplicated
        /// (aggregate emissions, which legitimately repeat every epoch).
        ident: u64,
        row: FlatRow,
    },
    /// One node's report up a query's combine tree (`node::combine`).
    Report(Box<Report>),
}

/// What a node sends its parent in a query's combine tree: its own part
/// for one round, merged with the reports its children sent for it.
#[derive(Clone, Debug)]
pub struct Report {
    pub qid: u64,
    /// The round: the sender's flush count under an epoch, else 0.
    pub epoch: u32,
    /// The summed key-space shares of the nodes whose parts are merged
    /// in (`pier_dht::overlay::TreeSeat`).
    pub share: u128,
    pub part: Part,
}

/// What one node contributes to a combine tree.
#[derive(Clone, Debug)]
pub enum Part {
    /// Bloom filters over the join keys of each [`Side`], in side order.
    Bloom([BloomFilter; 2]),
    /// The groups of one epoch, shared as in [`QpItem::Partial`].
    Groups(Groups),
}

/// The DHT sublayer speaks `DhtMsg<QpItem>`; on the wire it travels
/// inside this envelope (what lets `pier_dht::CtxEnv` host it).
impl From<DhtMsg<QpItem>> for PierMsg {
    fn from(msg: DhtMsg<QpItem>) -> Self {
        PierMsg::Dht(msg)
    }
}

impl Wire for PierMsg {
    fn wire_size(&self) -> usize {
        match self {
            PierMsg::Dht(m) => m.wire_size(),
            PierMsg::Result { row, .. } => pier_dht::msg::HEADER_BYTES + 16 + row.wire(),
            PierMsg::Report(r) => {
                let part: usize = match &r.part {
                    Part::Bloom(f) => f.iter().map(BloomFilter::wire_size).sum(),
                    Part::Groups(g) => g.iter().map(|(g, a)| group_wire(g) + a.wire_size()).sum(),
                };
                pier_dht::msg::HEADER_BYTES + 28 + part // qid 8, epoch 4, share 16
            }
        }
    }
}

// Bytes per stored item and per queued message are the simulator's
// capacity at 10^4 nodes; a variant that outgrows these belongs behind
// an `Arc` (or `Box`), not inline.
const _: () = assert!(size_of::<QpItem>() <= 64);
const _: () = assert!(size_of::<Entry<QpItem>>() <= 104);
const _: () = assert!(size_of::<PierMsg>() <= 144);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn padded_result_tuple_is_1kb_on_the_wire() {
        // The workload pads result tuples to 1 KB via R.pad (§5.1).
        let row = FlatRow::from_tuple(&tuple![1i64, 2i64, Value::Pad(1000)]);
        let msg = PierMsg::Result {
            qid: 1,
            ident: 0,
            row,
        };
        assert!(msg.wire_size() > 1000 && msg.wire_size() < 1120);
    }

    #[test]
    fn mini_is_much_smaller_than_tagged() {
        let mini = QpItem::Mini {
            qid: 1,
            side: Side::Left,
            pkey: Value::I64(1),
            join: Value::I64(2),
        };
        let tagged = QpItem::Tagged {
            qid: 1,
            side: Side::Left,
            join: Value::I64(2),
            row: FlatRow::from_tuple(&tuple![1i64, 2i64, 3i64, Value::Pad(1000)]),
        };
        assert!(mini.wire_size() * 10 < tagged.wire_size());
    }

    #[test]
    fn side_opposite() {
        assert_eq!(Side::Left.opposite(), Side::Right);
        assert_eq!(Side::Right.opposite(), Side::Left);
    }
}
