//! Events surfaced by the DHT to the layer above (the query processor).
//!
//! These correspond to the asynchronous callbacks of the paper's APIs:
//! `lookup`'s completion, `newData`, `locationMapChange` (Tables 1 and 3),
//! plus multicast delivery.

use crate::msg::Entry;
use pier_simnet::NodeId;

/// An upcall from the DHT layer.
#[derive(Clone, Debug)]
pub enum DhtEvent<V> {
    /// The set of keys mapped to this node changed (Table 1's
    /// `locationMapChange` callback).
    LocationMapChanged,
    /// A new item arrived in a local partition (Table 3's `newData`);
    /// renewals of existing instances do not re-fire. Raised only for a
    /// namespace the host subscribed to
    /// ([`crate::DhtEnv::wants_new_data`]); an item nobody asked about
    /// is stored and that is all.
    NewData { entry: Entry<V> },
    /// Completion of an asynchronous `get`; `token` is caller-chosen.
    GetResult { token: u64, items: Vec<Entry<V>> },
    /// A multicast payload reached this node.
    Multicast { origin: NodeId, payload: V },
}
