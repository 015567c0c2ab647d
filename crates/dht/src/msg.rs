//! DHT wire messages and their size model.

use std::sync::Arc;

use crate::geom::{Point, Zone};
use crate::{Ns, Rid};
use pier_simnet::time::Time;
use pier_simnet::{NodeId, Wire};

/// Fixed per-message overhead we charge for transport headers
/// (IP + UDP + PIER framing).
pub const HEADER_BYTES: usize = 48;

/// Bytes for one serialized zone (d × two 8-byte bounds, d ≤ 8; we charge
/// the paper-default d = 4).
const ZONE_BYTES: usize = 64;

/// One CAN node's zone list, one immutable allocation. The owner builds
/// a new list only when its region changes (a join split, a takeover,
/// an absorb, a leave); every neighbor entry, second-hop map and
/// announcement that names it holds a refcount on that one list.
pub type Zones = Arc<[Zone]>;

/// One CAN node's neighbor table as it advertises it: each neighbor and
/// its zones. Built once per keepalive and held by reference — the
/// heartbeat to every neighbor and the second-hop view each of them
/// keeps are refcounts on the sender's one map, not copies of it, and
/// each entry's zones are the neighbor's own [`Zones`].
pub type NeighborMap = Arc<[(NodeId, Zones)]>;

/// A stored DHT object: the provider naming scheme of §3.2.3.
///
/// `ns`/`rid` are 64-bit hashes of the application-level namespace and
/// resourceID; `iid` is the application-chosen instanceID distinguishing
/// same-key items; `key` is the routing key `hash(ns, rid)`; `expires` is
/// the soft-state deadline after which the owner discards the item.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry<V> {
    pub ns: Ns,
    pub rid: Rid,
    pub iid: u32,
    pub key: u64,
    pub expires: Time,
    pub val: V,
}

impl<V: Wire> Entry<V> {
    /// Wire bytes of the entry itself (header charged by the envelope).
    pub fn body_size(&self) -> usize {
        8 + 8 + 4 + 8 + 8 + self.val.wire_size()
    }
}

/// CAN overlay messages (routing layer of Table 1 plus maintenance).
#[derive(Clone, Debug)]
pub enum CanMsg<V> {
    /// Routed toward `p`; the owner of `p` splits its zone for `joiner`.
    JoinLocate { joiner: NodeId, p: Point, ttl: u16 },
    /// Direct reply to the joiner: its new zone, a starter neighbor set,
    /// and the stored items that fall into the transferred zone.
    JoinOffer {
        zone: Zone,
        neighbors: Vec<(NodeId, Zones)>,
        items: Vec<Entry<V>>,
    },
    /// Sender announces its current zone list (join/leave/takeover).
    NeighborUpdate { zones: Zones },
    /// Periodic liveness beacon carrying the sender's zones and its
    /// neighbor map (second-hop information, which gives all neighbors of
    /// a failed node a *consistent* candidate set for takeover election).
    Heartbeat {
        zones: Zones,
        neighbors: NeighborMap,
    },
    /// Claimant absorbed a dead node's zones.
    Takeover { dead: NodeId, zones: Zones },
    /// Graceful departure: hand zones and items to a neighbor, who
    /// announces itself to the leaver's old neighborhood.
    Leave {
        zones: Zones,
        items: Vec<Entry<V>>,
        neighbors: Vec<NodeId>,
    },
    /// `lookup(key)`: routed greedily toward the key's point.
    Lookup {
        key: u64,
        token: u64,
        origin: NodeId,
        ttl: u16,
    },
    /// Content-based multicast: directed flood over rectangles.
    Mcast {
        id: u64,
        origin: NodeId,
        rect: Zone,
        payload: V,
        ttl: u16,
    },
}

/// Chord overlay messages.
#[derive(Clone, Debug)]
pub enum ChordMsg<V> {
    /// Routed via closest-preceding-finger toward `target`'s successor.
    FindSucc {
        target: u64,
        token: u64,
        origin: NodeId,
        purpose: FindPurpose,
        ttl: u16,
    },
    /// Direct reply: the successor responsible for `target`.
    FoundSucc {
        token: u64,
        target: u64,
        purpose: FindPurpose,
        succ_ring: u64,
        succ: NodeId,
    },
    /// Stabilization probe.
    GetNeighborhood,
    Neighborhood {
        pred: Option<(u64, NodeId)>,
        succs: Vec<(u64, NodeId)>,
    },
    /// "I might be your predecessor."
    Notify { ring: u64 },
    /// Finger-tree broadcast covering (sender, limit).
    Bcast {
        id: u64,
        origin: NodeId,
        payload: V,
        limit: u64,
    },
}

/// The key region an anti-entropy [`DhtMsg::RepairRequest`] asks about:
/// the requester's *current* ownership region, in the geometry of its
/// overlay. Responders return live items whose routing key falls inside.
#[derive(Clone, Debug)]
pub enum RepairScope {
    /// CAN: the requester's zone list after a takeover/absorption.
    Zones(Zones),
    /// Chord: ring interval `(from, to]` the requester now owns
    /// (`from == to` means the whole ring, matching `in_open_closed`).
    Ring { from: u64, to: u64 },
}

impl RepairScope {
    fn wire_size(&self) -> usize {
        match self {
            RepairScope::Zones(zones) => 4 + zones.len() * ZONE_BYTES,
            RepairScope::Ring { .. } => 16,
        }
    }
}

/// Why a Chord FindSucc was issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindPurpose {
    /// Provider lookup; `token` keys the pending op at the origin.
    Lookup,
    /// Joining node locating its successor.
    Join,
    /// Finger-table refresh for index `k`.
    Finger(u8),
}

/// Top-level DHT message: overlay routing plus the provider protocol
/// (lookup-then-direct `put`/`get`, §3.2.3 and footnote 6).
#[derive(Clone, Debug)]
pub enum DhtMsg<V> {
    Can(CanMsg<V>),
    Chord(ChordMsg<V>),
    /// Lookup completed: `origin`'s pending op `token` may now fire at
    /// the sender of this message (the key's owner).
    LookupReply {
        token: u64,
        key: u64,
    },
    /// Store an entry at the receiving (owner) node.
    Put {
        entry: Entry<V>,
    },
    /// Key-based retrieval at the receiving (owner) node.
    Get {
        ns: Ns,
        rid: Rid,
        token: u64,
        origin: NodeId,
    },
    GetReply {
        token: u64,
        items: Vec<Entry<V>>,
    },
    /// Replica copy fanned out by the key's primary owner (`k > 1`).
    /// Stored in the receiver's replica store; never fires `newData`.
    Replicate {
        entry: Entry<V>,
    },
    /// Anti-entropy pull after an ownership change: the sender now owns
    /// `scope` and asks a likely replica holder for live items in it.
    RepairRequest {
        scope: RepairScope,
    },
    /// Live items from the responder's primary + replica stores that
    /// fall inside the requested scope.
    RepairReply {
        items: Vec<Entry<V>>,
    },
}

impl<V: Wire> Wire for CanMsg<V> {
    fn wire_size(&self) -> usize {
        match self {
            CanMsg::JoinLocate { .. } => 4 + 32 + 2,
            CanMsg::JoinOffer {
                neighbors, items, ..
            } => {
                ZONE_BYTES
                    + neighbors
                        .iter()
                        .map(|(_, zs)| 4 + zs.len() * ZONE_BYTES)
                        .sum::<usize>()
                    + items.iter().map(Entry::body_size).sum::<usize>()
            }
            CanMsg::NeighborUpdate { zones } | CanMsg::Takeover { zones, .. } => {
                4 + zones.len() * ZONE_BYTES
            }
            CanMsg::Heartbeat { zones, neighbors } => {
                4 + zones.len() * ZONE_BYTES
                    + neighbors
                        .iter()
                        .map(|(_, zs)| 4 + zs.len() * ZONE_BYTES)
                        .sum::<usize>()
            }
            CanMsg::Leave {
                zones,
                items,
                neighbors,
            } => {
                4 + zones.len() * ZONE_BYTES
                    + items.iter().map(Entry::body_size).sum::<usize>()
                    + neighbors.len() * 4
            }
            CanMsg::Lookup { .. } => 8 + 8 + 4 + 2,
            CanMsg::Mcast { payload, .. } => 8 + 4 + ZONE_BYTES + 2 + payload.wire_size(),
        }
    }
}

impl<V: Wire> Wire for ChordMsg<V> {
    fn wire_size(&self) -> usize {
        match self {
            ChordMsg::FindSucc { .. } => 8 + 8 + 4 + 2 + 2,
            ChordMsg::FoundSucc { .. } => 8 + 8 + 2 + 8 + 4,
            ChordMsg::GetNeighborhood => 4,
            ChordMsg::Neighborhood { succs, .. } => 12 + succs.len() * 12,
            ChordMsg::Notify { .. } => 8,
            ChordMsg::Bcast { payload, .. } => 8 + 4 + 8 + payload.wire_size(),
        }
    }
}

impl<V: Wire> Wire for DhtMsg<V> {
    fn wire_size(&self) -> usize {
        HEADER_BYTES
            + match self {
                DhtMsg::Can(m) => m.wire_size(),
                DhtMsg::Chord(m) => m.wire_size(),
                DhtMsg::LookupReply { .. } => 16,
                DhtMsg::Put { entry } => entry.body_size(),
                DhtMsg::Get { .. } => 8 + 8 + 8 + 4,
                DhtMsg::GetReply { items, .. } => {
                    8 + items.iter().map(Entry::body_size).sum::<usize>()
                }
                DhtMsg::Replicate { entry } => entry.body_size(),
                DhtMsg::RepairRequest { scope } => scope.wire_size(),
                DhtMsg::RepairReply { items } => items.iter().map(Entry::body_size).sum::<usize>(),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(val_size: usize) -> Entry<Vec<u8>> {
        Entry {
            ns: 1,
            rid: 2,
            iid: 3,
            key: 4,
            expires: Time::ZERO,
            val: vec![0u8; val_size],
        }
    }

    #[test]
    fn payload_bytes_dominate_data_messages() {
        let small: DhtMsg<Vec<u8>> = DhtMsg::Put { entry: entry(0) };
        let big: DhtMsg<Vec<u8>> = DhtMsg::Put { entry: entry(1024) };
        assert_eq!(big.wire_size() - small.wire_size(), 1024);
        assert!(small.wire_size() >= HEADER_BYTES);
    }

    #[test]
    fn lookup_is_small_relative_to_data() {
        let lookup: DhtMsg<Vec<u8>> = DhtMsg::Can(CanMsg::Lookup {
            key: 1,
            token: 2,
            origin: 0,
            ttl: 64,
        });
        assert!(lookup.wire_size() < 100);
        let put: DhtMsg<Vec<u8>> = DhtMsg::Put { entry: entry(1024) };
        assert!(put.wire_size() > 10 * lookup.wire_size());
    }

    #[test]
    fn mcast_carries_payload_size() {
        let m: DhtMsg<Vec<u8>> = DhtMsg::Can(CanMsg::Mcast {
            id: 1,
            origin: 0,
            rect: Zone::whole(4),
            payload: vec![0; 200],
            ttl: 32,
        });
        assert!(m.wire_size() >= HEADER_BYTES + 200);
    }
}
