//! The routing-layer seam: everything the provider asks of its overlay
//! (the paper's Table 1 — `lookup`, `join`, `leave`,
//! `locationMapChange` — plus what §3.2.3's provider needs from its
//! router: ownership, multicast, replica placement, repair geometry).
//!
//! [`Overlay`] is a closed two-variant enum, not a trait object: the set
//! of overlays is known at compile time, a node's routing state stays
//! inline (no allocation per node) and `Clone`. Every method is a
//! two-arm delegation to [`CanState`] / [`ChordState`]; no protocol
//! logic lives here, and these are the only matches on the overlay
//! outside `can.rs` / `chord.rs`. A third overlay is one file plus one
//! arm per method.

use pier_simnet::time::Time;
use pier_simnet::{NodeId, Wire};

use crate::can::{balanced_overlay, CanState};
use crate::chord::{balanced_chord_overlay, ChordState};
use crate::env::Lend;
use crate::msg::{DhtMsg, RepairScope};
use crate::{DhtConfig, OverlayKind};

/// The routing layer in use on this node.
#[derive(Debug, Clone)]
pub enum Overlay {
    Can(CanState),
    Chord(ChordState),
}

/// One routing decision for a provider lookup.
pub enum LookupStep<V> {
    /// The key's owner is known here (possibly this node).
    Owner(NodeId),
    /// Send this message to that node; the reply names the owner.
    Forward(NodeId, DhtMsg<V>),
    /// Nowhere to send it yet; the provider retries on its tick.
    Stuck,
}

/// What the provider must act on after the routing layer handled a
/// message or started a multicast.
pub enum Routed<V> {
    Nothing,
    /// A reply resolved the provider's pending lookup `token`.
    Resolved {
        token: u64,
        owner: NodeId,
    },
    /// Multicast `id` reached this node. By value: the provider dedups
    /// by `id` and moves the payload into its upcall.
    Deliver {
        id: u64,
        origin: NodeId,
        payload: V,
    },
}

impl Overlay {
    /// An un-joined routing state of the kind `cfg` names.
    pub fn new(cfg: &DhtConfig, me: NodeId) -> Self {
        match cfg.overlay {
            OverlayKind::Can => Overlay::Can(CanState::new(cfg.dims, me)),
            OverlayKind::Chord => Overlay::Chord(ChordState::new(me)),
        }
    }

    /// Fully stabilized routing states for ids `0..n` (balanced
    /// bootstrap: "all measurements are performed after the CAN routing
    /// stabilizes", §5.2).
    pub fn stabilized(n: usize, cfg: &DhtConfig) -> Vec<Self> {
        match cfg.overlay {
            OverlayKind::Can => balanced_overlay(n, cfg.dims, Time::ZERO)
                .into_iter()
                .map(Overlay::Can)
                .collect(),
            OverlayKind::Chord => balanced_chord_overlay(n, Time::ZERO)
                .into_iter()
                .map(Overlay::Chord)
                .collect(),
        }
    }

    pub fn joined(&self) -> bool {
        match self {
            Overlay::Can(c) => c.joined,
            Overlay::Chord(c) => c.joined,
        }
    }

    /// Does this node currently own `key`?
    pub fn owns(&self, key: u64) -> bool {
        match self {
            Overlay::Can(c) => c.owns_key(key),
            Overlay::Chord(c) => c.owns_key(key),
        }
    }

    /// Become the first node of a new overlay.
    pub fn start_first(&mut self) {
        match self {
            Overlay::Can(c) => c.start_first(),
            Overlay::Chord(c) => c.start_first(),
        }
    }

    /// Table 1's `join(landmark)`: ask `bootstrap` to let us in.
    pub fn start_join<V: Wire>(&mut self, io: &mut Lend<'_, V>, bootstrap: NodeId) {
        match self {
            Overlay::Can(c) => c.start_join(io, bootstrap),
            Overlay::Chord(c) => c.start_join(io, bootstrap),
        }
    }

    /// Table 1's `leave()`.
    pub fn leave<V: Wire>(&mut self, io: &mut Lend<'_, V>) {
        match self {
            Overlay::Can(c) => c.leave(io),
            // Chord: soft state ages out; successors stabilize around us.
            Overlay::Chord(_) => {}
        }
    }

    /// Periodic upkeep: keepalives, failure detection, stabilization.
    pub fn tick<V: Wire>(&mut self, io: &mut Lend<'_, V>, cfg: &DhtConfig) {
        match self {
            Overlay::Can(c) => c.tick(io, cfg),
            Overlay::Chord(c) => c.tick(io, cfg),
        }
    }

    /// Table 1's `lookup(key)`, one step of it.
    pub fn lookup_step<V>(&self, key: u64, token: u64, origin: NodeId) -> LookupStep<V> {
        match self {
            Overlay::Can(c) => c.lookup_step(key, token, origin),
            Overlay::Chord(c) => c.lookup_step(key, token, origin),
        }
    }

    /// Dispatch a routing-layer message. One addressed to the overlay
    /// this node does not run is dropped.
    pub fn handle<V: Wire + Clone>(
        &mut self,
        io: &mut Lend<'_, V>,
        from: NodeId,
        msg: DhtMsg<V>,
    ) -> Routed<V> {
        match (self, msg) {
            (Overlay::Can(c), DhtMsg::Can(m)) => c.handle(io, from, m),
            (Overlay::Chord(c), DhtMsg::Chord(m)) => c.handle(io, from, m),
            _ => Routed::Nothing,
        }
    }

    /// Start multicast `id` from this node.
    pub fn multicast<V: Wire + Clone>(
        &self,
        io: &mut Lend<'_, V>,
        id: u64,
        origin: NodeId,
        payload: V,
    ) -> Routed<V> {
        match self {
            Overlay::Can(c) => c.multicast(io, id, origin, payload),
            Overlay::Chord(c) => c.multicast(io, id, origin, payload),
        }
    }

    /// The `n` peers holding this node's replica copies (CAN: lowest-id
    /// neighbors; Chord: successor list).
    pub fn replica_peers(&self, n: usize) -> Vec<NodeId> {
        match self {
            Overlay::Can(c) => c.replica_peers(n),
            Overlay::Chord(c) => c.replica_peers(n),
        }
    }

    /// The peers to ask for repair data after the owned region grew.
    pub fn repair_peers(&self) -> Vec<NodeId> {
        match self {
            Overlay::Can(c) => c.repair_peers(),
            Overlay::Chord(c) => c.repair_peers(),
        }
    }

    /// This node's current ownership region, in its overlay's geometry.
    pub fn repair_scope(&self) -> RepairScope {
        match self {
            Overlay::Can(c) => c.repair_scope(),
            Overlay::Chord(c) => c.repair_scope(),
        }
    }

    /// Does `key` fall inside a requester's `scope`, by this node's own
    /// routing geometry?
    pub fn covers(&self, scope: &RepairScope, key: u64) -> bool {
        match self {
            Overlay::Can(c) => c.covers(scope, key),
            Overlay::Chord(c) => c.covers(scope, key),
        }
    }

    pub fn chord(&self) -> Option<&ChordState> {
        match self {
            Overlay::Chord(c) => Some(c),
            Overlay::Can(_) => None,
        }
    }
}
