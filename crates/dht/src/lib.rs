//! # pier-dht
//!
//! The DHT tier of PIER (Figure 1 of the paper), split as §3.2 splits
//! it: a routing layer ([CAN](can) by default, [Chord](chord) as the
//! validation alternative, both behind the one seam of
//! [`overlay::Overlay`] — the paper's Table 1), a main-memory
//! [storage manager](storage) (Table 2), and the overlay-agnostic
//! [provider](dht::Dht) that ties them together behind the
//! `put`/`get`/`renew`/`multicast`/`lscan`/`newData` API of Table 3.
//!
//! All state is *soft* (§3.2.3): items carry lifetimes, owners discard
//! them on expiry, and publishers are expected to `renew`. Node failures
//! therefore lose data only until the next renewal round — the behaviour
//! measured by Figure 6 of the paper.

pub mod can;
pub mod chord;
pub mod dht;
pub mod env;
pub mod event;
pub mod geom;
pub mod harness;
pub mod msg;
pub mod overlay;
mod small_map;
pub mod storage;
pub mod traffic;

pub use crate::dht::{Dht, Overlay};
pub use env::{CtxEnv, DhtEnv, Lend, RecordingEnv};
pub use event::DhtEvent;
pub use msg::{DhtMsg, Entry};
pub use storage::StorageManager;
pub use traffic::TrafficMeter;

use pier_simnet::time::Dur;

/// Namespace identifier: hash of the application namespace string; for
/// query processing each namespace corresponds to a relation (§3.2.3).
pub type Ns = u64;

/// ResourceID hash: by default the hash of a tuple's primary key, or of
/// the join-key values for rehashed tuples (§4.1).
pub type Rid = u64;

/// Routing TTL: far above any legitimate path length (a 10,000-node CAN
/// at d = 4 averages 10 hops), purely a loop/livelock backstop.
pub const ROUTE_TTL: u16 = 512;

/// Timer token reserved for the DHT maintenance tick.
pub const DHT_TICK_TOKEN: u64 = 0xD117_0000_0000_0001;

/// Which overlay a node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlayKind {
    Can,
    Chord,
}

/// Routing key of an object: `hash(namespace, resourceID)` (§3.2.3).
pub fn key_of(ns: Ns, rid: Rid) -> u64 {
    geom::hash2(ns, rid)
}

/// Hash an application namespace string to its [`Ns`].
pub fn ns_of(name: &str) -> Ns {
    geom::hash_str(name)
}

/// DHT-layer configuration.
#[derive(Debug, Clone)]
pub struct DhtConfig {
    /// CAN dimensionality (paper: d = 4, giving N^(1/4) average hops).
    /// Read only where an overlay is constructed; a running node asks
    /// its own routing state.
    pub dims: usize,
    pub overlay: OverlayKind,
    /// Maintenance tick period.
    pub tick: Dur,
    /// Keepalive (heartbeat / stabilization) period.
    pub keepalive: Dur,
    /// Silence after which a neighbor is declared dead (paper: 15 s).
    pub fail_after: Dur,
    /// Master switch for overlay upkeep: heartbeats, stabilization and
    /// failure detection. Experiments on stabilized static networks turn
    /// it off to isolate query traffic. Re-homing is not upkeep: it
    /// follows a location-map change, or an item stored for a key this
    /// node does not own, either way.
    pub maintenance: bool,
    /// Soft-state replication factor: total live copies per item (the
    /// primary plus `replication - 1` replicas at neighboring zones /
    /// successors). The paper runs k = 1 — soft state lost on failure is
    /// simply re-published at the next renewal — and k = 1 preserves that
    /// behavior exactly; k > 1 trades replica traffic for recall under
    /// churn (the frontier measured by `pier_bench churn_slo`).
    pub replication: usize,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            dims: 4,
            overlay: OverlayKind::Can,
            tick: Dur::from_millis(500),
            keepalive: Dur::from_secs(2),
            fail_after: Dur::from_secs(15),
            maintenance: true,
            replication: 1,
        }
    }
}

impl DhtConfig {
    /// Static-network profile: no heartbeats, no stabilization, no
    /// failure detection — used by the traffic/latency experiments on
    /// stabilized overlays.
    pub fn static_network() -> Self {
        DhtConfig {
            maintenance: false,
            ..Default::default()
        }
    }

    pub fn with_overlay(mut self, overlay: OverlayKind) -> Self {
        self.overlay = overlay;
        self
    }

    pub fn with_dims(mut self, dims: usize) -> Self {
        self.dims = dims;
        self
    }

    /// Set the replication factor (total copies per item, `k >= 1`).
    pub fn with_replication(mut self, k: usize) -> Self {
        self.replication = k.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_of_is_stable_and_spreads() {
        let k1 = key_of(ns_of("R"), 42);
        let k2 = key_of(ns_of("R"), 42);
        assert_eq!(k1, k2);
        assert_ne!(key_of(ns_of("R"), 1), key_of(ns_of("S"), 1));
        assert_ne!(key_of(ns_of("R"), 1), key_of(ns_of("R"), 2));
    }

    #[test]
    fn default_config_matches_paper_assumptions() {
        let cfg = DhtConfig::default();
        assert_eq!(cfg.dims, 4);
        assert_eq!(cfg.fail_after, Dur::from_secs(15));
        assert_eq!(cfg.overlay, OverlayKind::Can);
        // The paper keeps exactly one copy of each soft-state item.
        assert_eq!(cfg.replication, 1);
    }

    #[test]
    fn replication_builder_clamps_to_at_least_one() {
        assert_eq!(DhtConfig::default().with_replication(0).replication, 1);
        assert_eq!(DhtConfig::default().with_replication(3).replication, 3);
    }
}
