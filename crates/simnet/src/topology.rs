//! Latency topologies for the simulator.
//!
//! The paper evaluates on two topologies (§5.2, §5.7):
//!
//! 1. A fully connected network, 100 ms between any two nodes, 10 Mbps
//!    inbound capacity per node ("congestion at the last hop").
//! 2. A GT-ITM transit-stub topology: 4 transit domains, 10 transit nodes
//!    per domain, 3 stub domains per transit node, nodes spread uniformly
//!    over stubs; 50 ms transit–transit, 10 ms transit–stub, 2 ms
//!    intra-stub, yielding ≈170 ms average end-to-end delay.

use crate::time::Dur;
use crate::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Pairwise propagation latency between nodes.
pub trait Topology: Send + Sync {
    /// One-way propagation delay from `a` to `b`.
    fn latency(&self, a: NodeId, b: NodeId) -> Dur;

    /// Lower bound on [`Self::latency`] over all *distinct* pairs — the
    /// lookahead of the conservative sharded engine
    /// (a multi-core [`crate::Sim`]): no message sent at time `t` can
    /// arrive anywhere before `t + min_latency()`, so shards may safely
    /// execute a window of that width past the global minimum without
    /// hearing from each other. Must be positive for the sharded engine
    /// to make parallel progress (a zero bound degenerates to lock-step).
    fn min_latency(&self) -> Dur;
}

/// Fully connected topology with a constant pairwise latency.
#[derive(Debug, Clone)]
pub struct FullMesh {
    pub latency: Dur,
}

impl FullMesh {
    /// The paper's default: 100 ms between any two distinct nodes.
    pub fn paper_default() -> Self {
        FullMesh {
            latency: Dur::from_millis(100),
        }
    }
}

impl Topology for FullMesh {
    fn latency(&self, a: NodeId, b: NodeId) -> Dur {
        if a == b {
            Dur::ZERO
        } else {
            self.latency
        }
    }

    fn min_latency(&self) -> Dur {
        self.latency
    }
}

/// Parameters of the transit-stub generator, defaulting to §5.7's values.
#[derive(Debug, Clone)]
pub struct TransitStubParams {
    pub transit_domains: u32,
    pub transit_nodes_per_domain: u32,
    pub stubs_per_transit_node: u32,
    pub transit_transit: Dur,
    pub transit_stub: Dur,
    pub intra_stub: Dur,
}

impl Default for TransitStubParams {
    fn default() -> Self {
        TransitStubParams {
            transit_domains: 4,
            transit_nodes_per_domain: 10,
            stubs_per_transit_node: 3,
            transit_transit: Dur::from_millis(50),
            transit_stub: Dur::from_millis(10),
            intra_stub: Dur::from_millis(2),
        }
    }
}

/// Position of a node in the transit-stub hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StubLoc {
    domain: u32,
    transit_node: u32,
    stub: u32,
}

/// GT-ITM-style transit-stub topology.
///
/// End-to-end latency is the sum of the up-link from the source stub, the
/// transit path (0, 1 or 3 transit hops for same transit node / same
/// domain / different domains), and the down-link — reproducing the
/// paper's ≈170 ms average for inter-domain pairs
/// (10 + 50·3 + 10 = 170 ms).
pub struct TransitStub {
    params: TransitStubParams,
    locs: Vec<StubLoc>,
}

impl TransitStub {
    /// Assign `n` nodes uniformly at random over the stub domains.
    pub fn new(n: u32, seed: u64, params: TransitStubParams) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7261_6e64_7473);
        let locs = (0..n)
            .map(|_| StubLoc {
                domain: rng.gen_range(0..params.transit_domains),
                transit_node: rng.gen_range(0..params.transit_nodes_per_domain),
                stub: rng.gen_range(0..params.stubs_per_transit_node),
            })
            .collect();
        TransitStub { params, locs }
    }

    pub fn paper_default(n: u32, seed: u64) -> Self {
        Self::new(n, seed, TransitStubParams::default())
    }

    fn transit_hops(&self, a: StubLoc, b: StubLoc) -> u64 {
        if a.domain == b.domain {
            if a.transit_node == b.transit_node {
                0
            } else {
                1
            }
        } else {
            // Up to the local domain gateway, across, and down: 3 hops.
            3
        }
    }
}

impl Topology for TransitStub {
    fn latency(&self, a: NodeId, b: NodeId) -> Dur {
        if a == b {
            return Dur::ZERO;
        }
        let (la, lb) = (self.locs[a as usize], self.locs[b as usize]);
        if la == lb {
            return self.params.intra_stub;
        }
        let hops = self.transit_hops(la, lb);
        self.params.transit_stub
            + self.params.transit_transit.saturating_mul(hops)
            + self.params.transit_stub
    }

    fn min_latency(&self) -> Dur {
        // Two co-located stub nodes are `intra_stub` apart; any other
        // distinct pair crosses at least two transit-stub links.
        self.params
            .intra_stub
            .min(self.params.transit_stub + self.params.transit_stub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mesh_is_constant_and_zero_to_self() {
        let t = FullMesh::paper_default();
        assert_eq!(t.latency(0, 0), Dur::ZERO);
        assert_eq!(t.latency(0, 5), Dur::from_millis(100));
        assert_eq!(t.latency(5, 0), Dur::from_millis(100));
    }

    #[test]
    fn transit_stub_latencies_match_paper_cases() {
        // Build a topology and hand-place by searching for representative
        // pairs among many random nodes.
        let ts = TransitStub::paper_default(2048, 42);
        let mut seen_same_stub = false;
        let mut seen_same_tn = false;
        let mut seen_same_domain = false;
        let mut seen_inter = false;
        for a in 0..400u32 {
            for b in (a + 1)..400u32 {
                let (la, lb) = (ts.locs[a as usize], ts.locs[b as usize]);
                let lat = ts.latency(a, b);
                if la == lb {
                    assert_eq!(lat, Dur::from_millis(2));
                    seen_same_stub = true;
                } else if la.domain == lb.domain && la.transit_node == lb.transit_node {
                    assert_eq!(lat, Dur::from_millis(20));
                    seen_same_tn = true;
                } else if la.domain == lb.domain {
                    assert_eq!(lat, Dur::from_millis(70));
                    seen_same_domain = true;
                } else {
                    assert_eq!(lat, Dur::from_millis(170));
                    seen_inter = true;
                }
            }
        }
        assert!(seen_same_stub && seen_same_tn && seen_same_domain && seen_inter);
    }

    #[test]
    fn transit_stub_is_symmetric() {
        let ts = TransitStub::paper_default(128, 7);
        for a in 0..128u32 {
            for b in 0..128u32 {
                assert_eq!(ts.latency(a, b), ts.latency(b, a));
            }
        }
    }

    #[test]
    fn transit_stub_average_latency_near_170ms() {
        // Most random pairs are inter-domain, so the mean should sit a bit
        // below 170 ms — the paper reports ≈170 ms.
        let ts = TransitStub::paper_default(512, 9);
        let mut sum = 0.0;
        let mut cnt = 0u64;
        for a in 0..512u32 {
            for b in (a + 1)..512u32 {
                sum += ts.latency(a, b).as_secs_f64();
                cnt += 1;
            }
        }
        let avg = sum / cnt as f64;
        assert!(avg > 0.12 && avg < 0.175, "avg latency {avg}");
    }
}
