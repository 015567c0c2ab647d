//! Pins of CAN routing state, as one digest per overlay.
//!
//! The digest covers every node's zones, its neighbour ids with their
//! zones, and each neighbour's second-hop map (the `their_neighbors`
//! takeover election reads), in `BTreeMap` order. Beside it, the number
//! of directed neighbour edges, so a moved line says how much moved.
//!
//! `balanced_overlay_digests` pins the stabilized bootstrap,
//! `balanced_overlay(n, d)` for each (n, d). A moved digest there is a
//! different overlay: every experiment that starts from it would route,
//! replicate and elect differently.
//!
//! `churned_overlay_digests` pins what the protocol paths that change
//! and ship zone lists leave behind: serial joins (split and offer),
//! crashes (election, fallback claims, takeover, absorb), a graceful
//! leave, a late join, and the announcements and heartbeats between
//! them, at three checkpoints.

#[macro_use]
#[path = "../../../tests/pin/mod.rs"]
mod pin;

use pier_dht::can::{balanced_overlay, CanState};
use pier_dht::geom::Zone;
use pier_dht::harness::DhtNode;
use pier_dht::{CtxEnv, DhtConfig, Overlay};
use pier_simnet::time::{Dur, Time};
use pier_simnet::{NetConfig, NodeId, Sim};

use pin::Fnv;

impl Fnv {
    fn zones(&mut self, zones: &[Zone], d: usize) {
        self.word(zones.len() as u64);
        for z in zones {
            for i in 0..d {
                self.word(z.lo(i));
                self.word(z.hi(i));
            }
        }
    }
}

/// Fold one node's routing state into `h`; returns its neighbour count.
fn state(h: &mut Fnv, s: &CanState) -> usize {
    let d = s.d;
    h.word(s.me as u64);
    h.word(s.joined as u64);
    h.zones(&s.zones[..], d);
    h.word(s.neighbors.len() as u64);
    for (&id, info) in &s.neighbors {
        h.word(id as u64);
        h.word(info.last_seen.0);
        h.zones(&info.zones[..], d);
        h.word(info.their_neighbors.len() as u64);
        for (id2, zones2) in info.their_neighbors.iter() {
            h.word(*id2 as u64);
            h.zones(&zones2[..], d);
        }
    }
    s.neighbors.len()
}

/// `n d edges digest` for one overlay.
fn line(n: usize, d: usize) -> String {
    let states: Vec<CanState> = balanced_overlay(n, d, Time::ZERO);
    let mut h = Fnv::default();
    let edges: usize = states.iter().map(|s| state(&mut h, s)).sum();
    format!("{n} {d} {edges} {:016x}", h.finish())
}

const NS: [usize; 8] = [1, 2, 3, 7, 64, 257, 1_000, 10_000];
const DS: [usize; 5] = [1, 2, 3, 4, 6];

#[test]
fn balanced_overlay_digests() {
    let now: Vec<String> = NS
        .iter()
        .flat_map(|&n| DS.iter().map(move |&d| line(n, d)))
        .collect();
    pin!("balanced_overlay_digests", now.join("\n"));
}

// ---------------------------------------------------------------------
// A churned overlay
// ---------------------------------------------------------------------

type V = Vec<u8>;

const CHURN_N: usize = 48;
const CHURN_SEED: u64 = 29;
/// Crashed together, after the joins: neighbours of one another, so
/// some elected claimants are casualties too and the fallback claims.
const CRASHED: [NodeId; 4] = [10, 12, 13, 14];
/// Leaves gracefully after the takeovers.
const LEAVER: NodeId = 11;

fn can_of(node: &DhtNode<V>) -> &CanState {
    match &node.dht.overlay {
        Overlay::Can(can) => can,
        Overlay::Chord(_) => unreachable!("a CAN overlay"),
    }
}

/// `label live edges zones digest` over every live node, by id.
fn checkpoint(label: &str, sim: &Sim<DhtNode<V>>) -> String {
    let mut h = Fnv::default();
    let (mut live, mut edges, mut zones) = (0, 0, 0);
    for id in 0..sim.node_count() as NodeId {
        let Some(node) = sim.app(id) else {
            continue; // crashed or left
        };
        let s = can_of(node);
        live += 1;
        edges += state(&mut h, s);
        zones += s.zones.len();
    }
    format!("{label} {live} {edges} {zones} {:016x}", h.finish())
}

/// Serial joins through the real protocol, with upkeep on; then four
/// crashes, run past `fail_after` until every takeover has landed; then
/// one graceful leave and one late join.
fn churned_lines() -> Vec<String> {
    let cfg = DhtConfig::default();
    let mut sim: Sim<DhtNode<V>> = Sim::new(NetConfig::latency_only(CHURN_SEED));
    sim.add_node(DhtNode::new(cfg.clone(), 0, None));
    for id in 1..CHURN_N as NodeId {
        sim.add_node(DhtNode::new(cfg.clone(), id, Some(0)));
        sim.run_for(Dur::from_secs(3));
    }
    sim.run_for(Dur::from_secs(10));
    let mut lines = vec![checkpoint("joined", &sim)];

    for id in CRASHED {
        sim.fail_node(id);
    }
    sim.run_for(cfg.fail_after + Dur::from_secs(15));
    lines.push(checkpoint("taken_over", &sim));

    sim.with_app(LEAVER, |node, ctx| node.dht.leave(&mut CtxEnv { ctx }));
    sim.fail_node(LEAVER);
    sim.run_for(Dur::from_secs(2));
    sim.add_node(DhtNode::new(cfg, CHURN_N as NodeId, Some(0)));
    sim.run_for(Dur::from_secs(30));
    lines.push(checkpoint("end", &sim));
    lines
}

#[test]
fn churned_overlay_digests() {
    pin!("churned_overlay_digests", churned_lines().join("\n"));
}
