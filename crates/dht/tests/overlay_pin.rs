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

use pier_dht::can::{balanced_overlay, CanState};
use pier_dht::geom::Zone;
use pier_dht::harness::DhtNode;
use pier_dht::{CtxEnv, DhtConfig, Overlay};
use pier_simnet::time::{Dur, Time};
use pier_simnet::{NetConfig, NodeId, Sim};

/// FNV-1a over 64-bit words: stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

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

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

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
    let mut h = Fnv(FNV_BASIS);
    let edges: usize = states.iter().map(|s| state(&mut h, s)).sum();
    format!("{n} {d} {edges} {:016x}", h.0)
}

const NS: [usize; 8] = [1, 2, 3, 7, 64, 257, 1_000, 10_000];
const DS: [usize; 5] = [1, 2, 3, 4, 6];

const PIN: [&str; 40] = [
    "1 1 0 1216bad5f22e4414",
    "1 2 0 86a62320409361c5",
    "1 3 0 a64634de7ff11254",
    "1 4 0 1dfa64e02d9fc005",
    "1 6 0 4af44ce0c9eb3e45",
    "2 1 2 a2becb5471c9ee95",
    "2 2 2 3a787946855e6ff5",
    "2 3 2 cc80cedbcf4bd915",
    "2 4 2 0789e415ee08f375",
    "2 6 2 99b871ab58a86df5",
    "3 1 6 2c6bbf355a401ff5",
    "3 2 6 6319c1fedd8d5b75",
    "3 3 6 5a456ac51cd2e5a4",
    "3 4 6 a0b9999058f62ab5",
    "3 6 6 ee8b1e7b8435d1f5",
    "7 1 14 9a77ef9229c3ae31",
    "7 2 22 baf51af1e7a2c3a6",
    "7 3 22 1f550a721d185346",
    "7 4 22 754e9be6ee8c5237",
    "7 6 22 9db22b51daafbbf7",
    "64 1 128 0eec959bbeacf2dc",
    "64 2 256 174ddd32ad01cb65",
    "64 3 384 ab054303d67ebae5",
    "64 4 384 b30cb50f0b736025",
    "64 6 384 d24c07bb9aeb0225",
    "257 1 514 3fdf1b92470885a9",
    "257 2 1030 6c9f92639f12105b",
    "257 3 1546 fc977147758833f8",
    "257 4 2062 cfa633e508244b99",
    "257 6 2066 9e98d79f8d1b869d",
    "1000 1 2000 a69ec3158f4b5afc",
    "1000 2 4048 2db534f571e52565",
    "1000 3 6096 614ca03ae22f8b4d",
    "1000 4 8144 e294fde1a40a7415",
    "1000 6 10160 45a6f57defe01fc5",
    "10000 1 20000 a57923d803e10674",
    "10000 2 43616 77f4589a45e1eadd",
    "10000 3 67232 91d0e33c2b3250d5",
    "10000 4 87712 73a559a595090275",
    "10000 6 128672 7d7391c435ce61c5",
];

#[test]
fn balanced_overlay_digests() {
    let now: Vec<String> = NS
        .iter()
        .flat_map(|&n| DS.iter().map(move |&d| line(n, d)))
        .collect();
    assert_eq!(now, PIN, "now:\n{now:#?}");
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
    let mut h = Fnv(FNV_BASIS);
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
    format!("{label} {live} {edges} {zones} {:016x}", h.0)
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

const CHURN_PIN: [&str; 3] = [
    "joined 48 354 48 abf371220760934e",
    "taken_over 44 326 47 bc10531da0dfce88",
    "end 44 338 47 6405773acf65556e",
];

#[test]
fn churned_overlay_digests() {
    let now = churned_lines();
    assert_eq!(now, CHURN_PIN, "now:\n{now:#?}");
}
