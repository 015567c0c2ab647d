//! Absolute provider-level pins: on a 16-node `Sim` at one seed, each
//! overlay must process exactly this many engine events, move exactly
//! this many messages and bytes in exactly these traffic categories,
//! and end with exactly this much stored, replicated, fetched and
//! multicast-delivered state — on a static network and through a live
//! one (incremental joins, a graceful leave, two failures, takeover,
//! anti-entropy repair, a late join).
//!
//! The `benchmark/` workloads all run CAN on `static_network()`, so
//! their exact pins see lookup / put / get / multicast only; this table
//! is what makes a change to join, leave, heartbeat, takeover, repair,
//! re-homing or any Chord code visible. The numbers were taken before
//! the routing layer moved out of `dht.rs`, and held across that move
//! without edits.
//!
//! The live rows pin behaviour, not health, and two of their cells are
//! known holes (ROADMAP, robustness): on CAN one item of 64 stays lost
//! — its only replica sits at a node the claimant of the dead zone had
//! not yet learned was its neighbour when it sent its repair requests;
//! on Chord 7 of 64 gets are still retrying at the end, their lookups
//! forwarded to a dead node that lingers in a successor list (only
//! the head of the list is ever probed).

#[macro_use]
#[path = "../../../tests/pin/mod.rs"]
mod pin;

use pier_dht::harness::{stabilized_can_sim, stabilized_chord_sim, DhtNode};
use pier_dht::{ns_of, CtxEnv, Dht, DhtConfig, DhtEnv, DhtEvent, OverlayKind, TrafficMeter};
use pier_simnet::time::Dur;
use pier_simnet::{NetConfig, NodeId, Sim};

type V = Vec<u8>;

const N: usize = 16;
const SEED: u64 = 19;
const ITEMS: u64 = 64;
const LIFE: Dur = Dur(3_600 * 1_000_000);

/// `(events_processed, NetStats.messages, NetStats.bytes,
/// Σ TrafficMeter.[lookup, mcast, data, maintenance, replication],
/// Σ store.len(), Σ replicas.len(), non-empty GetResults, Multicast
/// deliveries)`, sums taken over the nodes alive at the end.
type Pin = (u64, u64, u64, [u64; 5], usize, usize, usize, usize);

/// Invoke the provider on node `id` as a local application would,
/// logging the synchronous upcalls like the harness logs the rest.
fn call(
    sim: &mut Sim<DhtNode<V>>,
    id: NodeId,
    f: impl FnOnce(&mut Dht<V>, &mut dyn DhtEnv<V>, &mut Vec<DhtEvent<V>>),
) {
    sim.with_app(id, |node, ctx| {
        let now = ctx.now;
        let mut env = CtxEnv { ctx };
        let mut events = Vec::new();
        f(&mut node.dht, &mut env, &mut events);
        node.events.extend(events.into_iter().map(|e| (now, e)));
    });
}

fn publish(sim: &mut Sim<DhtNode<V>>, from: NodeId) {
    let ns = ns_of("pin");
    call(sim, from, |dht, env, ev| {
        for rid in 0..ITEMS {
            dht.put(env, ns, rid, 0, vec![rid as u8; 100], LIFE, ev);
        }
    });
}

fn fetch_and_multicast(sim: &mut Sim<DhtNode<V>>, getter: NodeId, caster: NodeId) {
    let ns = ns_of("pin");
    call(sim, getter, |dht, env, ev| {
        for rid in 0..ITEMS {
            dht.get(env, ns, rid, rid, ev);
        }
    });
    call(sim, caster, |dht, env, ev| {
        dht.multicast(env, vec![7; 40], ev)
    });
}

fn read(sim: &Sim<DhtNode<V>>) -> Pin {
    let stats = sim.stats();
    let mut meter = TrafficMeter::default();
    let (mut stored, mut replicas, mut gets, mut mcasts) = (0, 0, 0, 0);
    for id in 0..sim.node_count() as NodeId {
        let Some(node) = sim.app(id) else {
            continue; // a failed node's state is gone
        };
        meter.merge(&node.dht.meter);
        stored += node.dht.store.len();
        replicas += node.dht.replicas.len();
        gets += node
            .events_where(|e| matches!(e, DhtEvent::GetResult { items, .. } if !items.is_empty()))
            .count();
        mcasts += node
            .events_where(|e| matches!(e, DhtEvent::Multicast { .. }))
            .count();
    }
    (
        sim.events_processed(),
        stats.messages,
        stats.bytes,
        [
            meter.lookup,
            meter.mcast,
            meter.data,
            meter.maintenance,
            meter.replication,
        ],
        stored,
        replicas,
        gets,
        mcasts,
    )
}

/// Stabilized overlay, no upkeep, k = 1: 64 puts from node 0, 64 gets
/// from node 1, one multicast from node 2; 30 s in all.
fn static_script(kind: OverlayKind) -> Pin {
    let cfg = DhtConfig::static_network().with_overlay(kind);
    let net = NetConfig::latency_only(SEED);
    let mut sim: Sim<DhtNode<V>> = match kind {
        OverlayKind::Can => stabilized_can_sim(N, cfg, net),
        OverlayKind::Chord => stabilized_chord_sim(N, cfg, net),
    };
    publish(&mut sim, 0);
    sim.run_for(Dur::from_secs(10));
    fetch_and_multicast(&mut sim, 1, 2);
    sim.run_for(Dur::from_secs(20));
    read(&sim)
}

/// Live overlay at k = 2: grown join by join through the real protocol,
/// published into, then one graceful leave (the process exits), one
/// crash and one late join, run until takeover and repair have
/// quiesced; reads and a multicast go through the healed overlay.
fn live_script(kind: OverlayKind) -> Pin {
    let cfg = DhtConfig {
        keepalive: Dur::from_secs(1),
        fail_after: Dur::from_secs(5),
        ..DhtConfig::default()
    }
    .with_overlay(kind)
    .with_replication(2);
    let mut sim: Sim<DhtNode<V>> = Sim::new(NetConfig::latency_only(SEED));
    sim.add_node(DhtNode::new(cfg.clone(), 0, None));
    for id in 1..N as NodeId {
        sim.add_node(DhtNode::new(cfg.clone(), id, Some(0)));
        sim.run_for(Dur::from_secs(5));
    }
    sim.run_for(Dur::from_secs(60));
    publish(&mut sim, 0);
    sim.run_for(Dur::from_secs(10));

    call(&mut sim, 3, |dht, env, _| dht.leave(env));
    sim.fail_node(3);
    sim.run_for(Dur::from_secs(2));
    sim.fail_node(5);
    sim.run_for(Dur::from_secs(30));
    sim.add_node(DhtNode::new(cfg, N as NodeId, Some(0)));
    sim.run_for(Dur::from_secs(30));

    fetch_and_multicast(&mut sim, 1, 2);
    sim.run_for(Dur::from_secs(20));
    read(&sim)
}

/// One `Can` and one `Chord` row of `script`'s pins.
fn per_overlay(script: fn(OverlayKind) -> Pin) -> String {
    [OverlayKind::Can, OverlayKind::Chord]
        .map(|kind| format!("{kind:?} {:?}", script(kind)))
        .join("\n")
}

#[test]
fn static_network_per_overlay() {
    pin!("static_network_per_overlay", per_overlay(static_script));
}

#[test]
fn live_network_per_overlay() {
    pin!("live_network_per_overlay", per_overlay(live_script));
}
