//! What the engine delivers, as text: a 6-node, 10 Mbps `Sim` in which
//! four nodes send mixed-size bursts at one instant to overlapping
//! receivers — one of them inside a drop window, one dead, and one a
//! sender's own id — and every receiver acknowledges what it hears.
//!
//! Pinned per shard count (W = 1 inline, W = 2 under the window
//! barrier): every delivery `(at, from, to, bytes)` in the order each
//! receiver handled it, then the traffic counters and the event count.
//! The receiver's inbound link is reserved in `(sent_at, from, oseq)`
//! order, so the delivery instants of a burst are what this file holds
//! still while the engine changes how it buffers and routes a send.

#[macro_use]
#[path = "../../../tests/pin/mod.rs"]
mod pin;

use std::fmt::Write;
use std::sync::Arc;

use pier_simnet::time::{Dur, Time};
use pier_simnet::{App, Ctx, FullMesh, NetConfig, NodeId, ShardMap, ShardedSim, Sim, Wire};

/// A payload of `bytes` on the wire; an ack answers every payload.
#[derive(Clone, Debug)]
struct Blob {
    bytes: usize,
    ack: bool,
}

impl Wire for Blob {
    fn wire_size(&self) -> usize {
        self.bytes
    }
}

const NODES: NodeId = 6;
/// Inside a drop window for the whole run.
const DROPPING: NodeId = 4;
/// Failed before the burst.
const DEAD: NodeId = 5;
const ACK_BYTES: usize = 16;
/// When every sender fires its burst.
const BURST_AT: Dur = Dur(1_000_000);

/// Each sender's burst, in emission order: `(to, bytes)`. 125 000 bytes
/// hold a 10 Mbps link for 0.1 s, so the large sends queue behind each
/// other on a shared receiver. Node 1 sends one message to itself.
const BURSTS: [(NodeId, &[(NodeId, usize)]); 4] = [
    (
        0,
        &[
            (1, 125_000),
            (2, 40),
            (4, 1_500),
            (1, 9_000),
            (5, 600),
            (3, 40),
        ],
    ),
    (1, &[(2, 9_000), (1, 64), (3, 125_000), (2, 1_500), (4, 40)]),
    (
        2,
        &[(1, 1_500), (3, 40), (5, 125_000), (3, 9_000), (0, 600)],
    ),
    (3, &[(2, 125_000), (1, 40), (4, 9_000), (0, 1_500), (2, 40)]),
];

struct Node {
    burst: &'static [(NodeId, usize)],
    got: Vec<(Time, NodeId, usize)>,
}

impl App for Node {
    type Msg = Blob;
    fn on_start(&mut self, ctx: &mut Ctx<Blob>) {
        if !self.burst.is_empty() {
            ctx.set_timer(BURST_AT, 0);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<Blob>, from: NodeId, msg: Blob) {
        self.got.push((ctx.now, from, msg.bytes));
        if !msg.ack {
            let ack = Blob {
                bytes: ACK_BYTES,
                ack: true,
            };
            ctx.send(from, ack);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<Blob>, _token: u64) {
        for &(to, bytes) in self.burst {
            ctx.send(to, Blob { bytes, ack: false });
        }
    }
}

fn cfg() -> NetConfig {
    NetConfig {
        topology: Arc::new(FullMesh {
            latency: Dur::from_millis(100),
        }),
        inbound_bps: Some(10e6),
        seed: 0xDE11,
    }
}

/// Run the bursts to completion on `sim` and render what happened.
fn transcript(mut sim: Sim<Node>) -> String {
    for id in 0..NODES {
        let burst = BURSTS
            .iter()
            .find(|(s, _)| *s == id)
            .map_or(&[][..], |(_, b)| *b);
        assert_eq!(sim.add_node(Node { burst, got: vec![] }), id);
    }
    sim.set_inbound_drop(DROPPING, true);
    sim.fail_node(DEAD);
    assert!(sim.run_idle(10_000), "the bursts drain");
    let mut out = String::new();
    for id in 0..NODES {
        let Some(node) = sim.app(id) else {
            writeln!(out, "node {id}: dead").unwrap();
            continue;
        };
        writeln!(out, "node {id}: {} deliveries", node.got.len()).unwrap();
        for &(at, from, bytes) in &node.got {
            writeln!(out, "  at {} µs  {from} -> {id}  {bytes} B", at.as_micros()).unwrap();
        }
    }
    let stats = sim.stats();
    writeln!(
        out,
        "messages {} bytes {} dropped_in_window {} dropped_to_failed {}",
        stats.messages, stats.bytes, stats.dropped_in_window, stats.dropped_to_failed
    )
    .unwrap();
    writeln!(
        out,
        "events {} end {} µs",
        sim.events_processed(),
        sim.now().as_micros()
    )
    .unwrap();
    out
}

#[test]
fn a_same_instant_burst_delivers_as_pinned_at_w1_and_w2() {
    let w1 = transcript(Sim::new(cfg()));
    let w2 = transcript(ShardedSim::new(cfg(), ShardMap::round_robin(2)));
    pin!("w1", w1; "w2", w2);
}
