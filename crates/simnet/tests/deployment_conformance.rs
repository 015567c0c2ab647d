//! Deployment conformance: every [`Deployment`] backend must move and
//! classify traffic identically through the trait surface, so backends
//! can be swapped without consumers noticing. The same five laws run
//! against all three instantiations — [`Sim`] on one core, [`Sim`] on
//! two, and the actor-runtime [`Cluster`] — via one generic harness:
//!
//! 1. **Delivery** — a send lands in the destination's mailbox and is
//!    dispatched to its automaton, accounted as messages + bytes.
//! 2. **Per-pair FIFO** — messages on one src→dst pair arrive in send
//!    order, even interleaved with traffic from other sources.
//! 3. **Drop windows** — sends into an open inbound-drop window are
//!    discarded and counted as `dropped_in_window`; self-sends are
//!    spared (loopback never crosses the faulted link); a closed
//!    window delivers again.
//! 4. **Dead destinations** — sends to a killed node count as
//!    `dropped_to_failed`, never as traffic, and are never delivered.
//! 5. **Request** — a typed request is answered on a live node and
//!    returns `None` on a killed one (whose handler never runs); what
//!    the handler sends is classified like automaton traffic.
//!
//! Traffic is injected the only way a deployment admits it: a request
//! whose handler emits the sends from inside the node.

use pier_simnet::time::Dur;
use pier_simnet::{
    App, Cluster, Ctx, Deployment, NetConfig, NodeId, Service, ShardMap, ShardedSim, Sim, Wire,
};

const N: usize = 4;

fn settle_for() -> Dur {
    Dur::from_millis(200)
}

/// One recorded probe; fixed wire size so byte accounting is exact.
#[derive(Clone, Debug)]
struct Rec {
    seq: u32,
}

impl Wire for Rec {
    fn wire_size(&self) -> usize {
        100
    }
}

/// Passive automaton that logs every delivery as `(from, seq)`.
#[derive(Default)]
struct Recorder {
    log: Vec<(NodeId, u32)>,
}

impl App for Recorder {
    type Msg = Rec;
    fn on_start(&mut self, _ctx: &mut Ctx<Rec>) {}
    fn on_message(&mut self, _ctx: &mut Ctx<Rec>, from: NodeId, msg: Rec) {
        self.log.push((from, msg.seq));
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<Rec>, _token: u64) {}
}

enum Probe {
    /// Send `Rec { seq }` to `to` from this node.
    Send { to: NodeId, seq: u32 },
    /// Read back the delivery log.
    Log,
}

impl Service for Recorder {
    type Req = Probe;
    type Resp = Vec<(NodeId, u32)>;
    fn on_request(&mut self, ctx: &mut Ctx<Rec>, req: Probe) -> Vec<(NodeId, u32)> {
        match req {
            Probe::Send { to, seq } => {
                ctx.send(to, Rec { seq });
                Vec::new()
            }
            Probe::Log => self.log.clone(),
        }
    }
}

fn sim_on(mut sim: Sim<Recorder>) -> Sim<Recorder> {
    for _ in 0..N {
        sim.add_node(Recorder::default());
    }
    sim
}

fn one_core() -> Sim<Recorder> {
    sim_on(Sim::new(NetConfig::latency_only(9)))
}

fn two_cores() -> Sim<Recorder> {
    sim_on(ShardedSim::new(
        NetConfig::latency_only(9),
        ShardMap::round_robin(2),
    ))
}

fn cluster() -> Cluster<Recorder> {
    Cluster::spawn((0..N).map(|_| Recorder::default()).collect(), 9)
}

fn send(net: &mut impl Deployment<Recorder>, src: NodeId, to: NodeId, seq: u32) {
    net.request(src, Probe::Send { to, seq })
        .expect("live source");
}

/// On the actor runtime the request queues behind every prior delivery
/// in the node's mailbox, so the log it returns covers them all.
fn received(net: &mut impl Deployment<Recorder>, node: NodeId) -> Vec<(NodeId, u32)> {
    net.request(node, Probe::Log).expect("live node")
}

// ---------------------------------------------------------------------
// The five laws, generic over the backend.
// ---------------------------------------------------------------------

fn law_delivery(mut net: impl Deployment<Recorder>) {
    for seq in 0..5 {
        send(&mut net, 0, 1, seq);
    }
    net.settle(settle_for());
    let got = received(&mut net, 1);
    assert_eq!(got, (0..5).map(|s| (0, s)).collect::<Vec<_>>());
    let st = net.stats();
    assert_eq!(st.messages, 5);
    assert_eq!(st.bytes, 500);
    assert_eq!(st.dropped_to_failed, 0);
    assert_eq!(st.dropped_in_window, 0);
}

fn law_per_pair_fifo(mut net: impl Deployment<Recorder>) {
    // Interleave two sources toward one destination; each pair's
    // subsequence must stay in send order.
    for seq in 0..20 {
        send(&mut net, 0, 2, seq);
        send(&mut net, 1, 2, seq);
    }
    net.settle(settle_for());
    let got = received(&mut net, 2);
    assert_eq!(got.len(), 40);
    for src in [0, 1] {
        let seqs: Vec<u32> = got
            .iter()
            .filter(|(f, _)| *f == src)
            .map(|(_, s)| *s)
            .collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>(), "src {src} out of order");
    }
}

fn law_drop_windows(mut net: impl Deployment<Recorder>) {
    net.set_inbound_drop(1, true);
    for seq in 0..3 {
        send(&mut net, 0, 1, seq);
    }
    // Loopback is spared by the window and never accounted as traffic.
    send(&mut net, 1, 1, 99);
    net.settle(settle_for());
    let st = net.stats();
    assert_eq!(st.dropped_in_window, 3);
    assert_eq!(st.messages, 0);
    assert_eq!(received(&mut net, 1), vec![(1, 99)]);
    // A closed window delivers again.
    net.set_inbound_drop(1, false);
    send(&mut net, 0, 1, 7);
    net.settle(settle_for());
    assert_eq!(received(&mut net, 1), vec![(1, 99), (0, 7)]);
    let st = net.stats();
    assert_eq!(st.messages, 1);
    assert_eq!(st.dropped_in_window, 3);
}

fn law_dead_destination(mut net: impl Deployment<Recorder>) {
    net.kill(3);
    assert!(!net.alive(3));
    send(&mut net, 0, 3, 0);
    send(&mut net, 1, 3, 1);
    // Control traffic to live nodes keeps flowing.
    send(&mut net, 0, 2, 2);
    net.settle(settle_for());
    let st = net.stats();
    assert_eq!(st.dropped_to_failed, 2);
    assert_eq!(st.messages, 1);
    assert_eq!(st.bytes, 100);
    assert_eq!(received(&mut net, 2), vec![(0, 2)]);
}

fn law_request(mut net: impl Deployment<Recorder>) {
    assert_eq!(net.node_count(), N);
    // Answered on a live node, by that node.
    assert_eq!(net.request(2, Probe::Log), Some(vec![]));
    // A killed node answers nothing and its handler never runs: the
    // send it would have emitted appears in no counter.
    net.kill(3);
    assert_eq!(net.request(3, Probe::Send { to: 0, seq: 5 }), None);
    assert_eq!(net.request(N as NodeId, Probe::Log), None, "out of range");
    // A live handler's sends are ordinary traffic: to a live peer, to
    // the dead one, into an open window.
    net.set_inbound_drop(2, true);
    for to in [1, 2, 3] {
        send(&mut net, 0, to, 8);
    }
    net.settle(settle_for());
    let st = net.stats();
    assert_eq!(
        (
            st.messages,
            st.bytes,
            st.dropped_to_failed,
            st.dropped_in_window
        ),
        (1, 100, 1, 1)
    );
    assert_eq!(received(&mut net, 1), vec![(0, 8)]);
    assert_eq!(received(&mut net, 0), vec![]);
    // A revived id answers again, as the fresh automaton.
    assert!(net.revive(3, Recorder::default()));
    assert!(net.alive(3));
    assert_eq!(net.request(3, Probe::Log), Some(vec![]));
}

macro_rules! conformance {
    ($backend:ident, $mk:expr) => {
        mod $backend {
            use super::*;

            #[test]
            fn delivers_in_order_and_accounts_traffic() {
                law_delivery($mk);
            }

            #[test]
            fn preserves_per_pair_fifo() {
                law_per_pair_fifo($mk);
            }

            #[test]
            fn drop_windows_discard_account_and_spare_loopback() {
                law_drop_windows($mk);
            }

            #[test]
            fn dead_destinations_account_never_deliver() {
                law_dead_destination($mk);
            }

            #[test]
            fn requests_answer_alive_refuse_dead_and_send_like_traffic() {
                law_request($mk);
            }
        }
    };
}

conformance!(sim_backend, one_core());
conformance!(sharded_backend, two_cores());
conformance!(channel_backend, cluster());
