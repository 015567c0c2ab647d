//! Wall-clock backend pin: what no other suite states about [`Cluster`]
//! and an implementation change could move without a test noticing.
//!
//! * a revived node draws the RNG stream a freshly spawned node draws at
//!   the same id and seed — and that stream is the simulator's;
//! * a timer that came due while its node was dead never fires on the
//!   heir, while one still in the future does (on both backends);
//! * the clock one node's consecutive handlers see never runs backwards
//!   and lies between the driver's own `Cluster::now()` readings;
//! * `cast` runs the handler and answers nobody;
//! * `shutdown` returns every automaton in id order — a killed, never
//!   revived node as the state it froze in, a revived one as its heir.
//!
//! `deployment_conformance.rs` holds the traffic laws; this file holds
//! the rest of the surface.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pier_simnet::time::{Dur, Time};
use pier_simnet::{App, Cluster, Ctx, Deployment, NetConfig, NodeId, Service, Sim, Wire};

const SEED: u64 = 0xC1A5;

#[derive(Clone, Debug)]
struct Poke;

impl Wire for Poke {
    fn wire_size(&self) -> usize {
        8
    }
}

/// Timer tokens above this re-arm themselves one lower, a millisecond
/// on: `Arm(_, CHAIN + k)` is a chain of `k + 1` firings.
const CHAIN: u64 = 1000;

/// One automaton for every pin: it logs what it is shown and does what
/// requests tell it to.
#[derive(Default)]
struct Probe {
    tag: u32,
    bumps: u32,
    fired: Vec<u64>,
    /// `ctx.now` of every handler invocation, in invocation order.
    nows: Vec<Time>,
}

enum Ask {
    /// Draw this many values from the node's RNG.
    Draw(usize),
    /// Arm a timer.
    Arm(Dur, u64),
    /// Send one message to a peer.
    Poke(NodeId),
    /// Count one.
    Bump,
    /// Just report.
    Read,
}

/// What every request answers: the draws it asked for (if any) and the
/// node's log so far.
struct Seen {
    draws: Vec<u64>,
    bumps: u32,
    fired: Vec<u64>,
    nows: Vec<Time>,
    now: Time,
}

impl App for Probe {
    type Msg = Poke;
    fn on_start(&mut self, ctx: &mut Ctx<Poke>) {
        self.nows.push(ctx.now);
    }
    fn on_message(&mut self, ctx: &mut Ctx<Poke>, _from: NodeId, _msg: Poke) {
        self.nows.push(ctx.now);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<Poke>, token: u64) {
        self.nows.push(ctx.now);
        self.fired.push(token);
        if token > CHAIN {
            ctx.set_timer(Dur::from_millis(1), token - 1);
        }
    }
}

impl Service for Probe {
    type Req = Ask;
    type Resp = Seen;
    fn on_request(&mut self, ctx: &mut Ctx<Poke>, req: Ask) -> Seen {
        self.nows.push(ctx.now);
        let mut draws = Vec::new();
        match req {
            Ask::Draw(n) => draws = (0..n).map(|_| ctx.rng.gen()).collect(),
            Ask::Arm(after, token) => ctx.set_timer(after, token),
            Ask::Poke(to) => ctx.send(to, Poke),
            Ask::Bump => self.bumps += 1,
            Ask::Read => {}
        }
        Seen {
            draws,
            bumps: self.bumps,
            fired: self.fired.clone(),
            nows: self.nows.clone(),
            now: ctx.now,
        }
    }
}

fn probes(n: u32) -> Vec<Probe> {
    (0..n)
        .map(|tag| Probe {
            tag,
            ..Probe::default()
        })
        .collect()
}

fn cluster(n: u32) -> Cluster<Probe> {
    Cluster::spawn(probes(n), SEED)
}

fn sim(n: u32) -> Sim<Probe> {
    let mut sim = Sim::new(NetConfig::latency_only(SEED));
    for probe in probes(n) {
        sim.add_node(probe);
    }
    sim
}

fn ask(net: &mut impl Deployment<Probe>, node: NodeId, req: Ask) -> Seen {
    net.request(node, req).expect("live node")
}

// ---------------------------------------------------------------------
// RNG streams
// ---------------------------------------------------------------------

/// The per-node stream both backends promise: seeded from the run seed
/// and the node id alone.
fn stream_of(id: NodeId) -> Vec<u64> {
    let mut rng =
        SmallRng::seed_from_u64(SEED.wrapping_add((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    (0..8).map(|_| rng.gen()).collect()
}

fn revived_draws_like_fresh(mut net: impl Deployment<Probe>) {
    for id in 0..3 {
        assert_eq!(ask(&mut net, id, Ask::Draw(8)).draws, stream_of(id));
    }
    // The stream moves on while the process lives …
    assert_ne!(ask(&mut net, 2, Ask::Draw(8)).draws, stream_of(2));
    // … and starts over for a replacement at the same id.
    net.kill(2);
    assert!(net.revive(2, Probe::default()));
    assert_eq!(ask(&mut net, 2, Ask::Draw(8)).draws, stream_of(2));
    // Its neighbours' streams are untouched by the revival.
    assert_ne!(ask(&mut net, 1, Ask::Draw(8)).draws, stream_of(1));
}

#[test]
fn a_revived_node_draws_the_stream_of_a_fresh_one_on_the_cluster() {
    revived_draws_like_fresh(cluster(3));
}

#[test]
fn a_revived_node_draws_the_stream_of_a_fresh_one_on_the_simulator() {
    revived_draws_like_fresh(sim(3));
}

// ---------------------------------------------------------------------
// Timers across a death
// ---------------------------------------------------------------------

fn timers_across_a_death(mut net: impl Deployment<Probe>) {
    ask(&mut net, 1, Ask::Arm(Dur::from_millis(40), 1));
    ask(&mut net, 1, Ask::Arm(Dur::from_millis(900), 2));
    net.kill(1);
    // Token 1 comes due on the corpse and dissolves there.
    net.settle(Dur::from_millis(150));
    assert!(net.revive(1, Probe::default()));
    net.settle(Dur::from_millis(1000));
    // Token 2 was still in the future at the revival: the address
    // keeps its alarm, whoever now lives there.
    assert_eq!(ask(&mut net, 1, Ask::Read).fired, vec![2]);
    // The bystander saw neither.
    assert_eq!(ask(&mut net, 0, Ask::Read).fired, Vec::<u64>::new());
}

#[test]
fn a_timer_due_while_dead_never_fires_on_the_heir_on_the_cluster() {
    timers_across_a_death(cluster(2));
}

#[test]
fn a_timer_due_while_dead_never_fires_on_the_heir_on_the_simulator() {
    timers_across_a_death(sim(2));
}

// ---------------------------------------------------------------------
// The clock handlers see
// ---------------------------------------------------------------------

#[test]
fn handler_clocks_never_run_backwards_and_sit_inside_the_drivers_bracket() {
    let mut cluster = cluster(2);
    // Fifty-one chained one-millisecond timers on node 0, under a
    // stream of requests to it and messages from its peer.
    ask(&mut cluster, 0, Ask::Arm(Dur::from_millis(1), CHAIN + 50));
    for _ in 0..100 {
        let before = cluster.now();
        let at = ask(&mut cluster, 0, Ask::Read).now;
        let after = cluster.now();
        assert!(
            before <= at && at <= after,
            "handler saw {at:?} outside the driver's [{before:?}, {after:?}]"
        );
        ask(&mut cluster, 1, Ask::Poke(0));
    }
    cluster.settle(Dur::from_millis(200));
    let seen = ask(&mut cluster, 0, Ask::Read);
    assert_eq!(seen.fired, (CHAIN..=CHAIN + 50).rev().collect::<Vec<_>>());
    // on_start + the arm + 100 reads + 100 pokes + 51 timers + this read.
    assert_eq!(seen.nows.len(), 254);
    assert!(
        seen.nows.windows(2).all(|w| w[0] <= w[1]),
        "one node's handlers saw the clock run backwards: {:?}",
        seen.nows
    );
    // Everything sent has been dispatched: the gauge is back to rest,
    // and an id that does not exist has no mailbox to be deep.
    assert_eq!(cluster.mailbox_depth(0), 0);
    assert_eq!(cluster.mailbox_depth(9), 0);
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// cast
// ---------------------------------------------------------------------

#[test]
fn cast_runs_the_handler_and_answers_nobody() {
    let cluster = cluster(2);
    let handle = cluster.handle(1).expect("node 1 exists");
    for _ in 0..3 {
        cluster.cast(1, Ask::Bump);
    }
    handle.cast(Ask::Bump);
    // Casts and requests share the node's mailbox, in order.
    assert_eq!(cluster.request(1, Ask::Read).expect("live").bumps, 4);
    // A cast at a corpse or at no node at all is nothing, quietly.
    cluster.kill(1);
    cluster.cast(1, Ask::Bump);
    handle.cast(Ask::Bump);
    cluster.cast(9, Ask::Bump);
    assert_eq!(cluster.request(0, Ask::Read).expect("live").bumps, 0);
    let apps = cluster.shutdown();
    assert_eq!(apps[1].bumps, 4, "a cast ran on a killed node");
}

// ---------------------------------------------------------------------
// shutdown
// ---------------------------------------------------------------------

#[test]
fn shutdown_returns_every_automaton_in_id_order_the_frozen_included() {
    let cluster = cluster(7);
    for _ in 0..2 {
        cluster.request(4, Ask::Bump).expect("live");
    }
    cluster.request(5, Ask::Bump).expect("live");
    // Node 4 dies and stays dead: its state freezes at the kill.
    cluster.kill(4);
    // Node 5 dies and is replaced: the heir is what comes back.
    cluster.kill(5);
    assert!(cluster.revive(
        5,
        Probe {
            tag: 55,
            ..Probe::default()
        }
    ));
    assert_eq!(cluster.node_count(), 7);
    let apps = cluster.shutdown();
    let tags: Vec<u32> = apps.iter().map(|a| a.tag).collect();
    assert_eq!(tags, vec![0, 1, 2, 3, 4, 55, 6]);
    assert_eq!(apps[4].bumps, 2, "the corpse keeps its last state");
    assert_eq!(apps[5].bumps, 0, "the heir starts from nothing");
    assert!(apps[4].fired.is_empty());
}
