//! The windowed run loop: parallel conservative time-window execution
//! of a [`Sim`] that owns more than one core.
//!
//! A [`ShardMap`] partitions nodes across `W` cores — each with its own
//! event slab, calendar queue, node slots, and traffic stats — and
//! [`Sim::run_until`] hands a multi-core engine to `run_windowed`, which
//! runs one worker thread per core in *windows* separated by a
//! deterministic barrier:
//!
//! ```text
//! round:
//!   1. every shard routes the cross-shard sends addressed to it
//!      (sorted by the shard-invariant key (sent_at, origin, oseq))
//!      and reports the time of its earliest queued event
//!   2. the coordinator computes T = min over shards ("gmin");
//!      if no shard has an event ≤ deadline, the run is over
//!   3. every shard executes its events in [T, H) in parallel, where
//!      H = min(T + lookahead, deadline+1µs) and lookahead is
//!      Topology::min_latency(); inter-node sends are buffered
//!   4. buffered cross-shard sends are partitioned by destination
//!      shard (same-shard ones stay buffered as keys) → step 1
//! ```
//!
//! # Why this is bit-identical to the one-core loop
//!
//! *Window invariant.* Lookahead is the minimum link latency over
//! distinct pairs, so a message sent at `t ≥ T` is delivered no earlier
//! than `t + lookahead ≥ T + lookahead ≥ H`: nothing sent inside a
//! window can be heard inside that same window, on any shard. Events
//! within a window therefore depend only on state established before
//! the window — which the barrier made identical to the one-core
//! run's — so each shard may run its slice independently.
//!
//! *Merge order.* Events are totally ordered by the content-derived key
//! `(at, origin, oseq)` ([`crate::engine`]), which does not mention the
//! shard map; and the flow-level bandwidth model routes all inter-node
//! sends in that same key order in both loops (the inline loop buffers
//! and key-sorts sends too). Hence every node sees the same dispatch
//! sequence, draws from the same per-node RNG stream (seeded from the
//! run seed and NodeId only), and produces the same actions — under any
//! `W` and any shard map.
//!
//! *Stats.* [`NetStats`](crate::NetStats) counters are plain sums, so
//! the merged per-core stats equal the one-core run's.
//!
//! Progress requires `lookahead > 0` (otherwise a same-instant
//! cross-shard delivery could interleave with an already-executed
//! window and the bit-identity argument collapses); [`ShardedSim::new`]
//! asserts it. Both modeled topologies satisfy this: a full mesh by its
//! constant latency, transit-stub by the 2 ms intra-stub link.
//!
//! At `W = 1` there is nothing to partition: [`Sim::run_until`] sees one
//! core and runs it inline, so a one-shard engine *is* the sequential
//! engine — same code, not merely the same results.

use std::thread;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::app::App;
use crate::engine::{EngineCore, NetConfig, SendRec, Sim};
use crate::time::Time;
use crate::NodeId;

/// Assignment of node ids to shards.
#[derive(Debug, Clone)]
pub enum ShardMap {
    /// `id % shards` — the default; keeps shard loads balanced for the
    /// dense ids the engine assigns and works for nodes added at any
    /// time.
    RoundRobin { shards: usize },
    /// Explicit per-id assignment (e.g. contiguous ranges); ids at or
    /// past the table fall back to round-robin.
    Explicit { shards: usize, assign: Vec<u32> },
}

impl ShardMap {
    pub fn round_robin(shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        ShardMap::RoundRobin { shards }
    }

    /// Explicit table mapping node id → shard index.
    pub fn explicit(shards: usize, assign: Vec<u32>) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(
            assign.iter().all(|&s| (s as usize) < shards),
            "assignment out of range"
        );
        ShardMap::Explicit { shards, assign }
    }

    pub fn shards(&self) -> usize {
        match self {
            ShardMap::RoundRobin { shards } => *shards,
            ShardMap::Explicit { shards, .. } => *shards,
        }
    }

    pub fn shard_of(&self, id: NodeId) -> usize {
        match self {
            ShardMap::RoundRobin { shards } => id as usize % shards,
            ShardMap::Explicit { shards, assign } => match assign.get(id as usize) {
                Some(&s) => s as usize,
                None => id as usize % shards,
            },
        }
    }
}

/// Coordinator → worker commands for one barrier round. The send
/// buffers ping-pong between coordinator and worker — filled on one
/// side, drained on the other, handed back empty — so a window costs no
/// allocation once their capacity has settled.
enum Cmd<M> {
    /// Route these sends (addressed to this shard's nodes) together
    /// with the shard's own same-shard sends, then report the earliest
    /// queued event time.
    Route(Vec<SendRec<M>>),
    /// Execute the window `[now, H)`, then hand back the cross-shard
    /// sends partitioned by destination shard into these (empty)
    /// buffers.
    Execute(Time, Vec<Vec<SendRec<M>>>),
    /// Run is over: return the core through the join handle.
    Exit,
}

enum Reply<M> {
    /// Earliest queued event, plus the routed batch's buffer, emptied.
    NextAt(Option<Time>, Vec<SendRec<M>>),
    Outbound(Vec<Vec<SendRec<M>>>),
}

/// Constructor namespace for a [`Sim`] over `map.shards()` cores: there
/// is no sharded engine *type*, only this name, kept because the
/// read-only performance ledger spells construction `ShardedSim::new`.
pub struct ShardedSim<A>(std::marker::PhantomData<A>);

impl<A: App> ShardedSim<A> {
    /// Panics if the topology's `min_latency` is zero (no conservative
    /// lookahead).
    #[allow(clippy::new_ret_no_self)]
    pub fn new(cfg: NetConfig, map: ShardMap) -> Sim<A> {
        Sim::sharded(cfg, map)
    }
}

/// Run `cores` (more than one) until the clock reaches `deadline` or
/// every queue drains, one scoped worker thread per core.
pub(crate) fn run_windowed<A: App>(cores: &mut Vec<EngineCore<A>>, map: &ShardMap, deadline: Time) {
    let w = cores.len();
    // Sends injected since the last run (add_node / with_app /
    // revive on_start actions) sit in the cores' outbound buffers;
    // hand the cross-shard ones to their destination shard so the first
    // Route phase sees them — otherwise the gmin scan could miss pending
    // work. Same-shard sends stay buffered where they are.
    let mut inbound: Vec<Vec<SendRec<A::Msg>>> = (0..w).map(|_| Vec::new()).collect();
    for (s, core) in cores.iter_mut().enumerate() {
        core.drain_outbound(
            |to| map.shard_of(to) == s,
            |rec| inbound[map.shard_of(rec.to)].push(rec),
        );
    }
    // Per-worker destination buffers for the Execute phase.
    let mut parts_of: Vec<Vec<Vec<SendRec<A::Msg>>>> = (0..w)
        .map(|_| (0..w).map(|_| Vec::new()).collect())
        .collect();

    let lookahead = cores[0].lookahead();
    let exclusive = deadline.next();

    *cores = thread::scope(|scope| {
        let mut cmd_txs: Vec<Sender<Cmd<A::Msg>>> = Vec::with_capacity(w);
        let mut reply_rxs: Vec<Receiver<Reply<A::Msg>>> = Vec::with_capacity(w);
        let mut handles = Vec::with_capacity(w);
        for (s, mut core) in std::mem::take(cores).into_iter().enumerate() {
            let (cmd_tx, cmd_rx) = unbounded::<Cmd<A::Msg>>();
            let (reply_tx, reply_rx) = unbounded::<Reply<A::Msg>>();
            cmd_txs.push(cmd_tx);
            reply_rxs.push(reply_rx);
            handles.push(scope.spawn(move || {
                while let Ok(cmd) = cmd_rx.recv() {
                    match cmd {
                        Cmd::Route(mut batch) => {
                            core.route_batch(&mut batch);
                            let _ = reply_tx.send(Reply::NextAt(core.next_at(), batch));
                        }
                        Cmd::Execute(h, mut parts) => {
                            core.execute_window(h);
                            core.drain_outbound(
                                |to| map.shard_of(to) == s,
                                |rec| parts[map.shard_of(rec.to)].push(rec),
                            );
                            let _ = reply_tx.send(Reply::Outbound(parts));
                        }
                        Cmd::Exit => break,
                    }
                }
                core
            }));
        }

        loop {
            // Phase R: route the previous window's cross-shard
            // sends, collect each shard's earliest event time.
            for (s, tx) in cmd_txs.iter().enumerate() {
                let batch = std::mem::take(&mut inbound[s]);
                tx.send(Cmd::Route(batch)).expect("worker alive");
            }
            let mut gmin: Option<Time> = None;
            for (s, rx) in reply_rxs.iter().enumerate() {
                let Ok(Reply::NextAt(t, routed)) = rx.recv() else {
                    unreachable!("worker died mid-run");
                };
                inbound[s] = routed;
                gmin = match (gmin, t) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            // All sends are routed by now, so stopping here leaves
            // no buffered work — only events beyond the deadline.
            let Some(t) = gmin else { break };
            if t > deadline {
                break;
            }
            // Phase W: the conservative window. `t ≤ deadline` and
            // `lookahead > 0` guarantee `h > t`: progress.
            let h = exclusive.min(t + lookahead);
            for (s, tx) in cmd_txs.iter().enumerate() {
                let parts = std::mem::take(&mut parts_of[s]);
                tx.send(Cmd::Execute(h, parts)).expect("worker alive");
            }
            for (s, rx) in reply_rxs.iter().enumerate() {
                let Ok(Reply::Outbound(mut parts)) = rx.recv() else {
                    unreachable!("worker died mid-run");
                };
                for (d, part) in parts.iter_mut().enumerate() {
                    inbound[d].append(part);
                }
                parts_of[s] = parts;
            }
        }

        for tx in &cmd_txs {
            tx.send(Cmd::Exit).expect("worker alive");
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    for core in cores {
        core.raise_now(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Ctx;
    use crate::time::Dur;
    use crate::topology::FullMesh;
    use crate::{NetStats, Wire};
    use std::sync::Arc;

    /// Gossip automaton: every node pings a pseudo-random peer each
    /// second, replies echo, and everything is recorded — enough
    /// cross-shard chatter to exercise the barrier.
    #[derive(Clone, Debug)]
    struct Note(u64);
    impl Wire for Note {
        fn wire_size(&self) -> usize {
            64
        }
    }

    struct Gossip {
        n: u32,
        log: Vec<(Time, NodeId, u64)>,
    }
    impl App for Gossip {
        type Msg = Note;
        fn on_start(&mut self, ctx: &mut Ctx<Note>) {
            ctx.set_timer(Dur::from_secs(1), 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<Note>, from: NodeId, msg: Note) {
            self.log.push((ctx.now, from, msg.0));
            if msg.0.is_multiple_of(2) {
                ctx.send(from, Note(msg.0 + 1));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<Note>, token: u64) {
            use rand::Rng;
            let peer = ctx.rng.gen_range(0..self.n);
            ctx.send(peer, Note(token * 2));
            if token < 5 {
                ctx.set_timer(Dur::from_secs(1), token + 1);
            }
        }
    }

    fn cfg(seed: u64) -> NetConfig {
        NetConfig {
            topology: Arc::new(FullMesh {
                latency: Dur::from_millis(100),
            }),
            inbound_bps: Some(10e6),
            seed,
        }
    }

    type Fp = (Vec<Vec<(Time, NodeId, u64)>>, u64, NetStats);

    fn sharded(seed: u64, w: usize) -> Sim<Gossip> {
        ShardedSim::new(cfg(seed), ShardMap::round_robin(w))
    }

    fn populate(sim: &mut Sim<Gossip>, n: u32) {
        for _ in 0..n {
            sim.add_node(Gossip { n, log: vec![] });
        }
    }

    fn fingerprint(sim: &Sim<Gossip>) -> Fp {
        let logs = (0..sim.node_count() as NodeId)
            .map(|i| sim.app(i).unwrap().log.clone())
            .collect();
        (logs, sim.events_processed(), sim.stats())
    }

    fn run(mut sim: Sim<Gossip>, n: u32) -> Fp {
        populate(&mut sim, n);
        sim.run_until(Time::from_secs_f64(8.0));
        fingerprint(&sim)
    }

    #[test]
    fn matches_sequential_at_every_width() {
        let seq = run(Sim::new(cfg(42)), 24);
        for w in [1, 2, 3, 4, 8] {
            assert_eq!(seq, run(sharded(42, w), 24), "W={w}");
        }
    }

    #[test]
    fn explicit_contiguous_ranges_match_too() {
        // Contiguous split: nodes 0..8 → shard 0, 8..16 → 1, 16..24 → 2.
        let assign = (0..24u32).map(|i| i / 8).collect();
        let split = ShardedSim::new(cfg(7), ShardMap::explicit(3, assign));
        assert_eq!(run(Sim::new(cfg(7)), 24), run(split, 24));
    }

    #[test]
    fn faults_between_runs_match_sequential() {
        let drive = |mut sim: Sim<Gossip>| {
            populate(&mut sim, 12);
            sim.run_until(Time::from_secs_f64(2.5));
            sim.fail_node(3);
            sim.set_inbound_drop(7, true);
            sim.run_until(Time::from_secs_f64(4.5));
            assert!(sim.revive(3, Gossip { n: 12, log: vec![] }));
            sim.set_inbound_drop(7, false);
            sim.run_until(Time::from_secs_f64(8.0));
            fingerprint(&sim)
        };
        let seq = drive(Sim::new(cfg(5)));
        for w in [1, 2, 4] {
            assert_eq!(seq, drive(sharded(5, w)), "W={w}");
        }
    }

    #[test]
    fn injection_between_runs_matches_sequential() {
        let drive = |mut sim: Sim<Gossip>| {
            populate(&mut sim, 10);
            sim.run_for(Dur::from_secs(2));
            for from in [0u32, 9] {
                sim.with_app(from, |_, ctx| ctx.send((from + 1) % 10, Note(100)));
            }
            sim.run_for(Dur::from_secs(2));
            (fingerprint(&sim), sim.now())
        };
        assert_eq!(drive(Sim::new(cfg(9))), drive(sharded(9, 4)));
    }

    #[test]
    #[should_panic(expected = "positive minimum link latency")]
    fn zero_lookahead_is_rejected() {
        let cfg = NetConfig {
            topology: Arc::new(FullMesh { latency: Dur::ZERO }),
            inbound_bps: None,
            seed: 0,
        };
        let _ = ShardedSim::<Gossip>::new(cfg, ShardMap::round_robin(2));
    }

    #[test]
    fn shard_map_assignments() {
        let rr = ShardMap::round_robin(4);
        assert_eq!(rr.shards(), 4);
        assert_eq!(rr.shard_of(0), 0);
        assert_eq!(rr.shard_of(7), 3);
        let ex = ShardMap::explicit(2, vec![1, 1, 0]);
        assert_eq!(ex.shard_of(0), 1);
        assert_eq!(ex.shard_of(2), 0);
        assert_eq!(ex.shard_of(5), 1); // past the table: round-robin
    }
}
