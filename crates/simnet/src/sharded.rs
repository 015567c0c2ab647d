//! Parallel conservative time-window execution of the [`Sim`](crate::Sim) engine.
//!
//! [`ShardedSim`] partitions nodes across `W` worker threads via a
//! [`ShardMap`]; each shard owns an `EngineCore` — its own event slab,
//! calendar queue, node slots, and traffic stats. Execution proceeds in
//! *windows* separated by a deterministic barrier:
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
//!   4. buffered sends are partitioned by destination shard → step 1
//! ```
//!
//! # Why this is bit-identical to the sequential engine
//!
//! *Window invariant.* Lookahead is the minimum link latency over
//! distinct pairs, so a message sent at `t ≥ T` is delivered no earlier
//! than `t + lookahead ≥ T + lookahead ≥ H`: nothing sent inside a
//! window can be heard inside that same window, on any shard. Events
//! within a window therefore depend only on state established before
//! the window — which the barrier made identical to the sequential
//! engine's — so each shard may run its slice independently.
//!
//! *Merge order.* Events are totally ordered by the content-derived key
//! `(at, origin, oseq)` ([`crate::engine`]), which does not mention the
//! shard map; and the flow-level bandwidth model routes all inter-node
//! sends in that same key order in both engines (the sequential engine
//! buffers and key-sorts sends too). Hence every node sees the same
//! dispatch sequence, draws from the same per-node RNG stream (seeded
//! from the run seed and NodeId only), and produces the same actions —
//! under any `W` and any shard map.
//!
//! *Stats.* [`NetStats`] counters are plain sums, so the merged
//! per-shard stats equal the sequential engine's.
//!
//! Progress requires `lookahead > 0` (otherwise a same-instant
//! cross-shard delivery could interleave with an already-executed
//! window and the bit-identity argument collapses); construction
//! asserts it. Both modeled topologies satisfy this: a full mesh by its
//! constant latency, transit-stub by the 2 ms intra-stub link.

use std::thread;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::app::{App, Ctx};
use crate::engine::{EngineCore, NetConfig, SendRec};
use crate::stats::NetStats;
use crate::time::{Dur, Time};
use crate::NodeId;

/// Assignment of node ids to shards.
#[derive(Debug, Clone)]
pub enum ShardMap {
    /// `id % shards` — the default; keeps shard loads balanced for the
    /// dense ids both engines assign and works for nodes added at any
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
    /// Route these sends (addressed to this shard's nodes), then report
    /// the earliest queued event time.
    Route(Vec<SendRec<M>>),
    /// Execute the window `[now, H)`, then hand back the outbound sends
    /// partitioned by destination shard into these (empty) buffers.
    Execute(Time, Vec<Vec<SendRec<M>>>),
    /// Run is over: return the core through the join handle.
    Exit,
}

enum Reply<M> {
    /// Earliest queued event, plus the routed batch's buffer, emptied.
    NextAt(Option<Time>, Vec<SendRec<M>>),
    Outbound(Vec<Vec<SendRec<M>>>),
}

/// The sharded discrete-event engine: same API surface and — by
/// construction — same results as [`Sim`], W-way parallel between
/// barriers.
///
/// [`Sim`]: crate::Sim
pub struct ShardedSim<A: App> {
    cores: Vec<EngineCore<A>>,
    map: ShardMap,
    lookahead: Dur,
    now: Time,
    node_count: usize,
}

impl<A: App> ShardedSim<A> {
    /// Engine over `map.shards()` worker shards. Panics if the
    /// topology's `min_latency` is zero (no conservative lookahead).
    pub fn new(cfg: NetConfig, map: ShardMap) -> Self {
        let lookahead = cfg.topology.min_latency();
        assert!(
            lookahead > Dur::ZERO,
            "sharded execution needs a positive minimum link latency"
        );
        let cores = (0..map.shards())
            .map(|_| EngineCore::new(cfg.clone()))
            .collect();
        ShardedSim {
            cores,
            map,
            lookahead,
            now: Time::ZERO,
            node_count: 0,
        }
    }

    /// Number of worker shards (`W`).
    pub fn shards(&self) -> usize {
        self.cores.len()
    }

    fn core_of(&self, id: NodeId) -> &EngineCore<A> {
        &self.cores[self.map.shard_of(id)]
    }

    fn core_of_mut(&mut self, id: NodeId) -> &mut EngineCore<A> {
        let s = self.map.shard_of(id);
        &mut self.cores[s]
    }

    /// Add a node and run its `on_start` handler at the current time.
    pub fn add_node(&mut self, app: A) -> NodeId {
        let id = self.node_count as NodeId;
        self.node_count += 1;
        self.core_of_mut(id).add_local(id, app);
        id
    }

    /// Abruptly fail a node (see [`Sim::fail_node`]).
    ///
    /// [`Sim::fail_node`]: crate::Sim::fail_node
    pub fn fail_node(&mut self, id: NodeId) {
        self.core_of_mut(id).fail(id);
    }

    pub fn alive(&self, id: NodeId) -> bool {
        self.core_of(id).alive(id)
    }

    /// Re-seat a previously failed node (see [`Sim::revive`]).
    ///
    /// [`Sim::revive`]: crate::Sim::revive
    pub fn revive(&mut self, id: NodeId, app: A) -> bool {
        self.core_of_mut(id).revive(id, app)
    }

    /// Open or close an inbound message-drop window on a node.
    pub fn set_inbound_drop(&mut self, id: NodeId, dropping: bool) {
        self.core_of_mut(id).set_inbound_drop(id, dropping);
    }

    pub fn node_count(&self) -> usize {
        self.node_count
    }

    pub fn alive_count(&self) -> usize {
        self.cores.iter().map(|c| c.alive_count()).sum()
    }

    pub fn now(&self) -> Time {
        self.now
    }

    /// Merged traffic statistics across all shards — field-for-field
    /// equal to what the sequential engine would report.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::new(self.node_count);
        for core in &self.cores {
            total.merge(core.stats());
        }
        total
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.cores.iter().map(|c| c.events_processed()).sum()
    }

    /// Read-only access to a live node's automaton.
    pub fn app(&self, id: NodeId) -> Option<&A> {
        self.core_of(id).app(id)
    }

    /// Inject an external call into a node, exactly as on [`Sim`].
    ///
    /// [`Sim`]: crate::Sim
    pub fn with_app<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut A, &mut Ctx<A::Msg>) -> R,
    ) -> Option<R> {
        self.core_of_mut(id).with_app(id, f)
    }

    /// Run until the clock reaches `deadline` (events at exactly
    /// `deadline` are processed) or every shard's queue drains.
    pub fn run_until(&mut self, deadline: Time) {
        let w = self.cores.len();
        // Sends injected since the last run (add_node / with_app /
        // revive on_start actions) sit in the cores' outbound buffers;
        // partition them by destination shard so the first Route phase
        // sees them — otherwise the gmin scan could miss pending work.
        let map = &self.map;
        let mut inbound: Vec<Vec<SendRec<A::Msg>>> = (0..w).map(|_| Vec::new()).collect();
        for core in &mut self.cores {
            for rec in core.drain_outbound() {
                inbound[map.shard_of(rec.to)].push(rec);
            }
        }
        // Per-worker destination buffers for the Execute phase.
        let mut parts_of: Vec<Vec<Vec<SendRec<A::Msg>>>> = (0..w)
            .map(|_| (0..w).map(|_| Vec::new()).collect())
            .collect();

        let cores = std::mem::take(&mut self.cores);
        let lookahead = self.lookahead;
        let exclusive = deadline.next();

        self.cores = thread::scope(|scope| {
            let mut cmd_txs: Vec<Sender<Cmd<A::Msg>>> = Vec::with_capacity(w);
            let mut reply_rxs: Vec<Receiver<Reply<A::Msg>>> = Vec::with_capacity(w);
            let mut handles = Vec::with_capacity(w);
            for mut core in cores {
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
                                for rec in core.drain_outbound() {
                                    parts[map.shard_of(rec.to)].push(rec);
                                }
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

        for core in &mut self.cores {
            core.raise_now(deadline);
        }
        self.now = deadline.max(self.now);
    }

    pub fn run_for(&mut self, d: Dur) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FullMesh;
    use crate::Wire;
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

    fn run_seq(n: u32, seed: u64) -> Fp {
        let mut sim = crate::Sim::new(cfg(seed));
        for _ in 0..n {
            sim.add_node(Gossip { n, log: vec![] });
        }
        sim.run_until(Time::from_secs_f64(8.0));
        let logs = (0..n).map(|i| sim.app(i).unwrap().log.clone()).collect();
        (logs, sim.events_processed(), sim.stats().clone())
    }

    fn run_sharded(n: u32, seed: u64, map: ShardMap) -> Fp {
        let mut sim = ShardedSim::new(cfg(seed), map);
        for _ in 0..n {
            sim.add_node(Gossip { n, log: vec![] });
        }
        sim.run_until(Time::from_secs_f64(8.0));
        let logs = (0..n).map(|i| sim.app(i).unwrap().log.clone()).collect();
        (logs, sim.events_processed(), sim.stats())
    }

    fn assert_same(a: &Fp, b: &Fp) {
        assert_eq!(a.0, b.0, "per-node logs diverge");
        assert_eq!(a.1, b.1, "event counts diverge");
        assert_eq!(a.2.messages, b.2.messages);
        assert_eq!(a.2.bytes, b.2.bytes);
        assert_eq!(a.2.inbound_bytes, b.2.inbound_bytes);
        assert_eq!(a.2.dropped_to_failed, b.2.dropped_to_failed);
        assert_eq!(a.2.dropped_in_window, b.2.dropped_in_window);
    }

    #[test]
    fn matches_sequential_at_every_width() {
        let seq = run_seq(24, 42);
        for w in [1, 2, 3, 4, 8] {
            let sharded = run_sharded(24, 42, ShardMap::round_robin(w));
            assert_same(&seq, &sharded);
        }
    }

    #[test]
    fn explicit_contiguous_ranges_match_too() {
        let seq = run_seq(24, 7);
        // Contiguous split: nodes 0..8 → shard 0, 8..16 → 1, 16..24 → 2.
        let assign = (0..24u32).map(|i| i / 8).collect();
        let sharded = run_sharded(24, 7, ShardMap::explicit(3, assign));
        assert_same(&seq, &sharded);
    }

    #[test]
    fn faults_between_runs_match_sequential() {
        let drive_seq = || {
            let mut sim = crate::Sim::new(cfg(5));
            for _ in 0..12 {
                sim.add_node(Gossip { n: 12, log: vec![] });
            }
            sim.run_until(Time::from_secs_f64(2.5));
            sim.fail_node(3);
            sim.set_inbound_drop(7, true);
            sim.run_until(Time::from_secs_f64(4.5));
            sim.revive(3, Gossip { n: 12, log: vec![] });
            sim.set_inbound_drop(7, false);
            sim.run_until(Time::from_secs_f64(8.0));
            let logs: Vec<_> = (0..12).map(|i| sim.app(i).unwrap().log.clone()).collect();
            (logs, sim.events_processed(), sim.stats().clone())
        };
        let drive_sharded = |w: usize| {
            let mut sim = ShardedSim::new(cfg(5), ShardMap::round_robin(w));
            for _ in 0..12 {
                sim.add_node(Gossip { n: 12, log: vec![] });
            }
            sim.run_until(Time::from_secs_f64(2.5));
            sim.fail_node(3);
            sim.set_inbound_drop(7, true);
            sim.run_until(Time::from_secs_f64(4.5));
            assert!(sim.revive(3, Gossip { n: 12, log: vec![] }));
            sim.set_inbound_drop(7, false);
            sim.run_until(Time::from_secs_f64(8.0));
            let logs: Vec<_> = (0..12).map(|i| sim.app(i).unwrap().log.clone()).collect();
            (logs, sim.events_processed(), sim.stats())
        };
        let seq = drive_seq();
        for w in [1, 2, 4] {
            assert_same(&seq, &drive_sharded(w));
        }
    }

    #[test]
    fn injection_between_runs_matches_sequential() {
        let mut seq = crate::Sim::new(cfg(9));
        let mut shd = ShardedSim::new(cfg(9), ShardMap::round_robin(4));
        for _ in 0..10 {
            seq.add_node(Gossip { n: 10, log: vec![] });
            shd.add_node(Gossip { n: 10, log: vec![] });
        }
        seq.run_for(Dur::from_secs(2));
        shd.run_for(Dur::from_secs(2));
        for sim_inject in [0u32, 9] {
            seq.with_app(sim_inject, |_, ctx| {
                ctx.send((sim_inject + 1) % 10, Note(100))
            });
            shd.with_app(sim_inject, |_, ctx| {
                ctx.send((sim_inject + 1) % 10, Note(100))
            });
        }
        seq.run_for(Dur::from_secs(2));
        shd.run_for(Dur::from_secs(2));
        assert_eq!(seq.events_processed(), shd.events_processed());
        assert_eq!(seq.now(), shd.now());
        for i in 0..10 {
            assert_eq!(seq.app(i).unwrap().log, shd.app(i).unwrap().log);
        }
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
