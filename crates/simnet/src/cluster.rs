//! Wall-clock cluster engine, rebuilt on the actor runtime: the
//! deployment-shaped substitute for the paper's 64-PC cluster (§5.8).
//!
//! A [`Cluster`] spawns one free-running [`crate::actor`] per node over
//! in-process channels — real time, real scheduling jitter, no global
//! barrier, no lock-step of any kind. The same [`Service`] automata run
//! unchanged under the deterministic [`crate::Sim`], and one
//! [`crate::Deployment`] drives either.
//!
//! Interaction is exclusively through typed messages: benches and
//! tests hold [`NodeHandle`]s and exchange `Req`/`Resp` values with
//! the actors. Faults ([`Cluster::kill`], [`Cluster::revive`],
//! [`Cluster::set_inbound_drop`]) act on the links' per-node fault
//! state, mirroring `Sim`'s semantics exactly, so a seeded
//! [`crate::fault::FaultScript`] replays identically on both backends.
//!
//! Actor threads are joined on [`Cluster::shutdown`] *and* on `Drop`,
//! so a panicking test unwinds without leaking detached workers.

use std::mem;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::unbounded;

use crate::actor::{spawn_actor, Envelope, NodeHandle, Service};
use crate::stats::NetStats;
use crate::time::Time;
use crate::transport::Links;
use crate::NodeId;

/// A running set of node actors connected by in-process channels.
pub struct Cluster<A: Service + 'static>
where
    A::Msg: Send + 'static,
{
    links: Arc<Links<A>>,
    handles: Vec<NodeHandle<A>>,
    actors: Vec<JoinHandle<A>>,
    start: Instant,
    /// Actor threads still running, for the drop regression test.
    #[cfg(test)]
    live_actors: Arc<AtomicUsize>,
}

impl<A: Service + 'static> Cluster<A>
where
    A::Msg: Send + 'static,
{
    /// Spawn one actor per app. Node ids are assigned by vector index,
    /// so automata can be pre-wired with the ids of their peers.
    pub fn spawn(apps: Vec<A>, seed: u64) -> Self {
        let n = apps.len();
        let start = Instant::now();
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<Envelope<A>>();
            senders.push(tx);
            receivers.push(rx);
        }
        let links = Arc::new(Links::new(senders));
        let live_actors = Arc::new(AtomicUsize::new(0));
        let handles = (0..n as NodeId)
            .map(|i| {
                NodeHandle::new(
                    i,
                    links.sender(i).expect("sender for every id").clone(),
                    Arc::clone(&links),
                )
            })
            .collect();
        let actors = apps
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(i, (app, rx))| {
                spawn_actor(
                    app,
                    i as NodeId,
                    seed,
                    start,
                    rx,
                    Arc::clone(&links),
                    Arc::clone(&live_actors),
                )
            })
            .collect();
        Cluster {
            links,
            handles,
            actors,
            start,
            #[cfg(test)]
            live_actors,
        }
    }

    /// A cheap cloneable client handle for node `id` — the only way to
    /// interact with the actor. Handles stay valid across kill/revive
    /// and may outlive the cluster (requests then return `None`).
    pub fn handle(&self, id: NodeId) -> Option<NodeHandle<A>> {
        self.handles.get(id as usize).cloned()
    }

    /// Send a typed request to node `id` and wait for its response.
    /// `None` if the id is out of range or the node has been killed.
    pub fn request(&self, id: NodeId, req: A::Req) -> Option<A::Resp> {
        self.handles.get(id as usize)?.request(req)
    }

    /// Fire-and-forget typed request.
    pub fn cast(&self, id: NodeId, req: A::Req) {
        if let Some(h) = self.handles.get(id as usize) {
            h.cast(req);
        }
    }

    /// Abruptly kill one node — the cluster analogue of
    /// [`crate::Sim::fail_node`]. Death is immediate (any backlogged
    /// mailbox messages are never dispatched); peers observe silence,
    /// exactly the ungraceful §5.6 failure. The actor parks rather
    /// than exiting, so the id can later host a replacement via
    /// [`Self::revive`]; its frozen app is still collected at
    /// [`Self::shutdown`] if never revived.
    pub fn kill(&self, id: NodeId) {
        self.links.kill(id);
    }

    /// Re-seat a fresh automaton at a killed id — the cluster analogue
    /// of [`crate::Sim::revive`] and the executor of
    /// [`crate::fault::Fault::Join`]. The replacement gets a reseeded
    /// RNG (same derivation as at spawn) and runs `on_start` on the
    /// actor thread; timers that came due while the node was dead are
    /// discarded, while still-future ones survive, matching the
    /// simulator's handling of a dead node's queued timer events.
    /// Returns `false` if `id` is out of range or still alive.
    pub fn revive(&self, id: NodeId, app: A) -> bool {
        self.links.revive(id, app)
    }

    /// Has `id` not been killed? The cluster twin of [`crate::Sim::alive`].
    pub fn alive(&self, id: NodeId) -> bool {
        self.links.alive(id)
    }

    /// Open or close a message-drop window on a node's inbound side
    /// (checked on the link at send time; the node stays alive).
    pub fn set_inbound_drop(&self, id: NodeId, dropping: bool) {
        self.links.set_inbound_drop(id, dropping);
    }

    pub fn node_count(&self) -> usize {
        self.handles.len()
    }

    /// Snapshot of the links' traffic counters, in the same
    /// [`NetStats`] vocabulary as the simulator.
    pub fn stats(&self) -> NetStats {
        self.links.stats()
    }

    /// Network messages currently waiting in `id`'s actor mailbox — the
    /// backlog gauge a metrics snapshot reports per node. A healthy
    /// actor hovers near zero; a sustained rise means the node is
    /// dispatching slower than peers are sending.
    pub fn mailbox_depth(&self, id: NodeId) -> usize {
        self.links.mailbox_depth(id)
    }

    /// Wall-clock time since cluster start, in engine [`Time`] units.
    pub fn now(&self) -> Time {
        Time(self.start.elapsed().as_micros() as u64)
    }

    fn stop_all(&self) {
        for id in 0..self.handles.len() as NodeId {
            if let Some(tx) = self.links.sender(id) {
                let _ = tx.send(Envelope::Stop);
            }
        }
    }

    /// Stop every actor, join its thread, and return the automata for
    /// inspection.
    pub fn shutdown(mut self) -> Vec<A> {
        self.stop_all();
        mem::take(&mut self.actors)
            .into_iter()
            .map(|h| h.join().expect("actor thread panicked"))
            .collect()
    }
}

impl<A: Service + 'static> Drop for Cluster<A>
where
    A::Msg: Send + 'static,
{
    /// Dropping a cluster without [`Self::shutdown`] — including during
    /// a panic unwind — still stops and joins every actor thread, so no
    /// detached workers outlive the test that spawned them.
    fn drop(&mut self) {
        if self.actors.is_empty() {
            return;
        }
        self.stop_all();
        for h in self.actors.drain(..) {
            // Swallow actor panics here: we may already be unwinding.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{App, Ctx};
    use crate::time::Dur;
    use crate::{NodeId, Wire};
    use std::sync::atomic::AtomicBool;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    #[derive(Clone, Debug)]
    struct Byte(#[allow(dead_code)] u8);
    impl Wire for Byte {
        fn wire_size(&self) -> usize {
            64
        }
    }

    /// Each node forwards a token to the next node; the last returns it
    /// to node 0, which counts laps.
    struct Ring {
        n: u32,
        laps: u32,
        timer_fired: bool,
    }
    enum RingReq {
        Laps,
    }
    impl App for Ring {
        type Msg = Byte;
        fn on_start(&mut self, ctx: &mut Ctx<Byte>) {
            if ctx.me == 0 {
                ctx.send(1 % self.n, Byte(0));
            }
            ctx.set_timer(Dur::from_millis(5), 77);
        }
        fn on_message(&mut self, ctx: &mut Ctx<Byte>, _from: NodeId, msg: Byte) {
            if ctx.me == 0 {
                self.laps += 1;
                if self.laps < 3 {
                    ctx.send(1 % self.n, msg);
                }
            } else {
                ctx.send((ctx.me + 1) % self.n, msg);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<Byte>, token: u64) {
            if token == 77 {
                self.timer_fired = true;
            }
        }
    }
    impl Service for Ring {
        type Req = RingReq;
        type Resp = u32;
        fn on_request(&mut self, _ctx: &mut Ctx<Byte>, req: RingReq) -> u32 {
            match req {
                RingReq::Laps => self.laps,
            }
        }
    }

    /// Poll `done` until it holds (bounded: a wedged cluster fails the
    /// assertion that follows instead of hanging the suite).
    fn wait_until(mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn token_ring_completes_three_laps() {
        let n = 8u32;
        let apps = (0..n)
            .map(|_| Ring {
                n,
                laps: 0,
                timer_fired: false,
            })
            .collect();
        let cluster = Cluster::spawn(apps, 11);
        wait_until(|| cluster.request(0, RingReq::Laps).unwrap() >= 3);
        std::thread::sleep(Duration::from_millis(20)); // let timers fire
        let apps = cluster.shutdown();
        assert_eq!(apps[0].laps, 3);
        assert!(apps.iter().all(|a| a.timer_fired));
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let apps = (0..2)
            .map(|_| Ring {
                n: 2,
                laps: 0,
                timer_fired: false,
            })
            .collect();
        let cluster = Cluster::spawn(apps, 5);
        wait_until(|| cluster.request(0, RingReq::Laps).unwrap() >= 3);
        let stats = cluster.stats();
        assert!(stats.messages >= 6, "messages {}", stats.messages);
        assert_eq!(stats.bytes, stats.messages * 64);
        // Inbound accounting is per node, same as the simulator's.
        assert_eq!(stats.inbound_bytes.iter().sum::<u64>(), stats.bytes);
        cluster.shutdown();
    }

    /// Counts delivered messages; sends only when asked to.
    struct Count {
        seen: u32,
    }
    enum CountReq {
        /// Read the delivery counter.
        Seen,
        /// Send `n` messages to `to` from this node.
        Burst { to: NodeId, n: u32 },
        /// Raise `parked`, then block the actor thread for `ms`.
        Park { parked: Arc<AtomicBool>, ms: u64 },
    }
    impl App for Count {
        type Msg = Byte;
        fn on_start(&mut self, _ctx: &mut Ctx<Byte>) {}
        fn on_message(&mut self, _ctx: &mut Ctx<Byte>, _from: NodeId, _msg: Byte) {
            self.seen += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<Byte>, _token: u64) {}
    }
    impl Service for Count {
        type Req = CountReq;
        type Resp = u32;
        fn on_request(&mut self, ctx: &mut Ctx<Byte>, req: CountReq) -> u32 {
            match req {
                CountReq::Seen => self.seen,
                CountReq::Burst { to, n } => {
                    for _ in 0..n {
                        ctx.send(to, Byte(0));
                    }
                    0
                }
                CountReq::Park { parked, ms } => {
                    parked.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(ms));
                    0
                }
            }
        }
    }

    #[test]
    fn kill_is_abrupt_even_with_a_loaded_inbox() {
        // A "killed" node must process none of its backlog: the kill
        // flag is checked per dispatch, not queued behind the mailbox.
        let cluster = Cluster::spawn(vec![Count { seen: 0 }, Count { seen: 0 }], 7);
        let parked = Arc::new(AtomicBool::new(false));
        // Park the victim's actor so the backlog builds up behind a
        // dispatch in progress.
        cluster.cast(
            1,
            CountReq::Park {
                parked: Arc::clone(&parked),
                ms: 150,
            },
        );
        while !parked.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        cluster
            .request(0, CountReq::Burst { to: 1, n: 500 })
            .unwrap();
        // Let node 0's flush actually enqueue the sends, then kill.
        let deadline = Instant::now() + Duration::from_secs(2);
        while cluster.stats().messages < 500 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        cluster.kill(1);
        let apps = cluster.shutdown();
        assert_eq!(apps[1].seen, 0, "killed node drained its inbox");
    }

    /// Slow handler that tallies its dispatches where the test can see
    /// them after the automaton itself has been replaced. A request
    /// makes node 0 send `n` messages to node 1.
    struct Slow {
        dispatched: Arc<AtomicUsize>,
    }
    impl App for Slow {
        type Msg = Byte;
        fn on_start(&mut self, _ctx: &mut Ctx<Byte>) {}
        fn on_message(&mut self, _ctx: &mut Ctx<Byte>, _from: NodeId, _msg: Byte) {
            self.dispatched.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(2));
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<Byte>, _token: u64) {}
    }
    impl Service for Slow {
        type Req = u32;
        type Resp = ();
        fn on_request(&mut self, ctx: &mut Ctx<Byte>, n: u32) {
            for _ in 0..n {
                ctx.send(1, Byte(0));
            }
        }
    }

    #[test]
    fn kill_stays_abrupt_when_a_revive_races_it() {
        // kill + revive back to back, before the actor looks: the old
        // automaton must not go on draining its pre-kill backlog just
        // because the node reads "alive" again by the time it checks.
        let slow = || Slow {
            dispatched: Arc::new(AtomicUsize::new(0)),
        };
        let (old, heir) = (slow(), slow());
        let (old_tally, heir_tally) = (Arc::clone(&old.dispatched), Arc::clone(&heir.dispatched));
        let cluster = Cluster::spawn(vec![slow(), old], 19);
        cluster.request(0, 200).unwrap();
        // Node 1 needs 400 ms for the burst; wait until all of it is
        // enqueued and the first messages are being handled.
        wait_until(|| cluster.stats().messages >= 200 && old_tally.load(Ordering::SeqCst) > 0);
        cluster.kill(1);
        assert!(cluster.revive(1, heir));
        let at_kill = old_tally.load(Ordering::SeqCst);
        assert!(
            at_kill < 100,
            "the backlog must still be loaded at the kill"
        );
        assert!(cluster.mailbox_depth(1) > 0, "the gauge shows the backlog");
        // The heir answers once the dead process's backlog is discarded.
        cluster.request(1, 0).unwrap();
        assert_eq!(cluster.mailbox_depth(1), 0, "discards count as dequeues");
        cluster.shutdown();
        // At most the handler that was already running finishes.
        let after = old_tally.load(Ordering::SeqCst);
        assert!(
            after <= at_kill + 1,
            "old automaton dispatched {} messages after its kill",
            after - at_kill
        );
        // The backlog was addressed to the dead process, not its heir.
        assert_eq!(heir_tally.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn sends_to_killed_nodes_classify_as_dropped_to_failed() {
        // Traffic to dead nodes must land in `dropped_to_failed`, not
        // inflate the headline counters the simulator excludes.
        let cluster = Cluster::spawn(vec![Count { seen: 0 }, Count { seen: 0 }], 9);
        cluster.kill(1);
        assert!(!cluster.alive(1));
        cluster
            .request(0, CountReq::Burst { to: 1, n: 10 })
            .unwrap();
        // The sends flush on node 0's actor after the request returns.
        wait_until(|| cluster.stats().dropped_to_failed >= 10);
        let stats = cluster.stats();
        assert_eq!(stats.dropped_to_failed, 10);
        assert_eq!(stats.messages, 0);
        assert_eq!(stats.bytes, 0);
        cluster.shutdown();
    }

    #[test]
    fn revive_reseats_a_killed_node() {
        let cluster = Cluster::spawn(vec![Count { seen: 0 }, Count { seen: 99 }], 21);
        assert!(!cluster.revive(1, Count { seen: 0 }), "still alive");
        assert!(!cluster.revive(7, Count { seen: 0 }), "no such node");
        cluster.kill(1);
        assert!(!cluster.alive(1));
        // Traffic sent while dead is dropped, not queued for the heir.
        cluster.request(0, CountReq::Burst { to: 1, n: 5 }).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while cluster.stats().dropped_to_failed < 5 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(cluster.revive(1, Count { seen: 0 }));
        assert!(cluster.alive(1));
        // The heir is a fresh automaton (seen=0, not the old 99) and
        // receives traffic again.
        cluster.request(0, CountReq::Burst { to: 1, n: 1 }).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let seen = cluster.request(1, CountReq::Seen).unwrap();
            if seen >= 1 || Instant::now() > deadline {
                assert_eq!(seen, 1, "heir state wrong or message lost");
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        cluster.shutdown();
    }

    #[test]
    fn request_on_a_killed_node_returns_none() {
        let cluster = Cluster::spawn(vec![Count { seen: 0 }, Count { seen: 0 }], 13);
        cluster.kill(1);
        assert_eq!(cluster.request(1, CountReq::Seen), None);
        assert_eq!(cluster.request(0, CountReq::Seen), Some(0));
        assert_eq!(cluster.request(9, CountReq::Seen), None, "out of range");
        cluster.shutdown();
    }

    #[test]
    fn drop_joins_all_actor_threads() {
        // Regression: the pre-actor Cluster only joined threads in
        // `shutdown`, so a panicking test (which drops the cluster
        // during unwind) leaked detached workers into later tests.
        let cluster = Cluster::spawn(vec![Count { seen: 0 }, Count { seen: 0 }], 3);
        let census = Arc::clone(&cluster.live_actors);
        assert_eq!(census.load(Ordering::SeqCst), 2);
        // Even a parked-dead actor must be stopped and joined.
        cluster.kill(1);
        drop(cluster);
        assert_eq!(
            census.load(Ordering::SeqCst),
            0,
            "dropped Cluster must join every actor thread"
        );
    }

    #[test]
    fn handles_outlive_the_cluster_returning_none() {
        let cluster = Cluster::spawn(vec![Count { seen: 0 }], 17);
        let h = cluster.handle(0).unwrap();
        assert!(cluster.handle(4).is_none());
        assert_eq!(h.id(), 0);
        assert_eq!(h.clone().request(CountReq::Seen), Some(0));
        drop(cluster);
        assert_eq!(
            h.request(CountReq::Seen),
            None,
            "request after teardown must disconnect, not hang"
        );
    }
}
