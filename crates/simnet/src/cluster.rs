//! The wall-clock backend: the deployment-shaped substitute for the
//! paper's 64-PC cluster (§5.8), and the same engine as [`crate::Sim`]
//! under a second clock.
//!
//! A [`Cluster`] runs its nodes on a fixed pool of worker threads. Each
//! worker owns one `EngineCore` — the simulator's event core: node
//! slots, per-node RNG, timer queue, handler dispatch — for the nodes a
//! round-robin [`ShardMap`] assigns it, and paces it by the wall clock:
//! an event runs once real time has reached its instant, and between
//! events the worker blocks on its inbox. There is no barrier and no
//! lock-step; workers run free of each other, so real concurrency and
//! scheduling jitter — the reason this backend exists — are kept, and
//! bit-determinism is not promised here (see "One engine, two clocks"
//! in DESIGN.md).
//!
//! The network between workers is their inboxes. A link has no latency
//! and no bandwidth limit, so a send is classified against the
//! destination's fault state and counted the moment its sender's worker
//! hands it off, by the same two [`NetStats`] calls the simulator
//! makes, and then dispatched in inbox order. Drivers reach a node only
//! through typed `Req`/`Resp` values ([`NodeHandle`], or the same calls
//! on the [`Cluster`]), which travel through the same inbox.
//!
//! # The life epoch
//!
//! Each node has one monotone counter: even while a process is seated
//! at the id, odd while it is killed. A kill and a revive each advance
//! it by one; an automaton remembers the epoch it was seated in, and a
//! message the epoch it was addressed to. "Has this automaton been
//! killed?" is `epoch > seated`, checked before *every* dispatch — so
//! a kill from the driver's thread stops the very next handler on the
//! worker's, backlog undispatched, and stays true after a revive that
//! raced it. A plain alive/dead flag cannot tell those apart: the
//! revive would flip it back before the worker looked, and the old
//! automaton (or its heir) would go on draining the pre-kill backlog.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};

use crate::app::{App, Ctx, Service};
use crate::engine::{EngineCore, NetConfig, SendRec};
use crate::sharded::ShardMap;
use crate::stats::NetStats;
use crate::time::{Dur, Time};
use crate::topology::FullMesh;
use crate::NodeId;

/// Everything that can land in a worker's inbox.
enum Item<A: Service> {
    /// A network message, already classified and counted by its
    /// sender's worker, addressed to the process living in `epoch` at
    /// `rec.to`.
    Deliver { epoch: u64, rec: SendRec<A::Msg> },
    /// A typed request for node `to`; `reply` is `None` for a
    /// fire-and-forget cast. Dropping the reply sender unanswered (node
    /// dead, worker gone) disconnects the requester.
    Request {
        to: NodeId,
        req: A::Req,
        reply: Option<Sender<A::Resp>>,
    },
    /// Re-seat a fresh automaton at `id`.
    Revive { id: NodeId, seat: Seat<A> },
    /// Shut the worker down for good (cluster teardown).
    Stop,
}

/// One node's fault state and backlog gauge, shared between the driver
/// and the workers.
#[derive(Default)]
struct Life {
    /// Even = alive (module docs). `SeqCst` throughout: the epoch
    /// orders a kill against the dispatches it must stop.
    epoch: AtomicU64,
    dropping: AtomicBool,
    /// Network messages handed off to this node and not yet dispatched
    /// or discarded: counted up before the enqueue, down at the
    /// dequeue, so a reader never sees more than were sent.
    depth: AtomicUsize,
}

/// What the driver, its handles and the workers share.
struct Shared<A: Service> {
    map: ShardMap,
    /// One inbox per worker.
    inboxes: Vec<Sender<Item<A>>>,
    /// Traffic counters per worker, each covering the sends *that*
    /// worker handed off; [`Cluster::stats`] sums them like `Sim::stats`
    /// sums its cores'. Behind a mutex, not inside the worker, because a
    /// driver must be able to read them while a worker is busy in a
    /// handler.
    stats: Vec<Mutex<NetStats>>,
    lives: Vec<Life>,
    /// Held across a revive's post-then-flip, so that two revives of
    /// one id cannot both seat an heir.
    reviving: Mutex<()>,
    start: Instant,
}

impl<A: Service> Shared<A> {
    fn now(&self) -> Time {
        Time(self.start.elapsed().as_micros() as u64)
    }

    fn epoch(&self, id: NodeId) -> Option<u64> {
        let life = self.lives.get(id as usize)?;
        Some(life.epoch.load(Ordering::SeqCst))
    }

    fn alive(&self, id: NodeId) -> bool {
        self.epoch(id).is_some_and(|e| e.is_multiple_of(2))
    }

    /// Queue `item` for the worker that owns node `id`; `None` if that
    /// worker is gone.
    fn post(&self, id: NodeId, item: Item<A>) -> Option<()> {
        self.inboxes[self.map.shard_of(id)].send(item).ok()
    }
}

/// Cloneable client of one node: the only way anything outside the
/// owning worker reaches a running automaton.
///
/// Holding a handle does not keep the node alive; requests to a node
/// that has been killed (or whose cluster has shut down) return `None`.
pub struct NodeHandle<A: Service> {
    id: NodeId,
    shared: Arc<Shared<A>>,
}

impl<A: Service> Clone for NodeHandle<A> {
    fn clone(&self) -> Self {
        NodeHandle {
            id: self.id,
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<A: Service> NodeHandle<A> {
    /// The node this handle talks to.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Has the node not been killed?
    pub fn alive(&self) -> bool {
        self.shared.alive(self.id)
    }

    /// Send `req` and wait for the node's typed response. Returns
    /// `None` if the node has been killed — before the request was
    /// sent, or while it was still queued.
    pub fn request(&self, req: A::Req) -> Option<A::Resp> {
        if !self.alive() {
            return None;
        }
        let (to, (tx, rx)) = (self.id, bounded(1));
        let reply = Some(tx);
        self.shared.post(to, Item::Request { to, req, reply })?;
        // The worker answers or drops the reply sender — node dead at
        // dispatch, worker stopped with the request still queued —
        // which disconnects: a request never waits on a corpse.
        rx.recv().ok()
    }

    /// Fire-and-forget request: dispatched on the node's worker,
    /// response discarded.
    pub fn cast(&self, req: A::Req) {
        let (to, reply) = (self.id, None);
        let _ = self.shared.post(to, Item::Request { to, req, reply });
    }
}

/// An automaton and the life epoch it was seated in. This is what a
/// worker's core hosts: every handler the core dispatches — timers and
/// loopback sends included — passes the epoch check first, so death is
/// abrupt without the engine knowing about epochs. A dead seat keeps
/// its automaton, frozen at the kill instant, until a `Revive` replaces
/// it or the cluster shuts down and returns it.
struct Seat<A: Service> {
    app: A,
    epoch: u64,
    shared: Arc<Shared<A>>,
}

impl<A: Service> Seat<A> {
    /// Not killed since it was seated. `<`, not only `==`: a worker can
    /// reach a `Revive` before the driver has flipped the node alive,
    /// and the heir it seats then is already the living process.
    fn live(&self, me: NodeId) -> bool {
        self.shared.epoch(me).is_some_and(|e| e <= self.epoch)
    }
}

impl<A: Service> App for Seat<A> {
    type Msg = A::Msg;
    fn on_start(&mut self, ctx: &mut Ctx<A::Msg>) {
        if self.live(ctx.me) {
            self.app.on_start(ctx);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<A::Msg>, from: NodeId, msg: A::Msg) {
        if self.live(ctx.me) {
            self.app.on_message(ctx, from, msg);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<A::Msg>, token: u64) {
        if self.live(ctx.me) {
            self.app.on_timer(ctx, token);
        }
    }
}

/// Decrements the live-thread census when a worker thread exits — on
/// clean shutdown *and* on unwind, so leak checks see the truth.
struct CensusGuard(Arc<AtomicUsize>);

impl Drop for CensusGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One thread of the pool: an engine core for the nodes it owns, paced
/// by the wall clock.
struct Worker<A: Service> {
    index: usize,
    core: EngineCore<Seat<A>>,
    rx: Receiver<Item<A>>,
    shared: Arc<Shared<A>>,
}

impl<A: Service> Worker<A> {
    /// The pacing rule: run every queued event whose instant the wall
    /// clock has reached, each at its own instant, then bring the
    /// core's clock up to the wall's. What the handlers sent stays
    /// buffered for [`Self::hand_off`].
    fn advance(&mut self) {
        let now = self.shared.now();
        self.core.execute_window(now.next());
        self.core.raise_now(now);
    }

    /// Put the buffered sends on the wire: classify each against its
    /// destination's fault state, count it, and queue the survivors for
    /// the destination's worker, stamped with the life epoch they are
    /// addressed to. An id nobody lives at counts as a dead one, as it
    /// does on the simulator.
    fn hand_off(&mut self) {
        if !self.core.has_outbound() {
            return;
        }
        let shared = &*self.shared;
        let mut stats = shared.stats[self.index]
            .lock()
            .expect("no handler runs under the stats lock");
        // Every send crosses an inbox, this worker's own included.
        self.core.drain_outbound(
            |_| false,
            |rec| {
                let Some(life) = shared.lives.get(rec.to as usize) else {
                    stats.land(rec.to, &rec.msg, false);
                    return;
                };
                let epoch = life.epoch.load(Ordering::SeqCst);
                if stats.admit(life.dropping.load(Ordering::Relaxed))
                    && stats.land(rec.to, &rec.msg, epoch.is_multiple_of(2))
                {
                    life.depth.fetch_add(1, Ordering::Relaxed);
                    let _ = shared.post(rec.to, Item::Deliver { epoch, rec });
                }
            },
        );
    }

    /// The one loop: wait for the next inbox item or the next due event,
    /// whichever is first; catch the core up with the clock; handle the
    /// item as one handler of its node; hand off what was sent. Returns
    /// the automata, frozen ones included, when told to stop.
    fn run(mut self, seats: Vec<(NodeId, Seat<A>)>) -> Vec<(NodeId, A)> {
        for (id, seat) in seats {
            self.advance();
            self.core.add_local(id, seat);
        }
        self.hand_off();
        loop {
            // `Duration::MAX` is "no deadline": an idle core waits on
            // its inbox alone.
            let wait = self.core.next_at().map_or(Duration::MAX, |at| {
                let due = self.shared.start + Duration::from_micros(at.as_micros());
                due.saturating_duration_since(Instant::now())
            });
            let item = self.rx.recv_timeout(wait);
            // Before the item, not after: its handler sees the present
            // clock, and a timer that came due on a corpse dissolves
            // before a `Revive` could seat an heir under it.
            self.advance();
            match item {
                Ok(Item::Deliver { epoch, rec }) => {
                    let SendRec { from, to, msg, .. } = rec;
                    let depth = &self.shared.lives[to as usize].depth;
                    depth.fetch_sub(1, Ordering::Relaxed);
                    // Addressed to the process of `epoch`: neither a
                    // corpse nor its heir may dispatch it.
                    self.core.with_app(to, |seat, ctx| {
                        if seat.epoch == epoch {
                            seat.on_message(ctx, from, msg);
                        }
                    });
                }
                Ok(Item::Request { to, req, reply }) => {
                    let resp = self.core.with_app(to, |seat, ctx| {
                        seat.live(to).then(|| seat.app.on_request(ctx, req))
                    });
                    if let (Some(Some(resp)), Some(reply)) = (resp, reply) {
                        let _ = reply.send(resp);
                    }
                }
                Ok(Item::Revive { id, seat }) => {
                    self.core.fail(id);
                    self.core.revive(id, seat);
                }
                Ok(Item::Stop) | Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {}
            }
            self.hand_off();
        }
        // `fail` yields nothing for the ids other workers own.
        let ids = 0..self.shared.lives.len() as NodeId;
        ids.filter_map(|id| Some((id, self.core.fail(id)?.app)))
            .collect()
    }
}

/// A running set of nodes on a pool of wall-clock-paced workers.
pub struct Cluster<A: Service + 'static>
where
    A::Msg: Send + 'static,
{
    shared: Arc<Shared<A>>,
    workers: Vec<JoinHandle<Vec<(NodeId, A)>>>,
    /// Worker threads still running, for the drop regression test.
    #[cfg(test)]
    live_actors: Arc<AtomicUsize>,
}

impl<A: Service + 'static> Cluster<A>
where
    A::Msg: Send + 'static,
{
    /// Start the nodes. Ids are assigned by vector index, so automata
    /// can be pre-wired with the ids of their peers. The pool is as
    /// wide as the host has cores — but at least two, so that traffic
    /// crosses threads on any host, and no wider than the node count —
    /// and node `i` lives on worker `i % width`.
    pub fn spawn(apps: Vec<A>, seed: u64) -> Self {
        let n = apps.len();
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let width = cores.max(2).min(n.max(1));
        let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..width).map(|_| unbounded()).unzip();
        let shared = Arc::new(Shared {
            map: ShardMap::round_robin(width),
            inboxes,
            stats: (0..width).map(|_| Mutex::new(NetStats::new(n))).collect(),
            lives: (0..n).map(|_| Life::default()).collect(),
            reviving: Mutex::new(()),
            start: Instant::now(),
        });
        let mut seats: Vec<Vec<(NodeId, Seat<A>)>> = (0..width).map(|_| Vec::new()).collect();
        for (id, app) in (0..).zip(apps) {
            let (epoch, shared) = (0, Arc::clone(&shared));
            seats[shared.map.shard_of(id)].push((id, Seat { app, epoch, shared }));
        }
        // The links of this backend are the inboxes: no latency, no
        // bandwidth limit. Of the net config a core here reads only the
        // seed (per-node RNG streams, the simulator's derivation).
        let net = NetConfig {
            topology: Arc::new(FullMesh { latency: Dur::ZERO }),
            inbound_bps: None,
            seed,
        };
        let live_actors = Arc::new(AtomicUsize::new(0));
        let start = |(index, (rx, seats))| {
            let worker = Worker {
                index,
                core: EngineCore::new(net.clone()),
                rx,
                shared: Arc::clone(&shared),
            };
            // Counted here, on the caller's thread, so the census is
            // right the moment `spawn` returns.
            live_actors.fetch_add(1, Ordering::SeqCst);
            let guard = CensusGuard(Arc::clone(&live_actors));
            std::thread::Builder::new()
                .name(format!("pier-worker-{index}"))
                .spawn(move || {
                    let _guard = guard;
                    worker.run(seats)
                })
                .expect("spawn worker thread")
        };
        Cluster {
            workers: receivers
                .into_iter()
                .zip(seats)
                .enumerate()
                .map(start)
                .collect(),
            shared,
            #[cfg(test)]
            live_actors,
        }
    }

    /// A cheap cloneable client handle for node `id`. Handles stay
    /// valid across kill/revive and may outlive the cluster (requests
    /// then return `None`).
    pub fn handle(&self, id: NodeId) -> Option<NodeHandle<A>> {
        let shared = Arc::clone(&self.shared);
        ((id as usize) < self.node_count()).then_some(NodeHandle { id, shared })
    }

    /// Send a typed request to node `id` and wait for its response.
    /// `None` if the id is out of range or the node has been killed.
    pub fn request(&self, id: NodeId, req: A::Req) -> Option<A::Resp> {
        self.handle(id)?.request(req)
    }

    /// Fire-and-forget typed request.
    pub fn cast(&self, id: NodeId, req: A::Req) {
        if let Some(handle) = self.handle(id) {
            handle.cast(req);
        }
    }

    /// Abruptly kill one node — the cluster analogue of
    /// [`crate::Sim::fail_node`]. Death is immediate (nothing queued
    /// for the node is ever dispatched); peers observe silence, exactly
    /// the ungraceful §5.6 failure. The automaton stays where it is,
    /// frozen, so the id can later host a replacement via
    /// [`Self::revive`] and the corpse is still returned by
    /// [`Self::shutdown`] if never revived. No-op on a node that is
    /// already dead.
    pub fn kill(&self, id: NodeId) {
        if let Some(life) = self.shared.lives.get(id as usize) {
            let alive = |e: u64| e.is_multiple_of(2).then_some(e + 1);
            let _ = life
                .epoch
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, alive);
        }
    }

    /// Re-seat a fresh automaton at a killed id — the cluster analogue
    /// of [`crate::Sim::revive`] and the executor of
    /// [`crate::fault::Fault::Join`]. The replacement gets a reseeded
    /// RNG (same derivation as at spawn) and runs `on_start` on the
    /// node's worker; timers that came due while the node was dead are
    /// discarded, while still-future ones survive, matching the
    /// simulator's handling of a dead node's queued timer events.
    /// Returns `false` if `id` is out of range or still alive.
    pub fn revive(&self, id: NodeId, app: A) -> bool {
        // A kill leaves an odd epoch alone, so under this lock nothing
        // else moves a dead node's: the store below overwrites `dead`
        // and nothing newer.
        let _one_at_a_time = self.shared.reviving.lock().expect("revive does not panic");
        let Some(dead) = self.shared.epoch(id).filter(|e| !e.is_multiple_of(2)) else {
            return false;
        };
        // The seat names the epoch the newcomer lives in, so it is live
        // to the worker even if that gets there before the flip. The
        // flip comes right after the post, not before: peers address
        // the newcomer at once, and their traffic must queue behind
        // the `Revive` to be dispatched afterwards.
        let (epoch, shared) = (dead + 1, Arc::clone(&self.shared));
        let seat = Seat { app, epoch, shared };
        if self.shared.post(id, Item::Revive { id, seat }).is_none() {
            return false;
        }
        self.shared.lives[id as usize]
            .epoch
            .store(epoch, Ordering::SeqCst);
        true
    }

    /// Has `id` not been killed? The cluster twin of [`crate::Sim::alive`].
    pub fn alive(&self, id: NodeId) -> bool {
        self.shared.alive(id)
    }

    /// Open or close a message-drop window on a node's inbound side
    /// (checked when a send is handed off; the node stays alive).
    pub fn set_inbound_drop(&self, id: NodeId, dropping: bool) {
        if let Some(life) = self.shared.lives.get(id as usize) {
            life.dropping.store(dropping, Ordering::Relaxed);
        }
    }

    pub fn node_count(&self) -> usize {
        self.shared.lives.len()
    }

    /// Traffic counters, summed over the workers, in the same
    /// [`NetStats`] vocabulary as the simulator. Readable at any time:
    /// a worker busy in a handler does not delay it.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::new(self.node_count());
        for stats in &self.shared.stats {
            total.merge(&stats.lock().expect("no handler runs under the stats lock"));
        }
        total
    }

    /// Network messages handed off to `id` and still waiting for its
    /// worker — the backlog gauge a metrics snapshot reports per node.
    /// A healthy node hovers near zero; a sustained rise means it is
    /// dispatching slower than peers are sending.
    pub fn mailbox_depth(&self, id: NodeId) -> usize {
        let life = self.shared.lives.get(id as usize);
        life.map_or(0, |l| l.depth.load(Ordering::Relaxed))
    }

    /// Wall-clock time since cluster start, in engine [`Time`] units.
    pub fn now(&self) -> Time {
        self.shared.now()
    }

    /// Stop every worker and join its thread.
    fn join_all(&mut self) -> Vec<std::thread::Result<Vec<(NodeId, A)>>> {
        for inbox in &self.shared.inboxes {
            let _ = inbox.send(Item::Stop);
        }
        self.workers.drain(..).map(JoinHandle::join).collect()
    }

    /// Stop every worker, join its thread, and return the automata in
    /// id order for inspection.
    pub fn shutdown(mut self) -> Vec<A> {
        let joined = self.join_all().into_iter();
        let mut seats: Vec<(NodeId, A)> = joined
            .flat_map(|worker| worker.expect("worker thread panicked"))
            .collect();
        seats.sort_unstable_by_key(|(id, _)| *id);
        seats.into_iter().map(|(_, app)| app).collect()
    }
}

impl<A: Service + 'static> Drop for Cluster<A>
where
    A::Msg: Send + 'static,
{
    /// Dropping a cluster without [`Self::shutdown`] — including during
    /// a panic unwind — still stops and joins every worker thread, so no
    /// detached workers outlive the test that spawned them. Worker
    /// panics are swallowed here: we may already be unwinding.
    fn drop(&mut self) {
        self.join_all();
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

    /// Tallies its `on_start`s where the test can see them.
    struct Starter {
        tag: u32,
        started: Arc<AtomicUsize>,
    }
    impl App for Starter {
        type Msg = Byte;
        fn on_start(&mut self, _ctx: &mut Ctx<Byte>) {
            self.started.fetch_add(1, Ordering::SeqCst);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<Byte>, _from: NodeId, _msg: Byte) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<Byte>, _token: u64) {}
    }
    impl Service for Starter {
        type Req = ();
        type Resp = u32;
        fn on_request(&mut self, _ctx: &mut Ctx<Byte>, _req: ()) -> u32 {
            self.tag
        }
    }

    #[test]
    fn every_heir_starts() {
        // The worker may reach the `Revive` before the driver has
        // flipped the node alive; the heir must run `on_start` all the
        // same (a PIER node arms its maintenance timers there).
        let started = Arc::new(AtomicUsize::new(0));
        let starter = |tag| Starter {
            tag,
            started: Arc::clone(&started),
        };
        let cluster = Cluster::spawn(vec![starter(0), starter(0)], 37);
        // Both first processes have started once both have answered.
        assert_eq!(
            (cluster.request(0, ()), cluster.request(1, ())),
            (Some(0), Some(0))
        );
        for round in 1..=500 {
            cluster.kill(1);
            assert!(cluster.revive(1, starter(round)));
            // Queued behind the `Revive`: answered by the started heir.
            assert_eq!(cluster.request(1, ()), Some(round));
            assert_eq!(started.load(Ordering::SeqCst), 2 + round as usize);
        }
        cluster.shutdown();
    }

    #[test]
    fn racing_revives_seat_one_heir_the_winners() {
        let started = Arc::new(AtomicUsize::new(0));
        let starter = |tag| Starter {
            tag,
            started: Arc::clone(&started),
        };
        let cluster = Cluster::spawn(vec![starter(0), starter(0)], 41);
        // Both first processes have started once both have answered.
        assert_eq!(
            (cluster.request(0, ()), cluster.request(1, ())),
            (Some(0), Some(0))
        );
        for round in 1..=200 {
            cluster.kill(1);
            let (cluster, starter) = (&cluster, &starter);
            let won: Vec<bool> = std::thread::scope(|s| {
                let racers = [1, 2].map(|tag| s.spawn(move || cluster.revive(1, starter(tag))));
                racers.map(|r| r.join().unwrap()).into()
            });
            assert_eq!(won.iter().filter(|w| **w).count(), 1, "round {round}");
            let winner = if won[0] { 1 } else { 2 };
            assert_eq!(cluster.request(1, ()), Some(winner), "round {round}");
            assert_eq!(started.load(Ordering::SeqCst), 2 + round);
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

    #[test]
    fn mailbox_depth_never_reads_more_than_was_sent() {
        // The gauge counts up before the enqueue and down at the
        // dequeue. Counted after the enqueue, a fast consumer's
        // decrement can come first and the gauge wraps to usize::MAX.
        const SENT: u32 = 20_000;
        let cluster = Cluster::spawn(vec![Count { seen: 0 }, Count { seen: 0 }], 31);
        cluster.cast(0, CountReq::Burst { to: 1, n: SENT });
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            // Poll while the burst is being handed off and consumed.
            for _ in 0..1000 {
                let depth = cluster.mailbox_depth(1);
                assert!(depth <= SENT as usize, "gauge read {depth}, {SENT} sent");
            }
            if cluster.request(1, CountReq::Seen) == Some(SENT) || Instant::now() > deadline {
                break;
            }
        }
        assert_eq!(cluster.request(1, CountReq::Seen), Some(SENT));
        assert_eq!(cluster.mailbox_depth(1), 0);
        cluster.shutdown();
    }

    #[test]
    fn a_thousand_nodes_run_on_a_pool_no_wider_than_the_host() {
        const N: u32 = 1000;
        let count = || Count { seen: 0 };
        let cluster = Cluster::spawn((0..N).map(|_| count()).collect(), 23);
        let census = Arc::clone(&cluster.live_actors);
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let width = census.load(Ordering::SeqCst) as u32;
        assert_eq!(
            width as usize,
            cores.max(2),
            "the thread count is the pool's width, whatever the node count"
        );
        for id in 0..N {
            assert_eq!(cluster.request(id, CountReq::Seen), Some(0), "node {id}");
        }
        // Hold worker 0 inside a handler of node 0 and, while it is
        // busy, kill and replace node 0's worker-mate.
        let parked = Arc::new(AtomicBool::new(false));
        cluster.cast(
            0,
            CountReq::Park {
                parked: Arc::clone(&parked),
                ms: 50,
            },
        );
        while !parked.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        cluster.kill(width);
        assert!(cluster.revive(width, Count { seen: 7 }));
        // The other workers were never held up …
        assert_eq!(cluster.request(1, CountReq::Seen), Some(0));
        // … and worker 0's nodes answer once the handler returns: the
        // heir as itself, its mates untouched.
        assert_eq!(cluster.request(width, CountReq::Seen), Some(7));
        assert_eq!(cluster.request(2 * width, CountReq::Seen), Some(0));
        assert_eq!(cluster.request(0, CountReq::Seen), Some(0));
        drop(cluster);
        assert_eq!(census.load(Ordering::SeqCst), 0);

        // A token crosses every node, and with round-robin placement
        // every hop crosses workers.
        let ring = |_| Ring {
            n: N,
            laps: 0,
            timer_fired: false,
        };
        let cluster = Cluster::spawn((0..N).map(ring).collect(), 29);
        wait_until(|| cluster.request(0, RingReq::Laps).unwrap() >= 3);
        std::thread::sleep(Duration::from_millis(20)); // let timers fire
        let apps = cluster.shutdown();
        assert_eq!(apps.len(), N as usize);
        assert_eq!(apps[0].laps, 3);
        assert!(apps.iter().all(|a| a.timer_fired));
    }
}
